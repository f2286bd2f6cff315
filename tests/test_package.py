import ast
import types
from pathlib import Path

import condlogic


def test_every_exported_name_resolves():
    assert [name for name in condlogic.__all__ if not hasattr(condlogic, name)] == []
    assert len(condlogic.__all__) == len(set(condlogic.__all__))


def test_every_public_name_is_exported():
    public = {
        name
        for name, value in vars(condlogic).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(condlogic.__all__)) == []


def test_every_private_module_name_is_used():
    # A module-level private name that no code in the package reads (a helper a refactor
    # left behind) fails here instead of lingering.
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in Path(condlogic.__file__).parent.glob("*.py")]
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) or isinstance(node, ast.Attribute)
    }
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert private and sorted(private - read) == []
