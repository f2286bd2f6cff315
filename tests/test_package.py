import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import condlogic


def test_every_exported_name_resolves():
    assert [name for name in condlogic.__all__ if not hasattr(condlogic, name)] == []
    assert len(condlogic.__all__) == len(set(condlogic.__all__))


def test_every_public_name_is_exported():
    # Names resolve on first use, so resolve them all before reading the package's globals.
    exported = {name: getattr(condlogic, name) for name in condlogic.__all__}
    public = {
        name
        for name, value in vars(condlogic).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public | {"__version__"} == set(condlogic.__all__)
    for module, names in condlogic._EXPORTS.items():
        defining = importlib.import_module(f"condlogic.{module}")
        for name in names:
            assert exported[name] is getattr(defining, name), name
            if isinstance(exported[name], (type, types.FunctionType)):
                assert exported[name].__module__ == defining.__name__, name
    assert set(dir(condlogic)) >= set(condlogic.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        condlogic.no_such_name


_GENERATOR = {"condlogic.dataset_io", "condlogic.generate", "condlogic.templates"}


def _modules_loaded_by(tmp_path, code: str) -> set[str]:
    """The ``condlogic.*`` submodules a fresh interpreter holds after running ``code``."""
    probe = f"{code}\nimport sys\nprint()\nprint(*sorted(m for m in sys.modules if m.startswith('condlogic.')))"
    env = {**os.environ, "PYTHONPATH": str(Path(condlogic.__file__).resolve().parent.parent)}
    result = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp_path, capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())


def test_import_loads_no_submodule(tmp_path):
    assert _modules_loaded_by(tmp_path, "import condlogic") == set()
    loaded = _modules_loaded_by(tmp_path, "import condlogic.cli")
    assert "condlogic.metrics" in loaded and loaded.isdisjoint(_GENERATOR)


@pytest.mark.parametrize(
    "command, unloaded",
    [
        (["evaluate", "--pred", "labels.jsonl", "--gold", "labels.jsonl", "--profile", "sharc"], _GENERATOR),
        (["parse-context", "--in", "page.jsonl", "--out", "groups.jsonl"], _GENERATOR),
        (["solve", "--assignments", "any:2"], _GENERATOR - {"condlogic.templates"}),
    ],
    ids=["evaluate", "parse-context", "solve"],
)
def test_a_command_loads_only_what_it_runs(tmp_path, command, unloaded):
    (tmp_path / "labels.jsonl").write_text(json.dumps({"id": "0", "label": "yes"}) + "\n", encoding="utf-8")
    (tmp_path / "page.jsonl").write_text(json.dumps({"tag": "li", "text": "you live there"}) + "\n", encoding="utf-8")
    loaded = _modules_loaded_by(tmp_path, f"import condlogic.cli\nassert condlogic.cli.main({command!r}) == 0")
    assert loaded.isdisjoint(unloaded), sorted(loaded & unloaded)


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


def test_no_module_imports_a_private_constant():
    # A private constant (an _UPPER_CASE name) is one module's detail: a module that needs its
    # value asks the code that owns it, so the constant can change without a second module knowing.
    imported = sorted(
        f"{path.stem} imports {alias.name}"
        for path in Path(condlogic.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if re.fullmatch(r"_[A-Z][A-Z0-9_]*", alias.name)
    )
    assert imported == []


def test_every_module_level_cache_is_bounded():
    # The streaming commands keep their memory flat only while every cache has a bound.
    caches = {}
    for info in pkgutil.iter_modules(condlogic.__path__):
        module = importlib.import_module(f"condlogic.{info.name}")
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_parameters", None)) and value.__module__ == module.__name__:
                caches[f"{info.name}.{name}"] = value.cache_parameters()["maxsize"]
    assert {"generate.generate_templates", "templates._ref", "templates._condition"} <= set(caches)
    assert {name: size for name, size in caches.items() if size is None} == {}
