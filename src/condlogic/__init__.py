"""Toolkit for QA over logically interacting conditions.

Evaluates condition groups under three-valued logic, generates synthetic
entailment-reasoning datasets from an NLI bank, parses document contexts
into condition groups, and scores predictions with compound answer and
condition metrics.

``import condlogic`` loads no submodule: each exported name imports the
submodule that defines it on first use. Each CLI command likewise loads
only what it runs, so ``evaluate`` and ``parse-context`` never load the
dataset generator or ``hashlib``.
"""

__version__ = "0.1.0"

#: Each submodule and the public names it exports.
_EXPORTS = {
    "errors": ("BankError", "GenerationError", "InvariantError", "ParseError", "ToolkitError"),
    "logic": (
        "Condition", "ConditionGroup", "ConditionLabel", "EvidenceState", "FactRelation", "GroupStatus",
        "LogicalType", "TaskProfile", "Verdict", "derive_answer", "enumerate_assignments", "evaluate_group",
        "reference_evaluate", "resolve_state",
    ),
    "templates": (
        "Template", "TemplateGroup", "VarRef", "condition_ids", "parse_template_dsl", "render_template_dsl",
        "solve_template", "template_groups", "validate_template",
    ),
    "generate": (
        "Example", "GenConfig", "NliBank", "NliRecord", "config_hash", "generate_dataset", "generate_templates",
        "load_nli_bank",
    ),
    "contexts": (
        "HEADING_TAGS", "HtmlElement", "KNOWN_TAGS", "RESULT_SEPARATOR", "group_elements", "load_html_elements",
    ),
    "metrics": (
        "EvalReport", "GoldRecord", "Prediction", "answer_em_f1", "bleu", "condition_prf", "evaluate_files",
        "format_report", "normalize_text", "read_gold_file", "read_prediction_file", "score_example",
    ),
    "dataset_io": (
        "SplitManifest", "example_from_dict", "example_to_dict", "read_manifest", "read_split", "write_split",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    # PEP 562: called only for a name not yet in this module's globals. Any other name is
    # an AttributeError, which lets ``from condlogic import <submodule>`` import it.
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
