"""The kernel names that the benchmark's tracer wraps still exist.

`perfbench/tracer.py` wraps the functions its LAYERS table names and
reads the rule groups its STEP_CLASSES table names from `rewrite`.  A
refactor that removes or renames one of them would break a traced run
(`perfbench/run.py --trace`) and nothing else.  This test reads the two
tables from the file's syntax tree, without importing the file, and
looks each name up in the kernel.
"""

import ast
import importlib
from pathlib import Path

from mu2forge import rewrite

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _table(name: str):
    """The literal value assigned to name at the tracer's top level."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER.name} assigns no {name}")


def test_every_wrapped_function_resolves():
    layers = _table("LAYERS")
    assert layers
    missing = [
        f"{module}.{function}"
        for pairs in layers.values()
        for module, function in pairs
        if not callable(getattr(importlib.import_module(f"mu2forge.{module}"), function, None))
    ]
    assert not missing


def test_every_step_class_names_a_rule_group():
    classes = _table("STEP_CLASSES")
    assert classes
    missing = [group for _, group in classes if not isinstance(getattr(rewrite, group, None), tuple)]
    assert not missing
