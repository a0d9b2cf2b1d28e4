"""The benchmark harness in `proofbench/` traces `ccenum` by wrapping its
functions by name, so a rename in `src/ccenum` breaks the benchmark without
failing any test of the package.  These checks keep every traced name
resolvable.  `proofbench/spans.py` is read with `ast`, not imported, so the
check needs nothing of the harness."""

import ast
import importlib
from pathlib import Path

from test_no_dead_code import ALLOWED

SPANS = Path(__file__).resolve().parents[1] / "proofbench" / "spans.py"


def _spans_tree():
    return ast.parse(SPANS.read_text())


def _wrapped():
    """(module, function) of every entry of `WRAPPED`."""
    for node in _spans_tree().body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return [(mod, fn) for mod, fn, _ in ast.literal_eval(node.value)]
    raise AssertionError("proofbench/spans.py defines no WRAPPED")


def _set_by_name():
    """(module, function) of every `setattr(module, "function", ...)` with a
    literal name, such as the pool task of a parallel search."""
    return [
        (node.args[0].id, node.args[1].value)
        for node in ast.walk(_spans_tree())
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "setattr"
        and isinstance(node.args[0], ast.Name)
        and isinstance(node.args[1], ast.Constant)
    ]


def test_every_traced_function_resolves():
    by_name = _set_by_name()
    assert ("search", "_subtree_task") in by_name
    missing = [
        f"{mod}.{fn}"
        for mod, fn in _wrapped() + by_name
        if not callable(getattr(importlib.import_module(f"ccenum.{mod}"), fn, None))
    ]
    assert not missing, f"traced by proofbench but not in ccenum: {missing}"


def test_traced_allowances_name_a_traced_function():
    wrapped = {f"{mod}.{fn}" for mod, fn in _wrapped()}
    traced = [q for q, why in ALLOWED.items() if "traced by proofbench" in why]
    stale = sorted(q for q in traced if q not in wrapped)
    assert not stale, f"ALLOWED says traced by proofbench, but WRAPPED does not name: {stale}"
