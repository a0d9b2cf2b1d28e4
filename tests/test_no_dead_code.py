"""Dead-code tripwire: every top-level function and class of `src/ccenum`,
and every method that is not a dunder, is referenced (as a name or an
attribute) from some other definition there.  Strings and docstrings do
not count, nor does module-level code such as `if __name__ == ...`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ccenum"

# module.qualname -> why it stays without a caller in src/ccenum
ALLOWED = {
    "cli.main": "the console entry point",
    "exclusion.cluster_test_excluded_single": "per-box reference of TestClusterBatch; traced by proofbench",
    "kernels.bound_kernel_batch": "per-kernel reference of TestPairKernelsMatchPerKernel; traced by proofbench",
    "search.bisect_with_overlap": "the box-level split that proofbench's cut test checks",
    "interval.Interval.inflate": "widens enclosures in the acceptance checks",
    "interval.Interval.contains": "point containment in the acceptance checks",
    "report.load_solutions": "the only check of the bit-exact dump_solutions round trip",
    "interval.IntervalMatrix": "its methods are the scalar reference for boxops.imatvec_*",
}


def _refs(*nodes) -> set[str]:
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for node in nodes
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def _units():
    """(qualified name, bare name, names referenced by its own code) per
    definition; a class's own code leaves out its methods."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            qual = f"{path.stem}.{getattr(node, 'name', '')}"
            if isinstance(node, ast.FunctionDef):
                out.append((qual, node.name, _refs(node)))
            elif isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
                rest = [s for s in node.body if s not in methods]
                out.append((qual, node.name, _refs(*node.decorator_list, *node.bases, *rest)))
                out += [(f"{qual}.{m.name}", m.name, _refs(m)) for m in methods]
    return out


def test_every_definition_has_a_caller():
    units = _units()
    dead = []
    for qual, name, _ in units:
        if name.startswith("__") and name.endswith("__"):
            continue
        if not any(name in refs for other, _, refs in units if other != qual):
            dead.append(qual)
    # an allowed class covers its methods
    unused = sorted(q for q in dead if q not in ALLOWED and q.rsplit(".", 1)[0] not in ALLOWED)
    assert not unused, f"no caller in src/ccenum: {unused}"
    stale = sorted(set(ALLOWED) - {qual for qual, _, _ in units})
    assert not stale, f"allowed but not defined: {stale}"
