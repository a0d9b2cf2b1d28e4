"""Dead-code tripwire: every top-level function and class of `src/ccenum`
is referenced (as a name or an attribute) from some other definition
there, and so is every method that is not a dunder, but as an attribute
(`.name`) only: a local variable of the same name keeps no method alive.
Strings and docstrings do not count, nor does module-level code such as
`if __name__ == ...`.  The few names allowed without a caller must
really have none.  Every attribute an `__init__` sets on `self` is read
as an attribute somewhere else in `src/ccenum`, and every parameter of a
function there is read by its body.  Outward rounding lives in `boxops`
and `interval` only: no other module calls `nextafter` or writes a unit
roundoff."""

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
    "interval.Interval.width": "enclosure widths in the tests",
    "report.load_solutions": "the only check of the bit-exact dump_solutions round trip",
    "interval.IntervalMatrix": "its methods are the scalar reference for boxops.bmat*",
    "krawczyk.midpoint_inverse": "single-matrix form checked by TestBatchedInverse; traced by proofbench",
}


def _refs(*nodes) -> tuple[set[str], set[str]]:
    """The bare names and the attribute names the nodes reference."""
    subs = [sub for node in nodes for sub in ast.walk(node)]
    return (
        {sub.id for sub in subs if isinstance(sub, ast.Name)},
        {sub.attr for sub in subs if isinstance(sub, ast.Attribute)},
    )


def _units():
    """(qualified name, bare name, (names, attributes) referenced by its own
    code) per definition; a class's own code leaves out its methods."""
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
        method = qual.count(".") == 2
        if not any(
            name in attrs or (name in names and not method)
            for other, _, (names, attrs) in units
            if other != qual
        ):
            dead.append(qual)
    # an allowed class covers its methods
    unused = sorted(q for q in dead if q not in ALLOWED and q.rsplit(".", 1)[0] not in ALLOWED)
    assert not unused, f"no caller in src/ccenum: {unused}"
    stale = sorted(set(ALLOWED) - {qual for qual, _, _ in units})
    assert not stale, f"allowed but not defined: {stale}"
    called = sorted(set(ALLOWED) - set(dead))
    assert not called, f"allowed but called in src/ccenum, drop from ALLOWED: {called}"


def test_every_init_attribute_is_read():
    reads = set()
    stored = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        inits = [
            (f"{path.stem}.{node.name}", m)
            for node in tree.body
            if isinstance(node, ast.ClassDef)
            for m in node.body
            if isinstance(m, ast.FunctionDef) and m.name == "__init__"
        ]
        in_init = {id(sub) for _, m in inits for sub in ast.walk(m)}
        reads |= {
            sub.attr
            for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, ast.Load)
            and id(sub) not in in_init
        }
        stored += [
            f"{cls}.{sub.attr}"
            for cls, m in inits
            for sub in ast.walk(m)
            if isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, ast.Store)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "self"
        ]
    unread = sorted(q for q in stored if q.rsplit(".", 1)[1] not in reads)
    assert not unread, f"set in __init__ but never read in src/ccenum: {unread}"


def test_every_parameter_is_read():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                continue
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            subs = [sub for stmt in body for sub in ast.walk(stmt)]
            # `x += ...` reads x, though its target is a store
            targets = [s.target for s in subs if isinstance(s, ast.AugAssign)]
            read = {
                s.id
                for s in subs
                if isinstance(s, ast.Name) and (isinstance(s.ctx, ast.Load) or s in targets)
            }
            name = getattr(fn, "name", "<lambda>")
            unread += [
                f"{path.stem}.{name}({p.arg})"
                for p in params
                if p.arg not in ("self", "cls") and p.arg not in read
            ]
    assert not unread, f"parameters never read: {unread}"


# the modules that round outward; every other module rounds through them
ROUNDING_MODULES = {"boxops", "interval"}
UNIT_ROUNDOFFS = {2.0**-52, 2.0**-53}


def _number(node):
    """The value of a literal number, possibly negated or raised to a
    literal power (`2.0**-52`), else None."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        v = _number(node.operand)
        return None if v is None else -v
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        base, exp = _number(node.left), _number(node.right)
        return None if base is None or exp is None else base**exp
    return None


def test_outward_rounding_only_in_boxops_and_interval():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem in ROUNDING_MODULES:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name == "nextafter":
                    found.append(f"{path.stem}:{node.lineno} nextafter")
            elif _number(node) in UNIT_ROUNDOFFS:
                found.append(f"{path.stem}:{node.lineno} unit roundoff")
    assert not found, f"hand rounding outside {sorted(ROUNDING_MODULES)}: {found}"
