"""Tests of the benchmark itself: the independent checker, the sub-box
rule, the command end to end on short workloads, and the checks rejecting
corrupted results.

Run from the repository root:  python3 -m pytest proofbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checker
import n5part
import published
import workload

ROOT = Path(__file__).resolve().parents[2]
DATA = ROOT / "tests" / "data"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_command(name: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "proofbench/run.py", "--workload", name, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# the checker


def test_square_j_is_exact_and_has_four_axes():
    square = checker.polish(dict(published.listed(DATA, 4))["square"])
    assert abs(checker.scalars(square)[2] - published.SQUARE_J) < 1e-14
    assert len(checker.symmetry_axes(square)) == 4


def test_equilateral_triangle_is_a_zero():
    r = 1.0 / 3.0 ** 0.5
    tri = [(-r / 2, 0.5), (r, 0.0), (-r / 2, -0.5)]
    assert max(abs(v) for f in checker.residual(tri) for v in f) < 1e-15
    assert abs(checker.scalars(tri)[2] - 0.1924500897) < 1e-10


@pytest.mark.parametrize("n", (8, 9, 10))
def test_asymmetric_candidates_have_no_axis(n):
    for name, pts in published.listed(DATA, n):
        assert checker.symmetry_axes(checker.polish(pts)) == [], name


def test_same_configuration_up_to_motion_and_relabeling():
    pol = checker.polish(dict(published.listed(DATA, 5))["trapezium"])
    moved = [(-y + 0.3, x - 1.0) for x, y in reversed(pol)]  # rotate, shift, relabel
    assert checker.same_configuration(checker.polish(moved), pol)
    other = checker.polish(dict(published.listed(DATA, 5))["pentagon"])
    assert not checker.same_configuration(other, pol)


def test_gauge_valid_needs_disjoint_x_ranges():
    # n = 3: z = (x0, y0, x1) and the derived x2 = -(x0 + x1)
    assert checker.gauge_valid([-1.0, 0.0, 0.9], [-0.9, 0.1, 1.0])  # x2 in [-0.1, 0.1]
    assert not checker.gauge_valid([-1.0, 0.0, 0.4], [0.5, 0.1, 0.6])


# ---------------------------------------------------------------------------
# the n = 5 sub-boxes


@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_root_box_is_the_search_domain(n):
    from ccenum.search import SearchConfig, initial_domain

    lo, hi = initial_domain(SearchConfig(n=n)).arrays()
    assert n5part.root_box(n) == (lo.tolist(), hi.tolist())


def test_cut_is_the_search_bisection():
    from ccenum.search import bisect_with_overlap
    from ccenum.reduced import ReducedBox

    lo, hi = n5part.root_box()
    for bit in "0110100111":
        widths = np.array(hi) - np.array(lo)
        pair = bisect_with_overlap(
            ReducedBox.from_arrays(np.array(lo), np.array(hi)), int(np.argmax(widths)), n5part.OVERLAP
        )
        lo, hi = n5part.cut(lo, hi, bit)
        assert [a.tolist() for a in pair[int(bit)].arrays()] == [lo, hi]


def test_each_piece_holds_its_configuration_only():
    configs = n5part.listed_configurations(DATA)
    names = [name for name, _ in published.listed(DATA, 5)]
    for path, label in n5part.PIECES:
        lo, hi = n5part.box(path)
        inside = {
            names[k] for k, (_, pts) in enumerate(configs) for z in pts if checker.box_contains(lo, hi, z)
        }
        assert inside == {label.split(",")[0]}, (path, inside)


def test_sample_is_seeded_distinct_and_empty():
    occupied = n5part.occupied_paths(n5part.listed_configurations(DATA))
    a = n5part.sample_paths(3, occupied)
    assert a == n5part.sample_paths(3, occupied)
    assert a != n5part.sample_paths(4, occupied)
    assert len(set(a)) == n5part.SAMPLE_SIZE and not set(a) & occupied


# ---------------------------------------------------------------------------
# the command end to end


def test_command_prove_n3_prints_the_end_to_end_metrics():
    proc = run_command("prove-n3", 0)
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("name", ("prove-n3", "verify-n6-pair"))
def test_traced_command_prints_every_layer_metric(name):
    proc = run_command(name, 1)
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc.stdout)
    assert out["correct"] and out["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_command("prove-n4", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# ---------------------------------------------------------------------------
# the checks reject corrupted results


@pytest.fixture(scope="module")
def n3_round():
    inputs = workload.make_inputs("prove-n3", 1, DATA)
    st, _ = workload.setup(inputs, DATA)
    return st, inputs, workload.run_round(st, inputs)


def fresh(rnd, **out):
    """The same round with fresh ops and some outputs replaced."""
    ops = [workload.Op(op.label) for op in rnd.ops]
    return workload.Round(ops, rnd.wall, rnd.cpu, {**rnd.out, **out})


def test_clean_round_passes(n3_round):
    _, inputs, rnd = n3_round
    rnd = fresh(rnd)
    assert workload.check_search_round(rnd, inputs) == []
    assert not any(op.failed for op in rnd.ops)


def test_box_moved_off_its_zero_is_rejected(n3_round):
    st, inputs, rnd = n3_round
    sols, stats, undec = rnd.out["per_box"][0]
    lo, hi = sols[0].reduced.arrays()
    shift = 3 * float(np.max(hi - lo))
    moved = dataclasses.replace(
        sols[0], reduced=st["reduced"].ReducedBox.from_arrays(lo + shift, hi + shift)
    )
    rnd = fresh(rnd, per_box=[([moved] + sols[1:], stats, undec)])
    workload.check_search_round(rnd, inputs)
    assert rnd.ops[0].wrong
    assert "does not contain the zero" in rnd.ops[0].failed


def test_dropped_class_is_rejected(n3_round):
    _, inputs, rnd = n3_round
    rnd = fresh(rnd, records=rnd.out["records"][1:])
    problems = workload.check_search_round(rnd, inputs)
    assert any("classes" in p for p in problems)


def test_wrong_symmetry_verdict_is_rejected(n3_round):
    st, inputs, rnd = n3_round
    wrong = st["classify"].SymmetryResult(None, None, asymmetric=True)
    records = [dataclasses.replace(r, symmetry=wrong) for r in rnd.out["records"]]
    problems = workload.check_search_round(fresh(rnd, records=records), inputs)
    assert any("ProvedAsymmetric" in p for p in problems)


def test_wrong_asymmetry_verdict_is_rejected():
    inputs = workload.make_inputs("verify-n6-pair", 1, DATA)
    inputs["candidates"] = [(8, 0, "asym-1")]
    inputs["listed"] = {8: workload.polished_listed(DATA, 8)}
    st, _ = workload.setup(inputs, DATA)
    rnd = workload.run_round(st, inputs)
    res = rnd.out["results"][0]
    identity = tuple(range(8))
    res.symmetry = st["classify"].SymmetryResult(identity, None, asymmetric=False)
    workload.check_verify_round(rnd, st, inputs)
    assert rnd.ops[0].wrong and "expected ProvedAsymmetric" in rnd.ops[0].failed
