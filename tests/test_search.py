"""Search driver: domain construction, overlap bisection, determinism,
parallel equivalence, and counter bookkeeping."""

import numpy as np
import pytest

from ccenum import bounds, exclusion, krawczyk, reduced, search as search_mod
from ccenum.interval import Interval
from ccenum.model import Masses
from ccenum.reduced import ReducedBox
from ccenum.search import SearchConfig, SearchStats, bisect_with_overlap, initial_domain, search


class TestConfig:
    def test_defaults(self):
        cfg = SearchConfig(n=4)
        assert cfg.eps == 1e-5 and cfg.bias == 1e-2 and cfg.ordering == "decreasing"

    def test_invariants(self):
        with pytest.raises(ValueError):
            SearchConfig(n=2)
        with pytest.raises(ValueError):
            SearchConfig(n=4, eps=0.0)
        with pytest.raises(ValueError):
            SearchConfig(n=4, overlap=0.5)
        with pytest.raises(ValueError):
            SearchConfig(n=4, bias=1e-6)  # bias must exceed eps
        with pytest.raises(ValueError):
            SearchConfig(n=4, overlap=0.0)  # the proof needs interior coverage


class TestInitialDomain:
    def test_n3_shape(self):
        lo, hi = initial_domain(SearchConfig(n=3)).arrays()
        pad = 1e-3 * 2
        assert abs(lo[0] + 2 + pad) < 1e-12 and abs(hi[0] - pad) < 1e-12
        assert abs(lo[1] + pad) < 1e-12 and abs(hi[1] - 2 - pad) < 1e-12
        assert abs(lo[2] - (0.5 - pad)) < 1e-12 and abs(hi[2] - 2 - pad) < 1e-12

    def test_n4_pinned_coordinate(self):
        lo, hi = initial_domain(SearchConfig(n=4)).arrays()
        assert abs(lo[-1] - (0.5 - 3e-3)) < 1e-12
        assert abs(hi[-1] - (3 + 3e-3)) < 1e-12
        assert len(lo) == 5
        # y1 <= 0 as well as x0 <= 0 <= y0
        assert hi[0] == hi[3] == 3e-3 and lo[1] == -3e-3

    def test_n2_rejected(self):
        with pytest.raises(ValueError):
            initial_domain(SearchConfig(n=2))


class TestBisect:
    def test_overlap_margin(self):
        box = ReducedBox.from_arrays(np.zeros(3), np.ones(3))
        left, right = bisect_with_overlap(box, 0, 0.001)
        assert [a.tolist() for a in left.arrays()] == [[0.0, 0.0, 0.0], [0.501, 1.0, 1.0]]
        assert [a.tolist() for a in right.arrays()] == [[0.499, 0.0, 0.0], [1.0, 1.0, 1.0]]

    def test_zero_overlap_policy(self):
        box = ReducedBox.from_arrays(np.zeros(3), np.ones(3))
        with pytest.raises(ValueError):
            bisect_with_overlap(box, 0, 0.0)
        (_, lhi), (rlo, _) = search_mod.split(*box.arrays(), 0, 0.0)
        assert lhi[0] == rlo[0] == 0.5

    def test_zero_width_rejected(self):
        box = ReducedBox.from_arrays(np.zeros(3), np.array([0.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            bisect_with_overlap(box, 0, 0.001)


class TestSearchRuns:
    def test_n3_counts(self, run_n3):
        assert run_n3.stats.undecided == 0
        assert len(run_n3.records) == 2
        assert all(s.gauge_valid for s in run_n3.solutions)

    def test_counters_reconcile(self, run_n3):
        """Every leaf is excluded, certified or undecided; the tree is binary."""
        s = run_n3.stats
        leaves = sum(s.usage.get(k, 0) for k in s.usage if k != "krawczyk.methodFailed")
        leaves += s.undecided
        assert s.calls == 2 * leaves - 1

    def test_determinism(self, run_n3):
        cfg = SearchConfig(n=3)
        m = Masses.equal(3)
        sols, stats, undec = search(initial_domain(cfg), cfg, m)
        assert stats.calls == run_n3.stats.calls
        assert stats.usage == run_n3.stats.usage
        assert len(sols) == len(run_n3.solutions)
        for a, b in zip(sols, run_n3.solutions):
            assert np.array_equal(a.reduced.arrays()[0], b.reduced.arrays()[0])

    def test_budget_hands_back_the_stack(self, run_n3, monkeypatch):
        """Feeding each returned stack back in continues the serial tree, also
        when Krawczyk boxes are still in flight at the budget."""
        events = []  # one per battery chunk and per Krawczyk step, in order
        battery = exclusion.run_battery_batch

        def record_battery(*args):
            events.append("battery")
            return battery(*args)

        class Recording(krawczyk.Iteration):
            def step(self, limit):
                events.append("step")
                return super().step(limit)

        monkeypatch.setattr(exclusion, "run_battery_batch", record_battery)
        monkeypatch.setattr(krawczyk, "Iteration", Recording)
        cfg = SearchConfig(n=3)
        m = Masses.equal(3)
        rctx, bset = reduced.reduced_ctx(m), bounds.compute_bounds(3, m)
        stack = [initial_domain(cfg).arrays()]
        total, sols, rounds, drained = SearchStats(), [], 0, 0
        while stack:
            events.clear()
            part, stats, _, stack = search_mod._search_loop(rctx, bset, cfg, m, stack, budget=16)
            total.merge(stats)
            sols += part
            rounds += 1
            # a step after the one in the turn of the last chunk works on boxes
            # that were in flight when the budget stopped taking chunks
            last = len(events) - 1 - events[::-1].index("battery")
            drained += bool(stack) and len(events) - last - 1 >= 2
        assert rounds > 1 and drained > 0
        assert total == run_n3.stats
        assert _keyset(sols) == _keyset(run_n3.solutions)

    def test_parallel_same_solution_set(self, run_n3, monkeypatch):
        """Small task budgets force repeated splits; the tree, the counters
        and the output order do not depend on them or on timing."""
        monkeypatch.setattr(search_mod, "TASK_BOXES", 16)
        cfg = SearchConfig(n=3, threads=2)
        m = Masses.equal(3)
        runs = [search(initial_domain(cfg), cfg, m) for _ in range(2)]
        for sols, stats, undec in runs:
            assert not undec and stats.undecided == 0
            assert stats == run_n3.stats
            assert _keyset(sols) == _keyset(run_n3.solutions)
        (a, _, _), (b, _, _) = runs
        assert len(a) == len(b)
        for x, y in zip(a, b):
            for u, v in zip(x.reduced.arrays(), y.reduced.arrays()):
                assert np.array_equal(u, v)

    def test_parallel_report_matches_serial(self, run_n4, monkeypatch):
        """Solutions come back sorted by box, so the two-worker n = 4 report
        (classes, representatives and counters) is the serial one."""
        from ccenum.classify import classify_solutions
        from ccenum.report import render_search_report

        monkeypatch.setattr(search_mod, "TASK_BOXES", 512)
        cfg = SearchConfig(n=4, threads=2)
        sols, stats, undec = search(run_n4.domain, cfg, run_n4.masses)
        assert not undec and stats == run_n4.stats
        reports = [
            render_search_report(c, run_n4.masses, run_n4.domain, st, recs, minutes=0.0)
            for c, st, recs in (
                (run_n4.cfg, run_n4.stats, run_n4.records),
                (cfg, stats, classify_solutions(sols, run_n4.masses)),
            )
        ]
        assert reports[0] == reports[1]

    def test_parallel_task_error_raises(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("task failed")

        # the pool forks after the patch, so the workers see it
        monkeypatch.setattr(search_mod.krawczyk.Iteration, "step", boom)
        cfg = SearchConfig(n=3, threads=2)
        with pytest.raises(RuntimeError, match="task failed"):
            search(initial_domain(cfg), cfg, Masses.equal(3))

    def test_unequal_masses_refused(self):
        from ccenum.errors import RefusedUnequalMasses

        cfg = SearchConfig(n=3)
        m = Masses([Interval(0.5), Interval(0.3), Interval(0.2)])
        with pytest.raises(RefusedUnequalMasses):
            search(initial_domain(cfg), cfg, m)


def _keyset(solutions):
    return sorted(tuple(np.round(s.reduced.arrays()[0], 12)) for s in solutions)
