"""Shared fixtures: the expensive exhaustive searches run once per session."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ccenum.classify import classify_solutions
from ccenum.model import Masses
from ccenum.search import SearchConfig, initial_domain, search

DATA_DIR = Path(__file__).parent / "data"


class SearchRun:
    def __init__(self, cfg, masses, domain, solutions, stats, undecided, records, seconds):
        self.cfg = cfg
        self.masses = masses
        self.domain = domain
        self.solutions = solutions
        self.stats = stats
        self.undecided = undecided
        self.records = records
        self.seconds = seconds


def _run(n: int, **kwargs) -> SearchRun:
    import time

    cfg = SearchConfig(n=n, **kwargs)
    masses = Masses.equal(n)
    domain = initial_domain(cfg)
    t0 = time.perf_counter()
    solutions, stats, undecided = search(domain, cfg, masses)
    seconds = time.perf_counter() - t0
    records = classify_solutions(solutions, masses)
    return SearchRun(cfg, masses, domain, solutions, stats, undecided, records, seconds)


@pytest.fixture(scope="session")
def run_n3() -> SearchRun:
    return _run(3)


@pytest.fixture(scope="session")
def run_n4() -> SearchRun:
    return _run(4)


@pytest.fixture(scope="session")
def run_n4_increasing() -> SearchRun:
    return _run(4, ordering="increasing")


@pytest.fixture(scope="session")
def run_n5() -> SearchRun:
    # the parallel path; the n = 3 and n = 4 runs keep the serial loop
    return _run(5, threads=2)


def load_listed(n: int):
    """Listed configurations for n bodies as lists of (x, y) points."""
    from ccenum.verify import parse_candidates

    return parse_candidates((DATA_DIR / f"cc_n{n}.txt").read_text())
