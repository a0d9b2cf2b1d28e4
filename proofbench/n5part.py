"""Sub-boxes of the n = 5 normalized domain for the `prove-n5-part` workload.

A sub-box is named by its bisection path: a string of 0/1 digits, one per
cut from the padded domain, 0 for the lower child and 1 for the upper one.
Each cut follows the search's own rule: the longest edge (lowest index on
ties) is split at its midpoint with a relative overlap margin of 1e-3 on
each side, so sibling boxes share a thin slab.

The fixed pieces hold listed configurations; the seeded sample holds
depth-16 sub-boxes that contain no listed configuration (checked with the
float gauge of `checker`, over every relabeling and the mirror).
Run `python3 proofbench/n5part.py` to print the listed gauge points and
the depth-16 paths that contain them.
"""

from __future__ import annotations

import random
from pathlib import Path

import checker

N = 5
OVERLAP = 1e-3
SAMPLE_DEPTH = 16
SAMPLE_SIZE = 256

# (path, what it holds): the piece of the given depth around one normalized
# gauge point of a listed configuration (the first such path in sorted
# order).  The cross and trapezium regions are the heavy ones; their
# pieces are cut deeper until each search takes a few seconds.  Two
# gauge points each of the collinear and cross configurations make
# classify merge boxes of one class.
PIECES = (
    ("1000111010011001001110111111010111011011", "collinear, depth 40"),
    ("010101101010100101011011011101001101", "collinear, depth 36"),
    ("0001111010111101011100001111011111000011100001110000", "cross, depth 52"),
    ("001110101011010101110000110101111100001110000111000011", "cross, depth 54"),
    ("011100101010010101000000110011100011010001111011", "two-isosceles, depth 48"),
    ("01010110101011010101000000110111000010111100011001111001", "trapezium, depth 56"),
    ("111000101000010100010000000111001111111110100100", "pentagon, depth 48"),
)


def root_box(n: int = N):
    """The padded normalized domain, the same formula as the search's own."""
    span = float(n - 1)
    pad = 1e-3 * span
    lo = [-span - pad, 0.0 - pad]
    hi = [0.0 + pad, span + pad]
    for i in range(1, n - 2):
        lo.append(-span - pad)
        hi.append(span + pad)
        lo.append(-span - pad)
        hi.append(0.0 + pad if i == 1 else span + pad)
    lo.append(0.5 - pad)
    hi.append(span + pad)
    return lo, hi


def cut(lo, hi, bit: str):
    """One overlap bisection of the longest edge."""
    widths = [b - a for a, b in zip(lo, hi)]
    k = max(range(len(widths)), key=lambda i: (widths[i], -i))
    mid = (lo[k] + hi[k]) / 2.0
    margin = widths[k] * OVERLAP
    lo, hi = list(lo), list(hi)
    if bit == "0":
        hi[k] = mid + margin
    else:
        lo[k] = mid - margin
    return lo, hi


def box(path: str, n: int = N):
    lo, hi = root_box(n)
    for bit in path:
        lo, hi = cut(lo, hi, bit)
    return lo, hi


def paths_containing(z, depth: int, n: int = N):
    """Every path of the given depth whose box contains the point z."""
    out = []
    stack = [("", *root_box(n))]
    while stack:
        path, lo, hi = stack.pop()
        if not checker.box_contains(lo, hi, z):
            continue
        if len(path) == depth:
            out.append(path)
            continue
        for bit in "10":
            stack.append((path + bit, *cut(lo, hi, bit)))
    return sorted(out)


def listed_configurations(data_dir: Path, n: int = N):
    """Polished listed configurations with their distinct normalized gauge points."""
    out = []
    for pts in checker.parse_points((data_dir / f"cc_n{n}.txt").read_text()):
        polished = checker.polish(pts)
        if polished is None:
            raise RuntimeError("a listed configuration does not polish")
        points = []
        for z in checker.gauge_points(polished):
            if checker.normalized(z) and not any(
                max(abs(a - b) for a, b in zip(z, w)) < 1e-9 for w in points
            ):
                points.append(z)
        out.append((polished, points))
    return out


def occupied_paths(configs, depth: int = SAMPLE_DEPTH):
    """Depth-`depth` paths that contain some listed gauge point."""
    occupied = set()
    for _, points in configs:
        for z in points:
            occupied.update(paths_containing(z, depth))
    return occupied


def sample_paths(seed: int, occupied, k: int = SAMPLE_SIZE, depth: int = SAMPLE_DEPTH):
    """k distinct depth-`depth` paths that hold no listed configuration."""
    rng = random.Random(seed)
    out: list[str] = []
    while len(out) < k:
        path = "".join(rng.choice("01") for _ in range(depth))
        if path not in occupied and path not in out:
            out.append(path)
    return out


if __name__ == "__main__":
    data = Path(__file__).resolve().parent.parent / "tests" / "data"
    for k, (polished, points) in enumerate(listed_configurations(data)):
        print(f"configuration {k}: {len(points)} normalized gauge points")
        for z in points:
            print("  z =", " ".join(f"{v:+.6f}" for v in z))
            print("    depth-16 paths:", paths_containing(z, SAMPLE_DEPTH))
