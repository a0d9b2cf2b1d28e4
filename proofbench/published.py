"""Published reference values the workloads are checked against.

The configuration coordinates themselves live in the repository's
`tests/data/cc_n{n}.txt`, one `# name` comment before each configuration.
"""

from __future__ import annotations

import math
from pathlib import Path

import checker

# exact scale invariant of the four-body square, (1/4)(1/4 + 1/sqrt(2))
SQUARE_J = 0.25 * (0.25 + 1.0 / math.sqrt(2.0))

# distinct central configurations of the complete listing
DISTINCT = {3: 2, 4: 4, 5: 5}

# rigorous J intervals published for n = 5, by configuration name
N5_J = {
    "collinear": (0.3620811129, 0.3620811129),
    "cross": (0.2800711397, 0.2800855073),
    "two-isosceles": (0.3063232187, 0.3063235095),
    "trapezium": (0.2805633344, 0.2805634788),
    "pentagon": (0.2752680534, 0.2752847151),
}

# J of the asymmetric configurations, in file order
ASYM_J = {
    8: (0.3490279194, 0.3683220063),
    9: (0.3718173376, 0.374156044, 0.3940726241),
    10: (
        0.3714169116,
        0.3728671543,
        0.3742731763,
        0.3784068394,
        0.3821740131,
        0.3832919194,
        0.3845845407,
        0.3904041955,
        0.3940864744,
        0.3963617068,
        0.4187765849,
    ),
}
ASYM_J_TOL = 1e-6


def listed(data_dir: Path, n: int):
    """[(name, points)] of the listed configurations for n bodies."""
    text = (data_dir / f"cc_n{n}.txt").read_text()
    names = [ln.lstrip("#").strip() for ln in text.splitlines() if ln.startswith("#")]
    configs = checker.parse_points(text)
    if len(names) != len(configs):
        names = [f"{n}-{k}" for k in range(len(configs))]
    return list(zip(names, configs))
