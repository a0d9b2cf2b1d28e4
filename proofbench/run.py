"""The ccenum benchmark: time to a complete proof, end to end and by layer.

    python3 proofbench/run.py --workload prove-n4 --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each workload runs in a fresh process
(`workload.py`), which times whole rounds for about `--seconds` seconds,
checks every round with the independent checker and reports medians.  The
set-up time is the median over separate fresh processes that only set up.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from workload import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7
CHILD_TIMEOUT = 170.0


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(args: list, root: Path, timeout: float) -> dict:
    """Run workload.py with the arguments; its last stdout line is JSON.

    The child gets its own process group, so a timeout also ends the
    worker processes of a parallel search."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workload.py"), *args],
        cwd=root,
        env=child_env(root),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in ("src/ccenum", "tests/data") if not (root / p).is_dir()]
    if missing:
        print(f"run from the repository root; missing {', '.join(missing)}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if WORKLOADS[args.workload].get("threads", 1) > 1:
            run_child(common + ["--reference"], root, CHILD_TIMEOUT)
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_child(common + ["--probe"], root, 60.0)["setup_s"])
        res = run_child(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            root,
            CHILD_TIMEOUT,
        )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for problem in res["problems"]:
        print(f"problem: {problem}")
    print(
        f"rounds: {res['rounds']}, median wall per round: {res['wall_s']:.4f} s, "
        f"set-up in the run: {res['child_setup_s']:.4f} s"
    )
    print("counters: " + json.dumps(res["counters"], sort_keys=True))
    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "cpu_s": {"value": res["cpu_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(
        json.dumps(
            {
                "correct": res["correct"],
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
