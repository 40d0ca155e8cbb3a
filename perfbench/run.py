"""Benchmark of phrg: three workloads, timed end to end, traced per layer.

    python3 perfbench/run.py --workload wordproblem --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  ``--workload all`` runs the three in
turn.  A run repeats its workload, each repetition in a fresh
single-threaded process (``worker.py``), one at a time, until
``--seconds`` would be exceeded, and checks every output against the
oracles of ``tests/oracles.py``.  It prints one metric a line, then one
JSON object as the last line.  The exit code is 1 if an output was wrong
and 2 if the checkout lacks phrg or its oracles.

Workloads (see ``workloads.py``):

* ``wordproblem`` -- one long search: the strings of the free product of
  two copies of the integers' word problem, words up to length 6.  Every
  state is a string graph and none is dead.
* ``closure`` -- many short searches, each on a freshly built grammar:
  rational intersections, substitutions, unions, homomorphisms and
  preimages, round-tripped through the text format, then enumerated and
  queried with member and non-member words.  Most expanded forms are
  dead.
* ``canon_sweep`` -- canonical keys only: every graph with at most 3
  nodes and 3 edges over a/2 and b/1, plus up to 7 isolated nodes and
  up to 7 disjoint b/1 loops.  Almost no graph is a string graph.

End-to-end metrics (``--trace 0``), medians over the repetitions:
``setup_s`` (imports plus input construction), ``wall_s`` (the timed
calls of one repetition), ``peak_rss_mb``, ``ok_ratio`` (1 minus failed
ops over ops attempted; an op fails if it raises, hits its wall-clock
cap or differs from the oracle), and ``op_p50_ms``/``op_p90_ms`` over
the ops of a repetition: searches on wordproblem and closure, key calls
on canon_sweep.

Every time is in calibrated seconds: the measured time times CAL_REF_S
over the time the same process took for a fixed piece of work that
shares no code with phrg (``worker.Calibration``).  On a shared 2-vCPU
virtual machine whose speed drifted by a third within minutes, this kept
the spread between runs near 5% where raw times spread 15-30%.  The first line
printed for a workload gives the raw median wall time as well.

Per-layer metrics (``--trace 1``) come from repetitions run with spans
around every layer boundary, alternated with untraced ones; see
``tracing.py``.  Times and ``*.self_share`` are medians over the traced
repetitions; counts and the other ratios must repeat exactly between
them.  ``trace.overhead_s`` is traced minus untraced ``wall_s``.  The
spans of the last traced repetition are written to
``perfbench/out/<workload>.spans.csv``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("wordproblem", "closure", "canon_sweep")
NEEDS = ("src/phrg/__init__.py", "tests/oracles.py")
HARD_S = 140.0  # every op is stopped by then, so a run ends well inside 180 s
MIN_SETUPS = 7  # set-up is short and noisy, so it gets extra samples
CAL_REF_S = 0.15  # calibration time that makes calibrated seconds raw ones
UNITS = {"_s": "s", "_ms": "ms", "_mb": "MB", "share": "ratio", "ratio": "ratio"}


class WorkerError(RuntimeError):
    pass


def _worker(workload: str, seed: int, hard_end: float, *flags: str) -> dict:
    remaining = hard_end - time.perf_counter()
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--deadline-s", f"{max(remaining, 0.0):.3f}",
        *flags,
    ]
    # hash order follows the seed, so one seed repeats exactly
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=remaining + 20
        )
    except subprocess.TimeoutExpired:
        # the op caps failed to stop it; subprocess.run has killed and reaped it
        return {"timed_out": True}
    if proc.returncode != 0:
        raise WorkerError(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def _quantile(rep: dict, q: float) -> float:
    """The q-quantile of a repetition's op latencies."""
    values = rep["latencies"]
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _scale(rep: dict) -> float:
    return CAL_REF_S / rep["cal_s"]


def _unit(name: str) -> str:
    return next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    hard_end = start + HARD_S
    plain: list[dict] = []
    traced: list[dict] = []
    timed_out = 0
    expect = None
    spans = HERE / "out" / f"{workload}.spans.csv"
    if trace:
        spans.parent.mkdir(exist_ok=True)
    while True:
        use_trace = trace and len(traced) <= len(plain)
        flags = ["--trace", "1", "--spans", str(spans)] if use_trace else []
        if expect is not None:
            flags += ["--expect", expect]
        began = time.perf_counter()
        rec = _worker(workload, seed, hard_end, *flags)
        took = time.perf_counter() - began
        if rec.get("timed_out"):
            timed_out += 1
        else:
            (traced if use_trace else plain).append(rec)
            if expect is None and rec["failed"] == 0:
                expect = rec["digest"]
        now = time.perf_counter()
        # two traced repetitions show that the layer counts repeat exactly
        enough = plain and (len(traced) >= 2 or not trace)
        if now + took > hard_end or (enough and now - start + took > seconds):
            break

    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps) + timed_out
    mismatches = [m for r in reps for m in r["mismatches"]]
    wrong = len(mismatches)
    # a mismatch may involve two ops, so the count is capped at the ops run
    failed = min(sum(r["failed"] for r in reps) + wrong + timed_out, attempted)
    for m in mismatches[:20]:
        print(f"perfbench: MISMATCH {workload}: {m}", file=sys.stderr)
    if wrong > 20:
        print(f"perfbench: ... {wrong - 20} more mismatches", file=sys.stderr)
    timed = [r for r in plain if r["latencies"]]
    if not timed or (trace and not traced):
        raise WorkerError(f"no repetition of {workload} finished")
    median = statistics.median
    if trace:
        metrics = {}
        first = traced[0]["layers"]
        for name, value in first.items():
            if name.endswith("_s"):
                value = median(r["layers"][name] * _scale(r) for r in traced)
            elif name.endswith("self_share"):
                value = median(r["layers"][name] for r in traced)
            elif any(r["layers"][name] != value for r in traced if r["failed"] == 0):
                wrong += 1
                print(f"perfbench: {name} differs between traced runs", file=sys.stderr)
            metrics[name] = value
        metrics["trace.wall_s"] = median(r["wall_s"] * _scale(r) for r in traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - median(
            r["wall_s"] * _scale(r) for r in plain
        )
    else:
        setups = [r["setup_s"] * _scale(r) for r in plain]
        while len(setups) < MIN_SETUPS and time.perf_counter() < hard_end - 10:
            r = _worker(workload, seed, hard_end, "--setup-only")
            if r.get("timed_out"):
                break
            setups.append(r["setup_s"] * _scale(r))
        metrics = {
            "setup_s": median(setups),
            "wall_s": median(r["wall_s"] * _scale(r) for r in plain),
            "peak_rss_mb": median(r["rss_mb"] for r in plain),
            "ok_ratio": 1 - failed / attempted,
            # per repetition, so that a repetition hit by a slow spell of
            # the host moves the median of the repetitions, not the tail
            "op_p50_ms": median(_quantile(r, 0.5) * _scale(r) for r in timed) * 1e3,
            "op_p90_ms": median(_quantile(r, 0.9) * _scale(r) for r in timed) * 1e3,
        }
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": _unit(name)}
            for name, value in metrics.items()
        },
        "info": (
            f"{len(reps)} repetitions, median raw wall "
            f"{median(r['wall_s'] for r in reps):.3f} s, median calibration "
            f"{median(r['cal_s'] for r in reps):.4f} s"
        ),
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    missing = [n for n in NEEDS if not (ROOT / n).is_file()]
    if missing:
        print(f"perfbench: checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, res in results.items():
        print(
            f"{name}: {res.pop('info')}, {res['attempted']} ops, "
            f"{res['failed']} failed, correct={res['correct']}"
        )
        for metric, m in res["metrics"].items():
            print(f"  {metric:30} {m['value']:.6g} {m['unit']}")
    last = results[names[0]] if len(names) == 1 else results
    print(json.dumps(last))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
