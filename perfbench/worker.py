"""One repetition of one workload, in a process of its own.

Started by ``run.py``; prints one JSON object on standard output.  A
fresh process per repetition gives a clean peak RSS and a cold
canonical-form cache, which a user of the CLI also pays on every call.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here: imports, then inputs

import argparse
import hashlib
import json
import random
import resource
import signal
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import phrg.engine  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from workloads import CAP_S, WORKLOADS, OpFailed  # noqa: E402


CAL_ROUNDS = 50  # before and after the timed calls
CAL_SLICE = 3  # between them
CAL_EVERY_S = 0.2


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout


class Calibration:
    """The host's speed, sampled through a repetition.

    A sample times a fixed piece of pure-Python work that shares no code
    with phrg: tuples, dicts, sorting and repr, as phrg does.  The host's
    speed drifts by a third and more within minutes, so phrg's times are
    reported relative to the samples taken in the same process: before
    the timed calls, every CAL_EVERY_S between ops and between parallel
    steps of a search, and after them.
    """

    def __init__(self) -> None:
        rng = random.Random(1)
        self.items = [
            (rng.randrange(64), str(rng.randrange(1000)), (rng.random(),))
            for _ in range(3000)
        ]
        self.rounds = 0
        self.seconds = 0.0
        self.last = time.perf_counter()

    def sample(self, rounds: int) -> float:
        t0 = time.perf_counter()
        for _ in range(rounds):
            groups: dict = {}
            for it in self.items:
                groups.setdefault(it[0], []).append(it)
            repr(sorted(self.items)[:300])
            [tuple(sorted(v)) for v in groups.values()]
        self.last = time.perf_counter()
        self.rounds += rounds
        self.seconds += self.last - t0
        return self.last - t0

    @property
    def cal_s(self) -> float:
        """Seconds that CAL_ROUNDS rounds took, on average over the samples."""
        return self.seconds / self.rounds * CAL_ROUNDS


class Runner:
    """Times each op and stops it at its wall-clock cap.

    An op that raises or hits the cap counts as failed and raises
    ``OpFailed`` to its caller; the run goes on with the next op.
    """

    def __init__(self, tracer, cal: Calibration, cap_s: float, deadline: float) -> None:
        self.tracer = tracer
        self.cal = cal
        self.cal_spent = 0.0
        self.cap_s = cap_s
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []

    def calibrate(self) -> None:
        """Take a calibration sample if one is due; its time is not phrg's."""
        if time.perf_counter() - self.cal.last > CAL_EVERY_S:
            self.cal_spent += self.cal.sample(CAL_SLICE)

    def calibrating(self, fn):
        """``fn``, taking calibration samples between its calls too."""

        def wrapped(*args):
            result = fn(*args)
            self.calibrate()
            return result

        return wrapped

    def op(self, layer, fn, *args, sample=False):
        self.attempted += 1
        cap = min(self.cap_s, self.deadline - time.perf_counter())
        t0 = time.perf_counter()
        spent = self.cal_spent
        try:
            if cap <= 0:
                raise OpTimeout
            signal.setitimer(signal.ITIMER_REAL, cap)
            try:
                value = self.tracer.call(layer, fn, *args)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            print(f"perfbench: {layer} op hit its {cap:.1f} s cap", file=sys.stderr)
            value = OpFailed
        except Exception:
            traceback.print_exc()
            value = OpFailed
        took = time.perf_counter() - t0 - (self.cal_spent - spent)
        if sample:
            self.latencies.append(took)  # a failed op counts with its time to failure
        self.calibrate()
        if value is OpFailed:
            self.failed += 1
            raise OpFailed
        return value


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--deadline-s", type=float, default=150.0)
    p.add_argument("--expect", help="output digest of an earlier repetition")
    p.add_argument("--spans", help="file to write the traced spans to")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    deadline = T0 + args.deadline_s

    workload = WORKLOADS[args.workload]
    tracer = Tracer(args.workload) if args.trace else NullTracer()
    if args.trace:
        tracer.install()
    inputs = workload["setup"](args.seed, tracer)
    setup_s = time.perf_counter() - T0
    cal = Calibration()
    cal.sample(CAL_ROUNDS)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "cal_s": cal.cal_s}))
        return 0

    plan = workload["plan"](inputs, args.seed)
    runner = Runner(tracer, cal, CAP_S[args.workload], deadline)
    if not args.trace:
        # samples inside long searches too; spans would count them as phrg's
        phrg.engine.parallel_budgeted = runner.calibrating(phrg.engine.parallel_budgeted)
    signal.signal(signal.SIGALRM, _alarm)
    t0 = time.perf_counter()
    outputs = workload["run"](inputs, plan, runner)
    wall_s = time.perf_counter() - t0 - runner.cal_spent
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cal.sample(CAL_ROUNDS)

    digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    if args.expect is None:
        mismatches = workload["check"](inputs, plan, outputs)
    elif digest != args.expect and runner.failed == 0:
        mismatches = ["outputs differ from an earlier repetition on the same seed"]
    else:
        mismatches = []
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cal_s": cal.cal_s,
        "rss_mb": rss_mb,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "latencies": runner.latencies,
        "mismatches": mismatches,
        "digest": digest,
    }
    if args.trace:
        result["layers"] = tracer.layers(setup_s + wall_s)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
