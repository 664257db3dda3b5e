"""Run one workload of the rigidlab benchmark and print its result.

    python3 perfbench/run.py --workload flabby --seed 1 --seconds 12 --trace 0

Run it from the root of a checkout: it imports rigidlab from src/ and the
reference implementations from tests/oracles.py.  It sets the workload up
3 to 15 times (imports and inputs, from a clean module table each time) and
reports the median as setup_s.  It then runs whole rounds of the workload's
operations, one and more while the next would end within --seconds,
checks every output outside the timed region, and prints one
JSON object as the last line of standard output.  With --trace 0 the
metrics are setup_s, wall_s (the median time of one round's operations)
and peak_rss_mb; with --trace 1 it alternates untraced and traced rounds
and reports the per-layer metrics of the traced ones.  Result and span
files go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import sys
import traceback
from statistics import median
from time import perf_counter

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
OUT = os.path.join(HERE, "out")
SETUPS = (3, 15, 2.0)  # at least 3 set-ups, then more up to 15 while they take under 2 s in all
WORKLOADS = ("flabby", "probe", "closure", "words_hat")
OWN_MODULES = ("oracles", "checks", "workloads")


class Raised:
    """An operation that raised instead of returning."""

    def __init__(self):
        self.trace = traceback.format_exc()


class Tally:
    def __init__(self):
        self.wall = 0.0
        self.groups: list = []  # seconds per group of operations, in order
        self.attempted = 0
        self.failed = 0
        self.errors: list = []


def add_paths() -> bool:
    """Put this checkout's src/ and tests/ first on the import path."""
    if not (os.path.isfile(os.path.join(SRC, "rigidlab", "__init__.py")) and os.path.isfile(
        os.path.join(TESTS, "oracles.py")
    )):
        print(f"no rigidlab checkout around {HERE}: src/rigidlab and tests/oracles.py are needed", file=sys.stderr)
        return False
    sys.path[:0] = [SRC, TESTS]
    return True


def set_up(workload: str, seed: int):
    """Import the program and the workloads afresh and build the inputs."""
    for name in list(sys.modules):
        if name in OWN_MODULES or name.split(".")[0] == "rigidlab":
            del sys.modules[name]
    t0 = perf_counter()
    module = importlib.import_module("workloads")
    wl = module.WORKLOADS[workload](random.Random(seed))
    return perf_counter() - t0, wl


def run_round(wl, tracer=None) -> Tally:
    checks = sys.modules["checks"]
    tally = Tally()
    gc.collect()
    for g in wl.groups():
        results = []
        if tracer is not None:
            tracer.active = True
        t0 = perf_counter()
        for x in g.inputs:
            try:
                results.append(g.run(x))
            except Exception:  # an operation that raises has failed
                results.append(Raised())
        seconds = perf_counter() - t0
        tally.wall += seconds
        tally.groups.append(seconds)
        if tracer is not None:
            tracer.active = False
        for x, out in zip(g.inputs, results):
            tally.attempted += g.ops
            if isinstance(out, Raised):
                tally.failed += g.ops
                print(f"{g.name}: raised\n{out.trace}", file=sys.stderr)
                continue
            try:
                if g.check(x, out) == checks.FAILED:
                    tally.failed += g.ops
            except checks.CheckError as exc:
                tally.errors.append(f"{g.name}: {exc}")
            except Exception:  # a malformed output that a check could not read
                tally.errors.append(f"{g.name}: check raised\n{traceback.format_exc()}")
        del results
    return tally


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not add_paths():
        return 2

    least, most, budget = SETUPS
    setups = []
    wl = None
    while len(setups) < least or (len(setups) < most and sum(setups) < budget):
        wl = None
        gc.collect()
        seconds, wl = set_up(args.workload, args.seed)
        setups.append(seconds)
    if not os.path.abspath(sys.modules["rigidlab"].__file__).startswith(SRC + os.sep):
        print("rigidlab was not imported from this checkout", file=sys.stderr)
        return 2

    rounds: list = []
    traced: list = []
    start = perf_counter()
    while True:
        rounds.append(run_round(wl))
        if args.trace:
            tracer = tracing.Tracer(random.Random(args.seed))
            tracer.install()
            try:
                tally = run_round(wl, tracer)
            finally:
                tracer.uninstall()
            traced.append((tally, tracer))
        elapsed = perf_counter() - start
        done = len(rounds)
        if elapsed * (done + 1) / done > args.seconds:
            break

    tallies = rounds + [t for t, _ in traced]
    errors = [e for t in tallies for e in t.errors]
    for e in errors[:5]:
        print(e, file=sys.stderr)
    walls = [t.wall for t in rounds]
    if args.trace:
        per_round = [tracer.metrics() for _, tracer in traced]
        values = {k: median(m[k] for m in per_round) for k in per_round[0]}
        values.update(tracing.kernel_metrics(traced[-1][1].sample))
        traced_wall = median(t.wall for t, _ in traced)
        values["trace.traced_wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - median(walls)
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in tracing.PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": {"value": median(setups), "unit": "s"},
            "wall_s": {"value": median(walls), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    result = {
        "correct": not errors,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{stem}.json"), "w", encoding="utf-8") as f:
        json.dump({"rounds": [t.groups for t in tallies], "setups": setups, **result}, f, indent=2)
    if args.trace:
        tracing.write_spans(os.path.join(OUT, f"spans-{stem}.json"), [tr.spans for _, tr in traced])
    print(
        f"{args.workload}: {len(rounds)} rounds, wall {', '.join(f'{w:.3f}' for w in walls)} s; "
        f"setups {', '.join(f'{s:.3f}' for s in setups)} s",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
