"""bioqm benchmark: time to a verified result, cold and warm, per workload.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test
    python3 bench/run.py --write-spec

One process, no threads.  The package is imported from ``src/`` beside this
directory and nowhere else.  A run with ``--trace 0`` prints the end-to-end
metrics:

* ``setup_s``: median over fresh processes of ``import bioqm`` (with the CLI
  module) plus building the workload's ``FieldConfig``s.
* ``cold_s``: one pass over the workload's calls with every package cache
  cleared first; ``warm_s``: the same pass with the caches filled.  Each is the
  sum over the pass's calls of that call's median time across the run's cold
  (or warm) passes; passes alternate to share ``--seconds`` between the two.
* ``peak_rss_mib``: the process's peak resident set over its first cold and
  first warm pass.

The three times are scaled to a reference host speed sampled during each
call (see ``hostclock.py``): the shared machines this runs on change speed by
up to 70% between runs, which no amount of repetition inside a run removes.
The unscaled seconds go to standard error, and the traced run reports them as
``wall.cold_s`` and ``wall.warm_s`` beside ``host.reference_us``.

A run with ``--trace 1`` prints the per-layer metrics instead.  They come from
one cold pass followed by one warm pass under wrappers (see ``tracer.py``),
after the same two passes without wrappers, whose ratio gives
``trace.overhead_frac``.  Per-layer times are unscaled.  The spans are written
to ``.bench_out/``.

Every call's output is checked against frozen values; ``attempted`` counts the
calls and ``failed`` those that raised or did not match.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import cachectl
import hostclock
import spec
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 11
MUL_REPEATS = 7
MAX_REPORTED_ERRORS = 5


def _import_package():
    """Import bioqm from this checkout's ``src``; refuse any other copy."""
    if not (SRC / "bioqm" / "__init__.py").is_file():
        raise SystemExit(f"error: no bioqm package under {SRC}")
    sys.path.insert(0, str(SRC))
    import bioqm

    if Path(bioqm.__file__).resolve().parent != SRC / "bioqm":
        raise SystemExit(f"error: imported bioqm from {bioqm.__file__}, not {SRC}")
    return bioqm


def _modules(bioqm) -> dict:
    """The package and its modules by short name ("bioqm", "gf", "cli", ...)."""
    return {m.__name__.rpartition(".")[2]: m for m in cachectl.submodules(bioqm)}


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, label: str, reason: str) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_ERRORS:
            print(f"FAILED {label}: {reason}", file=sys.stderr)


def _plain_call(label, func):
    start = perf_counter()
    result = func()
    return result, perf_counter() - start


def run_pass(workload, tally: Tally, call=_plain_call) -> list:
    """Run every operation once; return each one's timing record (None if it raised)."""
    times, results = [], {}
    for op in workload.ops:
        tally.attempted += 1
        try:
            result, timing = call(op.label, op.call)
        except Exception:  # a raising call is a failed operation, not a crash
            tally.fail(op.label, traceback.format_exc(limit=3))
            times.append(None)
            results[op.label] = None
            continue
        times.append(timing)
        results[op.label] = result
        try:
            op.check(result)
        except AssertionError as exc:
            tally.fail(op.label, f"check failed: {exc}")
    if workload.pass_check is not None:
        try:
            workload.pass_check(results)
        except AssertionError as exc:
            tally.fail(workload.name, f"pass check failed: {exc}")
    return times


def _per_op_median(passes: list[list]) -> float:
    """Sum over a pass's operations of each one's median time across passes."""
    total = 0.0
    for column in zip(*passes):
        times = [t for t in column if t is not None]
        total += statistics.median(times) if times else 0.0
    return total


def setup_seconds(workload) -> tuple[float, float]:
    """Median set-up time over fresh processes: (scaled, wall) seconds."""
    fields = ",".join(f"{p}:{d}" for p, d in workload.fields)
    command = [sys.executable, "-I", str(BENCH / "setup_probe.py"), str(SRC), fields]
    scaled, wall = [], []
    for _ in range(SETUP_PROBES + 1):  # the first one may compile bytecode
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {done.stderr.strip()}")
        elapsed, reference = map(float, done.stdout.split())
        scaled.append(elapsed * hostclock.REFERENCE_S / reference)
        wall.append(elapsed)
    return statistics.median(scaled[1:]), statistics.median(wall[1:])


def measure(workload, caches, tally: Tally, seconds: float) -> dict:
    """Alternate cold and warm passes until ``seconds`` are spent."""
    passes = {"cold": [], "warm": []}
    spent = {"cold": 0.0, "warm": 0.0}
    last = {}
    values, wall = {}, {}
    with hostclock.HostClock() as clock:

        def call(label, func):
            result, start, end, seconds = clock.timed(func)
            return result, (start, end, seconds)

        start = perf_counter()
        kind = "cold"
        while kind is not None:
            if kind == "cold":
                cachectl.reset(caches)
            began = perf_counter()
            passes[kind].append(run_pass(workload, tally, call))
            last[kind] = perf_counter() - began
            spent[kind] += last[kind]
            elapsed = perf_counter() - start
            if kind == "warm" and len(passes["warm"]) == 1:
                # the peak of one cold and one warm pass; later cold passes
                # only add allocator fragmentation that varies run to run
                values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            # next: a kind not run yet, else the one with less time so far,
            # as long as its last pass still fits in the time left
            kind = None
            for candidate in sorted(("cold", "warm"),
                                    key=lambda k: (len(passes[k]) > 0, spent[k])):
                if not passes[candidate] or elapsed + last[candidate] <= seconds:
                    kind = candidate
                    break
    for kind, runs in passes.items():
        values[f"{kind}_s"] = _per_op_median(
            [[r and clock.scaled(*r) for r in run] for run in runs])
        wall[kind] = _per_op_median([[r and r[2] for r in run] for run in runs])
    print(f"{workload.name}: {len(passes['cold'])} cold and {len(passes['warm'])} warm passes;"
          f" wall cold {wall['cold']:.3f} s, warm {wall['warm']:.3f} s;"
          f" reference median {statistics.median(clock.samples) * 1e6:.1f} us"
          f" (nominal {hostclock.REFERENCE_S * 1e6:.0f} us)", file=sys.stderr)
    return values


def mul_ns(gf) -> float:
    """Nanoseconds per ``*`` over every ordered pair of GF(49) elements."""
    elements = gf.FieldConfig(7, 2).elements()
    pairs = [(a, b) for a in elements for b in elements]
    samples = []
    for _ in range(MUL_REPEATS):
        start = perf_counter()
        for a, b in pairs:
            a * b
        samples.append((perf_counter() - start) / len(pairs) * 1e9)
    return statistics.median(samples)


def traced(workload, caches, modules: dict, tally: Tally, seed: int) -> dict:
    acceptance = modules["acceptance"]
    metrics = {"gf.mul_ns": mul_ns(modules["gf"])}

    # criteria in seed-check order come from the untraced cold pass below;
    # these are each criterion alone after a cache reset, so order-free
    has_criteria = any(op.label.startswith("criterion ") for op in workload.ops)
    for n in range(1, spec.CRITERIA + 1):
        seconds = 0.0
        if has_criteria:
            cachectl.reset(caches)
            tally.attempted += 1
            result, seconds = _plain_call(n, lambda: acceptance.run_criterion(n))
            if not result.passed:
                tally.fail(f"criterion {n} alone", result.line())
        metrics[f"acceptance.criterion_{n:02d}_cold_s"] = seconds

    reference = hostclock.reference_seconds(51)
    cachectl.reset(caches)
    plain_cold = [t or 0.0 for t in run_pass(workload, tally)]
    plain_warm = [t or 0.0 for t in run_pass(workload, tally)]
    by_label = dict(zip((op.label for op in workload.ops), plain_cold))
    for n in range(1, spec.CRITERIA + 1):
        metrics[f"acceptance.criterion_{n:02d}_s"] = by_label.get(f"criterion {n:02d}", 0.0)

    tracer = Tracer(modules)
    for name in tracer.missing:
        print(f"not traced, no such function: {name}", file=sys.stderr)
    cachectl.reset(caches)
    traced_times = [t or 0.0 for t in
                    run_pass(workload, tally, tracer.call) + run_pass(workload, tally, tracer.call)]
    cache = cachectl.totals(caches)

    total, self_time, calls, counts = tracer.total, tracer.self_time, tracer.calls, tracer.counts
    metrics.update({
        "gf.element_calls": counts["gf.element_calls"],
        "linear.enumerate_projective_s": total["linear.enumerate_projective"],
        "linear.states_enumerated": counts["linear.states_enumerated"],
        "linear.dot_calls": counts["linear.dot_calls"],
        "biortho.bracket_calls": calls["biortho.bracket"],
        "biortho.bracket_s": total["biortho.bracket"],
        "entangle.two_particle_states_s": total["entangle.two_particle_states"],
        "entangle.correlator_calls": counts["entangle.correlator_calls"],
        "entangle.chsh_bound_s": total["entangle.chsh_bound"],
        "entangle.census_s": total["entangle.census"],
        "groups.enumerate_group_s": total["groups.enumerate_group"],
        "groups.action_table_s": total["groups.action_table"],
        "groups.act_calls": counts["groups.act_calls"],
        # net of the table build and enumeration they may trigger
        "groups.orbits_s": self_time["groups.orbits"],
        "groups.burnside_count_s": self_time["groups.burnside_count"],
        "groups.find_local_transform_s": self_time["groups.find_local_transform"],
        "exactlp.solve_lp_calls": calls["exactlp.solve_lp"],
        "exactlp.solve_lp_s": total["exactlp.solve_lp"],
        "exactlp.rref_calls": calls["exactlp.rref"],
        "exactlp.rref_s": total["exactlp.rref"],
        "exactlp.verify_farkas_calls": counts["exactlp.verify_farkas_calls"],
        "inference.infer_probabilities_s": self_time["inference.infer_probabilities"],
        "inference.hv_feasibility_s": self_time["inference.hv_feasibility"],
        "cli.build_s": total["cli.build"],
        "cli.render_s": total["cli.run"] - total["cli.build"],
        "cli.reports": calls["cli.run"],
        "cache.hits": cache["hits"],
        "cache.misses": cache["misses"],
        "cache.entries": cache["entries"],
        "trace.overhead_frac": sum(traced_times) / (sum(plain_cold) + sum(plain_warm)) - 1,
        "wall.cold_s": sum(plain_cold),
        "wall.warm_s": sum(plain_warm),
        "host.reference_us": reference * 1e6,
    })
    out = ROOT / ".bench_out" / f"spans-{workload.name}-seed{seed}.json"
    tracer.write(out, {"workload": workload.name, "seed": seed})
    print(f"spans written to {out}", file=sys.stderr)
    return metrics


def run_workload(args) -> dict:
    if sys.flags.optimize:
        # the frozen checks here and bioqm's acceptance criteria are asserts
        raise SystemExit("error: run without -O; the output checks use assert")
    bioqm = _import_package()
    import workloads  # imports bioqm, so only after the path check

    caches = cachectl.discover(bioqm)
    problems = cachectl.self_test(bioqm, caches)
    if problems:
        raise SystemExit("error: " + "; ".join(problems))

    tally = Tally()
    workload = workloads.BUILDERS[args.workload](random.Random(args.seed))
    if args.trace:
        values = traced(workload, caches, _modules(bioqm), tally, args.seed)
        units = {name: unit for name, unit, _ in spec.PER_LAYER}
    else:
        setup, setup_wall = setup_seconds(workload)
        print(f"set-up wall {setup_wall:.4f} s", file=sys.stderr)
        values = measure(workload, caches, tally, args.seconds)
        values["setup_s"] = setup
        units = {name: unit for name, unit, _, _ in spec.END_TO_END}
    if set(values) != set(units):
        raise AssertionError(f"metric names drifted from spec: {set(values) ^ set(units)}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def self_test() -> int:
    bioqm = _import_package()
    caches = cachectl.discover(bioqm)
    problems = cachectl.self_test(bioqm, caches)
    print(f"{len(caches)} caches: {', '.join(sorted(caches))}")
    tracer = Tracer(_modules(bioqm))
    print(f"{len(tracer.targets())} wrapper sites")
    problems += [f"no such function to trace: {name}" for name in tracer.missing]
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def write_spec() -> int:
    data = spec.benchmark_json()
    for entry in data["workloads"]:
        if len(entry["why"]) > 200 or "\n" in entry["why"]:
            raise SystemExit(f"error: why of {entry['name']} is not one line of 200 characters")
    path = ROOT / "BENCHMARK.json"
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-spec", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.write_spec:
        return write_spec()
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
