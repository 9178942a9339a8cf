"""Benchmark runner for troppencil: one workload, one closed-loop client.

    python3 perfbench/run.py --workload stable-pencil --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root (the runner finds the sources under `src/`
next to its own directory).  One process, one client, no pool: the next
op starts when the previous one has finished and been checked.  Times are
reported in reference seconds (see `Speedometer`).

With `--trace 0` the last stdout line is the result with the end-to-end
metrics.  With `--trace 1` every op runs twice, untraced (tracer installed
but inactive) and traced, and the result holds the per-layer metrics (per
traced op) plus the tracing overhead; the spans go to `perfbench/out/`.
`--smoke` runs a few checked ops of every workload and validates the
tracer; it exits non-zero on any failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import tracing
from workloads import WORKLOADS, FixedLocus, Program

ROOT = Path(__file__).resolve().parent.parent
# The run is cut into SEGMENTS; each starts with a fresh set-up, so the
# reported set-up time is a median over samples spread across the run.
# Type-roundtrip draws its supports per set-up, so a run covers
# SEGMENTS times as many supports.
SEGMENTS = 6
WARMUP_OP = -168  # op index of the warm-up; a multiple of every workload's cycle of op kinds

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
TRACE_EXTRA = {"trace.ops_per_s": "1/s", "trace.overhead_ratio": "ratio"}

# Call counts of one op at the seed commit (08dad1d), used to validate the
# tracer: (workload, op index, span name, count).  Op 3 of stable-pencil is
# a general n = 9 configuration: three passes over the 36 minors, one tree
# reconstruction.  A fixed-locus CLI call computes the locus twice.
SEED_COUNTS = (
    ("stable-pencil", 3, "stable.minor_tropdet", 108),
    ("stable-pencil", 3, "trees.plucker_to_tree", 1),
    ("fixed-locus", 0, "pencil.fixed_locus", 2),
)
SMOKE_SEED = 0
SMOKE_OPS = 4

# One sample of the reference kernel counts as REF_S seconds; on a 2 GHz
# Xeon with no other load, a sample takes about that long.
REF_S = 0.0005


def reference_kernel():
    """Fixed exact-rational work, the same mix of operations as the program's."""
    acc = Fraction(0)
    for i in range(1, 100):
        acc += Fraction(i % 97 - 48, i % 13 + 1) * Fraction(i % 7 + 1, i % 11 + 1)
    return acc


class Speedometer:
    """Follows the machine's current speed with the reference kernel.

    The cores are shared with other tenants: the same op's wall time swings
    by up to 2x within seconds and drifts by tens of percent over minutes,
    and CPU time swings with it.  Each measured span is divided by the mean
    of the kernel's time just before and just after it, which turns wall
    seconds into reference seconds that follow the program's own work.
    """

    def __init__(self):
        self.last = self.sample()

    @staticmethod
    def sample() -> float:
        """Median of three kernel timings, garbage collector off."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                reference_kernel()
                times.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        return statistics.median(times)

    def scale(self, seconds: float) -> float:
        """`seconds` of wall time just measured, in reference seconds."""
        before, self.last = self.last, self.sample()
        return seconds * REF_S / ((before + self.last) / 2)


class Timed:
    """`with timed:` adds the block's wall time to `elapsed` and marks the
    op as active for the tracer while the block runs."""

    def __init__(self, op, tracer=None):
        self.op, self.tracer, self.elapsed = op, tracer, 0.0

    def __enter__(self):
        if self.tracer:
            self.tracer.op = self.op
        self._t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.elapsed += time.perf_counter() - self._t0
        if self.tracer:
            self.tracer.op = -1


def run_op(wl, k, tracer=None):
    """Make, run and check op k; returns (latency in s, passed)."""
    op = wl.make(k)
    timed = Timed(k, tracer)
    try:
        wl.check(op, wl.run(op, timed))
        return timed.elapsed, True
    except (Exception, SystemExit):  # a failed op is counted, never fatal
        print(f"op {k} ({op.kind}) failed:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return timed.elapsed, False


def closed_loop(wl, seconds, speed, first=0, tracer=None):
    """Ops first, first + 1, ... until `seconds` have passed; returns
    (reference latency, passed, wall latency) per op."""
    samples = []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        latency, ok = run_op(wl, first + len(samples), tracer)
        samples.append((speed.scale(latency), ok, latency))
    return samples


def set_up(name, seed, segment=0):
    """Fresh import, workload preparation and one warm-up op."""
    wl = WORKLOADS[name](Program(), seed, segment)
    run_op(wl, WARMUP_OP)
    return wl


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(**extra) -> dict:
    return dict(
        extra,
        python=platform.python_version(),
        git_sha=git_sha(),
        nproc=len(os.sched_getaffinity(0)),
    )


def redraw_report(name, redrawn) -> dict:
    """Header entry for the pencils the fixed-locus workload drew and
    rejected (see `FixedLocus.lattice_segments`); empty for the others."""
    if name != FixedLocus.name:
        return {}
    return {"redrawn": {"ops": len(redrawn), "pencils": sum(redrawn.values())}}


def emit(env, samples, metrics, units):
    """Human-readable lines, then the result as the last stdout line."""
    failed = sum(1 for s in samples if not s[1])
    print("# " + json.dumps(env))
    if "redrawn" in env:
        r = env["redrawn"]
        print(f"# known program defect: redrew {r['pencils']} pencil(s) for {r['ops']} op(s) because"
              " their fixed locus has a segment with a non-integer span, which plane.canonical_pieces"
              " mishandles")
    print(f"# error_rate {failed / len(samples):.6f} ({failed} of {len(samples)} ops failed)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))


def throughput(samples, i=0):
    return sum(1 for s in samples if s[1]) / sum(s[i] for s in samples)


def measure(name, seed, seconds):
    speed = Speedometer()
    setups, samples, redrawn = [], [], {}
    for segment in range(SEGMENTS):
        t0 = time.perf_counter()
        wl = set_up(name, seed, segment)
        wall = time.perf_counter() - t0
        setups.append((speed.scale(wall), wall))
        samples += closed_loop(wl, seconds / SEGMENTS, speed, first=len(samples))
        redrawn.update(getattr(wl, "redrawn", {}))
    lat = [s[0] for s in samples]
    wall_lat = [s[2] for s in samples]
    p90 = statistics.quantiles(lat, n=10)[8]
    metrics = {
        "ops_per_s": throughput(samples),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "setup_s": statistics.median(s for s, _ in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    env = environment(
        workload=name,
        seed=seed,
        samples=len(samples),
        beyond_p90=sum(1 for t in lat if t > p90),
        wall={
            "ops_per_s": throughput(samples, 2),
            "latency_p50_ms": statistics.median(wall_lat) * 1e3,
            "latency_p90_ms": statistics.quantiles(wall_lat, n=10)[8] * 1e3,
            "setup_s": statistics.median(w for _, w in setups),
        },
        **redraw_report(name, redrawn),
    )
    emit(env, samples, metrics, END_TO_END)


def measure_traced(name, seed, seconds):
    """Each op runs twice in a row, once with the tracer inactive and once
    recording, so the overhead ratio compares the same ops at the same time."""
    speed = Speedometer()
    wl = set_up(name, seed)
    tracer = tracing.Tracer()
    tracer.install()
    plain, traced = [], []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        k = len(traced)
        pair = [(plain, None), (traced, tracer)]
        for out, tr in pair[::-1] if k % 2 else pair:  # alternate which runs first
            latency, ok = run_op(wl, k, tr)
            out.append((speed.scale(latency), ok, latency))
    factor = {k: s[0] / s[2] for k, s in enumerate(traced) if s[2] > 0}
    metrics = tracer.summary(len(traced), factor)
    metrics["trace.ops_per_s"] = throughput(traced)
    metrics["trace.overhead_ratio"] = throughput(plain) / throughput(traced)
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"spans-{name}-{seed}.json")
    units = {m: tracing.metric_unit(m) for m in tracing.metric_names()}
    units.update(TRACE_EXTRA)
    env = environment(
        workload=name, seed=seed, traced_ops=len(traced), **redraw_report(name, getattr(wl, "redrawn", {}))
    )
    emit(env, plain + traced, metrics, units)


def count_calls(wl, k, tracer):
    """Run and check op k traced while sys.setprofile independently counts
    entries into each spanned function's code object; returns those counts
    by span name."""
    codes = {fn.__code__: name for name, fn in tracer.originals.items()}
    profiled = dict.fromkeys(tracer.originals, 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            profiled[codes[frame.f_code]] += 1

    op = wl.make(k)
    timed = Timed(k, tracer)
    sys.setprofile(profile)
    try:
        result = wl.run(op, timed)
    finally:
        sys.setprofile(None)
    spans = len(tracer.start)
    wl.check(op, result)
    if len(tracer.start) != spans:
        raise AssertionError("the untimed check left spans")
    return profiled


def smoke() -> int:
    failures = []
    for name in WORKLOADS:
        wl = set_up(name, SMOKE_SEED)
        for k in range(SMOKE_OPS):
            latency, ok = run_op(wl, k)
            print(f"smoke {name} op {k}: {'ok' if ok else 'FAILED'} {latency * 1e3:.1f} ms")
            if not ok:
                failures.append(f"{name} op {k}")
    for name in ("stable-pencil", "fixed-locus"):
        wl = set_up(name, SMOKE_SEED)
        tracer = tracing.Tracer()
        tracer.install()
        ops = sorted({k for w, k, _, _ in SEED_COUNTS if w == name})
        for k in ops:
            try:
                profiled = count_calls(wl, k, tracer)
            except Exception as e:
                failures.append(f"{name} op {k}: {e!r}")
                continue
            for span, count in profiled.items():
                traced = tracer.calls_in_op(span, k)
                if traced != count:
                    failures.append(f"{name} op {k}: {span} traced {traced} times, profiler saw {count}")
            for w, k2, span, seed_count in SEED_COUNTS:
                if (w, k2) == (name, k):
                    traced = tracer.calls_in_op(span, k)
                    same = "same as" if traced == seed_count else "differs from"
                    print(f"trace {name} op {k}: {span} {traced} calls ({same} the seed commit's {seed_count})")
        if set(tracer.op_of) - set(ops):
            failures.append(f"{name}: spans outside the traced ops")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [m["name"] for m in spec["end_to_end"]] != list(END_TO_END):
        failures.append("BENCHMARK.json end_to_end names differ from the runner's")
    if [m["name"] for m in spec["per_layer"]] != tracing.metric_names() + list(TRACE_EXTRA):
        failures.append("BENCHMARK.json per_layer names differ from the runner's")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from the runner's")
    for f in failures:
        print("FAIL", f)
    print("smoke", "FAILED" if failures else "passed", json.dumps(environment(seed=SMOKE_SEED)))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few checked ops of every workload")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    src = ROOT / "src"
    if not (src / "troppencil" / "__init__.py").is_file():
        print(f"error: no troppencil sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.smoke:
        return smoke()
    if args.trace:
        measure_traced(args.workload, args.seed, args.seconds)
    else:
        measure(args.workload, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
