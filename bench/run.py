#!/usr/bin/env python3
"""Benchmark of gbs-toolkit: three workloads, every answer checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: embed_grid, quot_certs, graph_scale (see workloads.py).  One
benchmark process runs closed-loop passes over the workload's inputs, one
operation at a time, until S seconds have passed (at least one pass).

--trace 0 prints the end-to-end metrics: set-up time (median of several
fresh interpreters that import gbs and build the inputs), pass wall time,
decision throughput and latency percentiles, certificate build and verify
latencies, peak RSS, certificate bytes, and the frontiers of the three
growth ladders (ladder.py), which run between the timed passes.  Every
time is corrected for the shared machine's speed: operation times by
SpeedProbe, set-up times by a reference interpreter start (see there).

--trace 1 alternates untraced and traced passes over the same inputs in
the same order and prints the per-layer metrics (spans.py), including
`trace.overhead_s`, the traced minus the untraced wall time.  The spans of
the first traced pass are written to .bench_out/ at exit.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

MIN_PASSES = 3  # traced mode
PHASES = ("decide", "build", "verify")
PROBE_GAP_S = 0.002
# reference_loop's best time on the machine that set the bounds (2 vCPUs,
# Python 3.11.7): one probe time converts to this many seconds
PROBE_UNIT_S = 350e-6
PROBE_WINDOW = 8  # probes on each side of an operation that give its local speed
SETUPS_PER_CHUNK = 2
# Set-up is timed against a bare interpreter start, REFERENCE, run just
# before and just after it; REFERENCE_UNIT_S is that start's best time on
# the machine that set the bounds.
REFERENCE = [sys.executable, "-c", "pass"]
REFERENCE_UNIT_S = 0.045
LADDER_CAP_S = 5.0
LADDER_CAP_MB = 1024
# ladders start just below the frontier at the benchmark's first commit
LADDER_START = {
    "full": {"chain": 6, "family": 6, "circle": 3},
    "tiny": {"chain": 1, "family": 2, "circle": 1},
}
LADDER_MAX_STEPS = {"full": 6, "tiny": 2}
FRONTIER_METRIC = {"chain": "chain_max_n", "family": "family_max_count", "circle": "circle_max_edges"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("embed_grid", "quot_certs", "graph_scale"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: self-test inputs")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load_workload(args):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads

    return workloads, workloads.WORKLOADS[args.workload](args.seed, args.size)


def time_child(cmd) -> float:
    t0 = perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def time_setups(args, n) -> list[tuple[float, float]]:
    """n wall times of a fresh interpreter doing the set-up, each with the
    mean time of the REFERENCE starts just before and just after it.

    The pure-Python speed probe does not track set-up: starting an
    interpreter and importing modules slowed by a different factor than
    the probe loop did, in either direction.  A bare interpreter start
    slows by the same factor as the set-up, within a few per cent."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
    ]
    refs, setups = [time_child(REFERENCE)], []
    for _ in range(n):
        seconds = time_child(cmd)
        refs.append(time_child(REFERENCE))
        setups.append((seconds, statistics.fmean(refs[-2:])))
    return setups


def reference_loop() -> int:
    """Fixed pure-Python work of the kind gbs does: small tuples, str keys,
    dict updates, hashing and a sort."""
    d, acc = {}, 0
    for i in range(400):
        t = (i, i * 7 % 13, str(i % 17))
        d[t[1], t[2]] = d.get((t[1], t[2]), 0) + i
        acc ^= hash(t) & 0xFFFF
    return acc + len(sorted(d.items()))


class SpeedProbe:
    """Samples the speed of the machine during the timed passes.

    The host shares each core with other tenants.  The same Python code
    runs either at full speed or about 1.7x slower, switching within
    milliseconds, and the slow share drifts over minutes, so raw times
    of the same code differ by 20-30% between runs.  Before an operation,
    at most every PROBE_GAP_S, the probe times `reference_loop` (outside
    the operation's own timing).  An operation's time is divided by the
    mean probe time around it (`local`), and the mean of those ratios over
    the passes is multiplied by PROBE_UNIT_S: the time the operation takes
    on the machine that set the bounds, at full speed.  Even the full
    speed drifts by about 10% between runs, so the run's own best probe
    time would not do.  The machine's drift cancels; a slower program
    still shows."""

    def __init__(self):
        self.samples = []
        self.last = perf_counter()

    def sample(self) -> float:
        t0 = perf_counter()
        reference_loop()
        self.last = perf_counter()
        self.samples.append(self.last - t0)
        return self.samples[-1]

    def tick(self) -> int:
        """Probe if PROBE_GAP_S has passed; return the number of probes."""
        if perf_counter() - self.last >= PROBE_GAP_S:
            self.sample()
        return len(self.samples)

    def local(self):
        """A function of a probe count i: the mean time of the probes
        i - PROBE_WINDOW to i + PROBE_WINDOW - 1, which ran around an
        operation that started after i probes."""
        n = len(self.samples)
        if not n:
            return lambda i: 1.0
        cum = list(itertools.accumulate(self.samples, initial=0.0))

        def mean_around(i):
            lo, hi = max(0, min(i, n - 1) - PROBE_WINDOW), min(n, max(i, 1) + PROBE_WINDOW)
            return (cum[hi] - cum[lo]) / (hi - lo)

        return mean_around


def timed_pass(workloads, wl, expected, tracer=None, probe=None):
    rec = workloads.Pass(tracer, probe)
    wl.run(rec)
    rec.finish(expected)
    return rec


def quantile(values, n, i):
    return statistics.quantiles(values, n=n)[i] if len(values) > 1 else values[0]


def merge(acc: dict, rec, probe=None):
    """Add a pass's latencies to each operation's running sum and count (a
    failed operation adds nothing), and drop them, so memory does not grow
    with the number of passes.  With a probe, each latency is first
    divided by the probe's local mean time around it."""
    local = probe.local() if probe is not None else None
    for phase in PHASES:
        new = rec.lat[phase]
        if local is not None:
            new = [None if x is None else x / local(i) for x, i in zip(new, rec.probed[phase])]
        old = acc.get(phase) or [(0.0, 0)] * len(new)
        acc[phase] = [(t + x, n + 1) if x is not None else (t, n) for (t, n), x in zip(old, new)]
    rec.lat = None


def means(acc: dict, phase: str) -> list:
    """Each operation's mean time over the passes it succeeded in."""
    return [t / n for t, n in acc[phase] if n]


def mean_wall(acc: dict) -> float:
    """Time of one pass's timed phases, each operation at its mean."""
    return sum(sum(means(acc, phase)) for phase in PHASES)


def end_to_end(args, workloads, wl, expected):
    import ladder

    # The timed passes come in chunks between the ladders, and set-up is
    # timed between the chunks, so that the measurements are spread over
    # the whole run.  The first pass warms the interpreter up: its answers
    # are checked, its times are not used.
    chunks = len(LADDER_START[args.size]) + 1
    setups, ladders, acc, probe = [], [], {}, SpeedProbe()
    passes = [timed_pass(workloads, wl, expected)]
    passes[0].lat = None
    measured = 0.0
    for chunk, (kind, start) in enumerate([*LADDER_START[args.size].items(), (None, None)]):
        setups += time_setups(args, SETUPS_PER_CHUNK)
        first = len(passes)
        while len(passes) == first or measured < args.seconds * (chunk + 1) / chunks:
            t0 = perf_counter()
            passes.append(timed_pass(workloads, wl, expected, probe=probe))
            merge(acc, passes[-1], probe)
            measured += perf_counter() - t0
        if kind is not None:
            ladders.append(
                ladder.run_ladder(kind, start, LADDER_MAX_STEPS[args.size], LADDER_CAP_S, LADDER_CAP_MB)
            )
    setups += time_setups(args, SETUPS_PER_CHUNK)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    lat = {phase: [x * PROBE_UNIT_S for x in means(acc, phase)] for phase in PHASES}
    metrics = {
        "setup_s": (statistics.median(t / ref for t, ref in setups) * REFERENCE_UNIT_S, "s"),
        "wall_s": (mean_wall(acc) * PROBE_UNIT_S, "s"),
        "decisions_per_s": (len(lat["decide"]) / sum(lat["decide"]), "1/s"),
        "decide_p50_us": (statistics.median(lat["decide"]) * 1e6, "us"),
        "decide_p99_us": (quantile(lat["decide"], 100, 98) * 1e6, "us"),
        "build_p50_ms": (statistics.median(lat["build"]) * 1e3, "ms"),
        "build_p90_ms": (quantile(lat["build"], 10, 8) * 1e3, "ms"),
        "verify_p50_ms": (statistics.median(lat["verify"]) * 1e3, "ms"),
        "verify_p90_ms": (quantile(lat["verify"], 10, 8) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "cert_bytes": (passes[0].cert_bytes, "bytes"),
    }
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors]
    over_cap = 0
    for res in ladders:
        metrics[FRONTIER_METRIC[res["kind"]]] = (res["frontier"], "count")
        for st in res["steps"]:
            attempted += 1
            print(f"  ladder {res['kind']} {st['size']}: {st['outcome']} {st.get('detail', '')} ({st['seconds']:.2f} s)")
            if st["outcome"] == "over-cap":
                over_cap += 1
            elif st["outcome"] == "wrong":
                failed += 1
                errors.append(f"ladder {res['kind']} {st['size']}: {st['detail']}")

    print(f"{args.workload}: {len(passes)} passes (1 warm-up), samples decide={len(lat['decide'])} "
          f"build={len(lat['build'])} verify={len(lat['verify'])}; {len(probe.samples)} speed probes, "
          f"best {min(probe.samples) * 1e6:.1f} us, mean {statistics.fmean(probe.samples) * 1e6:.1f} us")
    print("  set-up runs (raw s / reference s): " + " ".join(f"{t:.3f}/{ref:.3f}" for t, ref in setups))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<18} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':<18} {(failed + over_cap) / attempted:>14.6g} ratio"
          f"  ({failed} failed, {over_cap} ladder steps over cap, {attempted} attempted)")
    return metrics, attempted, failed, errors


def per_layer(args, workloads, wl, expected):
    from spans import REPORTED, STAT_UNITS, Tracer

    tracer, probe = Tracer(), SpeedProbe()
    plain, traced, summaries = [], [], []
    plain_acc, traced_acc = {}, {}
    deadline = perf_counter() + args.seconds
    while len(traced) < MIN_PASSES or perf_counter() < deadline:
        plain.append(timed_pass(workloads, wl, expected, probe=probe))
        token = tracer.begin()
        with tracer:
            traced.append(timed_pass(workloads, wl, expected, tracer, probe))
        summaries.append(tracer.summarize(token))
        merge(plain_acc, plain[-1], probe)
        merge(traced_acc, traced[-1], probe)
        if len(traced) == 1:
            first_pass_end = len(tracer.fid)
        if traced[-1].digests != plain[-1].digests:
            traced[-1].fail("traced and untraced answer digests differ")
        if args.workload == "embed_grid":
            roots = summaries[-1]["bs_arith.embeds_bs"]["root_calls"]
            if roots != len(wl.points):
                traced[-1].fail(f"embeds_bs traced {roots} decisions of {len(wl.points)}: a binding was missed")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.txt", first_pass_end)

    first = summaries[0]
    metrics = {}
    for name, stats in REPORTED.items():
        for stat in stats:
            if stat == "self_s":
                value = min(s[name]["self_s"] for s in summaries)
            elif stat == "syllables_per_s":
                value = max(
                    s[name]["syllables"] / s[name]["self_s"] if s[name]["self_s"] else 0.0
                    for s in summaries
                )
            elif stat == "ok_ratio":
                value = first[name]["ok"] / first[name]["calls"] if first[name]["calls"] else 0.0
            else:
                value = first[name][stat]
            metrics[f"{name}.{stat}"] = (value, STAT_UNITS[stat])
    overhead = (mean_wall(traced_acc) - mean_wall(plain_acc)) * PROBE_UNIT_S
    metrics["trace.overhead_s"] = (overhead, "s")

    print(f"{args.workload}: {len(traced)} traced and {len(plain)} untraced passes")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:>14.6g} {unit}")
    passes = plain + traced
    errors = [e for p in passes for e in p.errors]
    return metrics, sum(p.attempted for p in passes), sum(p.failed for p in passes), errors


def main(argv=None) -> int:
    args = parse_args(argv)
    # One CPU for this process and every child it starts, so that the speed
    # probes measure the CPU the timed code runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "gbs" / "__init__.py").is_file():
        print(f"error: no gbs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads, wl = load_workload(args)
    if args.setup_only:
        return 0
    expected = workloads.EXPECTED[args.workload][args.size]["digests"]
    run = per_layer if args.trace else end_to_end
    metrics, attempted, failed, errors = run(args, workloads, wl, expected)
    for e in errors[:20]:
        print(f"  FAILED: {e}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes order gbs's vertex and edge sets, and so the work some
        # routines do: fix them, so that a seed always runs the same work
        script = str(Path(__file__).resolve())
        os.execve(sys.executable, [sys.executable, script, *sys.argv[1:]], {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
