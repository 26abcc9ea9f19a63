"""Benchmark for the arraycodes package: checked codec round trips and the
minimum-distance verifier, timed end to end and, with --trace 1, per layer.

    python3 perfbench/run.py --workload ted-exhaustive --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one process each

The package is imported from `src/` next to this directory.  The last line
of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}; the lines before it are a readable report and a `RECORD` line
with the run's metadata.  End-to-end times are normalised to the host's
speed by a reference kernel timed alongside them, see calibrate.py.  The
exit status is 1 when any output check failed and 2 when the package
source cannot be found.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple, Optional

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up is repeated at least SETUPS times, and after blocks while it has
# used under SETUP_SHARE of the timed phase.
SETUPS = 5
SETUP_SHARE = 0.1
# Reference kernel samples taken just before, and just after, each set-up
# and verifier pass.
REF_AROUND = 5
# Share of the timed phase given to verifier passes in te-verify (at
# least one pass); the round trips take the rest.
VERIFY_SHARE = 0.4
WORKLOADS = ("ted-exhaustive", "dc-wide", "te-verify")
# Candidate tail percentiles, highest first.
TAIL_LADDER = (95.0, 90.0, 75.0, 50.0)

END_TO_END = {          # metric -> unit; the JSON result carries these
    "setup_s": "s",
    "trials_per_s": "1/s",
    "decode_p50_us": "us",
    "encode_p50_us": "us",
    "peak_rss_mb": "MB",
}
REPORT_ONLY = {         # printed and recorded, not in the JSON result
    "decode_tail_us": "us",   # follows how busy the host is, see README.md
    "verify_s": "s",          # te-verify only
    "failed_frac": "ratio",   # always 0 when correct; `failed` carries it
}


def load_package():
    """Import arraycodes from this checkout's src/, never from elsewhere."""
    init = SRC / "arraycodes" / "__init__.py"
    if not init.is_file():
        print(f"error: package source not found at {init}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least 10 of n samples beyond it."""
    for q in TAIL_LADDER:
        if n - math.ceil(q / 100 * n) >= 10:
            return q
    return 50.0


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "arraycodes").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():         # never look above the checkout
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "nproc": os.cpu_count()}


def timed_setup(workload, seed: int, ref, times):
    """Build the workload once; record (seconds, reference kernel time
    around it)."""
    gc.collect()
    before = ref.median_of(REF_AROUND)
    t0 = time.perf_counter()
    state = workload(seed)
    elapsed = time.perf_counter() - t0
    times.append((elapsed, (before + ref.median_of(REF_AROUND)) / 2))
    return state


class BlockStats(NamedTuple):
    trials: int
    busy_s: float             # wall time less the kernel samples inside
    decode_p50: float         # seconds
    decode_tail: float
    tail_q: float             # the percentile behind decode_tail
    encode_p50: float
    decodes: int
    encodes: int
    ref_s: float              # median kernel time in and around the block

    def scaled(self, seconds: float) -> float:
        """A time of this block at the nominal host speed."""
        return seconds / self.ref_s * calibrate.NOMINAL_S


def summarize(block, inside_s: float, ref_s: float) -> Optional[BlockStats]:
    """A block's statistics, so the per-call samples can be dropped and
    memory does not grow with the number of trials; None if it has no
    successful decode or encode to time."""
    if not block.decode_s or not block.encode_s:
        return None
    q = tail_percentile(len(block.decode_s))
    return BlockStats(block.trials, block.wall_s - inside_s,
                      statistics.median(block.decode_s),
                      percentile(block.decode_s, q), q,
                      statistics.median(block.encode_s),
                      len(block.decode_s), len(block.encode_s), ref_s)


def measure(workload, seed: int, seconds: float):
    """Set up, then the timed phase: blocks of round trips until `seconds`
    have passed.  In te-verify, verifier passes are interleaved with the
    blocks so that they take VERIFY_SHARE of the phase.

    The reference kernel is sampled before and after every block, every
    calibrate.EVERY_S between its trials, and around every set-up and
    verifier pass.  Set-up is repeated right after blocks while it has
    taken under SETUP_SHARE of the elapsed time, and after the phase until
    there are SETUPS repetitions.  Only the first state is used.
    """
    from workloads import Block
    ref = calibrate.RefClock()
    setups = []
    state = timed_setup(workload, seed, ref, setups)
    tally = Block()
    tally.absorb(state.checks)
    gc.collect()
    start = time.perf_counter()
    verify_s, stats = [], []
    verifies = hasattr(state, "verify_pass")
    while not stats or time.perf_counter() - start < seconds:
        if verifies and sum(t for t, _ in verify_s) <= VERIFY_SHARE * (time.perf_counter() - start):
            before = ref.median_of(REF_AROUND)
            t0 = time.perf_counter()
            state.verify_pass(tally)
            elapsed = time.perf_counter() - t0
            verify_s.append((elapsed, (before + ref.median_of(REF_AROUND)) / 2))
            continue
        first = len(ref.samples)
        ref.sample()
        spent = ref.spent_s
        block = state.block(len(stats), ref.between_trials)
        inside_s = ref.spent_s - spent
        ref.sample()
        tally.absorb(block)
        stats.append(summarize(block, inside_s, statistics.median(ref.samples[first:])))
        if sum(t for t, _ in setups) < SETUP_SHARE * (time.perf_counter() - start):
            timed_setup(workload, seed, ref, setups)
    while len(setups) < SETUPS:
        timed_setup(workload, seed, ref, setups)
    return setups, stats, verify_s, tally


def end_to_end(setups, stats, verify_s, tally):
    """Metric -> (value, samples, note).

    Every time is taken as a multiple of the reference kernel's time in
    the same stretch of the run and scaled to the nominal host speed (see
    calibrate.py), and each metric is the median over the run: over its
    blocks for rates and latencies, over its set-ups for setup_s.
    """
    stats = [s for s in stats if s is not None]
    n = len(stats)

    def over_blocks(of):
        return statistics.median(of(s) for s in stats) if stats else 0.0

    m = {
        "setup_s": (statistics.median(t / r for t, r in setups) * calibrate.NOMINAL_S,
                    len(setups), "set-ups, median"),
        "trials_per_s": (over_blocks(lambda s: s.trials / s.scaled(s.busy_s)), n,
                         f"blocks, median; {sum(s.trials for s in stats)} trials"),
        "decode_p50_us": (over_blocks(lambda s: s.scaled(s.decode_p50)) * 1e6, n,
                          f"blocks, median; {sum(s.decodes for s in stats)} decodes"),
        "decode_tail_us": (over_blocks(lambda s: s.scaled(s.decode_tail)) * 1e6, n,
                           f"blocks, median; p{min((s.tail_q for s in stats), default=0.0):g}"
                           " of each block"),
        "encode_p50_us": (over_blocks(lambda s: s.scaled(s.encode_p50)) * 1e6, n,
                          f"blocks, median; {sum(s.encodes for s in stats)} encodes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        1, "process peak"),
        "failed_frac": (tally.failed / tally.attempted, tally.attempted, "operations"),
    }
    if verify_s:
        m["verify_s"] = (statistics.median(t / r for t, r in verify_s) * calibrate.NOMINAL_S,
                         len(verify_s), "passes, median")
    return m


def unscaled(setups, stats, verify_s) -> dict:
    """The same medians in plain wall time, for the record."""
    stats = [s for s in stats if s is not None]
    raw = {"setup_s": statistics.median(t for t, _ in setups)}
    if stats:
        raw.update({
            "trials_per_s": statistics.median(s.trials / s.busy_s for s in stats),
            "decode_p50_us": statistics.median(s.decode_p50 for s in stats) * 1e6,
            "encode_p50_us": statistics.median(s.encode_p50 for s in stats) * 1e6,
            "ref_s": statistics.median(s.ref_s for s in stats)})
    if verify_s:
        raw["verify_s"] = statistics.median(t for t, _ in verify_s)
    return raw


def run_untraced(workload, args):
    setups, stats, verify_s, tally = measure(workload, args.seed, args.seconds)
    metrics = end_to_end(setups, stats, verify_s, tally)
    stats = [s for s in stats if s is not None]
    units = {**END_TO_END, **REPORT_ONLY}
    for name, (value, samples, note) in metrics.items():
        print(f"  {name:<16} {value:>14.6g} {units[name]:<6} ({samples} {note})")
    record = {"tracing": "off", "nominal_ref_s": calibrate.NOMINAL_S,
              "tail_percentile": min((s.tail_q for s in stats), default=None),
              "samples": {k: v[1] for k, v in metrics.items()},
              "report_only": {k: metrics[k][0] for k in REPORT_ONLY if k in metrics},
              "unscaled": unscaled(setups, stats, verify_s),
              "setups": setups, "verify_passes": verify_s,
              "blocks": [[s.trials / s.busy_s, s.decode_p50 * 1e6, s.decode_tail * 1e6,
                          s.encode_p50 * 1e6, s.ref_s * 1e6] for s in stats]}
    result = {k: metrics[k][0] for k in END_TO_END}
    return tally, result, END_TO_END, record


def run_traced(workload, args):
    """Fixed work (the workload's trace_blocks, plus one verifier pass in
    te-verify) run twice: untraced for reference, then traced, so counts
    repeat exactly for a seed and the overhead is the ratio of the two."""
    import tracing
    from workloads import Block

    def fixed_work(state, tally, on_trial=None):
        if hasattr(state, "verify_pass"):
            state.verify_pass(tally)
        for i in range(state.trace_blocks):
            tally.absorb(state.block(i, on_trial))

    state = workload(args.seed)
    gc.collect()
    t0 = time.perf_counter()
    fixed_work(state, Block())
    reference_s = time.perf_counter() - t0

    tracer = tracing.Tracer()
    tracer.install()
    try:
        state = workload(args.seed)             # set-up layers are traced too
        tally = Block()
        tally.absorb(state.checks)
        gc.collect()
        t0 = time.perf_counter()
        fixed_work(state, tally, tracer.set_trial)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload.name}-seed{args.seed}.tsv"
    tracer.write_spans(spans)

    result = tracer.metrics()
    result["trace.overhead_frac"] = traced_s / reference_s - 1
    units = tracing.metric_units()
    for name, value in result.items():
        absent = name.rsplit(".", 1)[0] in tracer.absent
        shown = "absent" if absent else f"{value:.6g}"
        print(f"  {name:<48} {shown:>14} {units[name]}")
    record = {"tracing": "on", "reference_s": reference_s, "traced_s": traced_s,
              "trace_overhead_frac": result["trace.overhead_frac"],
              "spans": tracer.span_count, "span_file": str(spans.relative_to(ROOT)),
              "absent": tracer.absent}
    return tally, result, units, record


def run_one(args) -> int:
    load_package()
    import workloads            # importable once src/ is on the path
    workload = workloads.WORKLOADS[args.workload]
    print(f"arraycodes benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    runner = run_traced if args.trace else run_untraced
    tally, result, units, record = runner(workload, args)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, **provenance(),
              "first_failure": tally.first_failure, **record}
    print("RECORD " + json.dumps(record))
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result.items()},
    }))
    return 0 if tally.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory and set-up time
    belong to that workload."""
    from_here = [sys.executable, str(Path(__file__).resolve())]
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(from_here + [
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)])
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload; default: every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the timed phase of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
