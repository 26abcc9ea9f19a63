"""Replayable A/B runs of the benchmark: a parent revision against the
working tree.

    python3 tools/ab.py --workload te-verify --pairs 10 --seconds 8
    python3 tools/ab.py --parent HEAD~1 --workload dc-wide   # a committed change
    python3 tools/ab.py --workload te-verify   # on a clean tree: the host's noise

The parent revision is exported with `git archive` into `<tmp>/p`, and
the working tree this script sits in is copied into `<tmp>/c`: its tracked
files and its untracked files that git does not ignore, as they are on
disk.  Both sides thus run from sibling directories whose paths have the
same length, since `peak_rss_mb` follows the directory a checkout sits in
(by up to 0.2 MB on `ted-exhaustive`).  For each workload, pair k = 1..N
runs `perfbench/run.py --workload W --seed S+k-1 --seconds T --trace 0` on
both sides, S the first seed (`--first-seed`, 1 by default), the parent
first in odd pairs and the change first in even ones.  Only the standard
library is used.

One JSON line per workload follows, with, for each end-to-end metric that
`BENCHMARK.json` names, both sides' medians and quartiles, the parent's
interquartile range, the pairs the change won (ties count for neither
side) and a verdict.  The change is "better" when it won at least nine
tenths of the pairs and its median is better than the parent's by more
than the parent's interquartile range, "worse" under the same rule the
other way, and "no change" otherwise.  Next to the verdict stand the
metric's `bound` from `BENCHMARK.json` and whether the change's median
lies within it of the parent's (|`change_frac`| <= `bound`), so that a
"worse" verdict over a tiny interquartile range, as `peak_rss_mb` can
give, reads against the bound it is held to.  The report-only metrics of
the run's `RECORD` line (`verify_s`, `decode_tail_us`) and its plain
wall-time medians (`unscaled.trials_per_s` and so on) get the same
summary, with `"bound": null` and `"gated": false`; the gated metrics
read `"gated": true`.  Quartiles are
`statistics.quantiles(..., method="inclusive")`.  The line ends with the
raw (parent, change) metrics of every pair, so `summarize` can be replayed
on them.  A run that fails its checks, or prints no result, is counted in
`failed_runs` and its pair is left out; `failures` says why, one entry per
failed run: its side ("parent" or "change"), seed, exit code and reason,
the `first_failure` of its `RECORD` line when that names one, else the
last line it wrote to standard error.  Exit status: 0, or 1 when any run
failed.

With `--append`, each workload's result is also appended as one JSON line
to `BENCH_<workload>.json` at the repository root, the benchmark's
trajectory: the UTC date, the parent's full SHA, the `src_sha256` of the
change's `src/` tree (see `src_sha256`), the interpreter, the seeds, the
seconds per run, the failed runs, and for each metric its two medians,
the parent's interquartile range and the verdict.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
# The report-only metrics of a run's `RECORD` line that are summarised, with
# the direction that is better, and the prefix of its plain wall-time
# medians, its `unscaled` block.  Neither is gated.
REPORT_ONLY = {"verify_s": "lower", "decode_tail_us": "lower"}
UNSCALED = "unscaled."


def quartiles(values: Sequence[float]):
    """(q1, median, q3) of at least one value."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: Sequence[tuple], better: Dict[str, str],
              bounds: Optional[Dict[str, float]] = None) -> Dict[str, dict]:
    """Per-metric summary of (parent metrics, change metrics) pairs.

    `better` maps each metric to "lower" or "higher", and `bounds` to its
    `bound` in `BENCHMARK.json`, if any; a metric is `gated` when it has
    one.  Metrics missing from any run are skipped.
    """
    bounds = bounds or {}
    out = {}
    n = len(pairs)
    for name, direction in better.items():
        if not n or any(name not in p or name not in c for p, c in pairs):
            continue
        sign = 1 if direction == "lower" else -1
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        iqr = p3 - p1
        gain = sign * (pm - cm)          # > 0: the change is better
        if 10 * wins >= 9 * n and gain > iqr:
            verdict = "better"
        elif 10 * losses >= 9 * n and -gain > iqr:
            verdict = "worse"
        else:
            verdict = "no change"
        frac = (cm - pm) / pm if pm else None
        bound = bounds.get(name)
        out[name] = {"parent_median": pm, "change_median": cm,
                     "parent_quartiles": [p1, p3], "change_quartiles": [c1, c3],
                     "parent_iqr": iqr, "change_frac": frac,
                     "wins": wins, "losses": losses, "pairs": n,
                     "verdict": verdict, "bound": bound, "gated": bound is not None,
                     "within_bound": (None if bound is None or frac is None
                                      else abs(frac) <= bound)}
    return out


def export(rev: str, into: Path) -> Path:
    """The files of `rev`, as `git archive` writes them, under `into`."""
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        if hasattr(tarfile, "data_filter"):     # Python 3.10.12, 3.11.4 and later
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)
    return into


def copy_worktree(into: Path) -> Path:
    """The working tree's tracked and untracked-but-not-ignored files, as
    they are on disk, copied under `into`; a tracked file deleted from the
    working tree is left out."""
    names = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z", "--cached",
                            "--others", "--exclude-standard"],
                           check=True, capture_output=True).stdout.decode()
    for name in filter(None, names.split("\0")):
        if (ROOT / name).is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, into / name)
    return into


def src_sha256(tree: Path) -> str:
    """The sha256 of the files under `tree/src`, in the order of their
    relative paths: each adds its path, a NUL and the sha256 of its bytes."""
    digest = hashlib.sha256()
    src = tree / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def trajectory_line(result: dict, parent_sha: str, src_hash: str) -> dict:
    """The `BENCH_<workload>.json` line of one workload's A/B result."""
    seeds = list(range(result["first_seed"], result["first_seed"] + result["pairs"]))
    return {"date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "workload": result["workload"], "parent": result["parent"],
            "parent_sha": parent_sha, "src_sha256": src_hash,
            "interpreter": f"{platform.python_implementation()} {platform.python_version()}",
            "seeds": seeds, "seconds": result["seconds"],
            "failed_runs": result["failed_runs"],
            "metrics": {name: {key: m[key] for key in ("parent_median", "change_median",
                                                        "parent_iqr", "verdict")}
                        for name, m in result["metrics"].items()}}


class Failure(NamedTuple):
    """Why one benchmark run gave no metrics."""

    exit_code: int
    reason: str


def run_once(tree: Path, workload: str, seed: int, seconds: float):
    """The metrics of one benchmark run, or a `Failure`: the end-to-end
    ones by name, the `RECORD` line's report-only ones named in
    `REPORT_ONLY` by name, and its plain wall-time medians as
    `unscaled.<name>`."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    records = [json.loads(line[len("RECORD "):]) for line in lines
               if line.startswith("RECORD ")]
    record = records[-1] if records else {}
    if not done.returncode and result is not None and result.get("correct"):
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        metrics.update((name, value) for name, value in record.get("report_only", {}).items()
                       if name in REPORT_ONLY)
        metrics.update((UNSCALED + name, value)
                       for name, value in record.get("unscaled", {}).items())
        return metrics
    reason = record.get("first_failure")
    if not reason:
        errors = done.stderr.strip().splitlines()
        reason = errors[-1] if errors else "no result line and no error output"
    return Failure(done.returncode, reason)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload in BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--first-seed", type=int, default=1,
                        help="seed of the first pair; pair k runs seed first + k - 1")
    parser.add_argument("--append", action="store_true",
                        help="also append each workload's result to BENCH_<workload>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    better.update(REPORT_ONLY)
    better.update({UNSCALED + name: way for name, way in better.items()})
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    status = 0
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        parent, change = export(args.parent, Path(tmp, "p")), copy_worktree(Path(tmp, "c"))
        if args.append:
            parent_sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "--verify", args.parent + "^{commit}"],
                check=True, capture_output=True, text=True).stdout.strip()
            src_hash = src_sha256(change)
        for workload in workloads:
            pairs: List[tuple] = []
            failures: List[dict] = []
            for k, seed in enumerate(range(args.first_seed, args.first_seed + args.pairs), 1):
                order = (parent, change) if k % 2 else (change, parent)
                runs = {tree: run_once(tree, workload, seed, args.seconds)
                        for tree in order}
                failed = {tree: run for tree, run in runs.items() if isinstance(run, Failure)}
                failures += [{"side": "parent" if tree == parent else "change", "seed": seed,
                              "exit_code": run.exit_code, "reason": run.reason}
                             for tree, run in failed.items()]
                if not failed:
                    pairs.append((runs[parent], runs[change]))
            status = status or int(bool(failures))
            result = {"workload": workload, "parent": args.parent,
                      "pairs": args.pairs, "first_seed": args.first_seed,
                      "seconds": args.seconds,
                      "failed_runs": len(failures), "failures": failures,
                      "metrics": summarize(pairs, better, bounds), "runs": pairs}
            print(json.dumps(result), flush=True)
            if args.append:
                with open(ROOT / f"BENCH_{workload}.json", "a") as trajectory:
                    trajectory.write(json.dumps(trajectory_line(result, parent_sha,
                                                                src_hash)) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
