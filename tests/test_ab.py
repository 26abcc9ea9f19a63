"""The A/B tool's summary rule on fixed numbers, the seeds of its pairs and
the trees both sides run from (no benchmark runs)."""

import datetime
import hashlib
import importlib.util
import json
import platform
import subprocess
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

BETTER = {"decode_p50_us": "lower", "trials_per_s": "higher"}


def stub_git_tree(repo):
    """A git repository at `repo` whose one file is this repository's
    BENCHMARK.json, untracked: `copy_worktree` copies that file alone, and
    needs no git checkout of this repository."""
    repo.mkdir()
    (repo / "BENCHMARK.json").write_bytes((ab.ROOT / "BENCHMARK.json").read_bytes())
    subprocess.run(["git", "init", "-q", str(repo)], check=True, capture_output=True)
    return repo


def pairs_of(parent, change, name="decode_p50_us"):
    return [({name: p}, {name: c}) for p, c in zip(parent, change)]


def test_quartiles_are_inclusive():
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_clear_gain_is_better():
    parent = [5.7, 5.8, 5.75, 5.9, 5.72, 5.78, 5.81, 5.69, 5.74, 5.77]
    change = [5.0, 5.1, 5.05, 5.9, 5.02, 5.08, 5.11, 4.99, 5.04, 5.07]
    out = ab.summarize(pairs_of(parent, change), BETTER)["decode_p50_us"]
    assert (out["wins"], out["losses"], out["pairs"]) == (9, 0, 10)   # one tie
    assert out["verdict"] == "better"
    assert out["parent_median"] == pytest.approx(5.76)
    assert out["change_median"] == pytest.approx(5.06)
    assert out["parent_iqr"] == pytest.approx(5.795 - 5.725)
    assert out["change_frac"] == pytest.approx(-0.7 / 5.76)


def test_eight_wins_of_ten_is_no_change():
    parent = [10.0] * 10
    change = [9.0] * 8 + [11.0] * 2
    out = ab.summarize(pairs_of(parent, change), BETTER)["decode_p50_us"]
    assert (out["wins"], out["verdict"]) == (8, "no change")


def test_a_gap_inside_the_parent_iqr_is_no_change():
    parent = [10.0, 12.0, 10.0, 12.0]
    change = [9.5, 11.5, 9.5, 11.5]
    out = ab.summarize(pairs_of(parent, change), BETTER)["decode_p50_us"]
    assert out["wins"] == 4 and out["parent_iqr"] == 2.0
    assert out["verdict"] == "no change"


def test_higher_is_better_and_a_loss_is_worse():
    parent = [100.0, 101.0, 99.0, 100.5, 100.2, 99.8]
    change = [90.0, 91.0, 89.0, 90.5, 90.2, 89.8]
    out = ab.summarize(pairs_of(parent, change, "trials_per_s"), BETTER)
    assert set(out) == {"trials_per_s"}     # decode_p50_us is in no run
    assert (out["trials_per_s"]["losses"], out["trials_per_s"]["verdict"]) == (6, "worse")
    flipped = ab.summarize(pairs_of(change, parent, "trials_per_s"), BETTER)
    assert flipped["trials_per_s"]["verdict"] == "better"


def test_the_bound_stands_next_to_the_verdict():
    """A 0.5% peak shift over a near-zero IQR reads "worse" yet lies within
    its bound of 0.1; a 20% one lies outside it; no bound, no answer."""
    better, bounds = {"peak_rss_mb": "lower"}, {"peak_rss_mb": 0.1}
    parent = [24.10, 24.11, 24.10, 24.12, 24.11, 24.10]

    def summary(change, *bounds):
        return ab.summarize(pairs_of(parent, change, "peak_rss_mb"), better,
                            *bounds)["peak_rss_mb"]

    near = summary([v * 1.005 for v in parent], bounds)
    assert (near["verdict"], near["bound"], near["within_bound"]) == ("worse", 0.1, True)
    far = summary([v * 1.2 for v in parent], bounds)
    assert (far["verdict"], far["within_bound"]) == ("worse", False)
    unbound = summary([v * 1.005 for v in parent])
    assert (unbound["bound"], unbound["within_bound"]) == (None, None)


def test_no_pairs_summarizes_nothing():
    assert ab.summarize([], BETTER) == {}


@pytest.mark.parametrize("argv, seeds", [
    ((), [1, 2, 3]),
    (("--first-seed", "101"), [101, 102, 103]),
])
def test_pairs_run_consecutive_seeds_from_the_first(monkeypatch, capsys, tmp_path, argv, seeds):
    """Pair k runs seed first + k - 1 on both sides, the parent first in
    odd pairs; the default first seed is 1."""
    calls = []

    def fake_run(tree, workload, seed, seconds):
        calls.append(("parent" if tree == tmp_path else "change", seed))
        return {"decode_p50_us": 1.0}

    monkeypatch.setattr(ab, "ROOT", stub_git_tree(tmp_path / "repo"))
    monkeypatch.setattr(ab, "export", lambda rev, into: tmp_path)
    monkeypatch.setattr(ab, "run_once", fake_run)
    assert ab.main(["--workload", "ted-exhaustive", "--pairs", "3", *argv]) == 0
    a, b, c = seeds
    assert calls == [("parent", a), ("change", a), ("change", b), ("parent", b),
                     ("parent", c), ("change", c)]
    line = json.loads(capsys.readouterr().out)
    assert (line["first_seed"], line["pairs"], line["failed_runs"]) == (a, 3, 0)
    decode = line["metrics"]["decode_p50_us"]      # bound 0.25 in BENCHMARK.json
    assert (decode["bound"], decode["within_bound"]) == (0.25, True)


def test_both_sides_run_from_sibling_trees(monkeypatch, tmp_path):
    """The parent runs from <tmp>/p and the change from a copy at <tmp>/c
    of the working tree, uncommitted edits and untracked files included,
    ignored files left out: two paths of one length under one root."""
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)

    def git(*args):
        subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True)

    git("init", "-q")
    (repo / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "decode_p50_us", "better": "lower"}], "workloads": []}))
    (repo / ".gitignore").write_text("out/\n")
    (repo / "pkg" / "mod.py").write_text("X = 1\n")
    git("add", "BENCHMARK.json", ".gitignore", "pkg/mod.py")
    (repo / "pkg" / "mod.py").write_text("X = 2\n")      # an uncommitted edit
    (repo / "new.py").write_text("Y = 3\n")              # untracked, not ignored
    (repo / "out").mkdir()
    (repo / "out" / "run.log").write_text("")
    trees = {}

    def fake_export(rev, into):
        into.mkdir()
        trees["parent"] = into
        return into

    def fake_run(tree, workload, seed, seconds):
        if tree != trees["parent"]:
            trees["change"] = tree
            files = sorted(str(f.relative_to(tree)) for f in tree.rglob("*") if f.is_file())
            assert files == [".gitignore", "BENCHMARK.json", "new.py", "pkg/mod.py"]
            assert (tree / "pkg" / "mod.py").read_text() == "X = 2\n"
        return {"decode_p50_us": 1.0}

    monkeypatch.setattr(ab, "ROOT", repo)
    monkeypatch.setattr(ab, "export", fake_export)
    monkeypatch.setattr(ab, "run_once", fake_run)
    assert ab.main(["--workload", "w", "--pairs", "1"]) == 0
    parent, change = trees["parent"], trees["change"]
    assert parent.parent == change.parent != repo.parent
    assert (parent.name, change.name) == ("p", "c")
    assert len(str(parent)) == len(str(change))


def stub_tree(root, body):
    """A tree whose `perfbench/run.py` is `body`."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(body)
    return root


def test_a_failed_run_says_why(monkeypatch, capsys, tmp_path):
    """A run that exits 1 gives no metrics; the JSON line names its side,
    seed, exit code and last line of standard error, and ab exits 1."""
    broken = stub_tree(tmp_path / "p", "import sys\n"
                       "print('Traceback (most recent call last):', file=sys.stderr)\n"
                       "print('ValueError: boom', file=sys.stderr)\n"
                       "sys.exit(1)\n")
    run_once = ab.run_once
    failure = run_once(broken, "w", 7, 1.0)
    assert (failure.exit_code, failure.reason) == (1, "ValueError: boom")

    def fake_run(tree, workload, seed, seconds):
        return run_once(tree, workload, seed, seconds) if tree == broken \
            else {"decode_p50_us": 1.0}

    monkeypatch.setattr(ab, "ROOT", stub_git_tree(tmp_path / "repo"))
    monkeypatch.setattr(ab, "export", lambda rev, into: broken)
    monkeypatch.setattr(ab, "run_once", fake_run)
    assert ab.main(["--workload", "w", "--pairs", "2", "--first-seed", "5"]) == 1
    line = json.loads(capsys.readouterr().out)
    assert line["failed_runs"] == 2 and line["runs"] == [] and line["metrics"] == {}
    assert line["failures"] == [
        {"side": "parent", "seed": seed, "exit_code": 1, "reason": "ValueError: boom"}
        for seed in (5, 6)]


def test_a_failed_check_is_named_from_the_record(tmp_path):
    """A run whose checks failed is named by its RECORD's first failure."""
    tree = stub_tree(tmp_path, "import json, sys\n"
                     "print('RECORD ' + json.dumps({'first_failure': 'wrong decode: m=[1]'}))\n"
                     "print(json.dumps({'correct': False, 'metrics': {}}))\n"
                     "sys.exit(1)\n")
    failure = ab.run_once(tree, "w", 1, 1.0)
    assert (failure.exit_code, failure.reason) == (1, "wrong decode: m=[1]")


def record_tree(root, trials_per_s, verify_s):
    """A tree whose run prints a RECORD line with report-only and unscaled
    blocks, as `perfbench/run.py` does, and one gated metric."""
    record = {"first_failure": None,
              "report_only": {"decode_tail_us": 12.5, "verify_s": verify_s, "failed_frac": 0.0},
              "unscaled": {"setup_s": 0.02, "trials_per_s": 0.9 * trials_per_s,
                           "ref_s": 0.001}}
    result = {"correct": True, "metrics": {"trials_per_s": {"value": trials_per_s,
                                                            "unit": "1/s"}}}
    return stub_tree(root, "import json\n"
                     f"print('RECORD ' + json.dumps({record!r}))\n"
                     f"print(json.dumps({result!r}))\n")


def test_report_only_and_unscaled_metrics_are_summarised_ungated(monkeypatch, capsys, tmp_path):
    """`verify_s`, `decode_tail_us` and the unscaled medians get the gated
    metrics' summary, with no bound and `gated: false`; `failed_frac` and
    the reference kernel's `ref_s` have no better direction and are left
    out of it."""
    parent = record_tree(tmp_path / "p", 80000.0, 0.20)
    change = record_tree(tmp_path / "c", 90000.0, 0.19)
    assert ab.run_once(parent, "w", 1, 1.0) == {
        "trials_per_s": 80000.0, "decode_tail_us": 12.5, "verify_s": 0.20,
        "unscaled.setup_s": 0.02, "unscaled.trials_per_s": 72000.0, "unscaled.ref_s": 0.001}
    monkeypatch.setattr(ab, "export", lambda rev, into: parent)
    monkeypatch.setattr(ab, "copy_worktree", lambda into: change)
    assert ab.main(["--workload", "te-verify", "--pairs", "2"]) == 0
    metrics = json.loads(capsys.readouterr().out)["metrics"]
    assert set(metrics) == {"trials_per_s", "decode_tail_us", "verify_s",
                            "unscaled.setup_s", "unscaled.trials_per_s"}
    gated = metrics.pop("trials_per_s")
    assert (gated["gated"], gated["bound"], gated["verdict"]) == (True, 0.25, "better")
    for name, summary in metrics.items():
        assert (summary["gated"], summary["bound"], summary["within_bound"]) == \
            (False, None, None), name
    assert metrics["verify_s"]["verdict"] == metrics["unscaled.trials_per_s"]["verdict"] == "better"
    assert metrics["unscaled.trials_per_s"]["change_median"] == pytest.approx(81000.0)
    assert metrics["decode_tail_us"]["verdict"] == "no change"


def test_append_writes_one_trajectory_line_per_workload(monkeypatch, capsys, tmp_path):
    """`--append` adds one JSON line per workload to BENCH_<workload>.json at
    the repository root, after the lines already there: the parent's full
    SHA, the change's `src_sha256`, the interpreter, the seeds, the seconds
    and each metric's medians, IQR and verdict as the printed line has them."""
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        return subprocess.run(["git", "-C", str(repo), "-c", "user.name=ab",
                               "-c", "user.email=ab@example.invalid", *args],
                              check=True, capture_output=True, text=True).stdout.strip()

    git("init", "-q")
    (repo / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "trials_per_s", "better": "higher", "bound": 0.25}],
         "workloads": []}))
    git("add", "BENCHMARK.json")
    git("commit", "-q", "-m", "parent")
    sha = git("rev-parse", "HEAD")
    (repo / "BENCH_w.json").write_text('{"earlier": true}\n')
    parent = record_tree(tmp_path / "p", 80000.0, 0.20)
    change = record_tree(tmp_path / "c", 90000.0, 0.19)
    (change / "src" / "pkg").mkdir(parents=True)
    (change / "src" / "pkg" / "mod.py").write_text("X = 1\n")
    monkeypatch.setattr(ab, "ROOT", repo)
    monkeypatch.setattr(ab, "export", lambda rev, into: parent)
    monkeypatch.setattr(ab, "copy_worktree", lambda into: change)
    argv = ["--workload", "w", "--workload", "v", "--pairs", "2", "--first-seed", "11",
            "--seconds", "3", "--append"]
    assert ab.main(argv) == 0
    printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    earlier, line = [json.loads(text) for text in (repo / "BENCH_w.json").read_text().splitlines()]
    assert earlier == {"earlier": True}
    assert len((repo / "BENCH_v.json").read_text().splitlines()) == 1
    digest = hashlib.sha256(b"pkg/mod.py\0" + hashlib.sha256(b"X = 1\n").digest())
    assert ab.src_sha256(change) == line["src_sha256"] == digest.hexdigest()
    assert (line["workload"], line["parent"], line["parent_sha"]) == ("w", "HEAD", sha)
    assert (line["seeds"], line["seconds"], line["failed_runs"]) == ([11, 12], 3.0, 0)
    assert line["interpreter"] == f"{platform.python_implementation()} " \
                                  f"{platform.python_version()}"
    assert datetime.datetime.fromisoformat(line["date"]).tzinfo is not None
    summary = printed[0]["metrics"]
    assert set(line["metrics"]) == set(summary)
    for name, metric in line["metrics"].items():
        assert metric == {key: summary[name][key] for key in
                          ("parent_median", "change_median", "parent_iqr", "verdict")}
    assert line["metrics"]["trials_per_s"]["verdict"] == "better"


def test_no_append_writes_no_trajectory(monkeypatch, tmp_path):
    parent = record_tree(tmp_path / "p", 80000.0, 0.20)
    monkeypatch.setattr(ab, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [], "workloads": []}))
    monkeypatch.setattr(ab, "export", lambda rev, into: parent)
    monkeypatch.setattr(ab, "copy_worktree", lambda into: parent)
    assert ab.main(["--workload", "w", "--pairs", "1"]) == 0
    assert not list(tmp_path.glob("BENCH_*.json"))
