"""scripts/bench_pairs.py: seed parsing, quartiles and the exit status."""

import importlib.util
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


@pytest.mark.parametrize("text, seeds", [
    ("5", [5]),
    ("1-4", [1, 2, 3, 4]),
    ("3,5,8", [3, 5, 8]),
    ("1-3,7", [1, 2, 3, 7]),
    ("0-0", [0]),
])
def test_parse_seeds(text, seeds):
    assert bench_pairs.parse_seeds(text) == seeds


@pytest.mark.parametrize("text", ["", "x", "1-", "-3", "1-x", "1,,2", "4-2", "1.5"])
def test_parse_seeds_rejects_malformed(text):
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds(text)


@pytest.mark.parametrize("values, expected", [
    ([7.0], (7.0, 7.0, 7.0)),
    ([1.0, 2.0, 3.0, 4.0, 5.0], (2.0, 3.0, 4.0)),
    ([4.0, 1.0, 3.0, 2.0], (1.75, 2.5, 3.25)),
])
def test_quartiles(values, expected):
    assert bench_pairs.quartiles(values) == pytest.approx(expected, abs=1e-12)


def test_malformed_seeds_give_one_stderr_line(capsys):
    code = bench_pairs.main(["--parent", "HEAD", "--workload", "embed", "--seeds", "1-x"])
    err = capsys.readouterr().err
    assert code != 0
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


@pytest.fixture
def any_parent(monkeypatch):
    """Every --parent revision is known, so a test runs outside a git checkout too."""
    monkeypatch.setattr(bench_pairs, "known_revision", lambda rev: True)


def fake_result(correct=True, failed=0, throughput=10.0):
    names = ["throughput_per_s", "latency_ms_p50", "latency_ms_p90", "setup_s", "peak_rss_mb"]
    return {"correct": correct, "attempted": 5, "failed": failed,
            "metrics": {name: {"value": throughput} for name in names}}


@pytest.mark.parametrize("bad, code", [
    ({}, 0),
    ({"correct": False, "failed": 1}, 1),
    ({"failed": 1}, 1),
    ({"correct": False}, 1),
])
def test_exit_status_reflects_every_run(monkeypatch, capsys, any_parent, bad, code):
    calls = []

    def run(checkout, workload, seed, seconds):
        calls.append(checkout)
        return fake_result(**bad) if len(calls) == 3 else fake_result()

    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "run", run)
    assert bench_pairs.main(["--parent", "HEAD", "--workload", "embed", "--seeds", "1-2"]) == code
    assert len(calls) == 4
    assert "all runs correct" in capsys.readouterr().out


@pytest.mark.parametrize("parent, change, higher_verdict, lower_verdict", [
    ([10, 10, 10, 10], [7, 7, 7, 7], "worse beyond bound", "within bound"),
    ([10, 10, 10, 10], [13, 13, 13, 13], "within bound", "worse beyond bound"),
    ([6, 10, 14, 18], [7, 9, 15, 17], "unresolved", "unresolved"),
    ([6, 10, 14, 18], [6.5, 10.5, 14.5, 18.5], "unresolved", "unresolved"),
    ([6, 10, 14, 18], [19, 20, 21, 22], "within bound", "worse beyond bound"),
    ([6, 10, 14, 18], [1, 2, 3, 5], "worse beyond bound", "within bound"),
], ids=["30pct-less", "30pct-more", "noisy-mixed", "noisy-higher-every-pair",
        "noisy-above-every-run", "noisy-below-every-run"])
def test_each_metric_gets_a_verdict_against_its_bound(monkeypatch, capsys, any_parent, parent,
                                                      change, higher_verdict, lower_verdict):
    # every metric of a side reads the same value, so throughput (higher is better) and
    # latency (lower is better) see the same numbers from opposite sides; every bound is 0.25
    # or less, and the noisy parent's IQR is 6 around a median of 12
    def run(checkout, workload, seed, seconds):
        values = parent if checkout.name == "parent" else change
        return fake_result(throughput=values[seed - 1])

    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "run", run)
    assert bench_pairs.main(["--parent", "HEAD", "--workload", "embed", "--seeds", "1-4"]) == 0
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
    assert lines["throughput_per_s"].endswith(higher_verdict)
    assert lines["latency_ms_p50"].endswith(lower_verdict)


def test_each_side_reports_its_src_line_count(monkeypatch, capsys, any_parent):
    def export(rev, dest):
        (dest / "src" / "pkg").mkdir(parents=True)
        lines = ["a = 1", "", "b = 2", "   "] if rev else ["a = 1", "b = 2", "c = 3"]
        (dest / "src" / "pkg" / "m.py").write_text("\n".join(lines) + "\n")
        (dest / "src" / "notes.txt").write_text("not counted\n")

    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "run", lambda *args: fake_result())
    assert bench_pairs.main(["--parent", "HEAD", "--workload", "embed", "--seeds", "1"]) == 0
    assert "src/ non-blank lines: parent 2, change 3" in capsys.readouterr().out.splitlines()


def test_no_run_uses_the_checkout_itself(monkeypatch, capsys, any_parent):
    exported, checkouts = {}, []

    def export(rev, dest):
        exported[dest] = rev

    def run(checkout, workload, seed, seconds):
        checkouts.append(checkout)
        return fake_result()

    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "run", run)
    assert bench_pairs.main(["--parent", "HEAD", "--workload", "embed", "--seeds", "1-2"]) == 0
    assert sorted(exported.values(), key=str) == ["HEAD", None]
    assert len(checkouts) == 4 and set(checkouts) == set(exported)
    assert bench_pairs.ROOT not in checkouts


def test_working_tree_copy_has_edits_and_untracked_files(monkeypatch, tmp_path):
    repo, dest = tmp_path / "repo", tmp_path / "copy"
    (repo / "pkg").mkdir(parents=True)
    dest.mkdir()
    git = lambda *args: subprocess.run(["git", "-C", str(repo), "-c", "user.name=t",
                                        "-c", "user.email=t@t", *args], check=True,
                                       capture_output=True)
    git("init", "-q")
    for name, text in [("pkg/kept.py", "old\n"), ("pkg/gone.py", "x\n"), (".gitignore", "*.log\n")]:
        (repo / name).write_text(text)
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "pkg" / "kept.py").write_text("edited\n")
    (repo / "pkg" / "gone.py").unlink()
    (repo / "pkg" / "new.py").write_text("untracked\n")
    (repo / "run.log").write_text("ignored\n")
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    bench_pairs.export(None, dest)
    files = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert files == [".gitignore", "pkg/kept.py", "pkg/new.py"]
    assert (dest / "pkg" / "kept.py").read_text() == "edited\n"


@pytest.mark.parametrize("flag, value, needle", [
    ("--seconds", "0", "--seconds"),
    ("--seconds", "-1", "--seconds"),
    ("--parent", "no-such-revision", "no-such-revision"),
])
def test_bad_arguments_give_one_stderr_line(monkeypatch, capsys, flag, value, needle):
    monkeypatch.setattr(bench_pairs, "run", lambda *a: pytest.fail("no run may start"))
    args = {"--parent": "HEAD", "--workload": "embed", "--seeds": "1", flag: value}
    code = bench_pairs.main([x for item in args.items() for x in item])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and needle in err and "Traceback" not in err


def test_a_failing_run_gives_one_stderr_line(monkeypatch, capsys, any_parent):
    # empty checkouts: run.py is missing, so its python process fails
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: None)
    code = bench_pairs.main(["--parent", "HEAD", "--workload", "embed", "--seeds", "1",
                             "--seconds", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.strip().splitlines()) == 1 and "run.py failed" in err


SLEEPER = "import os, sys, time; open(sys.argv[1], 'w').write(str(os.getpid())); time.sleep(60)"


def test_sigterm_kills_the_run_and_removes_the_checkouts(tmp_path):
    # main with the revision check and export faked, and run faked as a child process
    # that sleeps, as run.py would
    temp, pid_file = tmp_path / "tmp", tmp_path / "pid"
    temp.mkdir()
    code = f"""
import importlib.util, subprocess, sys
spec = importlib.util.spec_from_file_location("bench_pairs", {str(SCRIPT)!r})
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
bench_pairs.known_revision = lambda rev: True
bench_pairs.export = lambda rev, dest: None
bench_pairs.run = lambda *args: subprocess.run([sys.executable, "-c", {SLEEPER!r}, {str(pid_file)!r}])
sys.exit(bench_pairs.main(["--parent", "HEAD", "--workload", "embed", "--seeds", "1"]))
"""
    proc = subprocess.Popen([sys.executable, "-c", code], env={**os.environ, "TMPDIR": str(temp)})
    try:
        deadline = time.monotonic() + 30
        while not (pid_file.exists() and pid_file.read_text()):
            assert proc.poll() is None and time.monotonic() < deadline, "the faked run never started"
            time.sleep(0.05)
        child = int(pid_file.read_text())
        assert [p.name.startswith("bench-pairs-") for p in temp.iterdir()] == [True]
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)
    finally:
        proc.kill()
        proc.wait()
    try:
        os.kill(child, 0)
    except ProcessLookupError:
        pass
    else:
        os.kill(child, signal.SIGKILL)
        pytest.fail("the faked run's child process outlived the script")
    assert list(temp.iterdir()) == []
    assert proc.returncode == 128 + signal.SIGTERM
