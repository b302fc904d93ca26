"""scripts/bench_pairs.py: seed parsing, quartiles and the exit status."""

import importlib.util
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
def test_exit_status_reflects_every_run(monkeypatch, capsys, bad, code):
    calls = []

    def run(checkout, workload, seed, seconds):
        calls.append(checkout)
        return fake_result(**bad) if len(calls) == 3 else fake_result()

    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "run", run)
    assert bench_pairs.main(["--parent", "HEAD", "--workload", "embed", "--seeds", "1-2"]) == code
    assert len(calls) == 4
    assert "all runs correct" in capsys.readouterr().out
