#!/usr/bin/env python3
"""Paired benchmark runs: a parent revision against this checkout, in alternating order.

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload train-clf --seeds 1-10

For each seed it runs `perfbench/run.py` once on a temporary copy of the parent
revision and once on a temporary copy of this checkout's working tree
(uncommitted edits and untracked, not ignored files included), at
BENCHMARK.json's run_seconds unless --seconds says otherwise. Both sides start
from fresh directories, so neither sees the checkout's `__pycache__` or
`.perfbench/` state.
Odd pairs run the parent first and even pairs the change first, so a drift of
the host's speed does not favour one side. It then prints, per end-to-end
metric, each side's median and quartiles, how many pairs the change won and a
verdict against the metric's BENCHMARK.json bound (see `verdict`), whether
every run reported correct outputs, and each side's count of non-blank lines
under `src/`. It only reads what run.py prints.
It exits 1 if any run was incorrect or had failed units (run.py itself exits 0
either way), 1 with one line on stderr if run.py fails, and 2 with one line on
stderr for a malformed --seeds, a --seconds that is not positive or an unknown
--parent.

The parent is exported with `git archive` and the working tree copied file by
file, each into a temporary directory that is removed afterwards, so the
repository's git state is left untouched. SIGTERM ends the script as an exit
with status 143: the running run.py is killed and the directory still removed.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '3,5,8' (or a mix such as '1-3,7') as a list of seeds; ValueError if malformed."""
    seeds = []
    for part in text.split(","):
        match = re.fullmatch(r"(\d+)(?:-(\d+))?", part.strip())
        span = range(int(match[1]), int(match[2] or match[1]) + 1) if match else range(0)
        if not span:
            raise ValueError(f"malformed seed range {part!r} in {text!r}")
        seeds.extend(span)
    return seeds


def known_revision(rev: str) -> bool:
    """Whether `rev` names a commit of this repository."""
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet",
                           f"{rev}^{{commit}}"], capture_output=True, check=False).returncode == 0


def export(rev: str | None, dest: Path) -> None:
    """Revision `rev` into `dest`; with rev None, the working tree as it is on disk.

    The working tree is every tracked file that still exists and every untracked
    file that .gitignore does not exclude.
    """
    if rev is not None:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
        return
    listed = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], capture_output=True, check=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        if (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced run.py call in `checkout`."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        why = (done.stderr.strip().splitlines() or [f"exit status {done.returncode}"])[-1]
        raise RuntimeError(f"run.py failed for {checkout.name} (seed {seed}): {why}")
    return json.loads(lines[-1])


def src_lines(checkout: Path) -> int:
    """The non-blank lines of the Python files under `checkout`/src."""
    return sum(1 for path in (checkout / "src").rglob("*.py")
               for line in path.read_text().splitlines() if line.strip())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def wins(metric: dict, parent: list[float], change: list[float]) -> int:
    """How many pairs the change won on `metric`."""
    higher = metric["better"] == "higher"
    return sum((c > p) if higher else (c < p) for p, c in zip(parent, change))


def verdict(metric: dict, parent: list[float], change: list[float]) -> str:
    """The no-regression verdict on one end-to-end metric, against its bound.

    'worse beyond bound' if the change's median is worse than the parent's by more than
    bound times the parent's median; else 'unresolved' if the parent's IQR is more than
    that much and some run of the change does not beat every run of the parent, since
    such noise hides a regression within it; else 'within bound'.
    """
    (p1, p2, p3), (_, c2, _) = quartiles(parent), quartiles(change)
    tolerance = metric["bound"] * abs(p2)
    higher = metric["better"] == "higher"
    if (p2 - c2 if higher else c2 - p2) > tolerance:
        return "worse beyond bound"
    dominates = min(change) > max(parent) if higher else max(change) < min(parent)
    if p3 - p1 > tolerance and not dominates:
        return "unresolved"
    return "within bound"


def report(metrics: list[dict], results: dict) -> bool:
    """Print the per-metric comparison; True if every run was correct with no failed unit."""
    n = len(results["parent"])
    for m in metrics:
        name = m["name"]
        sides = {side: [r["metrics"][name]["value"] for r in results[side]] for side in results}
        (p1, p2, p3), (c1, c2, c3) = quartiles(sides["parent"]), quartiles(sides["change"])
        change = (c2 - p2) / p2 if p2 else float("nan")
        print(f"{name:18s} parent {p2:10.4g} [{p1:.4g}, {p3:.4g}]  change {c2:10.4g} "
              f"[{c1:.4g}, {c3:.4g}]  median {change:+.1%}  parent IQR {p3 - p1:.4g}  "
              f"change wins {wins(m, sides['parent'], sides['change'])}/{n} "
              f"({m['better']} is better)  {verdict(m, sides['parent'], sides['change'])}")
    correct = {side: all(r["correct"] is True and r["failed"] == 0 for r in runs)
               for side, runs in results.items()}
    print(f"all runs correct: parent {correct['parent']}, change {correct['change']}")
    return all(correct.values())


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    args = p.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
        if not args.seconds > 0:
            raise ValueError(f"--seconds must be positive, got {args.seconds:g}")
        if not known_revision(args.parent):
            raise ValueError(f"unknown --parent revision {args.parent!r}")
    except ValueError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 2
    results = {"parent": [], "change": []}
    previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
            parent, change = Path(tmp) / "parent", Path(tmp) / "change"
            for checkout, rev in ((parent, args.parent), (change, None)):
                checkout.mkdir()
                export(rev, checkout)
            lines = {"parent": src_lines(parent), "change": src_lines(change)}
            order = [("parent", parent), ("change", change)]
            for k, seed in enumerate(seeds):
                for side, checkout in order if k % 2 == 0 else order[::-1]:
                    r = run(checkout, args.workload, seed, args.seconds)
                    results[side].append(r)
                    tp = r["metrics"]["throughput_per_s"]["value"]
                    print(f"pair {k + 1}/{len(seeds)} seed {seed} {side}: throughput {tp:.4g}/s, "
                          f"correct {r['correct']}", file=sys.stderr, flush=True)
    except RuntimeError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.signal(signal.SIGTERM, previous)
    print(f"workload {args.workload}, parent {args.parent}, seeds {args.seeds}, "
          f"{args.seconds:g} s per run, {len(seeds)} pairs")
    print(f"src/ non-blank lines: parent {lines['parent']}, change {lines['change']}")
    return 0 if report(bench["end_to_end"], results) else 1


if __name__ == "__main__":
    sys.exit(main())
