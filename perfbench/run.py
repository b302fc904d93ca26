"""hitkit benchmark: one closed-loop workload per process, then one JSON result line.

Usage, from the root of a hitkit checkout:

    python3 perfbench/run.py --workload train-clf --seed 0 --seconds 25 --trace 0

With --trace 0 it reports the end-to-end metrics, measured with nothing
wrapped. With --trace 1 it runs half the time untraced, then replays the same
number of units with the tracer installed, and reports the per-layer metrics
plus the tracing overhead. METRICS.md lists every metric. The last line of
standard output is {"correct", "attempted", "failed", "metrics"}; a run that
cannot find hitkit's sources under src/ exits with status 2 and prints no
result.
"""

from __future__ import annotations

import os

# Must precede the first numpy import: OpenBLAS reads it when it loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracer as TRC

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
SETUP_REPEATS = 7
PROBE_TIMEOUT_S = 60
MAX_LOGGED_FAILURES = 3

# name -> unit; the order is the order of the report.
END_TO_END = {"throughput_per_s": "1/s", "latency_ms_p50": "ms", "latency_ms_p90": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}
# Per-layer metric -> unit. "<layer>.ms" is the inclusive time of the span of that
# name and "<layer>.calls" its call count, per unit of work (see METRICS.md).
PER_LAYER = {
    "trace.overhead_ms": "ms",
    "trace.top_level_coverage": "ratio",
    "tensor.backward.ms": "ms",
    "tensor.op_calls": "count",
    "tensor.layer_norm.ms": "ms",
    "attention.opa_forward.ms": "ms",
    "attention.msa_forward.ms": "ms",
    "attention.fame_fuse.ms": "ms",
    "attention.fame.calls": "count",
    "encoders.char_cache.ms": "ms",
    "encoders.char_cache.words": "count",
    "encoders.char_cache.unique_ratio": "ratio",
    "encoders.word_level_forward.ms": "ms",
    "encoders.word_level_forward.calls": "count",
    "encoders.ffn.ms": "ms",
    "encoders.hier_pool.ms": "ms",
    "model.loss_batch.ms": "ms",
    "model.decode_logits.ms": "ms",
    "model.decode_logits.calls": "count",
    "model.decode_positions": "count",
    "model.decode_useful_ratio": "ratio",
    "model.cross_attention.ms": "ms",
    "optim.adam_step.ms": "ms",
    "optim.clip_gradients.ms": "ms",
    "checkpoint.load.ms": "ms",
    "train.build_model.ms": "ms",
    "data.encode.ms": "ms",
    "data.build_vocab.ms": "ms",
}
# Layers whose work happens at set-up: reported per set-up, not per unit.
SETUP_LAYERS = ("checkpoint.load", "train.build_model", "data.build_vocab")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["train-clf", "embed", "generate"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_hitkit() -> float:
    """Put this checkout's src/ first on the path, import hitkit, return the seconds it took.

    Exits with status 2, printing no result, when the checkout has no hitkit sources.
    """
    if not (SRC / "hitkit" / "__init__.py").is_file():
        print(f"perfbench: no hitkit sources at {SRC / 'hitkit'}; "
              "run from the root of a hitkit checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import hitkit  # noqa: F401
    import hitkit.checkpoint, hitkit.data, hitkit.model, hitkit.train  # noqa: E401,F401
    took = time.perf_counter() - t0
    if Path(hitkit.__file__).resolve().parent != (SRC / "hitkit").resolve():
        raise SystemExit(f"perfbench: imported hitkit from {hitkit.__file__}, not from {SRC}")
    return took


# -- static context --------------------------------------------------------------


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def src_stats() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(str(f.relative_to(SRC)).encode() + b"\0" + data)
        lines += sum(1 for line in data.decode("utf-8").splitlines() if line.strip())
    return {"src_nonblank_lines": lines, "src_sha256": digest.hexdigest()[:16]}


def static_context(wl) -> dict:
    blas = getattr(np, "__config__", None)
    blas = getattr(blas, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {"git_sha": git_sha(), **src_stats(), "python": sys.version.split()[0],
            "numpy": np.__version__, "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "params": wl.param_counts()}


def probe_setup(wl) -> float:
    """Seconds one set-up of `wl` takes in a fresh process."""
    done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), wl.name, str(wl.seed)],
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.split()[-1])


# -- timed phases ----------------------------------------------------------------


class Phase:
    """Latencies, work, outputs and failures of units 0 .. n-1."""

    def __init__(self):
        self.latencies: list[float] = []
        self.work = 0
        self.failed_units: set[int] = set()
        self.outputs: list = []
        self.errors: list[str] = []

    @property
    def n(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return len(self.failed_units)

    def fail(self, i: int, why: str) -> None:
        self.failed_units.add(i)
        if len(self.errors) < MAX_LOGGED_FAILURES:
            self.errors.append(f"unit {i}: {why}")


def run_phase(wl, *, seconds: float = 0.0, count: int | None = None, tracer=None) -> Phase:
    """Run units 0, 1, ... until `seconds` pass and a block ends, or until `count` units ran."""
    phase = Phase()
    deadline = time.perf_counter() + seconds
    while True:
        i = phase.n
        if count is not None and i >= count:
            break
        if count is None and i and time.perf_counter() >= deadline and i % wl.block == 0:
            break
        wl.input(i)
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span("request"):
                    out = wl.run(i)
            else:
                out = wl.run(i)
            why = None
        except Exception:  # one failed unit must not end the run; it is counted
            out, why = None, traceback.format_exc(limit=3).strip().splitlines()[-1]
        phase.latencies.append(time.perf_counter() - t0)
        if why is None:
            why = wl.check(i, out)
        if why is None:
            phase.work += wl.work_done(out)
        else:
            phase.fail(i, why)
        phase.outputs.append(out)
    return phase


def compare_replay(wl, phase: Phase, warm: list, refs: dict | None) -> None:
    """Fail leading units that differ from the warm-up replay or from the stored references."""
    for k, expect in enumerate(warm[:phase.n]):
        out = phase.outputs[k]
        if out is None:
            continue
        if not _identical(out, expect):
            phase.fail(k, "differs from the warm-up replay of the same unit")
        elif refs is not None and not wl.matches_reference(out, refs[k]):
            phase.fail(k, "does not match the stored reference output")


def _identical(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def load_references(wl) -> list | None:
    path = HERE / "references.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(wl.name, {}).get(str(wl.seed))


# -- reports -------------------------------------------------------------------


def percentile_ms(latencies, q: float) -> float:
    return float(np.percentile(np.asarray(latencies) * 1e3, q))


def latency_profile(latencies: list[float], slots: int) -> list[float]:
    """The latencies that percentiles are taken over.

    With `slots`, unit i gets an input of the same size as unit i + slots, and
    the run holds whole cycles of them. Each slot is then represented by the
    median of its latencies, so a few seconds of a slow host, which on a shared
    machine come and go, move no percentile unless they hit most cycles.
    """
    if not slots:
        return list(latencies)
    return [statistics.median(latencies[k::slots]) for k in range(slots)]


def end_to_end(wl, phase: Phase, setup_s: float) -> dict:
    profile = latency_profile(phase.latencies, wl.slots)
    return {"throughput_per_s": phase.work / sum(phase.latencies),
            "latency_ms_p50": percentile_ms(profile, 50),
            "latency_ms_p90": percentile_ms(profile, 90),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def per_layer(wl, setup_spans, tracer, untraced: Phase, traced: Phase):
    """Per-layer metrics of the traced phase, divided by its steps, sentences or tokens."""
    units = traced.work if wl.norm == "token" else traced.n
    spans = tracer.finished_spans()
    table = TRC.summarize(spans)
    setup_table = TRC.summarize(setup_spans)
    c = tracer.counts

    def ms(layer):
        if layer in SETUP_LAYERS:
            return setup_table.get(layer, {}).get("total_ns", 0) / 1e6
        return table.get(layer, {}).get("total_ns", 0) / 1e6 / units

    words = c["encoders.encode_word.calls"]
    occurrences = c["encoders.char_cache.occurrences"]
    positions = c["model.decode_positions"]
    values = {m: ms(m[:-3]) for m in PER_LAYER if m.endswith(".ms")}
    values.update({m: c[m] / units for m in PER_LAYER if m.endswith(".calls")})
    values.update({
        "trace.overhead_ms": (sum(traced.latencies) - sum(untraced.latencies)) * 1e3 / units,
        "trace.top_level_coverage": TRC.root_coverage(spans, "request"),
        "tensor.op_calls": c[TRC.OP_COUNTER] / units,
        "encoders.char_cache.words": words / units,
        "encoders.char_cache.unique_ratio": words / occurrences if occurrences else 0.0,
        "model.decode_positions": positions / units,
        "model.decode_useful_ratio": traced.work / positions if positions else 0.0,
    })
    return {name: values[name] for name in PER_LAYER}, table


def write_trace(wl, spans, table) -> Path:
    WORKDIR.mkdir(exist_ok=True)
    path = WORKDIR / f"trace-{wl.name}-seed{wl.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "name", "parent", "request", "start_ns", "end_ns"],
                   "spans": [[s.id, s.name, s.parent, s.request, s.start_ns, s.end_ns] for s in spans],
                   "summary": table}, fh)
    return path


def emit(values: dict, units: dict) -> dict:
    metrics = {}
    for name, value in values.items():
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"metric {name} = {value:.6g} {units[name]}")
    return metrics


def untraced_run(wl, seconds: float, warm: list, refs, import_s: float):
    """Time SETUP_REPEATS set-ups, then run units for `seconds` with nothing wrapped.

    Each set-up runs in a fresh process, as a server starts: within one process
    the allocator's state after earlier set-ups moved a set-up's time by up to 2x.
    """
    times = [probe_setup(wl) for _ in range(SETUP_REPEATS)]
    wl.state = None
    wl.setup()
    print("context " + json.dumps(static_context(wl)), flush=True)
    phase = run_phase(wl, seconds=seconds)
    compare_replay(wl, phase, warm, refs)
    print(f"samples {phase.n} {wl.unit}s, {phase.work} {wl.work}; "
          f"error_rate {phase.failed / phase.n:.6g}; import {import_s:.3f} s")
    metrics = emit(end_to_end(wl, phase, statistics.median(times)), END_TO_END)
    for name, (value, unit) in wl.named_metrics(metrics).items():
        print(f"named {name} = {value:.6g} {unit}")
    return [phase], metrics


def traced_run(wl, seconds: float, warm: list, refs):
    """Untraced units for half the time, then the same units again from a fresh set-up, traced."""
    setup_tracer = TRC.Tracer()
    wl.state = None
    setup_tracer.install()
    try:
        wl.setup()
    finally:
        setup_tracer.uninstall()
    print("context " + json.dumps(static_context(wl)), flush=True)
    untraced = run_phase(wl, seconds=seconds / 2)
    compare_replay(wl, untraced, warm, refs)
    wl.state = None
    wl.setup()
    tracer = TRC.Tracer()
    tracer.install()
    try:
        traced = run_phase(wl, count=untraced.n, tracer=tracer)
    finally:
        tracer.uninstall()
    for k, (a, b) in enumerate(zip(untraced.outputs, traced.outputs)):
        if a is not None and b is not None and not _identical(a, b):
            traced.fail(k, "traced replay differs from the untraced run")
    left = TRC.installed_wrappers()
    if left:
        raise RuntimeError(f"tracer left wrappers installed: {left[:3]}")
    if tracer.missing:
        print("trace: not in this version of hitkit: " + ", ".join(tracer.missing))
    values, table = per_layer(wl, setup_tracer.finished_spans(), tracer, untraced, traced)
    print("trace " + str(write_trace(wl, tracer.finished_spans(), table)))
    return [untraced, traced], emit(values, PER_LAYER)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_hitkit()
    import workloads as W

    WORKDIR.mkdir(exist_ok=True)
    wl = W.WORKLOADS[args.workload](args.seed, WORKDIR)
    print(f"perfbench workload={wl.name} seed={wl.seed} seconds={args.seconds:g} "
          f"trace={args.trace} unit={wl.unit}", flush=True)
    try:
        wl.prepare()
        warm = wl.warmup()
        refs = load_references(wl)
        if args.trace:
            phases, metrics = traced_run(wl, args.seconds, warm, refs)
        else:
            phases, metrics = untraced_run(wl, args.seconds, warm, refs, import_s)
    finally:
        for ckpt in WORKDIR.glob("*.ckpt"):
            ckpt.unlink()
    print("inputs " + json.dumps(wl.properties(phases[0].n)))
    print("reference check: " + (f"seed {wl.seed}" if refs is not None
                                 else "no stored reference for this seed; replay only"))
    for phase in phases:
        for line in phase.errors:
            print("failure " + line, file=sys.stderr)
    attempted = sum(p.n for p in phases)
    failed = sum(p.failed for p in phases)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
