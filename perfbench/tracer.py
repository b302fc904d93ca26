"""Outside-in tracer: wraps hitkit's public layer functions at the bindings callers use.

Modules import what they call by name (``encoders`` and ``model`` bind
``fame_forward``, ``layer_norm`` and ``multi_head_attention`` themselves), so a
function is replaced in every ``hitkit`` module that holds it, not only in the
module that defines it. Methods are replaced on their class. Nothing in the
library is edited, and ``uninstall`` puts every original back.

Each wrapped call is a span (name, start, end, parent span, request id) kept in
memory. Tensor ops (the public functions of ``hitkit.tensor`` annotated to
return a ``Tensor``) are counted at the same bindings instead of being timed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

MARK = "__perfbench_wrapped__"
OP_COUNTER = "tensor.op_calls"

# (span name, defining module, function or Class.method); the names follow the
# repo's modules so per-layer metrics read as layer.function.
SPANS = [
    ("data.build_vocab", "hitkit.data", "build_vocab"),
    ("data.preprocess", "hitkit.data", "preprocess_text"),
    ("data.encode", "hitkit.data", "encode_example"),
    ("checkpoint.load", "hitkit.checkpoint", "load_checkpoint"),
    ("train.build_model", "hitkit.train", "build_classifier"),
    ("train.build_model", "hitkit.train", "build_seq2seq"),
    ("model.loss_batch", "hitkit.model", "ClassificationModel.loss_batch"),
    ("model.embed", "hitkit.model", "ZslModel.embed"),
    ("model.greedy_decode", "hitkit.model", "Seq2SeqModel.greedy_decode"),
    ("model.decode_logits", "hitkit.model", "Seq2SeqModel.decode_logits"),
    ("model.cross_attention", "hitkit.model", "CrossAttention.forward"),
    ("encoders.char_cache", "hitkit.encoders", "HitEncoder.char_cache"),
    ("encoders.encode_word", "hitkit.encoders", "CharHit.encode_word"),
    ("encoders.word_level_forward", "hitkit.encoders", "HitEncoder.word_level_forward"),
    ("encoders.ffn", "hitkit.encoders", "FeedForward.forward"),
    ("encoders.hier_pool", "hitkit.encoders", "HierPool.forward"),
    ("attention.fame", "hitkit.attention", "fame_forward"),
    ("attention.msa_forward", "hitkit.attention", "msa_forward"),
    ("attention.opa_forward", "hitkit.attention", "opa_forward"),
    ("attention.fame_fuse", "hitkit.attention", "fame_fuse"),
    ("tensor.layer_norm", "hitkit.tensor", "layer_norm"),
    ("tensor.backward", "hitkit.tensor", "backward"),
    ("optim.clip_gradients", "hitkit.optim", "clip_gradients"),
    ("optim.adam_step", "hitkit.optim", "adam_step"),
]


def _char_occurrences(args, kwargs):
    seqs = args[1] if len(args) > 1 else kwargs["char_seqs"]
    return {"encoders.char_cache.occurrences": len(seqs)}


def _decode_positions(args, kwargs):
    ids = args[1] if len(args) > 1 else kwargs["tgt_ids"]
    return {"model.decode_positions": len(ids)}


# Counts read from a call's arguments, where the work a layer does shows.
ARG_COUNTERS = {
    "encoders.char_cache": _char_occurrences,
    "model.decode_logits": _decode_positions,
}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    parent: int  # -1 for a root span
    request: int | None
    start_ns: int
    end_ns: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Spans and counters for one traced phase; see the module docstring."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.request: int | None = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> tuple[int, int, int]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent, time.perf_counter_ns()

    def _close(self, sid: int, name: str, parent: int, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans[sid] = Span(sid, name, parent, self.request, start, end)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a request or a step."""
        sid, parent, start = self._open(name)
        try:
            yield
        finally:
            self._close(sid, name, parent, start)

    def finished_spans(self) -> list[Span]:
        return [s for s in self.spans if s is not None]

    # -- wrapping ----------------------------------------------------------

    def _wrapper(self, orig, name: str | None):
        counts = self.counts
        arg_counter = ARG_COUNTERS.get(name)
        if name is None:
            @functools.wraps(orig)
            def counted(*args, **kwargs):
                counts[OP_COUNTER] += 1
                return orig(*args, **kwargs)
            setattr(counted, MARK, True)
            return counted
        is_op = _is_tensor_op(orig)
        calls_key = name + ".calls"

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            counts[calls_key] += 1
            if is_op:
                counts[OP_COUNTER] += 1
            if arg_counter is not None:
                counts.update(arg_counter(args, kwargs))
            sid, parent, start = self._open(name)
            try:
                return orig(*args, **kwargs)
            finally:
                self._close(sid, name, parent, start)

        setattr(traced, MARK, True)
        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every span target and every tensor op at each binding in hitkit."""
        modules = _hitkit_modules()
        self.missing = []
        targets = {}
        for name, module, qualname in SPANS:
            owner, attr = _resolve(module, qualname)
            if owner is None:
                self.missing.append(f"{module}.{qualname}")
                continue
            targets[id(owner.__dict__[attr])] = (owner.__dict__[attr], name, owner, attr)
        for fn in vars(sys.modules["hitkit.tensor"]).values():
            if _is_tensor_op(fn) and id(fn) not in targets:
                targets[id(fn)] = (fn, None, None, None)
        for orig, name, owner, attr in targets.values():
            wrapper = self._wrapper(orig, name)
            if owner is not None and isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, binding, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)


def _hitkit_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "hitkit" or n.startswith("hitkit."))]


def _resolve(module: str, qualname: str):
    """(owner, attribute) holding the target, or (None, None) if the library lacks it."""
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if attr not in getattr(owner, "__dict__", {}):
        return None, None
    return owner, attr


def _is_tensor_op(fn) -> bool:
    return (callable(fn) and getattr(fn, "__module__", None) == "hitkit.tensor"
            and not fn.__name__.startswith("_")
            and getattr(fn, "__annotations__", {}).get("return") == "Tensor")


def installed_wrappers() -> list[str]:
    """Every binding in hitkit that still holds a perfbench wrapper."""
    found = []
    for mod in _hitkit_modules():
        for attr, value in vars(mod).items():
            if getattr(value, MARK, False):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                found.extend(f"{mod.__name__}.{attr}.{m}" for m, v in vars(value).items()
                             if getattr(v, MARK, False))
    return found


# -- analysis ----------------------------------------------------------------


def _covered_ns(start: int, end: int, intervals) -> int:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0
    cur_s = cur_e = None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the part of it that its child spans cover (ns)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start_ns, s.end_ns))
    return {s.id: s.duration_ns - _covered_ns(s.start_ns, s.end_ns, children.get(s.id, ()))
            for s in spans}


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, inclusive ns (outermost occurrences only) and self ns."""
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        row["calls"] += 1
        row["self_ns"] += selfs[s.id]
        p = s.parent
        while p >= 0 and by_id[p].name != s.name:
            p = by_id[p].parent
        if p < 0:
            row["total_ns"] += s.duration_ns
    return out


def root_coverage(spans, root_name: str) -> float:
    """Share of the wall time of root spans called root_name that their children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start_ns, s.end_ns))
    roots = [s for s in spans if s.name == root_name]
    wall = sum(s.duration_ns for s in roots)
    covered = sum(_covered_ns(s.start_ns, s.end_ns, children.get(s.id, ())) for s in roots)
    return covered / wall if wall else 0.0
