"""Outside-in tracing of the pmdef layers for the benchmark's traced run.

The tracer replaces public functions of ``pmdef`` with timing wrappers at
every module that binds them, records one span per call (name, start, end,
parent, thread) in memory, and derives the per-layer metrics from the spans
after a pass. Nothing inside ``src/`` is edited: the wrappers are installed
from here and removed again when the traced pass ends.

Self time of a span is its duration minus the union of its child spans.
Threads started inside a traced call (the C&W worker pool) parent their
top-level spans to the call that started them, so parallel work is charged
to it once per thread.
"""

from __future__ import annotations

import gzip
import itertools
import json
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "datasets", "models", "autodiff", "training", "attacks", "defence", "evaluation")

# autodiff primitives that record onto a tape; each gets a forward span and
# a span per vjp call inside backward()
PRIMITIVES = (
    "add", "sub", "mul", "neg", "add_scalar", "mul_scalar", "reshape", "matmul", "relu", "tanh", "log",
    "clip", "maximum_scalar", "sum_all", "mean_all", "take_per_row", "rowmax", "softmax", "logsumexp",
    "dropout", "conv2d", "maxpool2d", "standardize_per_image", "kl_divergence",
)
DENSE_PRIMS = ("matmul", "add", "relu", "tanh", "rowmax", "logsumexp", "softmax", "kl_divergence", "clip")
SPATIAL_PRIMS = ("conv2d", "maxpool2d")
STAGES = ("train-classifier", "train-defence", "attack", "score", "calibrate", "evaluate", "drift", "roc")

# (module, attribute, span name): public functions wrapped by the tracer
FUNCTIONS = (
    ("datasets", "synth_dataset", "datasets.synth_dataset"),
    ("models", "save_checkpoint", "models.save_checkpoint"),
    ("models", "load_checkpoint", "models.load_checkpoint"),
    ("training", "train_classifier", "training.train_classifier"),
    ("training", "train_defence", "training.train_defence"),
    ("attacks", "run_attack", "attacks.run_attack"),
    ("attacks", "fgsm", "attacks.fgsm"),
    ("attacks", "slide", "attacks.slide"),
    ("attacks", "_cw_chunk", "attacks.cw_chunk"),
    ("attacks", "save_batch", "attacks.save_batch"),
    ("attacks", "load_batch", "attacks.load_batch"),
    ("defence", "calibrate_threshold", "defence.calibrate_threshold"),
    ("evaluation", "accuracy_report", "evaluation.accuracy_report"),
    ("evaluation", "drift_report", "evaluation.drift_report"),
    ("evaluation", "corrupt_dataset", "evaluation.corrupt_dataset"),
    ("evaluation", "roc_auc", "evaluation.roc_auc"),
    ("evaluation", "ks_two_sample", "evaluation.ks_two_sample"),
    ("cli", "write_manifest", "cli.write_manifest"),
)
# functions whose first positional argument after (classifier, ae) is the row batch
ROW_FUNCTIONS = (
    ("defence", "adversarial_score", "defence.adversarial_score"),
    ("defence", "detect_and_correct", "defence.detect_and_correct"),
)
PMDEF_MODULES = ("autodiff", "models", "training", "attacks", "defence", "evaluation", "datasets", "cli")

_MIX = 0x9E3779B97F4A7C15


class Tracer:
    """Span recorder plus the wrappers that feed it.

    Spans are tuples (id, parent, name, thread, start, end, info) appended
    to ``self.spans``; list.append and next() on a counter are atomic in
    CPython, so worker threads need no lock for them.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.cross_parent = None
        self.stage = None
        self._rows_lock = threading.Lock()
        self.rows_seen: dict[str, set] = defaultdict(set)
        self.rows_done: dict[str, int] = defaultdict(int)
        self._mult = np.random.default_rng(20020936).integers(1, 2**63, size=1 << 17, dtype=np.uint64) | np.uint64(1)

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, fn, info=None):
        """Wrap ``fn`` so every call records a span; ``info(args, kwargs, result)``
        may attach a number or tuple to the span."""
        spans, ids, stack_of, tracer = self.spans, self._ids, self._stack, self
        perf, ident = time.perf_counter, threading.get_ident

        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else tracer.cross_parent
            stack.append(sid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
            spans.append((sid, parent, name, ident(), t0, t1, None if info is None else info(args, kwargs, result)))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name: str):
        return _Span(self, name)

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = new
        else:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

    def _patch_everywhere(self, mods: dict, original, new) -> None:
        """Rebind ``original`` to ``new`` wherever a pmdef module holds it:
        as a module attribute or as a value of a module-level dict."""
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, new)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self._patch(value, key, new)

    def install(self) -> None:
        import importlib

        mods = {m: importlib.import_module(f"pmdef.{m}") for m in PMDEF_MODULES}
        ad, models, training, attacks = mods["autodiff"], mods["models"], mods["training"], mods["attacks"]
        for prim in PRIMITIVES:
            fn = getattr(ad, prim)
            self._patch_everywhere(mods, fn, self.timed(f"autodiff.{prim}", fn))
        self._patch_everywhere(mods, ad.backward, self._backward_wrapper(ad.backward))
        for mod, attr, name in FUNCTIONS:
            fn = getattr(mods[mod], attr)
            self._patch_everywhere(mods, fn, self.timed(name, fn))
        for mod, attr, name in ROW_FUNCTIONS:
            fn = getattr(mods[mod], attr)
            self._patch_everywhere(mods, fn, self.timed(name, fn, info=lambda a, k, r: int(np.shape(a[2])[0])))
        cw = attacks.cw_l2
        self._patch_everywhere(mods, cw, self._cw_wrapper(cw))
        self._patch(models.Model, "forward_t", self._forward_wrapper(models.Model.forward_t))
        self._patch(training.Adam, "step", self.timed("training.adam_step", training.Adam.step))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)

    # -- special wrappers ------------------------------------------------------

    def _backward_wrapper(self, backward):
        timed_backward = self.timed("autodiff.backward", backward, info=lambda a, k, r: len(a[0].records))
        tracer = self

        def wrapper(tape, output):
            with tracer.span("trace.wrap_vjp"):
                for rec in tape.records:
                    rec.vjp = tracer.timed(f"autodiff.{rec.op}.vjp", rec.vjp)
            return timed_backward(tape, output)

        wrapper.__wrapped__ = backward
        return wrapper

    def _cw_wrapper(self, cw_l2):
        tracer = self

        def body(*args, **kwargs):
            parent = tracer._stack()[-1]
            tracer.cross_parent = parent
            try:
                return cw_l2(*args, **kwargs)
            finally:
                tracer.cross_parent = None

        wrapper = self.timed("attacks.cw_l2", body, info=lambda a, k, r: int(k.get("workers", 1)))
        wrapper.__wrapped__ = cw_l2
        return wrapper

    def _forward_wrapper(self, forward_t):
        tracer = self
        timed_forward = self.timed(
            "models.forward_t", forward_t, info=lambda a, k, r: ("classifier" if a[0].is_classifier else "ae", a[1].shape[0])
        )

        def wrapper(model, x, *args, **kwargs):
            result = timed_forward(model, x, *args, **kwargs)
            with tracer.span("trace.fingerprint"):
                tracer._count_rows(model, x.data)
            return result

        wrapper.__wrapped__ = forward_t
        return wrapper

    def _words_hash(self, words: np.ndarray) -> np.ndarray:
        """Multilinear hash mod 2**64 over the last axis of 64-bit words."""
        mult = self._mult if words.shape[-1] <= self._mult.size else np.resize(self._mult, words.shape[-1])
        return (words * mult[: words.shape[-1]]).sum(axis=-1, dtype=np.uint64)

    def _count_rows(self, model, x: np.ndarray) -> None:
        """Record which forwarded rows this stage already pushed through the
        same model state (same parameter bytes): those were avoidable."""
        n = x.shape[0]
        rows = self._words_hash(np.ascontiguousarray(x, dtype=np.float64).reshape(n, -1).view(np.uint64))
        state = 0
        for idx, _, t in model.store.named_tensors():
            words = np.ascontiguousarray(t.data, dtype=np.float64).reshape(-1).view(np.uint64)
            state = (state * _MIX + int(self._words_hash(words)) + idx) % 2**64
        keys = rows + np.array([state], dtype=np.uint64) * np.uint64(_MIX)
        with self._rows_lock:
            self.rows_seen[self.stage].update(keys.tolist())
            self.rows_done[self.stage] += n


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "t0")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        stack = self.tracer._stack()
        self.sid = next(self.tracer._ids)
        self.parent = stack[-1] if stack else self.tracer.cross_parent
        stack.append(self.sid)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append((self.sid, self.parent, self.name, threading.get_ident(), self.t0, t1, None))
        return False


# ---------------------------------------------------------------------------
# per-layer metrics from one pass worth of spans


def write_spans(spans: list[tuple], path) -> None:
    """One JSON array per span: id, parent, name, thread, start, end, info."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(list(span)) + "\n")


def _union(intervals, lo=-np.inf, hi=np.inf) -> float:
    total, end = 0.0, -np.inf
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


class PassStats:
    """Aggregates over the spans of one traced pass."""

    def __init__(self, spans: list[tuple]):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        self.children = defaultdict(list)
        for s in spans:
            if s[1] is not None:
                self.children[s[1]].append(s)
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        for s in spans:
            dur = s[5] - s[4]
            self.calls[s[2]] += 1
            self.total[s[2]] += dur
            self.self_time[s[2]] += dur - _union((c[4], c[5]) for c in self.children.get(s[0], ()))

    def named(self, name: str) -> list[tuple]:
        return [s for s in self.spans if s[2] == name]

    def has_ancestor(self, span: tuple, name: str) -> bool:
        parent = span[1]
        while parent is not None:
            p = self.by_id.get(parent)
            if p is None:
                return False
            if p[2] == name:
                return True
            parent = p[1]
        return False

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_time.items() if k.startswith(layer + "."))

    def training_steps(self):
        """Per optimizer step of the training loops: (step_s, forward_s, backward_s, optimizer_s).

        A step runs from the end of the previous optimizer step (or the
        loop's start) to the end of its own; checkpoint writes and tracer
        bookkeeping inside that interval are not charged to it.
        """
        steps = []
        for loop in (s for s in self.spans if s[2] in ("training.train_classifier", "training.train_defence")):
            kids = sorted(self.children.get(loop[0], ()), key=lambda c: c[4])
            start = loop[4]
            bwd = excluded = 0.0
            for c in kids:
                dur = c[5] - c[4]
                if c[2] == "autodiff.backward":
                    bwd += dur
                elif c[2] == "training.adam_step":
                    step = c[5] - start - excluded
                    steps.append((step, step - bwd - dur, bwd, dur))
                    start, bwd, excluded = c[5], 0.0, 0.0
                elif c[2] == "models.save_checkpoint" or c[2].startswith("trace."):
                    excluded += dur
        return steps


def cw_parallel_efficiency(stats: PassStats) -> float:
    """Time the C&W worker threads spent optimising chunks (``_cw_chunk``
    spans, unioned per thread) over workers x ``cw_l2`` wall time. The
    tracer's own spans under ``cw_l2`` are taken out of both."""
    busy = capacity = 0.0
    for cw in stats.named("attacks.cw_l2"):
        per_thread = defaultdict(list)
        for c in stats.children.get(cw[0], ()):
            if c[2] == "attacks.cw_chunk":
                per_thread[c[3]].append((c[4], c[5]))
        busy += sum(_union(iv, cw[4], cw[5]) for iv in per_thread.values())
        capacity += cw[6] * (cw[5] - cw[4])
    tracing = sum(
        s[5] - s[4] for s in stats.spans if s[2].startswith("trace.") and stats.has_ancestor(s, "attacks.cw_l2")
    )
    return (busy - tracing) / (capacity - tracing) if capacity > tracing else 0.0


def per_layer_metrics(stats: PassStats, tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the benchmark as name -> (value, unit),
    except ``attacks.cw.failed``, which the run counts itself."""
    m: dict[str, tuple[float, str]] = {}
    for prim in SPATIAL_PRIMS + DENSE_PRIMS:
        m[f"autodiff.{prim}.calls"] = (stats.calls[f"autodiff.{prim}"], "count")
        m[f"autodiff.{prim}.fwd_s"] = (stats.total[f"autodiff.{prim}"], "s")
        m[f"autodiff.{prim}.vjp_s"] = (stats.total[f"autodiff.{prim}.vjp"], "s")
    backwards = stats.named("autodiff.backward")
    m["autodiff.backward.calls"] = (len(backwards), "count")
    m["autodiff.backward.self_s"] = (stats.self_time["autodiff.backward"], "s")
    m["autodiff.records_per_backward"] = (float(np.mean([s[6] for s in backwards])) if backwards else 0.0, "count")

    forwards = stats.named("models.forward_t")
    m["models.classifier_rows"] = (sum(s[6][1] for s in forwards if s[6][0] == "classifier"), "count")
    m["models.ae_rows"] = (sum(s[6][1] for s in forwards if s[6][0] == "ae"), "count")
    done = sum(tracer.rows_done.values())
    useful = sum(len(v) for v in tracer.rows_seen.values())
    m["models.useful_row_ratio"] = (useful / done if done else 0.0, "ratio")
    m["models.forward_t.self_s"] = (stats.self_time["models.forward_t"], "s")
    for fn in ("save_checkpoint", "load_checkpoint"):
        m[f"models.{fn}.calls"] = (stats.calls[f"models.{fn}"], "count")
        m[f"models.{fn}.s"] = (stats.total[f"models.{fn}"], "s")

    steps = stats.training_steps()
    m["training.steps"] = (len(steps), "count")
    m["training.step_ms.p50"] = (_percentile([s[0] * 1e3 for s in steps], 50), "ms")
    m["training.step_ms.p95"] = (_percentile([s[0] * 1e3 for s in steps], 95), "ms")
    for i, part in enumerate(("forward_s", "backward_s", "optimizer_s"), start=1):
        m[f"training.step.{part}"] = (sum(s[i] for s in steps), "s")
    m["training.adam_step.calls"] = (stats.calls["training.adam_step"], "count")
    m["training.adam_step.s"] = (stats.total["training.adam_step"], "s")

    for atk in ("fgsm", "slide", "cw_l2"):
        m[f"attacks.{atk}.s"] = (stats.total[f"attacks.{atk}"], "s")
    m["attacks.cw.iterations"] = (
        sum(1 for s in stats.named("training.adam_step") if stats.has_ancestor(s, "attacks.cw_l2")), "count"
    )
    m["attacks.cw.parallel_efficiency"] = (cw_parallel_efficiency(stats), "ratio")

    for fn in ("adversarial_score", "detect_and_correct"):
        spans = stats.named(f"defence.{fn}")
        m[f"defence.{fn}.calls"] = (len(spans), "count")
        m[f"defence.{fn}.rows"] = (sum(s[6] for s in spans), "count")
        m[f"defence.{fn}.s"] = (stats.total[f"defence.{fn}"], "s")
    m["defence.calibrate_threshold.s"] = (stats.total["defence.calibrate_threshold"], "s")
    for fn in ("accuracy_report", "drift_report", "corrupt_dataset", "roc_auc", "ks_two_sample"):
        m[f"evaluation.{fn}.s"] = (stats.total[f"evaluation.{fn}"], "s")
    m["datasets.synth_dataset.calls"] = (stats.calls["datasets.synth_dataset"], "count")
    m["datasets.synth_dataset.s"] = (stats.total["datasets.synth_dataset"], "s")
    for stage in STAGES:
        m[f"cli.{stage}.s"] = (stats.total[f"cli.{stage}"], "s")
    m["cli.write_manifest.s"] = (stats.total["cli.write_manifest"], "s")
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (stats.layer_self(layer), "s")
    return m


def stage_row_ratios(tracer: Tracer) -> dict[str, float]:
    """Per stage: rows it had to forward (distinct row and model state) over rows it did forward."""
    return {st: len(tracer.rows_seen[st]) / n for st, n in tracer.rows_done.items() if n}


def source_span(metric: str) -> tuple[str, bool]:
    """The span name (or name prefix, flagged True) whose presence shows
    that a per-layer metric was recorded."""
    parts = metric.split(".")
    if parts[0] == "layer":
        return parts[1] + ".", True
    if metric == "trace.overhead_s":
        return "cli.", True
    if metric.startswith(("training.steps", "training.step_ms", "training.step.")):
        return "training.train_", True
    if parts[0] == "autodiff" and parts[1] in SPATIAL_PRIMS + DENSE_PRIMS:
        return f"autodiff.{parts[1]}" + (".vjp" if parts[2] == "vjp_s" else ""), False
    special = {
        "autodiff.records_per_backward": "autodiff.backward",
        "models.classifier_rows": "models.forward_t",
        "models.ae_rows": "models.forward_t",
        "models.useful_row_ratio": "models.forward_t",
        "attacks.cw.iterations": "attacks.cw_l2",
        "attacks.cw.failed": "attacks.cw_l2",
        "attacks.cw.parallel_efficiency": "attacks.cw_chunk",
    }
    return special.get(metric, metric.rsplit(".", 1)[0]), False


def missing_sources(stats: PassStats, metrics) -> list[str]:
    """Names of the given metrics whose source span never occurred in the pass."""
    out = []
    for metric in metrics:
        src, prefix = source_span(metric)
        found = any(n.startswith(src) for n in stats.calls) if prefix else stats.calls.get(src, 0) > 0
        if not found:
            out.append(metric)
    return out
