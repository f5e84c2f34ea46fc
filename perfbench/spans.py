"""Span tracing installed from outside the package, and per-layer metrics.

A traced run replaces the public functions of the ttmri modules with
wrappers that record a span per call. Each function is wrapped under the
name its caller looks it up by: ``admm`` calls ``t_tsvt`` through
``ttmri.admm.t_tsvt``, so that attribute is wrapped and the span is
called ``admm.t_tsvt``. Methods are wrapped on their class
(``UnitaryTransform.apply``) and ``numpy.linalg.svd`` on ``numpy.linalg``.
No file of the package changes; :meth:`Tracer.installed` puts every
original back when the traced run ends.

Spans are kept in memory as (id, name, start, end, parent, op) and
written out at the end. A span's self time is its duration minus the part
of its interval that its child spans cover; children that ran on worker
threads in parallel are counted once, by the union of their intervals.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import math
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

TRACED_MODULES = ("tensor", "transforms", "tsvd", "mri", "admm", "fileio", "cli")
TRACED_METHODS = {
    "transforms.UnitaryTransform": ("apply", "apply_adjoint"),
    "tensor.ComplexTensor3": (
        "__add__", "__sub__", "__mul__", "__rmul__", "__truediv__", "__neg__",
    ),
}


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    extra: dict | None = None

    def to_list(self):
        return [self.sid, self.name, self.start, self.end, self.parent, self.op, self.extra]

    @classmethod
    def from_list(cls, row):
        return cls(*row)


def _svd_extra(args, kwargs, result):
    a = args[0]
    s = result[1] if isinstance(result, tuple) else result
    return {
        "matrices": int(np.prod(a.shape[:-2], dtype=np.int64)),
        "addr": a.__array_interface__["data"][0],
        "sv": s,
    }


def _transform_extra(args, kwargs, result):
    return {"bytes": args[1].slices.nbytes + result.slices.nbytes}


def _tsvt_extra(args, kwargs, result):
    y = args[0]
    tau = args[1] if len(args) > 1 else kwargs["tau"]
    n3 = y.dims[2]
    return {"taus": np.broadcast_to(np.asarray(tau, dtype=float), (n3,))}


# Extra facts recorded after a span has ended, so they cost no span time.
_EXTRAS = {
    "numpy.linalg.svd": _svd_extra,
    "UnitaryTransform.apply": _transform_extra,
    "UnitaryTransform.apply_adjoint": _transform_extra,
    "admm.t_tsvt": _tsvt_extra,
    "tsvd.t_tsvt": _tsvt_extra,
}


class Tracer:
    """Records spans from wrapped functions; one tracer per process.

    The thread that creates the tracer runs the ops. A span opened on a
    worker thread with no span of its own open takes the innermost open
    span of that thread as parent, which is the call that started the
    worker pool.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._ids = itertools.count(1)
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        extra = _EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._owner_stack[-1] if self._owner_stack else None
            sid = next(self._ids)
            span = Span(sid, name, 0.0, 0.0, parent, self.op)
            stack.append(sid)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if extra is not None:
                span.extra = extra(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str):
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def install(self):
        for modname in TRACED_MODULES:
            module = importlib.import_module(f"ttmri.{modname}")
            for attr, value in list(vars(module).items()):
                origin = getattr(value, "__module__", "") or ""
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and origin.removeprefix("ttmri.") in TRACED_MODULES
                ):
                    self._patch(module, attr, f"{modname}.{attr}")
        for path, methods in TRACED_METHODS.items():
            modname, clsname = path.split(".")
            cls = getattr(importlib.import_module(f"ttmri.{modname}"), clsname)
            for method in methods:
                self._patch(cls, method, f"{clsname}.{method}")
        self._patch(np.linalg, "svd", "numpy.linalg.svd")

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def finish(self):
        """Work out the kept-singular-value counts and drop the raw values.

        For every ``t_tsvt`` span the singular values computed by its SVD
        children are lined up with the per-slice thresholds (the slices of
        one transformed stack lie at increasing addresses) and counted.
        """
        children = _children(self.spans)
        for span in self.spans:
            if span.extra is None or "taus" not in span.extra:
                continue
            taus = span.extra.pop("taus")
            svds = [c for c in children.get((span.op, span.sid), ()) if c.name == "numpy.linalg.svd"]
            svds.sort(key=lambda c: c.extra["addr"])
            rows = [np.atleast_2d(c.extra["sv"]) for c in svds]
            if rows and len({r.shape[1] for r in rows}) == 1:
                sv = np.concatenate(rows)
                if sv.shape[0] == taus.size:
                    span.extra["kept"] = int((sv > taus[:, None]).sum())
                    span.extra["computed"] = int(sv.size)
        for span in self.spans:
            if span.extra is not None:
                span.extra.pop("sv", None)
                span.extra.pop("addr", None)


def _children(spans) -> dict[tuple[int, int], list[Span]]:
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[(s.op, s.parent)].append(s)
    return kids


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[tuple[int, int], float]:
    """Self time of every span, keyed by ``(op, span id)``."""
    kids = _children(spans)
    return {
        (s.op, s.sid): (s.end - s.start)
        - covered([(c.start, c.end) for c in kids.get((s.op, s.sid), ())], s.start, s.end)
        for s in spans
    }


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric and the spans it is computed from.

    ``kind`` is ``self`` (summed self time), ``total`` (summed duration of
    the outermost spans of the set, so a listed function calling another
    is counted once), ``calls``, ``matrices`` or ``bytes`` (summed from the
    spans), or ``kept`` (kept over computed singular values). ``per`` is
    the divisor: iterations run or ops.
    """

    name: str
    unit: str
    kind: str
    spans: tuple[str, ...]
    per: str = "iter"


_TSVT = ("admm.t_tsvt", "tsvd.t_tsvt")
_TRANSFORMS = ("UnitaryTransform.apply", "UnitaryTransform.apply_adjoint")
_TENSOR_OPS = tuple(f"ComplexTensor3.{m}" for m in TRACED_METHODS["tensor.ComplexTensor3"])

LAYER_METRICS = (
    LayerMetric("tsvd.t_tsvt_ms", "ms", "self", _TSVT),
    LayerMetric("tsvd.svd_ms", "ms", "total", ("numpy.linalg.svd",)),
    LayerMetric("tsvd.svd_matrices_per_iter", "count", "matrices", ("numpy.linalg.svd",)),
    LayerMetric("tsvd.kept_sv_ratio", "share", "kept", _TSVT),
    LayerMetric("tsvd.singular_values_ms", "ms", "total",
                ("admm.transformed_singular_values", "tsvd.transformed_singular_values")),
    LayerMetric("admm.history_ms", "ms", "total",
                ("admm.ttnn", "admm.forward", "admm.frobenius_norm")),
    LayerMetric("transforms.apply_ms", "ms", "total", ("UnitaryTransform.apply",)),
    LayerMetric("transforms.adjoint_ms", "ms", "total", ("UnitaryTransform.apply_adjoint",)),
    LayerMetric("transforms.calls_per_iter", "count", "calls", _TRANSFORMS),
    LayerMetric("transforms.bytes_per_iter", "B_computed", "bytes", _TRANSFORMS),
    LayerMetric("mri.spatial_fft_ms", "ms", "total", ("admm.spatial_fft", "mri.spatial_fft")),
    LayerMetric("mri.spatial_ifft_ms", "ms", "total", ("admm.spatial_ifft", "mri.spatial_ifft")),
    LayerMetric("mri.forward_ms", "ms", "total", ("admm.forward", "mri.forward")),
    LayerMetric("admm.x_update_ms", "ms", "self",
                ("admm.x_update_cartesian", "admm.x_update_gamma")),
    LayerMetric("admm.l_update_ms", "ms", "total", ("admm.l_update",)),
    LayerMetric("admm.relative_thresholds_ms", "ms", "self", ("admm.relative_thresholds",)),
    LayerMetric("admm.loop_ms", "ms", "self", ("admm.solve", "admm.solve_generalized")),
    LayerMetric("tensor.ops_ms", "ms", "total", _TENSOR_OPS),
    LayerMetric("tensor.ops_per_iter", "count", "calls", _TENSOR_OPS),
    LayerMetric("cli.self_ms", "ms", "self", ("cli.main",), per="op"),
    LayerMetric("fileio.read_ms", "ms", "total",
                ("fileio.load_tensor", "fileio.load_mask", "fileio.load_kspace"), per="op"),
    LayerMetric("fileio.write_ms", "ms", "total",
                ("fileio.save_tensor", "fileio.atomic_write_text", "fileio.atomic_write_bytes",
                 "fileio.write_pgm", "fileio.dump_frames_pgm"), per="op"),
)


def layer_values(spans, iterations: int, ops: int) -> dict[str, tuple[float, float]]:
    """Each layer metric as ``(value, calls per op)``.

    A metric whose spans were never entered has 0 calls; the caller
    reports it as unmeasured.
    """
    selfs = self_times(spans)
    by_key = {(s.op, s.sid): s for s in spans}
    out = {}
    for m in LAYER_METRICS:
        names = set(m.spans)
        mine = [s for s in spans if s.name in names]
        if m.kind == "kept":
            kept = [s.extra for s in mine if s.extra and "kept" in s.extra]
            computed = sum(e["computed"] for e in kept)
            out[m.name] = (sum(e["kept"] for e in kept) / computed if computed else 0.0,
                           len(mine) / ops)
            continue
        if m.kind == "self":
            raw = sum(selfs[(s.op, s.sid)] for s in mine) * 1e3
        elif m.kind == "total":
            outer = []
            for s in mine:
                parent = by_key.get((s.op, s.parent))
                if parent is None or parent.name not in names:
                    outer.append(s)
            raw = sum(s.end - s.start for s in outer) * 1e3
        elif m.kind == "calls":
            raw = float(len(mine))
        else:
            raw = float(sum(s.extra[m.kind] for s in mine if s.extra))
        divisor = iterations if m.per == "iter" else ops
        out[m.name] = (raw / divisor if divisor else 0.0, len(mine) / ops)
    return out


def op_coverage(spans, op_walls: dict[int, float]) -> float:
    """Share of the ops' wall time that lies inside some traced span."""
    by_op = defaultdict(list)
    for s in spans:
        by_op[s.op].append((s.start, s.end))
    inside = sum(covered(by_op[op], -math.inf, math.inf) for op in op_walls)
    return inside / sum(op_walls.values())
