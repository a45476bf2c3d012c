"""Outside-in tracing of lidartrack's module boundaries.

`install` replaces the public function at each boundary with a wrapper, at
the name its caller looks up (`pipeline.detect`, `detection.KdTree`,
`tracking.Tracker.step`, ...), and the unmodified `run_tracking` is then
called as usual. Nothing inside the package is copied or edited.

Spans live in memory (name, start, end, parent, thread) with the
per-boundary counts beside them; `Tracer.dump` writes both out when the run
ends. A boundary that no longer exists, whose observer raised, or that was
never called makes the metrics that depend on it *missing*, by name and
reason; they are never reported as 0.

The camera-mask filter is not traced: synthetic sequences carry no masks
and the default config disables it, so it never runs here.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import threading
import time
from pathlib import Path

# (span name, module, attribute path at the caller's lookup)
BOUNDARIES = (
    ("dataset_io.load_sequence", "lidartrack.dataset_io", "load_sequence"),
    ("dataset_io.write_tracks", "lidartrack.dataset_io", "write_tracks"),
    ("pipeline.run_tracking", "lidartrack.pipeline", "run_tracking"),
    ("detection.detect", "lidartrack.pipeline", "detect"),
    ("preprocess.preprocess_frame", "lidartrack.detection", "preprocess_frame"),
    ("preprocess.downsample_stride", "lidartrack.preprocess", "downsample_stride"),
    ("preprocess.remove_ground", "lidartrack.preprocess", "remove_ground"),
    ("preprocess.filter_drivable", "lidartrack.preprocess", "filter_drivable"),
    ("spatial_index.KdTree", "lidartrack.detection", "KdTree"),
    ("clustering.dbscan", "lidartrack.detection", "dbscan"),
    ("detection.fit_box", "lidartrack.detection", "fit_box"),
    ("detection.passes_heuristics", "lidartrack.detection", "passes_heuristics"),
    ("geometry.transform_point", "lidartrack.detection", "transform_point"),
    ("tracking.Tracker.step", "lidartrack.tracking", "Tracker.step"),
    ("tracking.hungarian", "lidartrack.tracking", "hungarian"),
    ("evaluation.mota", "lidartrack.evaluation", "mota"),
)

# Opened by the benchmark itself around loading gt + tracks and scoring.
SCORE_SPAN = "evaluation.score"
# Counted from GroundFitWarning records, not from a wrapper.
GROUND_SKIPS = "preprocess.ground_fit_skipped"


class Missing(Exception):
    """A metric cannot be computed; the message says why."""


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, dict[str, float]] = {}
        self.errors: dict[str, str] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> dict:
        stack = self._stack()
        span = {
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "thread": threading.get_ident(),
            "attrs": {},
        }
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        stack.append(span)
        span["start_ns"] = time.perf_counter_ns()
        return span

    def end(self, span: dict) -> None:
        span["end_ns"] = time.perf_counter_ns()
        self._stack().pop()

    def count(self, boundary: str, **quantities) -> None:
        with self._lock:
            totals = self.counts.setdefault(boundary, {})
            for key, value in quantities.items():
                totals[key] = totals.get(key, 0) + value

    def fail(self, boundary: str, reason: str) -> None:
        with self._lock:
            self.errors.setdefault(boundary, reason)

    def dump(self, path, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"spans": self.spans, "counts": self.counts, "errors": self.errors, **extra}, fh
            )


# --- hooks ---------------------------------------------------------------


def _observe_load(span, args, result):
    files = (p for p in Path(args["path"]).rglob("*") if p.is_file())
    return {"bytes": sum(p.stat().st_size for p in files)}


def _observe_write(span, args, result):
    return {"records": len(args["records"])}


def _observe_run(span, args, result):
    span["attrs"]["workers"] = args["workers"]
    return {}


def _observe_detect(span, args, result):
    span["attrs"]["ts"] = args["frame"].timestamp
    return {"detections": len(result[0])}


def _observe_preprocess(span, args, result):
    return {"points_in": len(args["frame"].cloud), "points_out": len(result[0])}


def _observe_ground(span, args, result):
    return {"points_out": len(result)}


def _observe_kdtree(span, args, result):
    return {"points": len(args["points"])}


def _observe_dbscan(span, args, result):
    labels = result.labels
    return {
        "clusters": result.n_clusters,
        "points": len(labels),
        "clustered": int((labels >= 0).sum()),
    }


def _observe_step(span, args, result):
    span["attrs"]["ts"] = args["timestamp"]
    span["attrs"]["live"] = len(args["self"].tracks)
    span["attrs"]["confirmed"] = sorted({snap.track_id for snap in result})
    return {}


def _observe_mota(span, args, result):
    return {"frames": len(result[1])}


OBSERVERS = {
    "dataset_io.load_sequence": _observe_load,
    "dataset_io.write_tracks": _observe_write,
    "pipeline.run_tracking": _observe_run,
    "detection.detect": _observe_detect,
    "preprocess.preprocess_frame": _observe_preprocess,
    "preprocess.remove_ground": _observe_ground,
    "spatial_index.KdTree": _observe_kdtree,
    "clustering.dbscan": _observe_dbscan,
    "tracking.Tracker.step": _observe_step,
    "evaluation.mota": _observe_mota,
}


def _wrap(tracer: Tracer, name: str, func, observe):
    sig = inspect.signature(func) if observe else None

    @functools.wraps(func)
    def traced(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.end(span)
        tracer.count(name, calls=1)
        if observe is not None:
            try:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.count(name, **observe(span, bound.arguments, result))
            except Exception as exc:  # report, never break the traced run
                tracer.fail(name, f"observer failed: {exc!r}")
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every boundary in BOUNDARIES; record the ones that are gone.

    Every module is imported before anything is wrapped, so a module that
    binds another's function at import time (evaluation takes tracking's
    hungarian) keeps the original and is not counted as that boundary.
    """
    modules, import_errors = {}, {}
    for _, module, _ in BOUNDARIES:
        try:
            modules[module] = importlib.import_module(module)
        except ImportError as exc:
            import_errors[module] = exc
    for name, module, attr_path in BOUNDARIES:
        if module in import_errors:
            tracer.fail(name, f"{module} cannot be imported ({import_errors[module]})")
            continue
        owner = modules[module]
        *owner_path, attr = attr_path.split(".")
        try:
            for part in owner_path:
                owner = getattr(owner, part)
            func = getattr(owner, attr)
        except AttributeError:
            tracer.fail(name, f"{module}.{attr_path} no longer exists")
            continue
        setattr(owner, attr, _wrap(tracer, name, func, OBSERVERS.get(name)))


# --- per-layer metrics -----------------------------------------------------


def _ms(span: dict) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e6


def _p50(values: list[float]) -> float:
    return statistics.median(values)


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def self_ms(span: dict, children: list[dict]) -> float:
    """Span duration minus the part of it that its children cover."""
    lo, hi = span["start_ns"], span["end_ns"]
    covered, cursor = 0, lo
    for child in sorted(children, key=lambda c: c["start_ns"]):
        start = max(child["start_ns"], cursor)
        end = min(child["end_ns"], hi)
        if end > start:
            covered += end - start
            cursor = end
    return (hi - lo - covered) / 1e6


class _Spans:
    """Read-side view of a finished trace."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.by_name: dict[str, list[dict]] = {}
        self.children: dict[int, list[dict]] = {}
        for span in tracer.spans:
            self.by_name.setdefault(span["name"], []).append(span)
            if span["parent"] is not None:
                self.children.setdefault(span["parent"], []).append(span)

    def need(self, *boundaries: str) -> None:
        for name in boundaries:
            if name in self.tracer.errors:
                raise Missing(f"{name}: {self.tracer.errors[name]}")
            if not self.by_name.get(name):
                raise Missing(f"{name} recorded 0 calls")

    def ms(self, name: str) -> list[float]:
        self.need(name)
        return [_ms(s) for s in self.by_name[name]]

    def total(self, name: str, key: str) -> float:
        self.need(name)
        return self.tracer.counts[name].get(key, 0)

    def attrs(self, name: str, key: str) -> list:
        self.need(name)
        return [s["attrs"][key] for s in self.by_name[name]]

    def self_ms(self, name: str) -> list[float]:
        self.need(name)
        return [self_ms(s, self.children.get(s["id"], [])) for s in self.by_name[name]]

    def subtree_self_ms(self, span: dict) -> float:
        kids = self.children.get(span["id"], [])
        return self_ms(span, kids) + sum(self.subtree_self_ms(k) for k in kids)


def _ratio(num: float, den: float) -> float:
    if den == 0:
        raise Missing("denominator is 0")
    return num / den


def _frame_ms(sp: _Spans) -> list[float]:
    """Per frame: detect start to the end of that frame's Tracker.step."""
    sp.need("detection.detect", "tracking.Tracker.step")
    starts = {s["attrs"]["ts"]: s["start_ns"] for s in sp.by_name["detection.detect"]}
    return [
        (s["end_ns"] - starts[s["attrs"]["ts"]]) / 1e6 for s in sp.by_name["tracking.Tracker.step"]
    ]


def _wait_ms(sp: _Spans) -> list[float]:
    """Gaps the in-order consumer spends between consecutive tracker steps."""
    steps = sorted(sp.by_name.get("tracking.Tracker.step", []), key=lambda s: s["start_ns"])
    if len(steps) < 2:
        raise Missing("tracking.Tracker.step recorded fewer than 2 calls")
    return [(b["start_ns"] - a["end_ns"]) / 1e6 for a, b in zip(steps, steps[1:])]


def _confirmed_ids(sp: _Spans) -> int:
    return len(set().union(*sp.attrs("tracking.Tracker.step", "confirmed")))


def _ground_skips(sp: _Spans) -> int:
    sp.need("preprocess.remove_ground")
    if GROUND_SKIPS in sp.tracer.errors:
        raise Missing(sp.tracer.errors[GROUND_SKIPS])
    return sp.tracer.counts.get(GROUND_SKIPS, {}).get("warnings", 0)


# name -> (unit, function of _Spans). Every name here is a
# per_layer metric in BENCHMARK.json, except trace.overhead_ratio, which
# needs the untraced runs and is added by run.py.
LAYER_METRICS = {
    "dataset_io.load_ms": ("ms", lambda sp: sum(sp.ms("dataset_io.load_sequence"))),
    "dataset_io.bytes_read": ("bytes", lambda sp: sp.total("dataset_io.load_sequence", "bytes")),
    "dataset_io.write_tracks_ms": ("ms", lambda sp: sum(sp.ms("dataset_io.write_tracks"))),
    "dataset_io.records_written": (
        "count",
        lambda sp: sp.total("dataset_io.write_tracks", "records"),
    ),
    "preprocess.remove_ground_ms_p50": ("ms", lambda sp: _p50(sp.ms("preprocess.remove_ground"))),
    "preprocess.remove_ground_ms_p90": ("ms", lambda sp: _p90(sp.ms("preprocess.remove_ground"))),
    "preprocess.downsample_ms_p50": ("ms", lambda sp: _p50(sp.ms("preprocess.downsample_stride"))),
    "preprocess.filter_drivable_ms_p50": (
        "ms",
        lambda sp: _p50(sp.ms("preprocess.filter_drivable")),
    ),
    "preprocess.points_in": (
        "count",
        lambda sp: sp.total("preprocess.preprocess_frame", "points_in"),
    ),
    "preprocess.points_after_ground": (
        "count",
        lambda sp: sp.total("preprocess.remove_ground", "points_out"),
    ),
    "preprocess.points_out": (
        "count",
        lambda sp: sp.total("preprocess.preprocess_frame", "points_out"),
    ),
    "preprocess.keep_ratio": (
        "ratio",
        lambda sp: _ratio(
            sp.total("preprocess.preprocess_frame", "points_out"),
            sp.total("preprocess.preprocess_frame", "points_in"),
        ),
    ),
    "preprocess.ground_fit_skipped": ("count", _ground_skips),
    "spatial_index.build_ms_p50": ("ms", lambda sp: _p50(sp.ms("spatial_index.KdTree"))),
    "spatial_index.points": ("count", lambda sp: sp.total("spatial_index.KdTree", "points")),
    "clustering.dbscan_ms_p50": ("ms", lambda sp: _p50(sp.ms("clustering.dbscan"))),
    "clustering.dbscan_ms_p90": ("ms", lambda sp: _p90(sp.ms("clustering.dbscan"))),
    "clustering.clusters": ("count", lambda sp: sp.total("clustering.dbscan", "clusters")),
    "clustering.clustered_ratio": (
        "ratio",
        lambda sp: _ratio(
            sp.total("clustering.dbscan", "clustered"), sp.total("clustering.dbscan", "points")
        ),
    ),
    "detection.detect_ms_p50": ("ms", lambda sp: _p50(sp.ms("detection.detect"))),
    "detection.self_ms_p50": ("ms", lambda sp: _p50(sp.self_ms("detection.detect"))),
    "detection.boxes": ("count", lambda sp: sp.total("detection.fit_box", "calls")),
    "detection.detections": ("count", lambda sp: sp.total("detection.detect", "detections")),
    "detection.gate_pass_ratio": (
        "ratio",
        lambda sp: _ratio(
            sp.total("detection.detect", "detections"), sp.total("detection.fit_box", "calls")
        ),
    ),
    "tracking.step_ms_p50": ("ms", lambda sp: _p50(sp.ms("tracking.Tracker.step"))),
    "tracking.step_ms_p90": ("ms", lambda sp: _p90(sp.ms("tracking.Tracker.step"))),
    "tracking.hungarian_ms_p50": ("ms", lambda sp: _p50(sp.ms("tracking.hungarian"))),
    "tracking.live_tracks_mean": (
        "count",
        lambda sp: statistics.fmean(sp.attrs("tracking.Tracker.step", "live")),
    ),
    "tracking.confirmed_ids": ("count", _confirmed_ids),
    "pipeline.run_s": ("s", lambda sp: sum(sp.ms("pipeline.run_tracking")) / 1e3),
    "pipeline.frame_ms_p50": ("ms", lambda sp: _p50(_frame_ms(sp))),
    "pipeline.frame_ms_p90": ("ms", lambda sp: _p90(_frame_ms(sp))),
    "pipeline.wait_ms_p50": ("ms", lambda sp: _p50(_wait_ms(sp))),
    "pipeline.workers": ("count", lambda sp: sp.attrs("pipeline.run_tracking", "workers")[0]),
    "evaluation.mota_ms": ("ms", lambda sp: sum(sp.ms(SCORE_SPAN))),
    "evaluation.frames_scored": ("count", lambda sp: sp.total("evaluation.mota", "frames")),
}


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """(metrics, missing): metrics maps name -> {"value", "unit"}, missing
    maps name -> reason."""
    sp = _Spans(tracer)
    metrics, missing = {}, {}
    for name, (unit, compute) in LAYER_METRICS.items():
        try:
            value = compute(sp)
        except Missing as exc:
            missing[name] = str(exc)
            continue
        except (KeyError, IndexError, TypeError) as exc:
            missing[name] = f"malformed trace: {exc!r}"
            continue
        metrics[name] = {"value": value, "unit": unit}
    return metrics, missing


def detect_tree_ratio(tracer: Tracer) -> float:
    """Sum of self times in every detection.detect subtree over the summed
    detect spans. 1.0 when child spans nest inside their parents without
    overlapping; anything else means the span tree is wrong."""
    sp = _Spans(tracer)
    sp.need("detection.detect")
    detects = sp.by_name["detection.detect"]
    return sum(sp.subtree_self_ms(s) for s in detects) / sum(_ms(s) for s in detects)
