"""In-memory span recorder for the traced benchmark run.

Each span records its name, start, end and parent span. Spans are kept in
memory and written out when the run ends. Layer functions are wrapped where
their callers look them up (a module attribute, a name imported into another
module, or a class attribute for methods), so the package itself carries no
tracing code. `instrument` installs the wrappers and always restores the
originals.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

import numpy as np

from shapefuse import autodiff as ad
from shapefuse import bodymodel as bm
from shapefuse import camera as cr
from shapefuse import metrics, network, synth


class SpanRecorder:
    """Nested spans of one single-threaded run, plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counters: Counter = Counter()
        self.samples: dict[str, list] = defaultdict(list)  # per-call values
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn, name: str, on_result=None):
        """`fn` recording one span per call; `on_result(recorder, result)`
        may read counts from the returned value."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    # ---- analysis --------------------------------------------------------

    def durations_ms(self) -> np.ndarray:
        return (np.asarray(self.ends, dtype=np.int64) - np.asarray(self.starts, dtype=np.int64)) / 1e6

    def self_ms(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        own = self.durations_ms()
        out = own.copy()
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= own[index]
        return out

    def root_of(self, root_name: str) -> np.ndarray:
        """For each span, the index of the outermost enclosing span called
        `root_name` (the span itself if it is one), or -1."""
        root = np.full(len(self.names), -1, dtype=np.int64)
        for index, (name, parent) in enumerate(zip(self.names, self.parents)):
            if parent >= 0 and root[parent] >= 0:
                root[index] = root[parent]
            elif name == root_name:
                root[index] = index
        return root

    def select(self, name: str, parent_not: str = None) -> np.ndarray:
        """Indices of spans called `name`, excluding spans whose direct parent
        is called `parent_not`."""
        picked = []
        for index, span_name in enumerate(self.names):
            if span_name != name:
                continue
            parent = self.parents[index]
            if parent_not is not None and parent >= 0 and self.names[parent] == parent_not:
                continue
            picked.append(index)
        return np.asarray(picked, dtype=np.int64)

    def to_json(self) -> dict:
        origin = min(self.starts) if self.starts else 0
        return {
            "fields": ["name", "start_ns", "end_ns", "parent"],
            "spans": [
                [n, s - origin, e - origin, p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
            ],
            "counters": dict(self.counters),
            "samples": {k: list(v) for k, v in self.samples.items()},
        }


def _count_events(recorder: SpanRecorder, sample) -> None:
    recorder.samples["synth.corruption_events"].append(
        int(sum(int(v) for v in sample.events.values()))
    )


def _count_tape_nodes(recorder: SpanRecorder, result) -> None:
    total, _parts = result
    recorder.samples["autodiff.tape_nodes"].append(len(total.tape.nodes))


# (owner, attribute, span name, on_result) for every wrapped layer call.
# Functions imported by name into another module are wrapped at that
# importer, because that is where the caller looks them up.
TARGETS = [
    (bm, "generate_toy_model", "bodymodel.generate_toy_model", None),
    (bm, "forward", "bodymodel.forward", None),
    (bm, "lbs_vertices", "bodymodel.lbs_vertices", None),
    (cr, "rasterize_silhouette", "camera.rasterize_silhouette", None),
    (cr, "rasterize_part_assignment", "camera.rasterize_part_assignment", None),
    (cr, "joints_to_heatmaps", "camera.joints_to_heatmaps", None),
    (synth, "procedural_pose_source", "synth.procedural_pose_source", None),
    (synth, "generate_dataset", "synth.generate_dataset", None),
    (synth, "render_sample", "synth.render_sample", _count_events),
    (synth, "write_dataset", "synth.write_dataset", None),
    (synth, "read_dataset", "synth.read_dataset", None),
    (synth, "write_container", "containerio.write_container", None),
    (synth, "read_container", "containerio.read_container", None),
    (network, "pooled_from_dataset", "network.pooled_from_dataset", None),
    (network.PredictorNet, "heads", "network.heads", None),
    (network, "loss_total_batch", "network.loss_total_batch", _count_tape_nodes),
    (network, "gaussian_nll", "gaussians.gaussian_nll", None),
    (network.AdamState, "step", "network.adam_step", None),
    (network, "train", "network.train", None),
    (network, "predict_dataset", "network.predict_dataset", None),
    (ad, "gradient", "autodiff.gradient", None),
    (metrics, "evaluate", "metrics.evaluate", None),
    (metrics, "mpjpe_sc", "metrics.mpjpe_sc", None),
    (metrics, "mpjpe_pa", "metrics.mpjpe_pa", None),
    (metrics, "pve_t_sc", "metrics.pve_t_sc", None),
    (metrics, "fuse_shapes", "gaussians.fuse_shapes", None),
    (metrics, "per_vertex_uncertainty", "metrics.per_vertex_uncertainty", None),
]


@contextlib.contextmanager
def instrument(recorder: SpanRecorder):
    """Install span wrappers on every layer boundary; restore on exit.

    `camera.PerspCamera` is swapped for a subclass that counts constructions,
    i.e. camera attempts in `render_sample`.
    """
    saved = []
    try:
        for owner, attr, name, on_result in TARGETS:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(original, name, on_result))

        base = cr.PerspCamera

        class CountedPerspCamera(base):
            def __post_init__(self):
                recorder.counters["camera.PerspCamera"] += 1
                super().__post_init__()

        saved.append((cr, "PerspCamera", base))
        cr.PerspCamera = CountedPerspCamera
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
