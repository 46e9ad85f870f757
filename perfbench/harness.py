"""Orchestration of one benchmark run: set-up, warm-up, measured window,
output checks, metrics and the result line. `run.py` is the entry point."""

from __future__ import annotations

import contextlib
import gc
import json
import os
import shutil
import statistics
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np

import report
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _no_span(name):
    return contextlib.nullcontext()


class Run:
    """One workload run: ops, timings, failures."""

    def __init__(self, workload, state, smoke: bool):
        self.workload = workload
        self.state = state
        self.smoke = smoke
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str, errors: list) -> None:
        self.failed += 1
        for err in errors:
            print(f"FAILED {self.workload.name} {what}: {err}")

    def _op(self, index: int, span, warmup: bool = False):
        with span("op"):
            result = self.workload.op(self.state, index, warmup)
            if self.workload.collect_garbage:
                with span("gc.collect"):
                    gc.collect()
        return result

    def checked_op(self, index: int, span=_no_span) -> float:
        """One attempted and checked op; returns its wall time in ms. The
        check runs outside the timing."""
        t0 = time.perf_counter_ns()
        result = self.attempt(f"op {index}", self._op, index, span)
        t1 = time.perf_counter_ns()
        if result is not None:
            errors = self.workload.check(self.state, result)
            if errors:
                self.fail(f"op {index}", errors)
        return (t1 - t0) / 1e6

    def loop(self, seconds: float, recorder=None, start: int = 0) -> list:
        """Closed loop: run ops back to back for `seconds` (at least one).
        Returns per-op wall times in ms."""
        span = recorder.span if recorder is not None else _no_span
        times = []
        index = start
        deadline = time.perf_counter() + seconds
        while not times or time.perf_counter() < deadline:
            times.append(self.checked_op(index, span))
            index += 1
        return times

    def attempt(self, what: str, fn, *args, **kwargs):
        """One attempted operation; one that raises counts as failed and the
        run goes on. Returns None after a failure."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.fail(what, [traceback.format_exc(limit=3)])
            return None

    def warm_up(self) -> None:
        for i in range(1 if self.smoke else self.workload.warmup_ops):
            self.attempt(f"warm-up op {i}", self._op, i, _no_span, warmup=True)

    def op_peak_mb(self, workdir: Path) -> float:
        """Median over a few untimed ops (the window's first indices again)
        of the peak memory each op allocates beyond what it started with:
        Python objects and numpy buffers, as tracemalloc sees them. Set-up
        is left out, and tracing costs no measured time. A workload with a
        `memory_seed` runs these ops on that seed's inputs instead."""
        state = self.state
        if self.workload.memory_seed is not None:
            self.state = self.workload.setup(self.workload.memory_seed, workdir)
        peaks = []
        tracemalloc.start()
        try:
            for index in range(1 if self.smoke else self.workload.memory_ops):
                held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                self.checked_op(index)
                peaks.append((tracemalloc.get_traced_memory()[1] - held) / 2**20)
        finally:
            tracemalloc.stop()
            self.state = state
        return statistics.median(peaks)

    def check_reference(self, workdir: Path) -> None:
        """Seed-independent reference case against values recorded in
        reference.json."""
        name = self.workload.name
        want = json.loads((HERE / "reference.json").read_text())["workloads"][name]
        got = self.attempt("reference case", self.workload.reference, workdir)
        errors = workloads.compare_reference(name, got, want) if got is not None else []
        if errors:
            self.fail("reference check", errors)


def set_up(workload, seed: int, workdir: Path, reps: int):
    """Run the whole set-up `reps` times; (last state, per-rep seconds)."""
    times = []
    state = None
    for _ in range(reps):
        state = None  # let the previous state go before building the next
        t0 = time.perf_counter()
        state = workload.setup(seed, workdir)
        times.append(time.perf_counter() - t0)
    return state, times


def end_to_end(args, workload, workdir: Path):
    """Untraced run. The ops use a state set up from the run's seed. The
    timed set-ups use the reference seed's inputs and run several times,
    before and after the measured window, so that neither the seed's data
    nor one burst of host load sets `setup_s`."""
    before, after = (1, 0) if args.smoke else workload.setup_reps
    setup_times = set_up(workload, workloads.REF_SEED, workdir, before)[1]
    state, _ = set_up(workload, args.seed, workdir, 1)
    run = Run(workload, state, args.smoke)
    run.warm_up()
    op_ms = np.asarray(run.loop(args.seconds))
    peak_mb = run.op_peak_mb(workdir)
    run.state = None
    setup_times += set_up(workload, workloads.REF_SEED, workdir, after)[1]
    run.check_reference(workdir)

    tail_ms, tail_pct = report.tail(op_ms)
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_peak_mb": (peak_mb, "MB"),
        "throughput_per_s": (len(op_ms) * workload.sample_size / (op_ms.sum() / 1000), "1/s"),
        "op_ms_p50": (float(np.median(op_ms)), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
    }
    throughput_label, p50_label, tail_label = workload.labels
    print(f"ops {len(op_ms)} taking {op_ms.sum() / 1000:.3f} s; set-up runs "
          f"{[round(t, 4) for t in setup_times]} s")
    print(f"{throughput_label} = {values['throughput_per_s'][0]:.4f} 1/s")
    print(f"{p50_label} = {values['op_ms_p50'][0]:.4f} ms")
    print(f"{tail_label} = {tail_ms:.4f} ms (p{tail_pct:.1f}, {len(op_ms)} ops)")
    details = {"op_ms": op_ms.tolist(), "setup_s": setup_times, "tail_percentile": tail_pct}
    return run, values, details


def per_layer(args, workload, workdir: Path):
    """Traced run: set-up and every other op of the measured window run under
    span wrappers. The ops in between run untraced; comparing the two halves
    op by op gives the tracing overhead under the same host load."""
    recorder = spans.SpanRecorder()
    reps = 1 if args.smoke else workload.setup_reps[0]
    with spans.instrument(recorder):
        with recorder.span("setup"):
            state, _ = set_up(workload, args.seed, workdir, reps)
    run = Run(workload, state, args.smoke)
    run.warm_up()
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        plain += run.loop(0, start=2 * len(traced))  # a zero-length loop runs one op
        with spans.instrument(recorder):
            traced += run.loop(0, recorder, start=2 * len(traced) + 1)
    run.check_reference(workdir)

    errors, worst = check_self_times(recorder, traced)
    print(f"self times of the {len(traced)} traced ops against their measured op times: "
          f"largest gap {worst:.4f} ms")
    if errors:
        run.fail("trace check", errors)
    values, notes = layer_metrics(recorder, workload, state)
    overhead = 100.0 * (sum(traced) / len(traced) / (sum(plain) / len(plain)) - 1.0)
    values["trace.overhead_pct"] = (overhead, "%")
    print(f"untraced {len(plain)} ops, mean {sum(plain) / len(plain):.4f} ms; "
          f"traced {len(traced)} ops, mean {sum(traced) / len(traced):.4f} ms; "
          f"tracing overhead {overhead:.2f}% of op time")
    for line in notes:
        print(line)
    return run, values, {"spans": recorder.to_json(), "plain_op_ms": plain, "traced_op_ms": traced}


# the loop's timing also covers the call into the op span and the span's own
# bookkeeping; a gap above this is a tracing fault
SELF_TIME_GAP_MS = 0.5
SELF_TIME_GAP_REL = 0.01


def check_self_times(recorder, traced_ms: list):
    """Check that the self times of each traced op's spans add up to the op's
    wall time as the loop measured it, and that no self time is negative.
    Returns (errors, largest gap in ms)."""
    own = recorder.self_ms()
    root = recorder.root_of("op")
    inside = root >= 0
    sums = np.bincount(root[inside], weights=own[inside], minlength=len(own))
    ops = recorder.select("op")
    errors = []
    gaps = np.abs(sums[ops] - np.asarray(traced_ms))
    for k in np.flatnonzero(gaps > SELF_TIME_GAP_MS + SELF_TIME_GAP_REL * np.asarray(traced_ms)):
        errors.append(f"traced op {k}: self times add up to {sums[ops[k]]:.4f} ms, "
                      f"the op took {traced_ms[k]:.4f} ms")
    negative = np.flatnonzero(inside & (own < -1e-3))
    for i in negative:
        errors.append(f"span {recorder.names[i]} has negative self time {own[i]:.4f} ms")
    return errors, float(gaps.max(initial=0.0))


def layer_metrics(recorder, workload, state):
    """Per-layer metrics from the spans of the set-up and the traced window."""
    dur = recorder.durations_ms()
    own = recorder.self_ms()
    in_ops = recorder.root_of("op") >= 0

    def p50(name, **kw):
        picked = recorder.select(name, **kw)
        return statistics.median(dur[picked]) if len(picked) else 0.0

    def count(name):
        return len(recorder.select(name))

    renders = count("synth.render_sample")
    steps = count("network.adam_step")
    evaluated = count("metrics.evaluate") * workload.sample_size
    events = recorder.samples["synth.corruption_events"]
    nodes = recorder.samples["autodiff.tape_nodes"]
    setup_spans = recorder.root_of("setup") >= 0
    ms, cnt, b = "ms", "count", "bytes"
    values = {
        "camera.rasterize_silhouette.ms_p50": (p50("camera.rasterize_silhouette"), ms),
        "camera.rasterize_silhouette.calls_per_sample":
            (count("camera.rasterize_silhouette") / max(renders, 1), cnt),
        "camera.rasterize_part_assignment.ms_p50": (p50("camera.rasterize_part_assignment"), ms),
        "camera.rasterize_part_assignment.calls_per_sample":
            (count("camera.rasterize_part_assignment") / max(renders, 1), cnt),
        "camera.joints_to_heatmaps.ms_p50": (p50("camera.joints_to_heatmaps"), ms),
        "synth.render_sample.self_ms_p50":
            (_median(own[recorder.select("synth.render_sample")]), ms),
        "synth.camera_attempts_per_sample":
            (recorder.counters["camera.PerspCamera"] / max(renders, 1), cnt),
        "synth.corruption_events": (sum(events) / max(len(events), 1), cnt),
        "bodymodel.forward.ms_p50": (p50("bodymodel.forward"), ms),
        # batched calls only: single-body calls made inside forward are excluded
        "bodymodel.lbs_vertices.ms_p50":
            (p50("bodymodel.lbs_vertices", parent_not="bodymodel.forward"), ms),
        "network.pooled_from_dataset.ms_p50": (p50("network.pooled_from_dataset"), ms),
        "network.heads.ms_p50": (p50("network.heads"), ms),
        "network.loss_total_batch.ms_p50": (p50("network.loss_total_batch"), ms),
        "network.adam_step.ms_p50": (p50("network.adam_step"), ms),
        "network.train.self_ms_per_step":
            (own[recorder.select("network.train")].sum() / max(steps, 1), ms),
        "autodiff.gradient.ms_p50": (p50("autodiff.gradient"), ms),
        "autodiff.tape_nodes_per_step": (_median(nodes), cnt),
        "network.predict_dataset.ms_per_sample":
            (dur[recorder.select("network.predict_dataset")].sum() / max(evaluated, 1), ms),
        "metrics.mpjpe_pa.ms_p50": (p50("metrics.mpjpe_pa"), ms),
        "metrics.pve_t_sc.ms_p50": (p50("metrics.pve_t_sc"), ms),
        "gaussians.fuse_shapes.ms_p50": (p50("gaussians.fuse_shapes"), ms),
        "metrics.per_vertex_uncertainty.ms_p50": (p50("metrics.per_vertex_uncertainty"), ms),
        "bodymodel.generate_toy_model.ms": (p50("bodymodel.generate_toy_model"), ms),
        "synth.write_dataset.ms": (p50("synth.write_dataset"), ms),
        "synth.read_dataset.ms": (p50("synth.read_dataset"), ms),
        "synth.dataset_bytes": (float(state.dataset_bytes), b),
    }

    ops = recorder.select("op")
    op_total = dur[ops].sum()
    notes = [f"ops traced {len(ops)}: {op_total:.3f} ms, "
             f"in layer spans {100 * (1 - own[ops].sum() / op_total):.2f}%"]
    shares = {}
    for i in np.flatnonzero(in_ops | setup_spans):
        key = ("op" if in_ops[i] else "setup", recorder.names[i])
        shares[key] = shares.get(key, 0.0) + own[i]
    totals = {"op": op_total, "setup": dur[recorder.select("setup")].sum()}
    for (phase, name), total in sorted(shares.items(), key=lambda kv: (kv[0][0], -kv[1])):
        notes.append(f"  {phase:5s} self {name:36s} {total:12.3f} ms "
                     f"{100 * total / max(totals[phase], 1e-9):6.2f}%")
    return values, notes


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def main(args, spec: dict) -> int:
    workload = workloads.WORKLOADS[args.workload]
    env = report.environment(ROOT, args)
    print("env " + json.dumps(env, sort_keys=True))

    workdir = HERE / "results" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            run, values, details = per_layer(args, workload, workdir)
            wanted = spec["per_layer"]
        else:
            run, values, details = end_to_end(args, workload, workdir)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in values.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"failed_ratio = {run.failed / run.attempted:.6g} ({run.failed} of {run.attempted} ops)")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]][0]), "unit": m["unit"]}
                    for m in wanted},
    }
    report.write_json(
        HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
        {"env": env, "result": result, "all_metrics": values, "details": details},
    )
    print(json.dumps(result, sort_keys=True))
    return 0
