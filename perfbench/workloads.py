"""The benchmark's workloads: set-up, one timed operation, output checks.

Every workload uses the toy body model at SMPL size (6890 vertices, 24
joints). The model is one fixed asset, as SMPL is, so it is always built
from MODEL_SEED; the workload seed makes the inputs: pose bank, shapes,
cameras, corruptions, network initialisation and training noise. Only
public `shapefuse` functions are called, always through their module so
that the traced run's wrappers see the calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from shapefuse import bodymodel as bm
from shapefuse import metrics, network, synth
from shapefuse.rng import named_rng

MODEL_SEED = 0
NUM_VERTICES = 6890
NUM_JOINTS = 24
POSES_PER_SUBJECT = 4
GROUP_SIZE = 4
REPROJ_SAMPLES = 8  # reparameterised draws per example in the training loss
WARMUP_SUBJECT = 10**6  # warm-up renders use subjects the measured run never reaches

# reference cases are seed-independent: they check the code, not the run;
# seed 1 makes the reference samples include part, half-image and box occlusions
REF_SEED = 1
REF_SAMPLES = 8
REF_MC_SAMPLES = 10


def build_model() -> bm.BodyModel:
    return bm.generate_toy_model(MODEL_SEED, num_vertices=NUM_VERTICES, num_joints=NUM_JOINTS)


def _dataset_roundtrip(path: Path, samples: list, model, seed: int):
    """Write the samples to a container and read them back; (dataset, bytes)."""
    synth.write_dataset(path, samples, synth.GenerationConfig(), synth.AugmentationConfig(),
                        seed, synth.model_fingerprint(model))
    return synth.read_dataset(path), path.stat().st_size


@dataclass
class State:
    seed: int
    model: bm.BodyModel
    poses: synth.PoseSource
    net: network.PredictorNet = None
    dataset: synth.SynthDataset = None
    dataset_bytes: int = 0
    optimizer: network.AdamState = None
    epoch: int = 0
    betas: dict = field(default_factory=dict)
    first: object = None  # first evaluation result, for the repeat check


class Generate:
    """Corrupted samples rendered one per call at 256 px, drawing from the
    same named substreams as `synth.generate_dataset`."""

    name = "generate"
    labels = ("gen_samples_per_s", "gen_sample_ms_p50", "gen_sample_ms_tail")
    setup_reps = (6, 6)  # reference-seed set-ups timed before and after the window
    warmup_ops = 3
    memory_ops = 5  # untimed ops whose allocation peak is measured
    # A sample's allocation peak follows its projected size: 12 to 87 MB
    # over 20 samples of one seed, so a median of a few samples would
    # measure the seed. The memory ops render the reference seed's samples.
    memory_seed = REF_SEED
    sample_size = 1
    collect_garbage = False

    def setup(self, seed: int, workdir: Path) -> State:
        model = build_model()
        return State(seed, model, synth.procedural_pose_source(model, seed=seed))

    def op(self, state: State, index: int, warmup: bool = False):
        subject, k = divmod(index, POSES_PER_SUBJECT)
        subject += WARMUP_SUBJECT if warmup else 0
        gen_cfg = synth.GenerationConfig()
        beta = state.betas.get(subject)
        if beta is None:  # one shape per subject, as in generate_dataset
            beta = synth.sample_shape(named_rng(state.seed, "shape", subject), gen_cfg)
            state.betas = {subject: beta}
        rng = named_rng(state.seed, "sample", subject, k)
        theta, gamma = state.poses.sample(rng)
        return synth.render_sample(state.model, theta, beta, gamma, gen_cfg,
                                   synth.AugmentationConfig(), rng, True, subject_id=subject)

    def check(self, state: State, sample) -> list:
        return check_sample(sample, state.model)

    def reference(self, workdir: Path) -> dict:
        state = self.setup(REF_SEED, workdir)
        return {"samples": [sample_summary(self.op(state, i)) for i in range(REF_SAMPLES)]}


class Train:
    """Adam steps through `network.train` at B=32 with 8 reparameterised
    draws; one step per call, on a corrupted dataset made in set-up."""

    name = "train"
    labels = ("train_steps_per_s", "train_step_ms_p50", "train_step_ms_tail")
    setup_reps = (1, 1)
    warmup_ops = 4
    memory_ops = 1
    memory_seed = None
    sample_size = 1
    # Each tape is a reference cycle (Node.tape <-> Tape.nodes), so a step's
    # tape, about 400 MB at B=32, lives until the next full collection and
    # the process grows past 5 GB within 30 steps. A timed full collection
    # after every step keeps memory bounded; its cost counts in the op.
    collect_garbage = True

    def __init__(self, num_subjects: int = 8, batch_size: int = 32):
        self.num_subjects = num_subjects
        self.batch_size = batch_size

    def setup(self, seed: int, workdir: Path) -> State:
        model = build_model()
        poses = synth.procedural_pose_source(model, seed=seed)
        net = network.PredictorNet.for_model(model, seed=seed)
        samples = synth.generate_dataset(model, synth.GenerationConfig(),
                                         synth.AugmentationConfig(), self.num_subjects,
                                         POSES_PER_SUBJECT, seed, True, poses)
        dataset, size = _dataset_roundtrip(workdir / "train.sfc", samples, model, seed)
        return State(seed, model, poses, net, dataset, size, network.AdamState(net.params))

    def op(self, state: State, index: int, warmup: bool = False):
        cfg = network.TrainConfig(batch_size=self.batch_size, reproj_samples=REPROJ_SAMPLES,
                                  epochs=state.epoch + 1, seed=state.seed)
        rows = network.train(state.net, state.dataset, cfg, state.model,
                             start_epoch=state.epoch, optimizer=state.optimizer)
        state.epoch += 1
        return rows

    def check(self, state: State, rows) -> list:
        errors = []
        if len(rows) != 1 or rows[0]["epoch"] != state.epoch - 1:
            errors.append(f"expected one log row for epoch {state.epoch - 1}, got {rows}")
        for row in rows:
            for key in ("total", "nll", "glob", "reproj"):
                if not math.isfinite(row[key]):
                    errors.append(f"epoch {row['epoch']}: non-finite {key} loss")
        if not all(np.isfinite(v).all() for v in state.net.params.values()):
            errors.append("non-finite network parameters after the Adam step")
        return errors

    def reference(self, workdir: Path) -> dict:
        small = Train(num_subjects=2, batch_size=8)
        state = small.setup(REF_SEED, workdir)
        return {"epochs": [small.op(state, i)[0] for i in range(2)]}


class EvaluateMC:
    """`metrics.evaluate` on a held-out corrupted set with exact facings,
    groups of 4, the `pc` combination and 100 Monte-Carlo draws per sample;
    one call per operation."""

    name = "evaluate_mc"
    labels = ("eval_mc_samples_per_s", "eval_mc_call_ms_p50", "eval_mc_call_ms_tail")
    setup_reps = (3, 3)
    warmup_ops = 1
    memory_ops = 1
    memory_seed = None
    collect_garbage = False

    def __init__(self, num_subjects: int = 1, uncertainty_samples: int = 100):
        self.num_subjects = num_subjects
        self.uncertainty_samples = uncertainty_samples
        self.sample_size = num_subjects * POSES_PER_SUBJECT

    def setup(self, seed: int, workdir: Path) -> State:
        model = build_model()
        poses = synth.procedural_pose_source(model, seed=seed)
        net = network.PredictorNet.for_model(model, seed=seed)
        samples = synth.generate_dataset(model, synth.GenerationConfig(),
                                         synth.AugmentationConfig(), self.num_subjects,
                                         POSES_PER_SUBJECT, seed, True, poses,
                                         exact_facings=True)
        dataset, size = _dataset_roundtrip(workdir / f"{self.name}.sfc", samples, model, seed)
        return State(seed, model, poses, net, dataset, size)

    def op(self, state: State, index: int, warmup: bool = False):
        return metrics.evaluate(state.dataset, state.net, state.model, GROUP_SIZE, "pc",
                                named_rng(state.seed, "groups"), self.uncertainty_samples)

    def check(self, state: State, report) -> list:
        summary = report_summary(report)
        errors = [f"non-finite or non-positive {k}: {v}" for k, v in summary.items()
                  if not (math.isfinite(v) and v > 0)]
        if len(report.sample_index) != self.sample_size:
            errors.append(f"{len(report.sample_index)} samples evaluated, expected {self.sample_size}")
        if sorted(report.group_sizes) != [GROUP_SIZE] * self.num_subjects:
            errors.append(f"unexpected groups {report.group_sizes}")
        if report.uncertainty_cm is None or report.uncertainty_cm.shape != (NUM_VERTICES,):
            errors.append("no per-vertex uncertainty in the report")
        # same inputs and group rng every call: the report must repeat exactly
        if state.first is None:
            state.first = report
        elif report.to_json() != state.first.to_json():
            errors.append("report differs from the first call on identical inputs")
        return errors

    def reference(self, workdir: Path) -> dict:
        small = EvaluateMC(num_subjects=1, uncertainty_samples=REF_MC_SAMPLES)
        state = small.setup(REF_SEED, workdir)
        return {"aggregates": report_summary(small.op(state, 0))}


WORKLOADS = {w.name: w for w in (Generate(), Train(), EvaluateMC())}

# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

EVENT_KEYS = {"part_occluded", "half_occluded", "box_occluded", "pairs_swapped", "joints_removed"}


def check_sample(sample: synth.SyntheticSample, model: bm.BodyModel) -> list:
    """Invariants every rendered sample satisfies."""
    errors = []
    size = synth.GenerationConfig().image_size
    L = model.num_keypoints
    sil = sample.proxy.silhouette
    maps = sample.proxy.heatmaps
    vis = sample.visibility
    if sil.dtype != np.uint8 or sil.shape != (size, size) or sil.max(initial=0) > 1:
        errors.append("silhouette is not a binary uint8 image of the configured size")
    if maps.shape != (size, size, L) or maps.min() < 0 or maps.max() > 1:
        errors.append("heatmaps are not (H, W, L) in [0, 1]")
    if vis.shape != (L,) or not np.isin(vis, (0, 1)).all():
        errors.append("visibility is not a 0/1 vector per keypoint")
    if set(sample.events) != EVENT_KEYS:
        errors.append(f"unexpected augmentation events {sorted(sample.events)}")
    if errors:
        return errors
    if maps[:, :, vis == 0].any():
        errors.append("an invisible joint has a non-zero heatmap")
    cols = np.rint(sample.joints2d[:, 0]).astype(int)
    rows = np.rint(sample.joints2d[:, 1]).astype(int)
    for l in np.flatnonzero(vis):
        if maps[rows[l], cols[l], l] != 1.0:
            errors.append(f"visible joint {l} has no unit heatmap peak at its pixel")
    if not 0 <= sample.events["joints_removed"] <= L:
        errors.append("joint removal count out of range")
    return errors


def sample_summary(sample: synth.SyntheticSample) -> dict:
    return {
        "events": {k: int(v) for k, v in sorted(sample.events.items())},
        "visibility": sample.visibility.astype(int).tolist(),
        "silhouette_pixels": int(sample.proxy.silhouette.sum()),
    }


def report_summary(report) -> dict:
    out = {
        "mean_mpjpe_sc_mm": report.mean_mpjpe_sc,
        "mean_mpjpe_pa_mm": report.mean_mpjpe_pa,
        "mean_pve_t_sc_mm": report.mean_pve_t_sc,
    }
    if report.uncertainty_cm is not None:
        out["mean_uncertainty_cm"] = float(np.mean(report.uncertainty_cm))
    return out


# tolerances: no tighter than the package's own tests (which compare
# silhouettes exactly and losses to 1e-9 relative)
SILHOUETTE_REL = 2e-3
SILHOUETTE_ABS = 2
FLOAT_REL = 1e-6


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=FLOAT_REL, abs_tol=1e-12)


def compare_reference(name: str, got: dict, want: dict) -> list:
    """Differences between a reference case's values and the recorded ones."""
    errors = []
    if name == "generate":
        for i, (g, w) in enumerate(zip(got["samples"], want["samples"])):
            if g["events"] != w["events"]:
                errors.append(f"reference sample {i}: events {g['events']} != {w['events']}")
            if g["visibility"] != w["visibility"]:
                errors.append(f"reference sample {i}: visibility differs")
            tol = max(SILHOUETTE_ABS, SILHOUETTE_REL * w["silhouette_pixels"])
            if abs(g["silhouette_pixels"] - w["silhouette_pixels"]) > tol:
                errors.append(f"reference sample {i}: silhouette pixels "
                              f"{g['silhouette_pixels']} != {w['silhouette_pixels']}")
        if len(got["samples"]) != len(want["samples"]):
            errors.append("reference sample count differs")
    elif name == "train":
        for g, w in zip(got["epochs"], want["epochs"]):
            for key in ("total", "nll", "glob", "reproj"):
                if not _close(g[key], w[key]):
                    errors.append(f"reference epoch {w['epoch']}: {key} loss {g[key]!r} != {w[key]!r}")
        if len(got["epochs"]) != len(want["epochs"]):
            errors.append("reference epoch count differs")
    else:
        g, w = got["aggregates"], want["aggregates"]
        if set(g) != set(w):
            errors.append(f"reference aggregates {sorted(g)} != {sorted(w)}")
        for key in sorted(set(g) & set(w)):
            if not _close(g[key], w[key]):
                errors.append(f"reference {key} {g[key]!r} != {w[key]!r}")
    return errors
