"""Synthetic training/evaluation data generation.

Bodies with randomly sampled shape are posed from a pose bank, rendered
through a randomly sampled perspective camera into silhouette + keypoint
proxy inputs, and optionally corrupted to mimic detector failure modes:
occluded silhouettes, missing/swapped/noisy keypoints. Joint visibility is
recomputed after the silhouette corruptions, and the heatmaps drawn from
the keypoints are zero for invisible joints, so the network can learn to be
uncertain about unobserved body parts.

Generation is a pure function of (seed, configs, model): every sample draws
from its own named rng substream, making parallel and serial generation
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np
from scipy.spatial.transform import Rotation

from . import bodymodel as bm
from . import camera as cr
from .containerio import ContainerError, read_container, write_container
from .rng import named_rng

MAX_CAMERA_RETRIES = 10
POSE_STD = 0.3            # radians, per-axis std of the procedural pose bank
GLOBAL_JITTER_STD = 0.15  # radians, per-axis jitter applied to each facing
DATASET_ARRAYS = ("silhouette_bits", "joints2d", "visibility", "theta", "beta", "glob",
                  "cam_translation", "subject_id", "corrupted")


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A finite real number that is not a bool."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool) and math.isfinite(value))


@dataclass
class AugmentationConfig:
    """Corruption suite; defaults follow the reference augmentation table."""

    body_part_occlusion_prob: float = 0.1
    joint_lr_swap_prob: float = 0.1
    half_image_occlusion_prob: float = 0.05
    joint_removal_prob: float = 0.1
    joint_noise_range: float = 8.0      # pixels, uniform in [-r, r]
    vertex_noise_range: float = 0.010   # meters, uniform in [-r, r]
    occlusion_box_prob: float = 0.5
    occlusion_box_size: int = 48        # pixels

    def validate(self):
        for name in ("body_part_occlusion_prob", "joint_lr_swap_prob",
                     "half_image_occlusion_prob", "joint_removal_prob",
                     "occlusion_box_prob"):
            p = getattr(self, name)
            if not (_is_finite(p) and 0.0 <= p <= 1.0):
                raise ValueError(f"{name} must be in [0, 1]")
        for name in ("joint_noise_range", "vertex_noise_range"):
            r = getattr(self, name)
            if not (_is_finite(r) and r >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {r!r}")
        if not (_is_int(self.occlusion_box_size) and self.occlusion_box_size >= 0):
            raise ValueError("occlusion box size must be a non-negative int, "
                             f"got {self.occlusion_box_size!r}")


@dataclass
class GenerationConfig:
    """Rendering and sampling hyperparameters (reference defaults)."""

    shape_variance: float = 2.25
    shape_clip: float = 6.0
    cam_translation_mean: tuple = (0.0, -0.2, 2.5)   # meters
    cam_translation_var: tuple = (0.05, 0.05, 0.25)  # meters^2
    focal_length: float = 300.0
    image_size: int = 256

    def validate(self):
        mean, var = self.cam_translation_mean, self.cam_translation_var
        if not (np.shape(mean) == np.shape(var) == (3,) and all(map(_is_finite, mean))
                and all(_is_finite(v) and v > 0 for v in var)):
            raise ValueError("camera translation needs 3 finite means and 3 finite positive "
                             f"variances, got {mean!r} and {var!r}")
        for name in ("shape_variance", "shape_clip", "focal_length"):
            value = getattr(self, name)
            if not (_is_finite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not (_is_int(self.image_size) and self.image_size > 0):
            raise ValueError(f"image size must be a positive int, got {self.image_size!r}")


@dataclass
class SyntheticSample:
    """One proxy input with its ground-truth labels."""

    proxy: cr.ProxyRepresentation
    theta: np.ndarray        # (P,) pose label
    beta: np.ndarray         # (S,) shape label
    glob: np.ndarray         # (3,) global rotation label
    joints2d: np.ndarray     # (L, 2) target keypoints, pixels
    visibility: np.ndarray   # (L,) in {0, 1}
    corrupted: bool
    subject_id: int = -1
    cam_translation: np.ndarray = field(default_factory=lambda: np.zeros(3))
    events: dict = field(default_factory=dict)  # applied augmentations (not serialized)


@dataclass
class PoseSource:
    """Bank of plausible pose vectors plus canonical global rotations."""

    poses: np.ndarray        # (n, P)
    facings: np.ndarray      # (m, 3) canonical global rotations

    def __post_init__(self):
        if len(self.poses) == 0 or len(self.facings) == 0:
            raise ValueError("pose source must be non-empty")

    def sample(self, rng) -> tuple:
        theta = self.poses[rng.integers(len(self.poses))]
        gamma = self.facings[rng.integers(len(self.facings))]
        jitter = rng.normal(scale=GLOBAL_JITTER_STD, size=3)
        gamma = (Rotation.from_rotvec(jitter) * Rotation.from_rotvec(gamma)).as_rotvec()
        return theta.copy(), gamma


# the four canonical subject orientations: camera facing front/back/left/right
# (back rotation is clamped just under pi to respect the axis-angle range)
CANONICAL_FACINGS = np.array(
    [
        [0.0, 0.0, 0.0],
        [0.0, np.pi - 1e-4, 0.0],
        [0.0, np.pi / 2, 0.0],
        [0.0, -np.pi / 2, 0.0],
    ]
)

_HINGE_EXTRA = {"l_elbow": 0.4, "r_elbow": 0.4, "l_knee": 0.4, "r_knee": 0.4}


def procedural_pose_source(model: bm.BodyModel, n_poses: int = 256,
                           seed: int = 0) -> PoseSource:
    """Plausible random poses: per-joint zero-mean rotations with extra
    flexion on elbows/knees, norms clamped inside the axis-angle range."""
    if not (_is_int(n_poses) and n_poses >= 1):
        raise ValueError(f"n_poses must be an int >= 1, got {n_poses!r}")
    rng = named_rng(seed, "pose_source")
    J = model.num_joints
    poses = np.empty((n_poses, model.pose_dim))
    for i in range(n_poses):
        aa = rng.normal(scale=POSE_STD, size=(J - 1, 3))
        for j in range(1, J):
            name = model.joint_names[j]
            extra = _HINGE_EXTRA.get(name)
            if extra:
                aa[j - 1, 1 if "elbow" in name else 0] += abs(rng.normal(scale=extra))
            norm = np.linalg.norm(aa[j - 1])
            limit = 0.95 * np.pi
            if norm > limit:
                aa[j - 1] *= limit / norm
        poses[i] = aa.reshape(-1)
    return PoseSource(poses, CANONICAL_FACINGS.copy())


def sample_shape(rng, cfg: GenerationConfig = None) -> np.ndarray:
    """Shape coefficients from the zero-mean high-variance Gaussian,
    truncated componentwise (by redraw) at the configured magnitude."""
    cfg = cfg or GenerationConfig()
    std = np.sqrt(cfg.shape_variance)
    beta = std * rng.standard_normal(bm.SHAPE_DIM)
    for _ in range(100):
        bad = np.abs(beta) > cfg.shape_clip
        if not bad.any():
            break
        beta[bad] = std * rng.standard_normal(int(bad.sum()))
    return np.clip(beta, -cfg.shape_clip, cfg.shape_clip)


def swap_lr_joints(joints2d: np.ndarray, visibility: np.ndarray, rng,
                   swap_prob: float, pairs) -> tuple:
    """Exchange left/right coordinates and visibilities per pair with the
    configured probability. Returns (joints, visibility, n_swapped)."""
    joints2d = joints2d.copy()
    visibility = visibility.copy()
    n_swapped = 0
    for a, b in pairs:
        if rng.random() < swap_prob:
            joints2d[[a, b]] = joints2d[[b, a]]
            visibility[[a, b]] = visibility[[b, a]]
            n_swapped += 1
    return joints2d, visibility, n_swapped


def render_sample(model: bm.BodyModel, theta, beta, glob,
                  gen_cfg: GenerationConfig, aug_cfg: AugmentationConfig,
                  rng, corrupt: bool, subject_id: int = -1) -> SyntheticSample:
    """Full single-sample pipeline: pose the body, sample a camera, render
    the proxy input, optionally corrupt it, and derive joint visibility.

    Cameras are redrawn, up to `MAX_CAMERA_RETRIES` times, until the
    early-exit `covers_any_pixel` finds one that sees the clean mesh;
    `ValueError` is raised when none does. The accepted view is then
    rasterized in full exactly once, from the noisy mesh when vertex noise
    applies and from the clean mesh otherwise.
    """
    gen_cfg.validate()
    aug_cfg.validate()
    size = gen_cfg.image_size
    vertices = bm.forward(model, theta, beta, glob)

    cam_mean = np.asarray(gen_cfg.cam_translation_mean)
    cam_std = np.sqrt(np.asarray(gen_cfg.cam_translation_var))

    camera = None
    for _ in range(MAX_CAMERA_RETRIES):
        translation = cam_mean + cam_std * rng.standard_normal(3)
        if vertices[:, 2].min() + translation[2] <= 0.05:
            continue  # camera behind (or inside) the subject
        candidate = cr.PerspCamera(gen_cfg.focal_length, size, size, translation)
        if cr.covers_any_pixel(vertices, model.faces, candidate):
            camera = candidate
            break
    if camera is None:
        raise ValueError("no valid camera after retries (empty silhouette)")

    # vertex noise is the first corruption; it perturbs only the rendered mesh
    rendered = vertices
    if corrupt and aug_cfg.vertex_noise_range > 0:
        rendered = vertices + rng.uniform(
            -aug_cfg.vertex_noise_range, aug_cfg.vertex_noise_range, vertices.shape
        )
    silhouette = cr.rasterize_silhouette(rendered, model.faces, camera)

    keypoints3d = bm.regress_joints(model, vertices)
    joints2d = cr.project_persp(keypoints3d, camera)
    visibility = cr.in_frame_visibility(joints2d, size, size)

    events = {"part_occluded": False, "half_occluded": False, "box_occluded": False,
              "pairs_swapped": 0, "joints_removed": 0}

    if corrupt:
        # fixed order after vertex noise: part occlusion, half-image
        # occlusion, occlusion box, joint L/R swap, joint removal, joint noise;
        # the three silhouette corruptions mark one mask, applied once
        erased = np.zeros_like(silhouette, dtype=bool)

        if rng.random() < aug_cfg.body_part_occlusion_prob:
            assignment = cr.rasterize_part_assignment(
                rendered, model.part_labels, camera, silhouette
            )
            erased |= assignment == int(rng.integers(len(model.part_names)))
            events["part_occluded"] = True

        if rng.random() < aug_cfg.half_image_occlusion_prob:
            # sides in draw order: left, right, top, bottom
            mid = size // 2
            halves = (np.s_[:, :mid], np.s_[:, mid:], np.s_[:mid], np.s_[mid:])
            erased[halves[int(rng.integers(4))]] = True
            events["half_occluded"] = True

        if rng.random() < aug_cfg.occlusion_box_prob and aug_cfg.occlusion_box_size > 0:
            box = min(aug_cfg.occlusion_box_size, size)
            r0 = int(rng.integers(0, size - box + 1))
            c0 = int(rng.integers(0, size - box + 1))
            erased[r0 : r0 + box, c0 : c0 + box] = True
            events["box_occluded"] = True

        silhouette[erased] = 0

        # visibility: inside the frame and not erased at the joint's pixel
        cols = np.clip(np.rint(joints2d[:, 0]).astype(int), 0, size - 1)
        rows = np.clip(np.rint(joints2d[:, 1]).astype(int), 0, size - 1)
        visibility = visibility * (~erased[rows, cols]).astype(np.int64)

        pairs = model.meta.get("lr_swap_pairs", [])
        joints2d, visibility, n_swapped = swap_lr_joints(
            joints2d, visibility, rng, aug_cfg.joint_lr_swap_prob, pairs
        )
        events["pairs_swapped"] = n_swapped

        removal = rng.random(len(joints2d)) < aug_cfg.joint_removal_prob
        events["joints_removed"] = int(removal.sum())
        visibility = visibility * (~removal).astype(np.int64)

        if aug_cfg.joint_noise_range > 0:
            joints2d = joints2d + rng.uniform(
                -aug_cfg.joint_noise_range, aug_cfg.joint_noise_range, joints2d.shape
            )
            visibility = visibility * cr.in_frame_visibility(joints2d, size, size)

    return SyntheticSample(
        proxy=cr.ProxyRepresentation(silhouette, joints2d, visibility),
        theta=np.asarray(theta, dtype=np.float64),
        beta=np.asarray(beta, dtype=np.float64),
        glob=np.asarray(glob, dtype=np.float64),
        joints2d=joints2d,
        visibility=visibility,
        corrupted=bool(corrupt),
        subject_id=int(subject_id),
        cam_translation=camera.translation,
        events=events,
    )


def generate_dataset(model: bm.BodyModel, gen_cfg: GenerationConfig,
                     aug_cfg: AugmentationConfig, num_subjects: int,
                     poses_per_subject: int, seed: int, corrupt: bool,
                     pose_source: PoseSource = None,
                     exact_facings: bool = False) -> list:
    """Subject-structured dataset: one shape per subject, one pose+view per
    sample. With `exact_facings` the four canonical orientations cycle in
    order (front/back/left/right), as in grouped evaluation sets."""
    for name, count in (("num_subjects", num_subjects), ("poses_per_subject", poses_per_subject)):
        if not (_is_int(count) and count >= 1):
            raise ValueError(f"{name} must be an int >= 1, got {count!r}")
    if pose_source is None:
        pose_source = procedural_pose_source(model, seed=seed)
    samples = []
    for subj in range(num_subjects):
        beta = sample_shape(named_rng(seed, "shape", subj), gen_cfg)
        for k in range(poses_per_subject):
            rng = named_rng(seed, "sample", subj, k)
            if exact_facings:
                theta, _ = pose_source.sample(rng)
                gamma = pose_source.facings[k % len(pose_source.facings)].copy()
            else:
                theta, gamma = pose_source.sample(rng)
            samples.append(
                render_sample(model, theta, beta, gamma, gen_cfg, aug_cfg, rng,
                              corrupt, subject_id=subj)
            )
    return samples


# ---------------------------------------------------------------------------
# dataset container
# ---------------------------------------------------------------------------

class SynthDataset:
    """Random-access view over a generated dataset; the one dataset form
    that training, prediction and evaluation take.

    Samples are packed into per-field arrays with a leading sample axis,
    silhouettes bit-packed. Heatmaps are not stored, dense or pooled:
    `network.pooled_from_dataset` block-averages the row and column
    profiles that `camera.heatmap_profiles` draws, at the fixed width
    `camera.HEATMAP_SIGMA`, from the stored joints and visibilities, and
    the encoder reads those separable parts. `from_samples(samples)` packs
    in-memory samples and takes the image size from their silhouettes.

    Raises ValueError unless every stored array is present with one common
    leading length of at least 1, `joints2d` is (n, L, 2), `visibility` is
    (n, L), and the uint8 silhouette bits fit `image_size`, a positive int.
    A `heatmap_sigma` key, which older containers carry, is ignored.
    """

    def __init__(self, arrays: dict, meta: dict):
        size = meta.get("image_size")
        if not (_is_int(size) and size > 0):
            raise ValueError(f"image_size must be a positive int, got {size!r}")
        missing = sorted(set(DATASET_ARRAYS) - set(arrays))
        if missing:
            raise ValueError(f"missing arrays {missing}")
        lengths = {arrays[k].shape[0] if arrays[k].ndim else 0 for k in DATASET_ARRAYS}
        if len(lengths) != 1 or 0 in lengths:
            raise ValueError(f"arrays need one common leading length >= 1, got {sorted(lengths)}")
        n, vis = lengths.pop(), arrays["visibility"]
        if vis.ndim != 2 or arrays["joints2d"].shape != (n, vis.shape[1], 2):
            raise ValueError("joints2d must be (n, L, 2) and visibility (n, L)")
        bits = arrays["silhouette_bits"]
        if bits.dtype != np.uint8 or bits.shape != (n, -(-size * size // 8)):
            raise ValueError(f"silhouette bits must be uint8 (n, ceil({size}^2 / 8))")
        self.arrays = arrays
        self.meta = meta
        self.image_size = int(size)

    @classmethod
    def from_samples(cls, samples: list) -> "SynthDataset":
        """Pack in-memory samples into the arrays `write_dataset` stores;
        ValueError unless there is at least one sample and all silhouettes
        share one square shape."""
        if not samples:
            raise ValueError("a dataset needs at least one sample")
        size = samples[0].proxy.silhouette.shape[0]
        shapes = {s.proxy.silhouette.shape for s in samples}
        if shapes != {(size, size)}:
            raise ValueError(f"samples need one square silhouette shape, got {sorted(shapes)}")
        arrays = {
            "silhouette_bits": np.stack(
                [np.packbits(s.proxy.silhouette.astype(np.uint8).ravel()) for s in samples]
            ),
            "joints2d": np.stack([s.joints2d for s in samples]),
            "visibility": np.stack([s.visibility for s in samples]).astype(np.uint8),
            "theta": np.stack([s.theta for s in samples]),
            "beta": np.stack([s.beta for s in samples]),
            "glob": np.stack([s.glob for s in samples]),
            "cam_translation": np.stack([s.cam_translation for s in samples]),
            "subject_id": np.array([s.subject_id for s in samples], dtype=np.int64),
            "corrupted": np.array([s.corrupted for s in samples], dtype=np.uint8),
        }
        return cls(arrays, {"image_size": size})

    def __len__(self) -> int:
        return self.arrays["theta"].shape[0]

    def silhouette(self, index) -> np.ndarray:
        """Silhouettes `(..., H, W)` of an int or an index array."""
        size = self.image_size
        bits = np.unpackbits(self.arrays["silhouette_bits"][index], axis=-1)
        return bits[..., : size * size].reshape(bits.shape[:-1] + (size, size))


def write_dataset(path, samples: list, gen_cfg: GenerationConfig,
                  aug_cfg: AugmentationConfig, seed: int, model_fingerprint: str = "") -> None:
    dataset = SynthDataset.from_samples(samples)
    meta = dict(
        dataset.meta,
        num_samples=len(samples),
        seed=int(seed),
        generation_config=asdict(gen_cfg),
        augmentation_config=asdict(aug_cfg),
        model_fingerprint=model_fingerprint,
    )
    write_container(path, "dataset", dataset.arrays, meta)


def read_dataset(path) -> SynthDataset:
    """The dataset a container holds; ContainerError if it is malformed."""
    arrays, meta = read_container(path, expected_kind="dataset")
    try:
        return SynthDataset(arrays, meta)
    except ValueError as exc:
        raise ContainerError(f"{path}: malformed dataset ({exc})") from exc


def model_fingerprint(model: bm.BodyModel) -> str:
    """16 hex digits of a sha256 over every field of the model, in field
    order: each array's name, dtype, shape and bytes; the name tuples and
    the metadata as sorted-key JSON. Unchanged by `save_model`/`load_model`."""
    h = hashlib.sha256()
    for f in fields(model):
        value = getattr(model, f.name)
        if isinstance(value, np.ndarray):
            h.update(f"{f.name} {value.dtype.str} {value.shape}\n".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(f"{f.name} {json.dumps(value, sort_keys=True)}\n".encode())
    return h.hexdigest()[:16]
