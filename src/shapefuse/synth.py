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
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import bodymodel as bm
from . import camera as cr
from .containerio import ContainerError, read_container, write_container
from .rng import named_rng
from .scalars import check_int, check_positive, is_real

MAX_CAMERA_RETRIES = 10
POSE_STD = 0.3            # radians, per-axis std of the procedural pose bank
GLOBAL_JITTER_STD = 0.15  # radians, per-axis jitter applied to each facing
DATASET_ARRAYS = ("silhouette_bits", "joints2d", "visibility", "theta", "beta", "glob",
                  "cam_translation", "subject_id", "corrupted")


@dataclass(frozen=True)
class AugmentationConfig:
    """Corruption suite (reference defaults); frozen, checked when built."""

    body_part_occlusion_prob: float = 0.1
    joint_lr_swap_prob: float = 0.1
    half_image_occlusion_prob: float = 0.05
    joint_removal_prob: float = 0.1
    joint_noise_range: float = 8.0      # pixels, uniform in [-r, r]
    vertex_noise_range: float = 0.010   # meters, uniform in [-r, r]
    occlusion_box_prob: float = 0.5
    occlusion_box_size: int = 48        # pixels

    def __post_init__(self):
        for name in ("body_part_occlusion_prob", "joint_lr_swap_prob",
                     "half_image_occlusion_prob", "joint_removal_prob",
                     "occlusion_box_prob"):
            p = getattr(self, name)
            if not (is_real(p) and 0.0 <= p <= 1.0):
                raise ValueError(f"{name} must be in [0, 1]")
        for name in ("joint_noise_range", "vertex_noise_range"):
            r = getattr(self, name)
            if not (is_real(r) and r >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {r!r}")
        check_int("occlusion_box_size", self.occlusion_box_size, 0)


@dataclass(frozen=True)
class GenerationConfig:
    """Rendering and sampling settings (reference defaults); frozen, checked
    when built. Images are square, of side `image_size`."""

    shape_variance: float = 2.25
    shape_clip: float = 6.0
    cam_translation_mean: tuple = (0.0, -0.2, 2.5)   # meters
    cam_translation_var: tuple = (0.05, 0.05, 0.25)  # meters^2
    focal_length: float = 300.0
    image_size: int = 256

    def __post_init__(self):
        mean, var = self.cam_translation_mean, self.cam_translation_var
        if not (np.shape(mean) == np.shape(var) == (3,) and all(map(is_real, mean))
                and all(is_real(v) and v > 0 for v in var)):
            raise ValueError("camera translation needs 3 finite means and 3 finite positive "
                             f"variances, got {mean!r} and {var!r}")
        for name in ("shape_variance", "shape_clip", "focal_length"):
            check_positive(name, getattr(self, name))
        check_int("image_size", self.image_size, 1)


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
        return theta.copy(), _compose_rotvecs(jitter, gamma)


# below this angle the quaternion scales use their Taylor series, whose
# next term is below double rounding
_SMALL_ANGLE = 1e-3


def _quaternion(rotvec: np.ndarray) -> np.ndarray:
    """The unit quaternion (x, y, z, w) of a rotation vector."""
    angle = np.linalg.norm(rotvec)
    scale = (0.5 - angle**2 / 48 + angle**4 / 3840 if angle <= _SMALL_ANGLE
             else np.sin(angle / 2) / angle)
    return np.append(scale * rotvec, np.cos(angle / 2))


def _compose_rotvecs(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """The rotation vector of `outer` applied after `inner`, by the
    quaternion product, in the canonical form: the product is normalized
    and flipped to w >= 0, so its angle 2 atan2(|v|, w) lies in [0, pi]."""
    p, q = _quaternion(outer), _quaternion(inner)
    quat = np.append(p[3] * q[:3] + q[3] * p[:3] + np.cross(p[:3], q[:3]),
                     p[3] * q[3] - p[:3] @ q[:3])
    quat /= np.linalg.norm(quat)
    if quat[3] < 0:
        quat = -quat
    angle = 2 * np.arctan2(np.linalg.norm(quat[:3]), quat[3])
    scale = (2 + angle**2 / 12 + 7 * angle**4 / 2880 if angle <= _SMALL_ANGLE
             else angle / np.sin(angle / 2))
    return scale * quat[:3]


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


def procedural_pose_source(model: bm.BodyModel, n_poses: int = 256, *,
                           seed: int) -> PoseSource:
    """Plausible random poses: per-joint zero-mean rotations with extra
    flexion on elbows/knees, norms clamped inside the axis-angle range.

    Each pose reads one row of standard normals: 3 per non-root joint, then
    one per hinge joint in joint order."""
    check_int("n_poses", n_poses, 1)
    rng = named_rng(seed, "pose_source")
    J = model.num_joints
    hinges = [(j - 1, 1 if "elbow" in name else 0, _HINGE_EXTRA[name])
              for j, name in enumerate(model.joint_names) if j > 0 and name in _HINGE_EXTRA]
    z = rng.standard_normal((n_poses, 3 * (J - 1) + len(hinges)))
    aa = POSE_STD * z[:, : 3 * (J - 1)].reshape(n_poses, J - 1, 3)
    for h, (j, axis, extra) in enumerate(hinges):
        aa[:, j, axis] += np.abs(extra * z[:, 3 * (J - 1) + h])
    limit = 0.95 * np.pi
    # matches np.linalg.norm of each rotation bit for bit; norm(axis=-1) does not
    norm = np.sqrt(aa[..., None, :] @ aa[..., :, None])[..., 0]
    aa *= np.where(norm > limit, limit / norm, 1.0)
    return PoseSource(aa.reshape(n_poses, -1), CANONICAL_FACINGS.copy())


def sample_shape(rng, cfg: GenerationConfig) -> np.ndarray:
    """Shape coefficients from the zero-mean high-variance Gaussian,
    truncated componentwise (by redraw) at the configured magnitude."""
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

    Cameras are redrawn, up to `MAX_CAMERA_RETRIES` times, until
    `covers_any_pixel` finds one that sees the clean mesh (most views are
    settled by the centroid centers of a fixed sample of the faces, the
    rest by those of every face or by the rasterizer's fill); `ValueError`
    is raised when none does. The accepted view is then rasterized in full
    exactly once, from the noisy mesh when vertex noise applies and from
    the clean mesh otherwise. Both take the model's `mesh`, built once.
    """
    size = gen_cfg.image_size
    vertices = bm.forward(model, theta, beta, glob)

    cam_mean = np.asarray(gen_cfg.cam_translation_mean)
    cam_std = np.sqrt(np.asarray(gen_cfg.cam_translation_var))

    camera = None
    for _ in range(MAX_CAMERA_RETRIES):
        translation = cam_mean + cam_std * rng.standard_normal(3)
        if vertices[:, 2].min() + translation[2] <= 0.05:
            continue  # camera behind (or inside) the subject
        candidate = cr.PerspCamera(gen_cfg.focal_length, size, translation)
        if cr.covers_any_pixel(vertices, model.mesh, candidate):
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
    silhouette = cr.rasterize_silhouette(rendered, model.mesh, camera)

    keypoints3d = bm.regress_joints(model, vertices)
    joints2d = cr.project_persp(keypoints3d, camera)
    visibility = cr.in_frame_visibility(joints2d, size)

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
        cols, rows = np.clip(cr.joint_pixel(joints2d).astype(int), 0, size - 1).T
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
            visibility = visibility * cr.in_frame_visibility(joints2d, size)

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
        check_int(name, count, 1)
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
    `network.pooled_from_dataset` takes the pooled row and column profiles
    from `camera.heatmap_profiles`, which gathers their block means, at the
    fixed width `camera.HEATMAP_SIGMA`, from the stored joints and
    visibilities, and block-sums the silhouette bits in integers; the
    encoder reads those separable parts. `from_samples(samples)` packs
    in-memory samples and takes the image size from their silhouettes.

    Raises ValueError unless the stored arrays are exactly `DATASET_ARRAYS`
    with one common leading length n of at least 1, `joints2d` is (n, L, 2),
    `visibility` is (n, L), `theta` and `beta` are 2-D, `glob` and
    `cam_translation` are (n, 3), `corrupted` is (n,), `subject_id` is n
    integers, `theta`, `beta`, `glob`, `joints2d` and `cam_translation` are
    finite, `visibility` and `corrupted` hold only 0s and 1s, and the uint8
    silhouette bits fit `image_size`, a positive int. The widths of `theta`
    and `beta` are the body model's, which the dataset does not know:
    `network.check_label_widths` checks them.
    A `heatmap_sigma` key, which older containers carry, is ignored.
    """

    def __init__(self, arrays: dict, meta: dict):
        size = meta.get("image_size")
        check_int("image_size", size, 1)
        missing = sorted(set(DATASET_ARRAYS) - set(arrays))
        unexpected = sorted(set(arrays) - set(DATASET_ARRAYS))
        if missing or unexpected:
            raise ValueError(f"missing arrays {missing}, unexpected arrays {unexpected}")
        lengths = {arrays[k].shape[0] if arrays[k].ndim else 0 for k in DATASET_ARRAYS}
        if len(lengths) != 1 or 0 in lengths:
            raise ValueError(f"arrays need one common leading length >= 1, got {sorted(lengths)}")
        n, vis = lengths.pop(), arrays["visibility"]
        if vis.ndim != 2 or arrays["joints2d"].shape != (n, vis.shape[1], 2):
            raise ValueError("joints2d must be (n, L, 2) and visibility (n, L)")
        if not (arrays["theta"].ndim == arrays["beta"].ndim == 2
                and arrays["glob"].shape == arrays["cam_translation"].shape == (n, 3)):
            raise ValueError("theta and beta must be 2-D, glob and cam_translation (n, 3)")
        ids = arrays["subject_id"]
        if ids.shape != (n,) or not np.issubdtype(ids.dtype, np.integer):
            raise ValueError(f"subject_id must be n integers, got {ids.dtype} {ids.shape}")
        if arrays["corrupted"].shape != (n,):
            raise ValueError(f"corrupted must be (n,), got {arrays['corrupted'].shape}")
        if not all(np.isfinite(arrays[k]).all()
                   for k in ("theta", "beta", "glob", "joints2d", "cam_translation")):
            raise ValueError("theta, beta, glob, joints2d and cam_translation must be finite")
        if not all(np.isin(arrays[k], (0, 1)).all() for k in ("visibility", "corrupted")):
            raise ValueError("visibility and corrupted must hold only 0s and 1s")
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
    check_int("seed", seed)
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
            h.update(np.ascontiguousarray(value))
        else:
            h.update(f"{f.name} {json.dumps(value, sort_keys=True)}\n".encode())
    return h.hexdigest()[:16]
