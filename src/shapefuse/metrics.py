"""Evaluation protocols: joint errors, T-pose shape error, Monte-Carlo
per-vertex uncertainty, grouped multi-input evaluation and height-normalized
body measurements.

Joint error is measured twice: after root-centering and an optimal global
scale (MPJPE-SC; the scale resolves the subject-size/camera-distance
ambiguity), and after a full similarity alignment (MPJPE-PA). Both map
`(..., L, 3)` skeletons to `(...)` errors in mm (a float for one skeleton),
so `evaluate` scores a subject's samples with one call per metric. Shape
accuracy is measured between neutral-pose meshes after scale correction,
isolating identity-dependent shape from pose.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import bodymodel as bm
from . import network as net_mod
from .gaussians import PredictionSet, fuse_shapes

MM = 1000.0
CM = 100.0


# ---------------------------------------------------------------------------
# joint metrics
# ---------------------------------------------------------------------------

def _root_center(joints: np.ndarray, root) -> np.ndarray:
    joints = np.asarray(joints, dtype=np.float64)
    return joints - joints[..., np.atleast_1d(root), :].mean(axis=-2, keepdims=True)


def scale_correct(pred_joints: np.ndarray, gt_joints: np.ndarray) -> np.ndarray:
    """Multiply each (root-centered) `(..., L, 3)` prediction by its
    least-squares optimal scalar s* = <pred, gt> / <pred, pred>."""
    pred_joints = np.asarray(pred_joints, dtype=np.float64)
    gt_joints = np.asarray(gt_joints, dtype=np.float64)
    denom = (pred_joints * pred_joints).sum(axis=(-2, -1))
    if np.any(denom == 0.0):
        raise ValueError("cannot scale-correct an all-zero prediction")
    s = (pred_joints * gt_joints).sum(axis=(-2, -1)) / denom
    return s[..., None, None] * pred_joints


def mpjpe_sc(pred_joints: np.ndarray, gt_joints: np.ndarray, root=0):
    p = _root_center(pred_joints, root)
    g = _root_center(gt_joints, root)
    return np.linalg.norm(scale_correct(p, g) - g, axis=-1).mean(axis=-1) * MM


def procrustes_align(pred_joints: np.ndarray, gt_joints: np.ndarray) -> np.ndarray:
    """Optimal similarity transform (rotation with det +1, scale,
    translation) of each `(..., L, 3)` prediction onto its target;
    reflections are never returned. Any degenerate skeleton in a batch
    raises."""
    P = np.asarray(pred_joints, dtype=np.float64)
    G = np.asarray(gt_joints, dtype=np.float64)
    if P.shape != G.shape:
        raise ValueError("skeletons must have matching shapes")
    n = P.shape[-2]
    if n < 3:
        raise ValueError("need at least 3 points")
    mu_p, mu_g = P.mean(axis=-2, keepdims=True), G.mean(axis=-2, keepdims=True)
    Pc, Gc = P - mu_p, G - mu_g
    var_p = (Pc**2).sum(axis=(-2, -1)) / n
    if np.any(var_p == 0.0):
        raise ValueError("degenerate configuration: zero spread")
    C = np.swapaxes(Gc, -1, -2) @ Pc / n
    U, d, Vt = np.linalg.svd(C)
    if np.any(d[..., 1] <= 1e-12 * np.maximum(d[..., 0], 1e-300)):
        raise ValueError("degenerate configuration: collinear points")
    sign = np.ones(d.shape)
    sign[..., -1] = np.where(np.linalg.det(U) * np.linalg.det(Vt) < 0, -1.0, 1.0)
    Rt = np.swapaxes((U * sign[..., None, :]) @ Vt, -1, -2)  # R transposed
    s = ((d * sign).sum(axis=-1) / var_p)[..., None, None]
    return s * P @ Rt + (mu_g - s * mu_p @ Rt)


def mpjpe_pa(pred_joints: np.ndarray, gt_joints: np.ndarray):
    aligned = procrustes_align(pred_joints, gt_joints)
    return np.linalg.norm(aligned - np.asarray(gt_joints), axis=-1).mean(axis=-1) * MM


def pve_t_sc(pred_beta: np.ndarray, gt_beta: np.ndarray, model: bm.BodyModel) -> float:
    """Scale-corrected mean per-vertex distance (mm) between neutral-pose
    meshes built from the two shape vectors."""
    pred = bm.shaped_template(model, pred_beta)
    gt = bm.shaped_template(model, gt_beta)
    pred = pred - pred.mean(axis=0)
    gt = gt - gt.mean(axis=0)
    scaled = scale_correct(pred, gt)
    return float(np.linalg.norm(scaled - gt, axis=1).mean() * MM)


# ---------------------------------------------------------------------------
# uncertainty
# ---------------------------------------------------------------------------

def per_vertex_uncertainty(pred: PredictionSet, model: bm.BodyModel,
                           n_samples: int = 100, rng=None) -> np.ndarray:
    """Average per-vertex Euclidean distance from the mean vertex location
    over parameter samples drawn from one sample's predicted distributions,
    in cm."""
    if not (isinstance(n_samples, (int, np.integer)) and n_samples >= 1):
        raise ValueError(f"need a positive int number of draws, got {n_samples!r}")
    rng = rng or np.random.default_rng(0)
    n = int(n_samples)
    pose = pred.pose.mean + np.sqrt(pred.pose.var) * rng.standard_normal((n, pred.pose.dim))
    shape = pred.shape.mean + np.sqrt(pred.shape.var) * rng.standard_normal((n, pred.shape.dim))
    glob = np.broadcast_to(pred.global_rot, (n, 3)).copy()
    verts = np.asarray(bm.lbs_vertices(model, pose, shape, glob))  # (n, V, 3)
    d = verts - verts.mean(axis=0)
    # componentwise: equal to np.linalg.norm(d, axis=2) bit for bit, and faster
    return np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2 + d[..., 2] ** 2).mean(axis=0) * CM


def pose_dim_keypoint_map(model: bm.BodyModel) -> list:
    """For every non-root skeleton joint, the keypoints attached at that
    joint or anywhere in its subtree (the keypoints its rotation can move).
    Index i corresponds to pose dims [3i, 3i+3)."""
    J = model.num_joints
    children = [[] for _ in range(J)]
    for j in range(1, J):
        children[int(model.parents[j])].append(j)

    def subtree(j):
        out = [j]
        for c in children[j]:
            out.extend(subtree(c))
        return out

    attach = np.asarray(model.keypoint_attach)
    groups = []
    for j in range(1, J):
        nodes = set(subtree(j))
        groups.append(np.flatnonzero(np.isin(attach, list(nodes))))
    return groups


def pose_variance_by_joint_visibility(pose_var: np.ndarray, visibility: np.ndarray,
                                      model: bm.BodyModel):
    """Split the mean predicted pose variance between dims whose dependent
    keypoints are all invisible and dims whose dependent keypoints are all
    visible. Returns (invisible_mean, visible_mean) or None when either
    side is empty."""
    groups = pose_dim_keypoint_map(model)
    vis = np.asarray(visibility).astype(bool)
    invisible_dims, visible_dims = [], []
    for i, kps in enumerate(groups):
        if len(kps) == 0:
            continue
        dims = [3 * i, 3 * i + 1, 3 * i + 2]
        if not vis[kps].any():
            invisible_dims.extend(dims)
        elif vis[kps].all():
            visible_dims.extend(dims)
    if not invisible_dims or not visible_dims:
        return None
    return float(pose_var[invisible_dims].mean()), float(pose_var[visible_dims].mean())


# ---------------------------------------------------------------------------
# grouping and measurements
# ---------------------------------------------------------------------------

def split_groups(indices, max_group_size: int, rng) -> list:
    """Shuffle then chunk into groups of size <= N; partitions the input."""
    if not (isinstance(max_group_size, (int, np.integer)) and max_group_size >= 1):
        raise ValueError(f"group size must be an int of at least 1, got {max_group_size!r}")
    shuffled = np.asarray(indices, dtype=np.int64)[rng.permutation(len(indices))]
    return [shuffled[i : i + max_group_size].tolist()
            for i in range(0, len(shuffled), max_group_size)]


@dataclass
class MeasurementSet:
    """Named girths in cm plus the subject height (m) they were normalized to."""

    girths_cm: dict
    height_m: float

    def __post_init__(self):
        if not (np.isfinite(self.height_m) and self.height_m > 0):
            raise ValueError(f"height must be finite and positive, got {self.height_m!r}")
        for name, v in self.girths_cm.items():
            if v <= 0:
                raise ValueError(f"measurement {name} must be positive")


def convex_hull_perimeter(points: np.ndarray) -> float:
    """Perimeter of the 2D convex hull (monotone chain)."""
    pts = np.unique(np.asarray(points, dtype=np.float64), axis=0)
    if len(pts) < 3:
        if len(pts) == 2:
            return 2.0 * float(np.linalg.norm(pts[1] - pts[0]))
        return 0.0
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def cross(a, b):
        return a[0] * b[1] - a[1] * b[0]

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-1] - out[-2], p - out[-2]) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    hull = np.array(lower[:-1] + upper[:-1])
    return float(np.linalg.norm(np.roll(hull, -1, axis=0) - hull, axis=1).sum())


def _slice_girth(vertices: np.ndarray, faces: np.ndarray, face_mask: np.ndarray,
                 axis: int, plane: float) -> float:
    """Perimeter of the convex hull of edge/plane intersection points for
    the selected faces."""
    keep = (1, 2) if axis == 0 else ((0, 2) if axis == 1 else (0, 1))
    points = []
    for tri in faces[face_mask]:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            va, vb = vertices[tri[a]], vertices[tri[b]]
            ca, cb = va[axis] - plane, vb[axis] - plane
            if ca == 0.0:
                points.append([va[keep[0]], va[keep[1]]])
            if (ca < 0 < cb) or (cb < 0 < ca):
                t = ca / (ca - cb)
                p = va + t * (vb - va)
                points.append([p[keep[0]], p[keep[1]]])
    if len(points) < 3:
        return 0.0
    return convex_hull_perimeter(np.array(points))


_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}


def measure_and_normalize(pred_beta: np.ndarray, model: bm.BodyModel,
                          true_height_m: float) -> MeasurementSet:
    """Girths from planar slices of the neutral-pose mesh, scaled by
    true_height / predicted_height (the predicted height is the y-extent of
    the neutral mesh)."""
    if not (np.isfinite(true_height_m) and true_height_m > 0):
        raise ValueError(f"height must be finite and positive, got {true_height_m!r}")
    spec = model.meta.get("measurements")
    if not spec:
        raise ValueError("model defines no measurement planes")
    verts = bm.shaped_template(model, pred_beta)
    predicted_height = float(verts[:, 1].max() - verts[:, 1].min())
    if predicted_height <= 0:
        raise ValueError("non-positive predicted height")
    scale = true_height_m / predicted_height

    pivots = model.skeleton_regressor @ verts
    jidx = {n: i for i, n in enumerate(model.joint_names)}
    pidx = {n: i for i, n in enumerate(model.part_names)}
    face_parts = model.part_labels[model.faces[:, 0]] if len(model.faces) else np.zeros(0)

    girths = {}
    for name, m in spec.items():
        axis = _AXIS_INDEX[m["axis"]]
        a, b = m["anchors"]
        t = float(m["t"])
        plane = (1 - t) * pivots[jidx[a]][axis] + t * pivots[jidx[b]][axis]
        part_ids = [pidx[p] for p in m["parts"] if p in pidx]
        mask = np.isin(face_parts, part_ids)
        girth = _slice_girth(verts, model.faces, mask, axis, plane)
        if girth > 0:
            girths[name] = girth * scale * CM
    return MeasurementSet(girths, true_height_m)


# ---------------------------------------------------------------------------
# grouped evaluation
# ---------------------------------------------------------------------------

@dataclass
class MetricsReport:
    combination: str
    group_size: int
    sample_index: np.ndarray
    sample_subject: np.ndarray
    sample_mpjpe_sc: np.ndarray   # mm
    sample_mpjpe_pa: np.ndarray   # mm
    group_subject: list
    group_sizes: list
    group_pve_t_sc: list          # mm
    uncertainty_cm: np.ndarray = None  # (V,) mean per-vertex uncertainty

    @property
    def mean_mpjpe_sc(self) -> float:
        return float(np.mean(self.sample_mpjpe_sc))

    @property
    def mean_mpjpe_pa(self) -> float:
        return float(np.mean(self.sample_mpjpe_pa))

    @property
    def mean_pve_t_sc(self) -> float:
        return float(np.mean(self.group_pve_t_sc))

    def to_json(self) -> str:
        payload = {
            "combination": self.combination,
            "group_size": self.group_size,
            "aggregates": {
                "mean_mpjpe_sc_mm": self.mean_mpjpe_sc,
                "mean_mpjpe_pa_mm": self.mean_mpjpe_pa,
                "mean_pve_t_sc_mm": self.mean_pve_t_sc,
                "num_samples": int(len(self.sample_index)),
                "num_groups": int(len(self.group_pve_t_sc)),
            },
            "per_sample": {
                "index": self.sample_index.tolist(),
                "subject": self.sample_subject.tolist(),
                "mpjpe_sc_mm": np.round(self.sample_mpjpe_sc, 6).tolist(),
                "mpjpe_pa_mm": np.round(self.sample_mpjpe_pa, 6).tolist(),
            },
            "per_group": [
                {"subject": int(s), "size": int(n), "pve_t_sc_mm": round(float(v), 6)}
                for s, n, v in zip(self.group_subject, self.group_sizes, self.group_pve_t_sc)
            ],
        }
        if self.uncertainty_cm is not None:
            payload["mean_per_vertex_uncertainty_cm"] = np.round(
                self.uncertainty_cm, 6
            ).tolist()
        return json.dumps(payload, sort_keys=True, indent=1)


def hip_root(model: bm.BodyModel):
    names = list(model.keypoint_names)
    if "l_hip" in names and "r_hip" in names:
        return (names.index("l_hip"), names.index("r_hip"))
    return 0


def combine_shape(predictions: PredictionSet, combination: str) -> np.ndarray:
    """Point estimate of the group's shape from its `(n,)` predictions under
    the chosen combination."""
    if combination == "pc":
        return fuse_shapes(predictions.shape).mean
    if combination == "mean":
        return predictions.shape.mean.mean(axis=0)
    if combination == "single":
        if len(predictions) != 1:
            raise ValueError("'single' combination expects one prediction per group")
        return predictions.shape.mean[0]
    raise ValueError(f"unknown combination {combination!r}")


def evaluate(dataset, net, model: bm.BodyModel, group_size: int,
             combination: str, rng, uncertainty_samples: int = 0) -> MetricsReport:
    """Predict every sample, group per subject, combine shapes and report
    pose/shape metrics. combination 'single' ignores grouping.
    `uncertainty_samples` MC draws per sample give the mean per-vertex
    uncertainty; 0 turns it off."""
    if combination not in ("pc", "mean", "single"):
        raise ValueError(f"unknown combination {combination!r}")
    if not (isinstance(uncertainty_samples, (int, np.integer)) and uncertainty_samples >= 0):
        raise ValueError(f"need a non-negative int number of draws, got {uncertainty_samples!r}")
    predictions = net_mod.predict_dataset(net, dataset)
    n = len(dataset)
    a = dataset.arrays
    root = hip_root(model)

    sc = np.empty(n)
    pa = np.empty(n)
    subjects = a["subject_id"]
    group_subject, group_sizes, group_pve = [], [], []
    for subj in np.unique(subjects):
        idx = np.flatnonzero(subjects == subj)
        gt_joints = bm.regress_joints(
            model, bm.lbs_vertices(model, a["theta"][idx], a["beta"][idx], a["glob"][idx]))
        pred = predictions[idx]
        pred_joints = bm.regress_joints(
            model, bm.lbs_vertices(model, pred.pose.mean, pred.shape.mean, pred.global_rot))
        sc[idx] = mpjpe_sc(pred_joints, gt_joints, root=root)
        pa[idx] = mpjpe_pa(pred_joints, gt_joints)

        groups = (idx[:, None].tolist() if combination == "single"
                  else split_groups(idx, group_size, rng))
        for g in groups:
            beta_hat = combine_shape(predictions[g], combination)
            group_subject.append(int(subj))
            group_sizes.append(len(g))
            group_pve.append(pve_t_sc(beta_hat, a["beta"][g[0]], model))

    uncertainty = None
    if uncertainty_samples > 0:
        uncertainty = sum(
            per_vertex_uncertainty(predictions[i], model, uncertainty_samples,
                                   np.random.default_rng(uncertainty_samples + i))
            for i in range(n)
        ) / n

    return MetricsReport(
        combination=combination,
        group_size=group_size if combination != "single" else 1,
        sample_index=np.arange(n),
        sample_subject=subjects.copy(),
        sample_mpjpe_sc=sc,
        sample_mpjpe_pa=pa,
        group_subject=group_subject,
        group_sizes=group_sizes,
        group_pve_t_sc=group_pve,
        uncertainty_cm=uncertainty,
    )
