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
from .gaussians import PredictionSet, fuse_shapes, reparam_sample
from .scalars import check_int, check_positive

MM = 1000.0
CM = 100.0

# posed (draw, vertex) rows per tile in `per_vertex_uncertainty`, the one
# bound on its working memory: 2^14 rows is 163 vertices at 100 draws, as
# fast as any budget from 2^13 to 2^17 at benchmark size
UNCERTAINTY_BLOCK_ROWS = 1 << 14


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


def _check_one_shape(beta, model: bm.BodyModel) -> None:
    if np.shape(beta) != (model.shape_dim,):
        raise ValueError(f"expected one ({model.shape_dim},) shape vector, got shape "
                         f"{np.shape(beta)}")
    if not np.all(np.isfinite(beta)):
        raise ValueError("shape coefficients must be finite")


def pve_t_sc(pred_beta: np.ndarray, gt_beta: np.ndarray, model: bm.BodyModel) -> float:
    """Scale-corrected mean per-vertex distance (mm) between neutral-pose
    meshes built from the two shape vectors; ValueError for any other shape
    or a non-finite coefficient."""
    for beta in (pred_beta, gt_beta):
        _check_one_shape(beta, model)
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
                           n_samples: int, rng) -> np.ndarray:
    """Average per-vertex Euclidean distance from the mean vertex location
    over `n_samples` parameter samples drawn by `rng` from one sample's
    predicted distributions, in cm. A batch of predictions raises ValueError.

    The joint transforms of all n draws are computed once, with the
    checks and messages of `lbs_vertices`. The mesh is then skinned one
    tile at a time: `model.skinning_groups` of `UNCERTAINTY_BLOCK_ROWS // n`
    vertices (at least one) that share one joint support, so every blend
    is a dense product over the joints that weight that tile, and a
    `rigid` tile, one joint of weight 1.0, forms no blend at all. Each
    tile's (n, 3, Vt) draws go into two preallocated buffers and are
    centred, squared and summed as rows, (x^2 + y^2) + z^2, in place;
    each vertex's distances are summed draw by draw and written back at
    the tile's vertex indices. So the result equals `np.linalg.norm`
    over the mesh's (n, V, 3) draws bit for bit, and no step reads a
    component with a stride. No (n, 3, V) array is held: the peak is one
    two-joint tile's skinning, about 0.14x that array for 100 draws of
    6890 vertices. The tiles' products differ from one `lbs_vertices`
    call only in rounding order (within 1e-15 relative)."""
    check_int("number of draws", n_samples, 1)
    if pred.camera.ndim != 1:
        raise ValueError(f"expected one sample's prediction, got a batch of {len(pred)}")
    n = int(n_samples)
    pose = reparam_sample(pred.pose.mean, pred.pose.var, rng.standard_normal((n, pred.pose.dim)))
    shape = reparam_sample(pred.shape.mean, pred.shape.var,
                           rng.standard_normal((n, pred.shape.dim)))
    glob = np.broadcast_to(pred.global_rot, (n, 3))
    rot_delta, trans = bm._joint_transforms(model, pose, shape, glob)
    width = max(1, UNCERTAINTY_BLOCK_ROWS // n)
    buffers = np.empty((2, 3 * n * min(width, model.num_vertices)))
    dist = np.empty(model.num_vertices)
    for vertices, tile in model.skinning_groups(width):
        size = 3 * n * len(vertices)
        verts = bm._skin_components(tile, shape, np.take(rot_delta, tile.joints, axis=1),
                                    np.take(trans, tile.joints, axis=1),
                                    out=buffers[:, :size].reshape(2, n, 3, -1))
        verts -= verts.mean(axis=0)
        np.square(verts, out=verts)
        tile_dist = verts[:, 0]  # the x^2 rows, which take the sum in place
        tile_dist += verts[:, 1]
        tile_dist += verts[:, 2]
        np.sqrt(tile_dist, out=tile_dist)
        if len(vertices) > 1:
            dist[vertices] = tile_dist.mean(axis=0)
        else:  # one column's mean sums pairwise, a wider tile's draw by draw
            dist[vertices] = np.add.accumulate(tile_dist[:, 0])[-1] / n
    return dist * CM


def pose_variance_by_joint_visibility(pose_var: np.ndarray, visibility: np.ndarray,
                                      model: bm.BodyModel):
    """Split the mean predicted `(pose_dim,)` pose variance between the
    dims of joints whose dependent keypoints (those attached at or below
    the joint) are all invisible and the dims of joints whose dependent
    keypoints are all visible, by a `(L,)` visibility of 0s and 1s.
    Returns (invisible_mean, visible_mean) or None when either side is
    empty; ValueError for any other shape or visibility value."""
    if np.shape(pose_var) != (model.pose_dim,):
        raise ValueError(f"expected ({model.pose_dim},) pose variances, got shape "
                         f"{np.shape(pose_var)}")
    visibility = np.asarray(visibility)
    if visibility.shape != (model.num_keypoints,) or not np.isin(visibility, (0, 1)).all():
        raise ValueError(f"expected a ({model.num_keypoints},) visibility of 0s and 1s")
    # (J-1, L): entry (j, l) says joint j + 1 moves keypoint l
    moves = model.tree.below[1:, model.keypoint_attach]
    seen = visibility == 1
    moves_some = moves.any(axis=1)
    hidden = moves_some & ~(moves & seen).any(axis=1)
    shown = moves_some & (~moves | seen).all(axis=1)
    if not hidden.any() or not shown.any():
        return None
    var = np.asarray(pose_var).reshape(-1, 3)
    return float(var[hidden].mean()), float(var[shown].mean())


# ---------------------------------------------------------------------------
# grouping and measurements
# ---------------------------------------------------------------------------

def split_groups(indices, max_group_size: int, rng) -> list:
    """Shuffle then chunk into groups of size <= N; partitions the input."""
    check_int("group size", max_group_size, 1)
    shuffled = np.asarray(indices, dtype=np.int64)[rng.permutation(len(indices))]
    return [shuffled[i : i + max_group_size].tolist()
            for i in range(0, len(shuffled), max_group_size)]


@dataclass
class MeasurementSet:
    """Named girths in cm plus the subject height (m) they were normalized to."""

    girths_cm: dict
    height_m: float

    def __post_init__(self):
        check_positive("height", self.height_m)
        for name, v in self.girths_cm.items():
            check_positive(f"measurement {name}", v)


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
    """Perimeter of the convex hull of the points where the edges of the
    selected faces meet the plane: each edge start that lies on it, and
    each edge that crosses it."""
    keep = [i for i in range(3) if i != axis]
    tri = faces[face_mask]
    va = vertices[tri].reshape(-1, 3)                   # edge starts, (0, 1, 2) per face
    vb = vertices[tri[:, [1, 2, 0]]].reshape(-1, 3)     # edge ends
    ca, cb = va[:, axis] - plane, vb[:, axis] - plane
    cross = (np.minimum(ca, cb) < 0) & (0 < np.maximum(ca, cb))
    t = (ca[cross] / (ca[cross] - cb[cross]))[:, None]
    crossings = va[cross] + t * (vb[cross] - va[cross])
    points = np.concatenate([va[ca == 0.0][:, keep], crossings[:, keep]])
    if len(points) < 3:
        return 0.0
    return convex_hull_perimeter(points)


_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}


def measure_and_normalize(pred_beta: np.ndarray, model: bm.BodyModel,
                          true_height_m: float) -> MeasurementSet:
    """Girths from planar slices of the neutral-pose mesh of one `(S,)`
    shape vector, scaled by true_height / predicted_height (the predicted
    height is the y-extent of the neutral mesh)."""
    check_positive("height", true_height_m)
    spec = model.meta.get("measurements")
    if not spec:
        raise ValueError("model defines no measurement planes")
    _check_one_shape(pred_beta, model)
    verts = bm.shaped_template(model, pred_beta)
    predicted_height = float(verts[:, 1].max() - verts[:, 1].min())
    check_positive("predicted height", predicted_height)
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
    # (n, parts) each sample's per-vertex uncertainty averaged over each
    # part's vertices, NaN for a part with none
    part_uncertainty_cm: np.ndarray = None

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
        if self.part_uncertainty_cm is not None:
            payload["per_sample"]["part_uncertainty_cm"] = np.round(
                self.part_uncertainty_cm, 6
            ).tolist()
        return json.dumps(payload, sort_keys=True, indent=1)


def hip_root(model: bm.BodyModel):
    names = list(model.keypoint_names)
    if "l_hip" in names and "r_hip" in names:
        return (names.index("l_hip"), names.index("r_hip"))
    return 0


# each combination's point estimate of a group's shape from its `(n,)` predictions
_COMBINE = {
    "pc": lambda shapes: fuse_shapes(shapes).mean,
    "mean": lambda shapes: shapes.mean.mean(axis=0),
}


def evaluate(dataset, net, model: bm.BodyModel, group_size: int,
             combination: str, rng, uncertainty_samples: int = 0) -> MetricsReport:
    """Predict every sample, group per subject, combine shapes and report
    pose/shape metrics; the joints of the true and the predicted bodies come
    from `bm.posed_keypoints`. Single-image evaluation is `group_size=1`, under
    which both combinations return each prediction's own shape mean.
    `uncertainty_samples` MC draws per sample give the mean per-vertex
    uncertainty and each sample's mean over each body part's vertices
    (`model.part_labels`); 0 turns both off. ValueError, before
    predicting, unless the dataset's label widths fit the model
    (`network.check_label_widths`)."""
    if not isinstance(combination, str) or combination not in _COMBINE:
        raise ValueError(f"unknown combination {combination!r}")
    check_int("group size", group_size, 1)
    check_int("number of draws", uncertainty_samples, 0)
    net_mod.check_label_widths(dataset, model)
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
        gt_joints = bm.posed_keypoints(model, a["theta"][idx], a["beta"][idx], a["glob"][idx])
        pred = predictions[idx]
        pred_joints = bm.posed_keypoints(model, pred.pose.mean, pred.shape.mean, pred.global_rot)
        sc[idx] = mpjpe_sc(pred_joints, gt_joints, root=root)
        pa[idx] = mpjpe_pa(pred_joints, gt_joints)

        for g in split_groups(idx, group_size, rng):
            beta_hat = _COMBINE[combination](predictions[g].shape)
            group_subject.append(int(subj))
            group_sizes.append(len(g))
            group_pve.append(pve_t_sc(beta_hat, a["beta"][g[0]], model))

    uncertainty = part_uncertainty = None
    if uncertainty_samples > 0:
        labels, parts = model.part_labels, len(model.part_names)
        counts = np.bincount(labels, minlength=parts)
        total, part_uncertainty = 0, np.full((n, parts), np.nan)
        for i in range(n):
            sample = per_vertex_uncertainty(predictions[i], model, uncertainty_samples,
                                            np.random.default_rng(uncertainty_samples + i))
            total = total + sample
            np.divide(np.bincount(labels, weights=sample, minlength=parts), counts,
                      out=part_uncertainty[i], where=counts > 0)
        uncertainty = total / n

    return MetricsReport(
        combination=combination,
        group_size=group_size,
        sample_index=np.arange(n),
        sample_subject=subjects.copy(),
        sample_mpjpe_sc=sc,
        sample_mpjpe_pa=pa,
        group_subject=group_subject,
        group_sizes=group_sizes,
        group_pve_t_sc=group_pve,
        uncertainty_cm=uncertainty,
        part_uncertainty_cm=part_uncertainty,
    )
