"""Parametric body: shape blendshapes + forward kinematics + linear blend skinning.

A `BodyModel` maps shape coefficients, per-joint axis-angle rotations and a
global root rotation to a fixed-topology vertex mesh. Joint pivot locations
and the keypoints of interest both regress linearly from the shaped
template. The procedural toy generator builds a humanoid capsule-limb body
at a configurable vertex/joint budget so every numerical contract can be
exercised without licensed model assets; real model data in the same
container layout loads through the identical code path.

All math routes through `autodiff` dispatch functions, so `forward` is
differentiable with respect to pose, shape and global rotation whenever the
inputs are tape nodes, and plain fast numpy otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .containerio import ContainerError, read_container, write_container

SHAPE_DIM = 10


# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------

# flattened cross-product matrix [a]_x as a linear map of a: a @ _CROSS
_CROSS = np.zeros((3, 9))
_CROSS[0, [7, 5]] = 1.0, -1.0
_CROSS[1, [2, 6]] = 1.0, -1.0
_CROSS[2, [3, 1]] = 1.0, -1.0


def rodrigues(aa):
    """Axis-angle vectors (..., 3) to rotation matrices (..., 3, 3).

    R = I + f1 K + f2 (a a^T - |a|^2 I) with K = [a]_x, f1 = sin(|a|)/|a| and
    f2 = (1 - cos|a|)/|a|^2. Uses the series expansion of f1 and f2 below
    |a|^2 = 1e-8 so values and gradients stay exact through zero rotation.
    """
    lead = ad.value_of(aa).shape[:-1]
    flat = ad.reshape(aa, (-1, 3))
    cross = ad.reshape(ad.matmul(flat, _CROSS), (-1, 3, 3))
    s2 = ad.reshape(ad.einsum("ni,ni->n", flat, flat), (-1, 1, 1))
    small = ad.value_of(s2) < 1e-8
    s2_safe = ad.where(small, np.ones_like(ad.value_of(s2)), s2)
    angle = ad.sqrt(s2_safe)
    f1 = ad.where(small, 1.0 - s2 / 6.0, ad.sin(angle) / angle)
    f2 = ad.where(small, 0.5 - s2 / 24.0, (1.0 - ad.cos(angle)) / s2_safe)
    outer = ad.einsum("ni,nj->nij", flat, flat) - s2 * np.eye(3)
    R = np.eye(3) + f1 * cross + f2 * outer
    return ad.reshape(R, lead + (3, 3))


# ---------------------------------------------------------------------------
# model container
# ---------------------------------------------------------------------------

@dataclass
class BodyModel:
    """Immutable parametric body; safe for concurrent read."""

    template_vertices: np.ndarray   # (V, 3) meters
    shape_basis: np.ndarray         # (V, 3, S) meters per unit coefficient
    faces: np.ndarray               # (F, 3) int
    joint_regressor: np.ndarray     # (L, V), rows >= 0, rows sum to 1
    skeleton_regressor: np.ndarray  # (J, V), rows sum to 1
    skinning_weights: np.ndarray    # (V, J), rows >= 0, rows sum to 1
    parents: np.ndarray             # (J,) int, parents[0] == -1
    part_labels: np.ndarray         # (V,) int
    part_names: tuple
    joint_names: tuple
    keypoint_names: tuple
    keypoint_attach: np.ndarray     # (L,) skeleton joint carrying each keypoint
    meta: dict = field(default_factory=dict)

    @property
    def num_vertices(self) -> int:
        return self.template_vertices.shape[0]

    @property
    def num_joints(self) -> int:
        return self.parents.shape[0]

    @property
    def num_keypoints(self) -> int:
        return self.joint_regressor.shape[0]

    @property
    def pose_dim(self) -> int:
        return 3 * (self.num_joints - 1)

    @property
    def shape_dim(self) -> int:
        return self.shape_basis.shape[2]

    def validate(self) -> None:
        V, J, L = self.num_vertices, self.num_joints, self.num_keypoints
        for name in ("faces", "parents", "part_labels", "keypoint_attach"):
            if not np.issubdtype(getattr(self, name).dtype, np.integer):
                raise ValueError(f"{name} must hold integers, got {getattr(self, name).dtype}")
        if self.template_vertices.shape != (V, 3) or not np.all(np.isfinite(self.template_vertices)):
            raise ValueError("template vertices malformed")
        if self.shape_basis.ndim != 3 or self.shape_basis.shape[:2] != (V, 3):
            raise ValueError("shape basis shape mismatch")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise ValueError("faces must be (F, 3)")
        if self.faces.size and (self.faces.min() < 0 or self.faces.max() >= V):
            raise ValueError("face indices out of range")
        if not _is_closed_oriented(self.faces, V):
            raise ValueError("faces must form a closed, consistently oriented surface")
        if self.joint_regressor.shape != (L, V):
            raise ValueError("joint regressor shape mismatch")
        if np.any(self.joint_regressor < 0):
            raise ValueError("joint regressor has negative weights")
        if not np.allclose(self.joint_regressor.sum(axis=1), 1.0, atol=1e-6):
            raise ValueError("joint regressor rows must sum to 1")
        if self.skeleton_regressor.shape != (J, V):
            raise ValueError("skeleton regressor shape mismatch")
        if not np.allclose(self.skeleton_regressor.sum(axis=1), 1.0, atol=1e-6):
            raise ValueError("skeleton regressor rows must sum to 1")
        if self.skinning_weights.shape != (V, J) or np.any(self.skinning_weights < 0):
            raise ValueError("skinning weights malformed")
        if not np.allclose(self.skinning_weights.sum(axis=1), 1.0, atol=1e-6):
            raise ValueError("skinning weight rows must sum to 1")
        if self.parents[0] != -1 or np.any(self.parents[1:] < 0):
            raise ValueError("parents must form a single rooted tree")
        if np.any(self.parents[1:] >= np.arange(1, J)):
            raise ValueError("parents must precede children (topological order)")
        if self.part_labels.shape != (V,):
            raise ValueError("part labels shape mismatch")
        if np.any(self.part_labels < 0) or np.any(self.part_labels >= len(self.part_names)):
            raise ValueError("part labels out of range of the part names")
        if len(self.joint_names) != J or len(self.keypoint_names) != L:
            raise ValueError("joint or keypoint name count mismatch")
        for pair in self.meta.get("lr_swap_pairs", []):
            if len(pair) != 2 or not all(isinstance(k, int) and 0 <= k < L for k in pair):
                raise ValueError(f"left/right swap pair {pair!r} is not two keypoint indices")
        if len(set(self.part_labels.tolist())) < 6:
            raise ValueError("need at least 6 body parts")
        if self.keypoint_attach.shape != (L,) or np.any(self.keypoint_attach < 0) or np.any(
            self.keypoint_attach >= J
        ):
            raise ValueError("keypoint attachment joints out of range")


def _is_closed_oriented(faces: np.ndarray, num_vertices: int) -> bool:
    """Whether each directed edge of the faces occurs once and its reverse
    occurs once; true for no faces. The rasterizer relies on this (see
    `camera._projected_triangles`)."""
    faces = faces.astype(np.int64)
    tails, heads = faces.ravel(), faces[:, [1, 2, 0]].ravel()
    edges = np.sort(tails * num_vertices + heads)
    reverse = np.sort(heads * num_vertices + tails)
    return not np.any(edges[1:] == edges[:-1]) and np.array_equal(edges, reverse)


# ---------------------------------------------------------------------------
# forward model
# ---------------------------------------------------------------------------

def shaped_template(model: BodyModel, betas):
    """Template plus shape blendshape offsets, the neutral (T-pose) body:
    (..., S) -> (..., V, 3). The coefficients are rows of one (n, S) matrix
    product, so one body gets the same bits as `forward` at zero pose."""
    V, S = model.num_vertices, model.shape_dim
    lead = ad.value_of(betas).shape[:-1]
    basis_flat = model.shape_basis.reshape(V * 3, S).T  # (S, 3V)
    offsets = ad.matmul(ad.reshape(betas, (-1, S)), basis_flat)
    return model.template_vertices + ad.reshape(offsets, lead + (V, 3))


_HOMOGENEOUS_ROW = np.array([[0.0, 0.0, 0.0, 1.0]])


def _world_blocks(parents: np.ndarray, local_rots, pivots):
    """World transforms [R_j | u_j] (B, J, 3, 4) of local rotations L_j
    (B, J, 3, 3) about rest pivots p_j (B, J, 3), chained down the tree.

    u_j = u_parent + R_parent o_j with o_j = p_j - L_j p_j, so
    [R_j | u_j] = [R_parent | u_parent] [[L_j, o_j], [0, 1]]; o_j is exactly
    0 at the rest pose. The chain runs one tree level at a time, since the
    parents of a level are the level before it: one gather of the parents
    and one batched product per level.
    """
    B, J = ad.value_of(pivots).shape[:2]
    depth = np.zeros(J, dtype=np.int64)
    for j in range(1, J):
        depth[j] = depth[parents[j]] + 1
    levels = [np.flatnonzero(depth == d) for d in range(depth.max() + 1)]
    slot = np.zeros(J, dtype=np.int64)  # each joint's position within its level
    for joints in levels:
        slot[joints] = np.arange(len(joints))

    offsets = pivots - ad.einsum("bjkl,bjl->bjk", local_rots, pivots)
    blocks = ad.concat([local_rots, ad.reshape(offsets, (B, J, 3, 1))], axis=3)
    square = ad.concat([blocks, np.broadcast_to(_HOMOGENEOUS_ROW, (B, J, 1, 4))], axis=2)
    world = [ad.take(blocks, levels[0], axis=1)]
    for joints in levels[1:]:
        parent_blocks = ad.take(world[-1], slot[parents[joints]], axis=1)
        world.append(ad.matmul(parent_blocks, ad.take(square, joints, axis=1)))
    return ad.take(ad.concat(world, axis=1), np.argsort(np.concatenate(levels)), axis=1)


def lbs_vertices(model: BodyModel, pose, betas, glob):
    """Batched forward: (B,P),(B,S),(B,3) -> posed vertices (B,V,3).

    Joint pivots regress from the shaped template and rotations chain down
    the kinematic tree. Skinning then blends the per-joint transforms, not
    per-joint posed copies of the mesh (the SMPL form, Loper et al. 2015).
    Joint j moves v to R_j v + u_j, where u_j = pos_j - R_j p_j takes the
    rest pivot p_j to the posed pivot pos_j. The skinning weights W sum to
    1 per vertex, so

        v' = sum_j w_j (R_j v + u_j) = v + (W (R - I)) v + W u.

    Each vertex applies one blended 3x3 and one blended offset. R - I and u
    are exactly 0 at the rest pose, so the rest pose reproduces the shaped
    template bit for bit.
    """
    J = model.num_joints
    V = model.num_vertices
    B = ad.value_of(betas).shape[0]

    shaped = shaped_template(model, betas)                     # (B, V, 3)
    pivots = ad.matmul(model.skeleton_regressor, shaped)       # (B, J, 3)

    aa_all = ad.concat([ad.reshape(glob, (B, 1, 3)), ad.reshape(pose, (B, J - 1, 3))], axis=1)
    world = _world_blocks(model.parents, rodrigues(aa_all), pivots)  # (B, J, 3, 4)

    # the (B, V, 3, 3) blend is built C-ordered by matmul and handed straight
    # to the apply, so it lives only for that call
    weights = model.skinning_weights
    rot_delta = ad.reshape(world[..., :3], (B, J, 9)) - np.eye(3).ravel()
    rot_offset = ad.einsum(
        "bvkl,bvl->bvk", ad.reshape(ad.matmul(weights, rot_delta), (B, V, 3, 3)), shaped
    )
    return shaped + rot_offset + ad.matmul(weights, world[..., 3])


def forward(model: BodyModel, pose, betas, glob):
    """Single-sample model evaluation -> posed vertices (V, 3).

    Deterministic; differentiable w.r.t. pose, shape and global rotation
    when inputs are tape nodes.
    """
    P, S = model.pose_dim, model.shape_dim
    if ad.value_of(pose).shape != (P,):
        raise ValueError(f"pose must have shape ({P},)")
    if ad.value_of(betas).shape != (S,):
        raise ValueError(f"shape coefficients must have shape ({S},)")
    if ad.value_of(glob).shape != (3,):
        raise ValueError("global rotation must have shape (3,)")
    verts = lbs_vertices(
        model,
        ad.reshape(pose, (1, P)),
        ad.reshape(betas, (1, S)),
        ad.reshape(glob, (1, 3)),
    )
    return ad.reshape(verts, (model.num_vertices, 3))


def regress_joints(model: BodyModel, vertices):
    """Keypoints of interest, (..., V, 3) -> (..., L, 3): a matrix product."""
    if ad.value_of(vertices).shape[-2] != model.num_vertices:
        raise ValueError("mesh vertex count does not match regressor")
    return ad.matmul(model.joint_regressor, vertices)


# ---------------------------------------------------------------------------
# procedural toy model
# ---------------------------------------------------------------------------

# canonical 24-joint skeleton: name -> (parent, template position)
# sized so the default data-generation camera frames the whole neutral body
_SCALE = 0.97
_Y_OFF = 0.09

_CANONICAL = [
    ("pelvis", None, (0.0, 0.0, 0.0)),
    ("spine", "pelvis", (0.0, 0.15, 0.0)),
    ("spine2", "spine", (0.0, 0.26, 0.0)),
    ("chest", "spine2", (0.0, 0.38, 0.0)),
    ("neck", "chest", (0.0, 0.50, 0.0)),
    ("head", "neck", (0.0, 0.58, 0.0)),
    ("l_collar", "chest", (0.05, 0.44, 0.0)),
    ("r_collar", "chest", (-0.05, 0.44, 0.0)),
    ("l_shoulder", "l_collar", (0.17, 0.44, 0.0)),
    ("r_shoulder", "r_collar", (-0.17, 0.44, 0.0)),
    ("l_elbow", "l_shoulder", (0.42, 0.44, 0.0)),
    ("r_elbow", "r_shoulder", (-0.42, 0.44, 0.0)),
    ("l_wrist", "l_elbow", (0.65, 0.44, 0.0)),
    ("r_wrist", "r_elbow", (-0.65, 0.44, 0.0)),
    ("l_hand", "l_wrist", (0.72, 0.44, 0.0)),
    ("r_hand", "r_wrist", (-0.72, 0.44, 0.0)),
    ("l_hip", "pelvis", (0.09, -0.05, 0.0)),
    ("r_hip", "pelvis", (-0.09, -0.05, 0.0)),
    ("l_knee", "l_hip", (0.10, -0.47, 0.0)),
    ("r_knee", "r_hip", (-0.10, -0.47, 0.0)),
    ("l_ankle", "l_knee", (0.11, -0.87, 0.0)),
    ("r_ankle", "r_knee", (-0.11, -0.87, 0.0)),
    ("l_foot", "l_ankle", (0.11, -0.91, 0.08)),
    ("r_foot", "r_ankle", (-0.11, -0.91, 0.08)),
]

_PRIORITY = [
    "pelvis", "spine", "neck", "head", "l_hip", "r_hip", "l_shoulder", "r_shoulder",
    "l_knee", "r_knee", "l_elbow", "r_elbow", "l_ankle", "r_ankle", "l_wrist", "r_wrist",
    "chest", "spine2", "l_collar", "r_collar", "l_foot", "r_foot", "l_hand", "r_hand",
]

# capsule: (part, endpoint a, endpoint b, radius, (e1 scale, e2 scale),
#           binding chain of canonical joints, vertex budget fraction)
_CAPSULES = [
    ("torso", (0.0, -0.12, 0.0), (0.0, 0.50, 0.0), 0.115, (1.35, 0.80),
     ["pelvis", "spine", "spine2", "chest", "neck"], 0.30),
    ("neck", (0.0, 0.50, 0.0), (0.0, 0.57, 0.0), 0.045, (1.0, 1.0), ["neck"], 0.03),
    ("head", (0.0, 0.57, 0.0), (0.0, 0.70, 0.0), 0.085, (1.0, 1.05), ["head"], 0.11),
    ("l_upper_arm", "l_shoulder", "l_elbow", 0.042, (1.0, 1.0), ["l_shoulder", "l_elbow"], 0.045),
    ("r_upper_arm", "r_shoulder", "r_elbow", 0.042, (1.0, 1.0), ["r_shoulder", "r_elbow"], 0.045),
    ("l_forearm", "l_elbow", "l_wrist", 0.034, (1.0, 1.0), ["l_elbow", "l_wrist"], 0.04),
    ("r_forearm", "r_elbow", "r_wrist", 0.034, (1.0, 1.0), ["r_elbow", "r_wrist"], 0.04),
    ("l_hand", "l_wrist", (0.74, 0.44, 0.0), 0.032, (1.0, 0.8), ["l_wrist", "l_hand"], 0.02),
    ("r_hand", "r_wrist", (-0.74, 0.44, 0.0), 0.032, (1.0, 0.8), ["r_wrist", "r_hand"], 0.02),
    ("l_thigh", "l_hip", "l_knee", 0.068, (1.0, 1.0), ["l_hip", "l_knee"], 0.06),
    ("r_thigh", "r_hip", "r_knee", 0.068, (1.0, 1.0), ["r_hip", "r_knee"], 0.06),
    ("l_shin", "l_knee", "l_ankle", 0.048, (1.0, 1.0), ["l_knee", "l_ankle"], 0.05),
    ("r_shin", "r_knee", "r_ankle", 0.048, (1.0, 1.0), ["r_knee", "r_ankle"], 0.05),
    ("l_foot", "l_ankle", (0.11, -0.92, 0.10), 0.033, (1.0, 1.2), ["l_ankle", "l_foot"], 0.025),
    ("r_foot", "r_ankle", (-0.11, -0.92, 0.10), 0.033, (1.0, 1.2), ["r_ankle", "r_foot"], 0.025),
]

# compact variant for small vertex budgets: hands/feet/neck fold into their
# parent segments so every capsule keeps a sane minimum resolution
_CAPSULES_COMPACT = [
    ("torso", (0.0, -0.12, 0.0), (0.0, 0.55, 0.0), 0.115, (1.35, 0.80),
     ["pelvis", "spine", "spine2", "chest", "neck"], 0.34),
    ("head", (0.0, 0.57, 0.0), (0.0, 0.70, 0.0), 0.085, (1.0, 1.05), ["head"], 0.12),
    ("l_upper_arm", "l_shoulder", "l_elbow", 0.042, (1.0, 1.0), ["l_shoulder", "l_elbow"], 0.055),
    ("r_upper_arm", "r_shoulder", "r_elbow", 0.042, (1.0, 1.0), ["r_shoulder", "r_elbow"], 0.055),
    ("l_forearm", "l_elbow", (0.74, 0.44, 0.0), 0.034, (1.0, 1.0), ["l_elbow", "l_wrist"], 0.055),
    ("r_forearm", "r_elbow", (-0.74, 0.44, 0.0), 0.034, (1.0, 1.0), ["r_elbow", "r_wrist"], 0.055),
    ("l_thigh", "l_hip", "l_knee", 0.068, (1.0, 1.0), ["l_hip", "l_knee"], 0.08),
    ("r_thigh", "r_hip", "r_knee", 0.068, (1.0, 1.0), ["r_hip", "r_knee"], 0.08),
    ("l_shin", "l_knee", (0.11, -0.92, 0.02), 0.048, (1.0, 1.0), ["l_knee", "l_ankle"], 0.08),
    ("r_shin", "r_knee", (-0.11, -0.92, 0.02), 0.048, (1.0, 1.0), ["r_knee", "r_ankle"], 0.08),
]

# COCO-style keypoints: name -> anchor position (canonical frame)
_KEYPOINTS = [
    ("nose", (0.0, 0.645, -0.082)),
    ("l_eye", (0.028, 0.665, -0.078)),
    ("r_eye", (-0.028, 0.665, -0.078)),
    ("l_ear", (0.082, 0.650, -0.005)),
    ("r_ear", (-0.082, 0.650, -0.005)),
    ("l_shoulder", (0.17, 0.44, 0.0)),
    ("r_shoulder", (-0.17, 0.44, 0.0)),
    ("l_elbow", (0.42, 0.44, 0.0)),
    ("r_elbow", (-0.42, 0.44, 0.0)),
    ("l_wrist", (0.65, 0.44, 0.0)),
    ("r_wrist", (-0.65, 0.44, 0.0)),
    ("l_hip", (0.09, -0.05, 0.0)),
    ("r_hip", (-0.09, -0.05, 0.0)),
    ("l_knee", (0.10, -0.47, 0.0)),
    ("r_knee", (-0.10, -0.47, 0.0)),
    ("l_ankle", (0.11, -0.87, 0.0)),
    ("r_ankle", (-0.11, -0.87, 0.0)),
]

_KEYPOINT_ATTACH = {
    "nose": "head", "l_eye": "head", "r_eye": "head", "l_ear": "head", "r_ear": "head",
    "l_shoulder": "l_shoulder", "r_shoulder": "r_shoulder",
    "l_elbow": "l_elbow", "r_elbow": "r_elbow",
    "l_wrist": "l_wrist", "r_wrist": "r_wrist",
    "l_hip": "l_hip", "r_hip": "r_hip",
    "l_knee": "l_knee", "r_knee": "r_knee",
    "l_ankle": "l_ankle", "r_ankle": "r_ankle",
}

# left/right swappable keypoint pairs: shoulders, elbows, wrists, hips, knees, ankles
LR_SWAP_PAIRS = [(5, 6), (7, 8), (9, 10), (11, 12), (13, 14), (15, 16)]

# girth/length measurement planes: axis, anchor joints, interpolation t, parts
_MEASUREMENTS = [
    ("chest", "y", ("pelvis", "neck"), 0.78, ("torso",)),
    ("stomach", "y", ("pelvis", "neck"), 0.30, ("torso",)),
    ("hips", "y", ("l_hip", "r_hip"), 0.5, ("torso",)),
    ("biceps", "x", ("l_shoulder", "l_elbow"), 0.5, ("l_upper_arm",)),
    ("forearms", "x", ("l_elbow", "l_wrist"), 0.5, ("l_forearm",)),
    ("thighs", "y", ("l_hip", "l_knee"), 0.5, ("l_thigh",)),
]


def _tpos(p) -> np.ndarray:
    return (np.asarray(p, dtype=np.float64) + np.array([0.0, _Y_OFF / _SCALE, 0.0])) * _SCALE


def _grid_for_budget(n_target):
    segs = int(np.clip(round(np.sqrt(max(n_target - 2, 3) * 0.8)), 3, 14))
    rings = max(1, (n_target - 2) // segs)
    return segs, rings


def _capsule_mesh(segs, rings, a, b, radius, scales, rng):
    """Rounded capsule between points a, b; returns verts, faces and per-vertex
    axial parameter (meters along the bone) plus unit radial directions."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    axis = b - a
    length = np.linalg.norm(axis)
    d = axis / length
    # cross-section frame: prefer world x so elliptical scaling is consistent
    ref = np.array([1.0, 0.0, 0.0])
    if abs(ref @ d) > 0.9:
        ref = np.array([0.0, 0.0, 1.0])
    e1 = ref - (ref @ d) * d
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(d, e1)

    cap = 0.7 * radius

    verts, us, radials = [], [], []
    for i in range(rings):
        t = (i + 0.5) / rings
        u = -cap + t * (length + 2 * cap)
        over = max(0.0, -u, u - length)
        ring_r = radius * np.sqrt(max(1.0 - (over / cap) ** 2, 0.04))
        for k in range(segs):
            phi = 2 * np.pi * (k + 0.5 * (i % 2)) / segs
            jitter = 1.0 + 0.015 * rng.standard_normal()
            rad_dir = np.cos(phi) * scales[0] * e1 + np.sin(phi) * scales[1] * e2
            verts.append(a + np.clip(u, -cap, length + cap) * d + ring_r * jitter * rad_dir)
            us.append(u)
            radials.append(rad_dir / np.linalg.norm(rad_dir))
    # axial pole vertices close the ends
    verts.append(a - cap * d)
    us.append(-cap)
    radials.append(-d)
    verts.append(b + cap * d)
    us.append(length + cap)
    radials.append(d)

    n_ring = rings * segs
    faces = []
    for i in range(rings - 1):
        for k in range(segs):
            v00 = i * segs + k
            v01 = i * segs + (k + 1) % segs
            v10 = (i + 1) * segs + k
            v11 = (i + 1) * segs + (k + 1) % segs
            faces.append((v00, v01, v10))
            faces.append((v01, v11, v10))
    for k in range(segs):  # pole fans
        faces.append((n_ring, (k + 1) % segs, k))
        faces.append(
            (n_ring + 1, (rings - 1) * segs + k, (rings - 1) * segs + (k + 1) % segs)
        )

    return (np.array(verts), np.array(faces, dtype=np.int64), np.array(us),
            np.array(radials), length)


def generate_toy_model(seed: int, num_vertices: int = 600, num_joints: int = 16) -> BodyModel:
    """Deterministic humanoid capsule-limb model.

    Joint budget selects from a canonical 24-joint skeleton by priority;
    capsules bind to the nearest kept joints so any budget from 8 up stays
    well-formed.
    """
    for name, count in (("num_vertices", num_vertices), ("num_joints", num_joints)):
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
            raise ValueError(f"{name} must be an int, got {count!r}")
    if num_vertices < 50:
        raise ValueError("need at least 50 vertices")
    if not 8 <= num_joints <= 24:
        raise ValueError("joint count must be between 8 and 24")

    rng = np.random.default_rng(seed)

    canon_index = {name: i for i, (name, _, _) in enumerate(_CANONICAL)}
    canon_parent = {name: parent for name, parent, _ in _CANONICAL}
    canon_pos = {name: _tpos(pos) for name, _, pos in _CANONICAL}

    kept = set(_PRIORITY[:num_joints])
    joint_names = tuple(n for n, _, _ in _CANONICAL if n in kept)  # canonical order
    jidx = {n: i for i, n in enumerate(joint_names)}

    def kept_ancestor(name):
        while name is not None and name not in kept:
            name = canon_parent[name]
        return name

    parents = np.empty(len(joint_names), dtype=np.int64)
    for i, name in enumerate(joint_names):
        anc = kept_ancestor(canon_parent[name]) if canon_parent[name] else None
        parents[i] = -1 if anc is None else jidx[anc]

    # --- build capsules --------------------------------------------------
    capsules = _CAPSULES if num_vertices >= 150 else _CAPSULES_COMPACT
    part_names = tuple(c[0] for c in capsules)

    # pick ring grids per capsule, then shave rings/segments until the exact
    # vertex budget is reachable (leftover vertices sprinkle onto the torso)
    grids = [list(_grid_for_budget(max(5, int(round(c[6] * num_vertices))))) for c in capsules]

    def total_count():
        return sum(s * r + 2 for s, r in grids)

    while total_count() > num_vertices:
        sizes = [s * r for s, r in grids]
        ci = int(np.argmax(sizes))
        if grids[ci][1] > 1:
            grids[ci][1] -= 1
        elif grids[ci][0] > 3:
            grids[ci][0] -= 1
        else:
            raise ValueError("vertex budget too small for capsule layout")
    filler = num_vertices - total_count()

    all_verts, all_faces, all_parts = [], [], []
    bind_rows = []  # per-vertex skinning row over kept joints
    radial_dirs = []

    J = len(joint_names)
    offset = 0
    for ci, (part, pa, pb, rad, scales, chain, _) in enumerate(capsules):
        a = canon_pos[pa] if isinstance(pa, str) else _tpos(pa)
        b = canon_pos[pb] if isinstance(pb, str) else _tpos(pb)
        verts, faces, us, radials, length = _capsule_mesh(
            grids[ci][0], grids[ci][1], a, b, rad * _SCALE, scales, rng
        )

        # resolve binding chain to kept joints, dropping duplicates
        resolved = []
        for name in chain:
            k = kept_ancestor(name)
            if k is not None and (not resolved or resolved[-1] != k):
                resolved.append(k)

        rows = np.zeros((len(verts), J))
        if len(resolved) == 1:
            rows[:, jidx[resolved[0]]] = 1.0
        elif part == "torso":
            # blend along the spine chain by vertex height
            ys = np.array([canon_pos[n][1] for n in resolved])
            order = np.argsort(ys)
            ys, names_sorted = ys[order], [resolved[i] for i in order]
            for vi, v in enumerate(verts):
                y = v[1]
                if y <= ys[0]:
                    rows[vi, jidx[names_sorted[0]]] = 1.0
                elif y >= ys[-1]:
                    rows[vi, jidx[names_sorted[-1]]] = 1.0
                else:
                    k = int(np.searchsorted(ys, y)) - 1
                    t = (y - ys[k]) / (ys[k + 1] - ys[k])
                    rows[vi, jidx[names_sorted[k]]] = 1.0 - t
                    rows[vi, jidx[names_sorted[k + 1]]] = t
        else:
            # limb segment: rigid to the proximal joint, short distal ramp
            ja, jb = jidx[resolved[0]], jidx[resolved[-1]]
            t = np.clip(us / max(length, 1e-9), 0.0, 1.0)
            wb = 0.5 * np.clip((t - 0.85) / 0.15, 0.0, 1.0)
            rows[:, ja] = 1.0 - wb
            rows[:, jb] += wb

        all_verts.append(verts)
        all_faces.append(faces + offset)
        all_parts.append(np.full(len(verts), ci, dtype=np.int64))
        bind_rows.append(rows)
        radial_dirs.append(radials)
        offset += len(verts)

    template = np.concatenate(all_verts)
    faces = np.concatenate(all_faces)
    parts = np.concatenate(all_parts)
    weights = np.concatenate(bind_rows)
    radial = np.concatenate(radial_dirs)

    if filler > 0:
        # spare vertex budget lands on the torso surface (no faces reference it)
        src = rng.choice(np.flatnonzero(parts == 0), size=filler)
        template = np.concatenate([template, template[src] * (1 + 0.01 * rng.standard_normal((filler, 1)))])
        parts = np.concatenate([parts, parts[src]])
        weights = np.concatenate([weights, weights[src]])
        radial = np.concatenate([radial, radial[src]])

    V = template.shape[0]
    assert V == num_vertices

    # --- regressors -------------------------------------------------------
    def nearest_row(target, k):
        d = np.linalg.norm(template - target, axis=1)
        idx = np.argsort(d)[:k]
        w = 1.0 / (d[idx] + 1e-6)
        row = np.zeros(V)
        row[idx] = w / w.sum()
        return row

    skeleton_regressor = np.stack([nearest_row(canon_pos[n], 8) for n in joint_names])
    keypoint_names = tuple(n for n, _ in _KEYPOINTS)
    joint_regressor = np.stack([nearest_row(_tpos(p), 4) for _, p in _KEYPOINTS])
    keypoint_attach = np.array(
        [jidx[kept_ancestor(_KEYPOINT_ATTACH[n])] for n, _ in _KEYPOINTS], dtype=np.int64
    )

    # --- shape basis -------------------------------------------------------
    y = template[:, 1]
    x = template[:, 0]
    y_min, y_max = y.min(), y.max()
    hip_y = canon_pos["l_hip"][1]
    shoulder_x = abs(canon_pos["l_shoulder"][0])
    chest_y = canon_pos["chest"][1]
    neck_y = canon_pos["neck"][1]
    stomach_y = canon_pos["spine"][1]

    def part_mask(names):
        ids = [i for i, p in enumerate(part_names) if p in names]
        return np.isin(parts, ids)

    torso_m = part_mask({"torso", "neck"})
    head_m = part_mask({"head"})
    arm_m = part_mask({"l_upper_arm", "r_upper_arm", "l_forearm", "r_forearm", "l_hand", "r_hand"})
    leg_m = part_mask({"l_thigh", "r_thigh", "l_shin", "r_shin", "l_foot", "r_foot"})

    dirs = np.zeros((V, 3, SHAPE_DIM))
    dirs[:, :, 0] = 0.008 * radial
    dirs[:, 1, 1] = 0.022 * (y - y_min)
    dirs[torso_m, :, 2] = 0.009 * radial[torso_m]
    dirs[arm_m | leg_m, :, 3] = 0.006 * radial[arm_m | leg_m]
    t_leg = np.clip((hip_y - y) / (hip_y - y_min), 0.0, 1.0)
    dirs[leg_m, 1, 4] = -0.025 * t_leg[leg_m]
    t_arm = np.clip((np.abs(x) - shoulder_x) / (0.65 - 0.17) / _SCALE, 0.0, 1.0)
    dirs[arm_m, 0, 5] = 0.020 * np.sign(x[arm_m]) * t_arm[arm_m]
    dirs[head_m, :, 6] = 0.010 * radial[head_m]
    t_sh = np.clip((y - chest_y) / (neck_y - chest_y), 0.0, 1.0)
    dirs[arm_m, 0, 7] = 0.012 * np.sign(x[arm_m])
    dirs[torso_m, 0, 7] = 0.012 * t_sh[torso_m] * np.clip(x[torso_m] / 0.15, -1, 1)
    t_hip = np.clip((stomach_y - y) / (stomach_y - y_min), 0.0, 1.0)
    dirs[leg_m, 0, 8] = 0.010 * np.sign(x[leg_m])
    dirs[torso_m, 0, 8] = 0.010 * t_hip[torso_m] * np.clip(x[torso_m] / 0.15, -1, 1)
    belly_w = np.exp(-(((y - stomach_y) / 0.18) ** 2)) * np.clip(-radial[:, 2], 0.0, 1.0)
    dirs[torso_m, 2, 9] = -0.012 * belly_w[torso_m]

    measurements = {}
    for name, axis, (ja, jb), t, m_parts in _MEASUREMENTS:
        if ja in kept and jb in kept:
            measurements[name] = {
                "axis": axis,
                "anchors": [ja, jb],
                "t": t,
                "parts": list(m_parts),
            }

    model = BodyModel(
        template_vertices=template,
        shape_basis=dirs,
        faces=faces,
        joint_regressor=joint_regressor,
        skeleton_regressor=skeleton_regressor,
        skinning_weights=weights,
        parents=parents,
        part_labels=parts,
        part_names=part_names,
        joint_names=joint_names,
        keypoint_names=keypoint_names,
        keypoint_attach=keypoint_attach,
        meta={
            "generator": "toy_capsule_humanoid",
            "seed": int(seed),
            "lr_swap_pairs": [list(p) for p in LR_SWAP_PAIRS],
            "measurements": measurements,
        },
    )
    model.validate()
    return model


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_model(path, model: BodyModel) -> None:
    arrays = {
        "template_vertices": model.template_vertices,
        "shape_basis": model.shape_basis,
        "faces": model.faces,
        "joint_regressor": model.joint_regressor,
        "skeleton_regressor": model.skeleton_regressor,
        "skinning_weights": model.skinning_weights,
        "parents": model.parents,
        "part_labels": model.part_labels,
        "keypoint_attach": model.keypoint_attach,
    }
    meta = dict(model.meta)
    meta["part_names"] = list(model.part_names)
    meta["joint_names"] = list(model.joint_names)
    meta["keypoint_names"] = list(model.keypoint_names)
    write_container(path, "body_model", arrays, meta)


def load_model(path) -> BodyModel:
    arrays, meta = read_container(path, expected_kind="body_model")
    meta = dict(meta)
    try:
        model = BodyModel(
            template_vertices=arrays["template_vertices"],
            shape_basis=arrays["shape_basis"],
            faces=arrays["faces"],
            joint_regressor=arrays["joint_regressor"],
            skeleton_regressor=arrays["skeleton_regressor"],
            skinning_weights=arrays["skinning_weights"],
            parents=arrays["parents"],
            part_labels=arrays["part_labels"],
            keypoint_attach=arrays["keypoint_attach"],
            part_names=tuple(meta.pop("part_names")),
            joint_names=tuple(meta.pop("joint_names")),
            keypoint_names=tuple(meta.pop("keypoint_names")),
            meta=meta,
        )
        model.validate()
    except (KeyError, TypeError, ValueError) as exc:
        raise ContainerError(f"{path}: malformed body model ({exc!r})") from exc
    return model
