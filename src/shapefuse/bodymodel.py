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

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import camera as cr
from .containerio import ContainerError, read_container, write_container
from .scalars import check_int, is_int, is_real

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

class KinematicTree(NamedTuple):
    """The skeleton tree as the skinning chain reads it; `BodyModel.tree`
    builds it on first use, once per model."""

    below: np.ndarray    # (J, J) `subtree_table` of the parents
    levels: list         # the joints at each depth, root first
    parent_slots: list   # per later level: each joint's parent's place in the level above
    order: np.ndarray    # (J,) each joint's place in the levels laid end to end


class JointBasis(NamedTuple):
    """The rest joint pivots as a linear map of the shape coefficients, the
    skeleton regressor applied to the template and to the shape basis;
    `BodyModel.joint_basis` builds it on first use, once per model."""

    rest: np.ndarray     # (J, 3) pivots of the template
    shape: np.ndarray    # (S, 3J) pivot offsets per unit coefficient, joint-major


class _LayoutArrays(NamedTuple):
    weights: np.ndarray   # (K, Vt) skinning weights of the support joints, transposed
    template: np.ndarray  # (3, Vt) template vertices, transposed
    shape: np.ndarray     # (S, 3Vt) shape basis, component-major
    joints: np.ndarray    # (K,) the support joints, ascending


class SkinningLayout(_LayoutArrays):
    """The skinning arrays of a set of vertices in the component-major
    layout `_skin_components` works in, where a batch of meshes is
    (B, 3, Vt) with the vertex innermost, over the set's joint support:
    the joints whose weight is nonzero at some vertex of the set, so
    each blend is a dense product whose inner size is that support.
    `BodyModel.skinning` is the whole mesh over all J joints, the layout
    of `lbs_vertices`; `BodyModel.skinning_groups` cuts the mesh into
    tiles of vertices that share one support set, and
    `BodyModel.keypoint_rig` holds the layout of the vertices the keypoint
    regressor reads. All are built on first use, once per model. A layout
    is `rigid` when its support is one joint of weight exactly 1.0 at
    every vertex, as at each one-joint vertex of the toy model: its
    vertices move with that joint, and the buffered `_skin_components`
    forms no blend for them. `rigid` is worked out once per layout, on
    first use; `_replace` makes a new layout, which works it out afresh."""

    @cached_property
    def rigid(self) -> bool:
        return len(self.joints) == 1 and bool((self.weights == 1.0).all())


class KeypointRig(NamedTuple):
    """The keypoint rig, what `posed_keypoints` skins: the vertices the
    joint regressor reads (its nonzero columns), their `SkinningLayout`
    over their joint support, and those columns of the regressor.
    `BodyModel.keypoint_rig` builds it on first use, once per model."""

    vertices: np.ndarray   # (Vk,) the regressor's nonzero columns, ascending
    layout: SkinningLayout
    regressor: np.ndarray  # (L, Vk) the regressor's weights at those vertices


@dataclass(frozen=True)
class BodyModel:
    """Immutable parametric body; safe for concurrent read. Checked when
    built, so by `dataclasses.replace` too: a broken rule raises ValueError.
    Its arrays are set read-only, in place, when it is built."""

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

    @cached_property
    def tree(self) -> KinematicTree:
        below = subtree_table(self.parents)
        depth = below.sum(axis=0) - 1
        levels = [np.flatnonzero(depth == d) for d in range(depth.max() + 1)]
        slot = np.zeros(self.num_joints, dtype=np.int64)
        for joints in levels:
            slot[joints] = np.arange(len(joints))
        return KinematicTree(below, levels, [slot[self.parents[joints]] for joints in levels[1:]],
                             np.argsort(np.concatenate(levels)))

    @cached_property
    def mesh(self) -> cr.Mesh:
        """The rasterizers' `camera.Mesh` of the faces, built on first use,
        once per model."""
        return cr.mesh(self.faces)

    @cached_property
    def joint_basis(self) -> JointBasis:
        J, V, S = self.num_joints, self.num_vertices, self.shape_dim
        regressed = self.skeleton_regressor @ self.shape_basis.reshape(V, 3 * S)  # (J, 3S)
        return JointBasis(self.skeleton_regressor @ self.template_vertices,
                          regressed.reshape(J, 3, S).transpose(2, 0, 1).reshape(S, 3 * J))

    @cached_property
    def skinning(self) -> SkinningLayout:
        return _skinning_layout(self, slice(None), np.arange(self.num_joints))

    def skinning_groups(self, width: int) -> tuple:
        """The mesh's vertices grouped by support set, the joints with a
        nonzero weight at a vertex, and each group cut into tiles of at
        most `width` vertices, as (vertices, layout) pairs of an ascending
        index array and the tile's `SkinningLayout` over the group's
        support. Built on first use; the model keeps the tiles of the last
        width asked for."""
        check_int("tile width", width, 1)
        kept = self._tiles.get(width)
        if kept is None:
            kept = tuple((tile, _skinning_layout(self, tile))
                         for group in self._support_groups
                         for tile in np.split(group, range(width, len(group), width)))
            self._tiles.clear()
            self._tiles[width] = kept
        return kept

    @cached_property
    def _support_groups(self) -> list:
        """The vertices of each support set, ascending, one array per set,
        from one `np.unique` over the rows of the nonzero-weight mask."""
        _, group, counts = np.unique(self.skinning_weights != 0, axis=0, return_inverse=True,
                                     return_counts=True)
        return np.split(np.argsort(group.ravel(), kind="stable"), np.cumsum(counts)[:-1])

    @cached_property
    def _tiles(self) -> dict:
        return {}

    @cached_property
    def keypoint_rig(self) -> KeypointRig:
        vertices = np.flatnonzero((self.joint_regressor != 0).any(axis=0))
        return KeypointRig(vertices, _skinning_layout(self, vertices),
                           np.ascontiguousarray(self.joint_regressor[:, vertices]))

    def __post_init__(self):
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
        if not cr._is_closed_oriented(self.faces):
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
        pairs = self.meta.get("lr_swap_pairs", [])
        if not isinstance(pairs, (list, tuple)):
            raise ValueError(f"left/right swap pairs must be a list, got {pairs!r}")
        for pair in pairs:
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and all(is_int(k) and 0 <= k < L for k in pair)):
                raise ValueError(f"left/right swap pair {pair!r} is not two keypoint indices")
        if not isinstance(self.meta.get("measurements", {}), dict):
            raise ValueError("measurements must map names to measurement planes")
        for name, m in self.meta.get("measurements", {}).items():
            if not (isinstance(m, dict) and m.get("axis") in ("x", "y", "z")
                    and isinstance(m.get("anchors"), (list, tuple)) and len(m["anchors"]) == 2
                    and all(a in self.joint_names for a in m["anchors"])
                    and is_real(m.get("t")) and isinstance(m.get("parts"), list)
                    and all(isinstance(p, str) for p in m["parts"])):
                raise ValueError(f"measurement {name!r} is not an axis, two joint names, "
                                 f"a real t and a list of part names: {m!r}")
        if len(self.part_names) < 6:
            raise ValueError("need at least 6 body parts")
        if self.keypoint_attach.shape != (L,) or np.any(self.keypoint_attach < 0) or np.any(
            self.keypoint_attach >= J
        ):
            raise ValueError("keypoint attachment joints out of range")
        # what is built from the arrays on first use (`tree`, `mesh`, the
        # skinning layouts, the keypoint rig) must not go stale
        for f in fields(self):
            if f.type == "np.ndarray":
                getattr(self, f.name).flags.writeable = False


def _skinning_layout(model: BodyModel, vertices, joints: np.ndarray = None) -> SkinningLayout:
    """The `SkinningLayout` of the vertices, a slice or an ascending index
    array, over the joints: by default their support, the joints with a
    nonzero weight at one of them."""
    S, weights = model.shape_dim, model.skinning_weights[vertices]
    if joints is None:
        joints = np.flatnonzero((weights != 0).any(axis=0))
    return SkinningLayout(
        np.ascontiguousarray(weights[:, joints].T),
        np.ascontiguousarray(model.template_vertices[vertices].T),
        np.ascontiguousarray(model.shape_basis[vertices].transpose(2, 1, 0)).reshape(S, -1),
        joints)


# ---------------------------------------------------------------------------
# forward model
# ---------------------------------------------------------------------------

def shaped_template(model: BodyModel, betas):
    """Template plus shape blendshape offsets, the neutral (T-pose) body:
    (..., S) -> (..., V, 3). The coefficients are rows of the one (n, S) @
    (S, 3V) product that `lbs_vertices` poses, transposed from the
    component-major layout, so one body gets the same bits as `forward` at
    zero pose."""
    V, S = model.num_vertices, model.shape_dim
    lead = ad.value_of(betas).shape[:-1]
    shaped = _shaped_components(model.skinning, ad.reshape(betas, (-1, S)))
    return ad.reshape(ad.transpose(shaped, (0, 2, 1)), lead + (V, 3))


def _shaped_components(layout: SkinningLayout, betas):
    """(n, S) -> the shaped template (n, 3, Vt) of the layout's vertices,
    component-major."""
    n, width = ad.value_of(betas).shape[0], layout.template.shape[1]
    return layout.template + ad.reshape(ad.matmul(betas, layout.shape), (n, 3, width))


def subtree_table(parents: np.ndarray) -> np.ndarray:
    """(J, J) bool table of the kinematic tree: entry (j, i) is true when
    joint i is j or lies below j. Row j lists the joints j's rotation
    moves; column i lists i and its ancestors, so its sum less 1 is i's
    depth. Parents precede their children, so one sweep from the last
    joint up hands each finished row to its parent."""
    below = np.eye(len(parents), dtype=bool)
    for i in range(len(parents) - 1, 0, -1):
        below[parents[i]] |= below[i]
    return below


_HOMOGENEOUS_ROW = np.array([[0.0, 0.0, 0.0, 1.0]])


def _world_blocks(tree: KinematicTree, local_rots, pivots):
    """World transforms [R_j | u_j] (B, J, 3, 4) of local rotations L_j
    (B, J, 3, 3) about rest pivots p_j (B, J, 3), chained down the tree.

    u_j = u_parent + R_parent o_j with o_j = p_j - L_j p_j, so
    [R_j | u_j] = [R_parent | u_parent] [[L_j, o_j], [0, 1]]; o_j is exactly
    0 at the rest pose. The chain runs one tree level at a time, since the
    parents of a level are the level before it: one gather of the parents
    and one batched product per level.
    """
    B, J = ad.value_of(pivots).shape[:2]
    offsets = pivots - ad.einsum("bjkl,bjl->bjk", local_rots, pivots)
    blocks = ad.concat([local_rots, ad.reshape(offsets, (B, J, 3, 1))], axis=3)
    square = ad.concat([blocks, np.broadcast_to(_HOMOGENEOUS_ROW, (B, J, 1, 4))], axis=2)
    world = [ad.take(blocks, tree.levels[0], axis=1)]
    for joints, parent_slots in zip(tree.levels[1:], tree.parent_slots):
        parent_blocks = ad.take(world[-1], parent_slots, axis=1)
        world.append(ad.matmul(parent_blocks, ad.take(square, joints, axis=1)))
    return ad.take(ad.concat(world, axis=1), tree.order, axis=1)


def lbs_vertices(model: BodyModel, pose, betas, glob):
    """Batched forward: (B,P),(B,S),(B,3) -> posed vertices (B,V,3);
    ValueError, naming the argument's shape and the model's width, when an
    argument is not (B, width), when the batch sizes differ, or when any
    value is NaN or infinite. The one skinning path: the
    `_joint_transforms`, then the `_skin_components` of the whole mesh,
    `model.skinning`, over all J joints, transposed from the
    component-major (B,3,V).

    Joint pivots regress linearly from the shaped template, so they are
    linear in the shape coefficients: p = p_rest + betas @ basis, by the
    model's `joint_basis`, with no (J, V) product per call. Rotations
    chain down the kinematic tree. Skinning then blends the per-joint
    transforms, not per-joint posed copies of the mesh (the SMPL form,
    Loper et al. 2015).
    Joint j moves v to R_j v + u_j, where u_j = pos_j - R_j p_j takes the
    rest pivot p_j to the posed pivot pos_j. The skinning weights W sum to
    1 per vertex, so

        v' = sum_j w_j (R_j v + u_j) = v + (W (R - I)) v + W u.

    The mesh is skinned component-major, (B, 3, V): the shaped body is the
    one (B, S) @ (S, 3V) product of `shaped_template`, the blend of R - I
    is one (B*9, J) @ (J, V) product and that of u one (B*3, J) @ (J, V)
    product, and each vertex applies its blended 3x3 with the vertex
    innermost. R - I and u are exactly 0 at the rest pose, so the rest
    pose reproduces the shaped template bit for bit.
    """
    posed = _skin_components(model.skinning, betas, *_joint_transforms(model, pose, betas, glob))
    return ad.transpose(posed, (0, 2, 1))


def _joint_transforms(model: BodyModel, pose, betas, glob) -> tuple:
    """The checks of `lbs_vertices`, then the world transforms of the
    joints as the blends read them: R - I as (B*9, J) rows, component pair
    major, and u as (B*3, J) rows; see `lbs_vertices`."""
    J = model.num_joints
    for name, x, width in (("pose", pose, model.pose_dim), ("shape", betas, model.shape_dim),
                           ("global rotation", glob, 3)):
        shape = ad.value_of(x).shape
        if len(shape) != 2 or shape[1] != width:
            raise ValueError(f"{name} has shape {shape}, the body model needs (B, {width})")
    batch = [len(ad.value_of(x)) for x in (pose, betas, glob)]
    if len(set(batch)) != 1:
        raise ValueError(f"pose, shape and global rotation have batch sizes {batch}")
    if not all(np.isfinite(ad.value_of(x)).all() for x in (pose, betas, glob)):
        raise ValueError("pose, shape and global rotation must be finite")
    B = batch[0]

    basis = model.joint_basis
    pivots = basis.rest + ad.reshape(ad.matmul(betas, basis.shape), (B, J, 3))
    aa_all = ad.concat([ad.reshape(glob, (B, 1, 3)), ad.reshape(pose, (B, J - 1, 3))], axis=1)
    world = _world_blocks(model.tree, rodrigues(aa_all), pivots)  # (B, J, 3, 4)
    return (ad.reshape(ad.transpose(world[..., :3] - np.eye(3), (0, 2, 3, 1)), (B * 9, J)),
            ad.reshape(ad.transpose(world[..., 3], (0, 2, 1)), (B * 3, J)))


def _skin_components(layout: SkinningLayout, betas, rot_delta, trans, out=None):
    """The posed vertices (B, 3, Vt) of the layout, component-major:
    its shaped template (`_shaped_components`) plus the blends of the
    `_joint_transforms` R - I (B*9, K) and u (B*3, K), given as the
    columns of the layout's K support joints. A joint off the support has
    weight 0 at every vertex of the layout, so it adds nothing to the
    blends; the products over the support and over all J joints differ
    only in the rounding order that the BLAS kernel picks.

    `out`, for untaped arrays only, is a (2, B, 3, Vt) buffer: the same
    products and sums, in the same order, then write the shaped template
    into out[0] and the posed vertices into out[1], which is returned, so
    a caller that skins layout after layout reuses two warm arrays. A
    `rigid` layout forms no blend there: its one joint's 3x3 R - I and u
    per draw apply to every vertex, which gives the products over K = 1
    bit for bit, since each weight is exactly 1.0."""
    B, width = ad.value_of(betas).shape[0], layout.template.shape[1]
    if out is None:
        shaped = _shaped_components(layout, betas)                  # (B, 3, Vt)
        # the (B, 3, 3, Vt) blend is handed straight to the apply, so it
        # lives only for that call
        rot_offset = ad.einsum("bklv,blv->bkv", ad.reshape(ad.matmul(rot_delta, layout.weights),
                                                           (B, 3, 3, width)), shaped)
        return shaped + rot_offset + ad.reshape(ad.matmul(trans, layout.weights), (B, 3, width))
    shaped, posed = out
    np.matmul(betas, layout.shape, out=shaped.reshape(B, 3 * width))
    shaped += layout.template
    if layout.rigid:
        np.einsum("bkl,blv->bkv", rot_delta[:, 0].reshape(B, 3, 3), shaped, out=posed)
        posed += shaped
        posed += trans[:, 0].reshape(B, 3, 1)
        return posed
    np.einsum("bklv,blv->bkv", (rot_delta @ layout.weights).reshape(B, 3, 3, width), shaped,
              out=posed)
    posed += shaped
    posed += (trans @ layout.weights).reshape(B, 3, width)
    return posed


def forward(model: BodyModel, pose, betas, glob):
    """Single-sample model evaluation -> posed vertices (V, 3).

    Deterministic; differentiable w.r.t. pose, shape and global rotation
    when inputs are tape nodes. ValueError when an input is not 1-D; the
    widths and values are checked by `lbs_vertices`, with its messages.
    """
    for name, x in (("pose", pose), ("shape", betas), ("global rotation", glob)):
        if ad.value_of(x).ndim != 1:
            raise ValueError(f"{name} must be 1-D, got shape {ad.value_of(x).shape}")
    verts = lbs_vertices(model, *(ad.reshape(x, (1, -1)) for x in (pose, betas, glob)))
    return ad.reshape(verts, (model.num_vertices, 3))


def regress_joints(model: BodyModel, vertices):
    """Keypoints of interest, (..., V, 3) -> (..., L, 3): a matrix product."""
    if ad.value_of(vertices).shape[-2] != model.num_vertices:
        raise ValueError("mesh vertex count does not match regressor")
    return ad.matmul(model.joint_regressor, vertices)


def posed_keypoints(model: BodyModel, pose, betas, glob):
    """Batched keypoints of interest: (B,P),(B,S),(B,3) -> (B,L,3), the
    `regress_joints` of `lbs_vertices`, with its checks and messages.

    Only the vertices the regressor reads are posed, as a tile of
    `metrics.per_vertex_uncertainty` is: `_joint_transforms`, then
    `_skin_components` of `model.keypoint_rig`, then its regressor
    columns. The other vertices add nothing to a keypoint, so the result
    differs from the whole mesh's only in rounding order."""
    rig = model.keypoint_rig
    joints = rig.layout.joints
    rot_delta, trans = _joint_transforms(model, pose, betas, glob)
    posed = _skin_components(rig.layout, betas, ad.take(rot_delta, joints, axis=1),
                             ad.take(trans, joints, axis=1))      # (B, 3, Vk)
    return ad.einsum("bkv,lv->blk", posed, rig.regressor)


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

# COCO-style keypoints, in order: five face points placed in the canonical
# frame and carried by the head, then twelve skeleton joints placed and
# carried as in `_CANONICAL`
_FACE_KEYPOINTS = [
    ("nose", (0.0, 0.645, -0.082)),
    ("l_eye", (0.028, 0.665, -0.078)),
    ("r_eye", (-0.028, 0.665, -0.078)),
    ("l_ear", (0.082, 0.650, -0.005)),
    ("r_ear", (-0.082, 0.650, -0.005)),
]
_BODY_KEYPOINTS = ("l_shoulder", "r_shoulder", "l_elbow", "r_elbow", "l_wrist", "r_wrist",
                   "l_hip", "r_hip", "l_knee", "r_knee", "l_ankle", "r_ankle")

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
    axial parameter (meters along the bone) plus unit radial directions.

    Ring i of the (rings, segs) grid sits at axial parameter u_i, and its
    segment k at angle phi_ik, offset half a segment on odd rings. Each ring
    vertex draws one radial jitter, in grid order; two axial poles close
    the ends."""
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
    ring = np.arange(rings)
    u = -cap + (ring + 0.5) / rings * (length + 2 * cap)
    over = np.maximum(np.maximum(0.0, -u), u - length)
    # libm's pow, which the per-vertex scalar form called: an array's `** 2`
    # squares, and the two differ in the last bit for about 0.1% of inputs
    ring_r = radius * np.sqrt(np.maximum(1.0 - np.float_power(over / cap, 2), 0.04))
    phi = 2 * np.pi * (np.arange(segs) + 0.5 * (ring[:, None] % 2)) / segs  # (rings, segs)
    jitter = 1.0 + 0.015 * rng.standard_normal((rings, segs))
    rad_dir = (np.cos(phi) * scales[0])[..., None] * e1 + (np.sin(phi) * scales[1])[..., None] * e2
    ring_verts = (a + np.clip(u, -cap, length + cap)[:, None, None] * d
                  + (ring_r[:, None] * jitter)[..., None] * rad_dir)
    # matches np.linalg.norm of each vector bit for bit; norm(axis=-1) does not
    unit = rad_dir / np.sqrt(rad_dir[..., None, :] @ rad_dir[..., :, None])[..., 0]

    verts = np.concatenate([ring_verts.reshape(-1, 3), [a - cap * d, b + cap * d]])
    us = np.concatenate([np.repeat(u, segs), [-cap, length + cap]])
    radials = np.concatenate([unit.reshape(-1, 3), [-d, d]])

    # two triangles per quad of neighbouring rings, then one fan per pole
    n_ring = rings * segs
    k, k1 = np.arange(segs), (np.arange(segs) + 1) % segs
    lo = np.arange(rings - 1)[:, None] * segs
    hi = lo + segs
    quads = np.stack([lo + k, lo + k1, hi + k, lo + k1, hi + k1, hi + k], axis=-1)
    last = (rings - 1) * segs
    fans = np.stack([np.full(segs, n_ring), k1, k, np.full(segs, n_ring + 1), last + k, last + k1],
                    axis=-1)
    faces = np.concatenate([quads.reshape(-1, 3), fans.reshape(-1, 3)])
    return verts, faces.astype(np.int64), us, radials, length


def generate_toy_model(seed: int, num_vertices: int = 600, num_joints: int = 16) -> BodyModel:
    """Deterministic humanoid capsule-limb model.

    Joint budget selects from a canonical 24-joint skeleton by priority;
    capsules bind to the nearest kept joints so any budget from 8 up stays
    well-formed.
    """
    for name, value in (("seed", seed), ("num_vertices", num_vertices), ("num_joints", num_joints)):
        check_int(name, value)
    if num_vertices < 50:
        raise ValueError("need at least 50 vertices")
    if not 8 <= num_joints <= 24:
        raise ValueError("joint count must be between 8 and 24")

    rng = np.random.default_rng(seed)

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
            ys, cols = ys[order], np.array([jidx[resolved[i]] for i in order])
            # clipping k and t keeps vertices beyond the end joints rigid to them
            y = verts[:, 1]
            k = np.clip(np.searchsorted(ys, y) - 1, 0, len(ys) - 2)
            t = np.clip((y - ys[k]) / (ys[k + 1] - ys[k]), 0.0, 1.0)
            rows[np.arange(len(y)), cols[k]] = 1.0 - t
            rows[np.arange(len(y)), cols[k + 1]] = t
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
    keypoints = ([(n, _tpos(p), "head") for n, p in _FACE_KEYPOINTS]
                 + [(n, canon_pos[n], n) for n in _BODY_KEYPOINTS])  # name, position, carrier
    keypoint_names = tuple(n for n, _, _ in keypoints)
    joint_regressor = np.stack([nearest_row(p, 4) for _, p, _ in keypoints])
    keypoint_attach = np.array([jidx[kept_ancestor(c)] for _, _, c in keypoints], dtype=np.int64)

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

    return BodyModel(
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


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_model(path, model: BodyModel) -> None:
    """Writes each array field as an array and each name tuple as a metadata list."""
    arrays = {f.name: getattr(model, f.name) for f in fields(model) if f.type == "np.ndarray"}
    meta = dict(model.meta)
    meta.update((f.name, list(getattr(model, f.name))) for f in fields(model) if f.type == "tuple")
    write_container(path, "body_model", arrays, meta)


def load_model(path) -> BodyModel:
    """ContainerError if an array is missing or unexpected, or a `BodyModel` rule breaks."""
    arrays, meta = read_container(path, expected_kind="body_model")
    meta = dict(meta)
    try:
        names = {f.name: tuple(meta.pop(f.name)) for f in fields(BodyModel) if f.type == "tuple"}
        return BodyModel(**arrays, **names, meta=meta)
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise ContainerError(f"{path}: malformed body model ({exc!r})") from exc
