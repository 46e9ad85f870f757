import dataclasses
import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from shapefuse import autodiff as ad
from shapefuse import bodymodel as bm
from shapefuse.containerio import ContainerError, read_container, write_container

from gradcheck import grad_check


def pinned_sums(a: np.ndarray) -> tuple:
    """The sum of an array and its sum weighted from 1 to 2 along the flat
    array, so a permutation of its entries moves the second."""
    return a.sum(), (a.ravel() * np.linspace(1.0, 2.0, a.size)).sum()


def capsule_mesh_per_vertex(segs, rings, a, b, radius, scales, rng):
    """One vertex and one face at a time, with one scalar jitter draw per
    vertex: the oracle for `bm._capsule_mesh`."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    length = np.linalg.norm(b - a)
    d = (b - a) / length
    ref = np.array([1.0, 0.0, 0.0]) if abs(d[0]) <= 0.9 else np.array([0.0, 0.0, 1.0])
    e1 = ref - (ref @ d) * d
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(d, e1)
    cap = 0.7 * radius
    verts, us, radials = [], [], []
    for i in range(rings):
        u = -cap + (i + 0.5) / rings * (length + 2 * cap)
        over = max(0.0, -u, u - length)
        ring_r = radius * np.sqrt(max(1.0 - (over / cap) ** 2, 0.04))
        for k in range(segs):
            phi = 2 * np.pi * (k + 0.5 * (i % 2)) / segs
            jitter = 1.0 + 0.015 * rng.standard_normal()
            rad_dir = np.cos(phi) * scales[0] * e1 + np.sin(phi) * scales[1] * e2
            verts.append(a + np.clip(u, -cap, length + cap) * d + ring_r * jitter * rad_dir)
            us.append(u)
            radials.append(rad_dir / np.linalg.norm(rad_dir))
    verts += [a - cap * d, b + cap * d]
    us += [-cap, length + cap]
    radials += [-d, d]
    n_ring, faces = rings * segs, []
    for i in range(rings - 1):
        for k in range(segs):
            v00, v01 = i * segs + k, i * segs + (k + 1) % segs
            v10, v11 = v00 + segs, v01 + segs
            faces += [(v00, v01, v10), (v01, v11, v10)]
    for k in range(segs):
        faces += [(n_ring, (k + 1) % segs, k),
                  (n_ring + 1, (rings - 1) * segs + k, (rings - 1) * segs + (k + 1) % segs)]
    return np.array(verts), np.array(faces), np.array(us), np.array(radials), length


@pytest.fixture(scope="module")
def toy():
    return bm.generate_toy_model(seed=11, num_vertices=300, num_joints=16)


def lbs_per_joint_loop(model, pose, betas, glob):
    """Plain-numpy skinning, one joint at a time in the delta form
    v' = v + sum_j w_j ((R_j v + u_j) - v): the oracle for the blended
    transforms of `bm.lbs_vertices`."""
    B, J = betas.shape[0], model.num_joints
    shaped = model.template_vertices + np.einsum("vcs,bs->bvc", model.shape_basis, betas)
    pivots = model.skeleton_regressor @ shaped
    local = np.asarray(bm.rodrigues(np.concatenate([glob[:, None], pose.reshape(B, J - 1, 3)], 1)))

    def rotate(R, vec):
        return (R @ vec[:, :, None])[:, :, 0]

    world_rot = [local[:, 0]]
    skin_trans = [pivots[:, 0] - rotate(local[:, 0], pivots[:, 0])]
    for j in range(1, J):
        p = model.parents[j]
        world_rot.append(world_rot[p] @ local[:, j])
        skin_trans.append(skin_trans[p] + rotate(world_rot[p], pivots[:, j])
                          - rotate(world_rot[j], pivots[:, j]))
    out = shaped.copy()
    for j in range(J):
        moved = shaped @ world_rot[j].transpose(0, 2, 1) + skin_trans[j][:, None, :]
        out += model.skinning_weights[None, :, j, None] * (moved - shaped)
    return out


def subtree_by_walk(parents, j) -> set:
    """Joint j and every joint below it, by a recursive walk over child
    lists: the oracle for a row of `bm.subtree_table`."""
    children = [[] for _ in parents]
    for c in range(1, len(parents)):
        children[int(parents[c])].append(c)

    def walk(k):
        out = [k]
        for c in children[k]:
            out.extend(walk(c))
        return out

    return set(walk(j))


def depth_by_loop(parents) -> np.ndarray:
    """Each joint's number of ancestors, one joint at a time: the oracle
    for the depths `bm._world_blocks` chains by."""
    depth = np.zeros(len(parents), dtype=np.int64)
    for j in range(1, len(parents)):
        depth[j] = depth[parents[j]] + 1
    return depth


def random_tree(J, rng) -> np.ndarray:
    """A parents array with every parent before its child."""
    return np.array([-1] + [int(rng.integers(0, i)) for i in range(1, J)])


def tree_plan_per_call(parents) -> tuple:
    """The levels, parent slots and level order that `bm._world_blocks`
    derived from `parents` on every call: the oracle for `BodyModel.tree`."""
    depth = bm.subtree_table(parents).sum(axis=0) - 1
    levels = [np.flatnonzero(depth == d) for d in range(depth.max() + 1)]
    slot = np.zeros(len(parents), dtype=np.int64)
    for joints in levels:
        slot[joints] = np.arange(len(joints))
    parent_slots = [slot[parents[joints]] for joints in levels[1:]]
    return levels, parent_slots, np.argsort(np.concatenate(levels))


def reduced_for_keypoints(model) -> tuple:
    """The keypoint rig from its definition, one vertex and one joint at a
    time: the vertices whose joint regressor column is nonzero, the joints
    with a nonzero skinning weight at one of them, and the model's arrays
    sliced to those, C-ordered, as (vertices, layout, regressor). The
    oracle for `BodyModel.keypoint_rig`."""
    V, J, S = model.num_vertices, model.num_joints, model.shape_dim
    vertices = [v for v in range(V) if np.any(model.joint_regressor[:, v] != 0)]
    joints = [j for j in range(J) if any(model.skinning_weights[v, j] != 0 for v in vertices)]
    layout = bm.SkinningLayout(*map(np.ascontiguousarray, (
        model.skinning_weights[np.ix_(vertices, joints)].T,
        model.template_vertices[vertices].T,
        model.shape_basis[vertices].transpose(2, 1, 0).reshape(S, 3 * len(vertices)),
        np.array(joints))))
    return np.array(vertices), layout, np.ascontiguousarray(model.joint_regressor[:, vertices])


def keypoints_and_gradients(model, args, posed) -> tuple:
    """The (B, L, 3) keypoints `posed(model, pose, betas, glob)` gives for the
    arguments, and the gradients of a fixed weighting of them with respect
    to the three arguments, from one tape."""
    tape = ad.Tape()
    leaves = [tape.variable(a) for a in args]
    joints = posed(model, *leaves)
    weights = np.random.default_rng(29).normal(size=joints.shape)
    return (joints.value, *ad.gradient(ad.sum_(joints * weights), leaves))


def keypoints_of_mesh(model, pose, betas, glob):
    return bm.regress_joints(model, bm.lbs_vertices(model, pose, betas, glob))


class TestSubtreeTable:
    def check(self, parents):
        below = bm.subtree_table(parents)
        J = len(parents)
        assert below.shape == (J, J) and below.dtype == bool
        assert [set(np.flatnonzero(row).tolist()) for row in below] == [
            subtree_by_walk(parents, j) for j in range(J)]
        np.testing.assert_array_equal(below.sum(axis=0) - 1, depth_by_loop(parents))

    @pytest.mark.parametrize("J", range(8, 25))
    def test_toy_skeletons_match_walk_and_depth_loop(self, J):
        self.check(bm.generate_toy_model(seed=0, num_vertices=50, num_joints=J).parents)

    def test_hand_built_tree(self):
        # root 0 -> 1 -> 2 and root 0 -> 3 -> 4
        parents = np.array([-1, 0, 1, 0, 3])
        self.check(parents)
        assert bm.subtree_table(parents).astype(int).tolist() == [
            [1, 1, 1, 1, 1], [0, 1, 1, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 1], [0, 0, 0, 0, 1]]

    def test_random_trees_match_walk_and_depth_loop(self):
        rng = np.random.default_rng(21)
        for J in [1, 2, 3] + list(rng.integers(4, 40, 30)):
            self.check(random_tree(J, rng))


class TestKinematicTree:
    def check(self, model):
        tree = model.tree
        assert model.tree is tree
        np.testing.assert_array_equal(tree.below, bm.subtree_table(model.parents))
        levels, parent_slots, order = tree_plan_per_call(model.parents)
        for got, want in zip((tree.levels, tree.parent_slots), (levels, parent_slots)):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                np.testing.assert_array_equal(g, w)
        assert tree.order.dtype == order.dtype
        np.testing.assert_array_equal(tree.order, order)

    @pytest.mark.parametrize("J", range(8, 25))
    def test_toy_skeletons_match_per_call_plan(self, J):
        self.check(bm.generate_toy_model(seed=0, num_vertices=50, num_joints=J))

    def test_random_trees_match_per_call_plan(self):
        rng = np.random.default_rng(22)
        for J in range(8, 25):
            model = bm.generate_toy_model(seed=0, num_vertices=50, num_joints=J)
            for _ in range(3):
                self.check(dataclasses.replace(model, parents=random_tree(J, rng)))

    def test_lbs_on_random_tree_matches_per_joint_loop(self, toy):
        model = dataclasses.replace(toy, parents=random_tree(toy.num_joints,
                                                             np.random.default_rng(24)))
        rng = np.random.default_rng(25)
        pose = rng.normal(scale=0.5, size=(3, model.pose_dim))
        betas = rng.normal(size=(3, 10))
        glob = rng.normal(scale=0.8, size=(3, 3))
        np.testing.assert_allclose(bm.lbs_vertices(model, pose, betas, glob),
                                   lbs_per_joint_loop(model, pose, betas, glob),
                                   rtol=0, atol=1e-12)


class TestRodrigues:
    def test_zero_gives_identity(self):
        np.testing.assert_allclose(bm.rodrigues(np.zeros(3)), np.eye(3), atol=1e-15)

    def test_quarter_turn_about_x(self):
        R = bm.rodrigues(np.array([np.pi / 2, 0.0, 0.0]))
        np.testing.assert_allclose(R @ np.array([0.0, 1.0, 0.0]), [0.0, 0.0, 1.0], atol=1e-12)

    def test_orthonormal_det_plus_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            aa = rng.uniform(-np.pi * 0.95, np.pi * 0.95, 3)
            R = np.asarray(bm.rodrigues(aa))
            np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-9)
            assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("angle", [0.0, 1e-9, 1e-5, 1e-4, 0.5, 1.7, np.pi - 1e-6, np.pi])
    def test_matches_scipy(self, angle):
        axes = np.random.default_rng(1).normal(size=(20, 3))
        aa = angle * axes / np.linalg.norm(axes, axis=1, keepdims=True)
        np.testing.assert_allclose(bm.rodrigues(aa), Rotation.from_rotvec(aa).as_matrix(),
                                   rtol=0, atol=1e-12)

    def test_batched_matches_scipy(self):
        aa = np.random.default_rng(2).uniform(-2.0, 2.0, (4, 5, 3))
        want = Rotation.from_rotvec(aa.reshape(-1, 3)).as_matrix().reshape(4, 5, 3, 3)
        np.testing.assert_allclose(bm.rodrigues(aa), want, rtol=0, atol=1e-12)

    def test_gradient_matches_fd_incl_origin(self):
        def f(xs):
            R = bm.rodrigues(ad.stack(xs, axis=-1))
            return ad.sum_(R * np.arange(9.0).reshape(3, 3))

        assert grad_check(f, [0.3, -0.2, 0.9]) < 1e-6
        assert grad_check(f, [0.0, 0.0, 0.0]) < 1e-6

    def test_batched_shape(self):
        aa = np.zeros((4, 5, 3))
        assert np.asarray(bm.rodrigues(aa)).shape == (4, 5, 3, 3)


class TestForward:
    def test_neutral_pose_is_template_exact(self, toy):
        verts = bm.forward(toy, np.zeros(toy.pose_dim), np.zeros(10), np.zeros(3))
        np.testing.assert_array_equal(verts, toy.template_vertices)

    def test_shape_basis_is_linear(self, toy):
        e1 = np.zeros(10)
        e1[0] = 1.0
        verts = bm.forward(toy, np.zeros(toy.pose_dim), e1, np.zeros(3))
        np.testing.assert_allclose(
            verts, toy.template_vertices + toy.shape_basis[:, :, 0], atol=1e-12
        )

    def test_global_rotation_is_rigid_transform(self, toy):
        # rigid-transform oracle: rotate the neutral mesh about the root pivot
        gamma = np.array([0.0, np.pi, 0.0])
        verts = bm.forward(toy, np.zeros(toy.pose_dim), np.zeros(10), gamma)
        R = np.asarray(bm.rodrigues(gamma))
        root = toy.skeleton_regressor[0] @ toy.template_vertices
        expected = (toy.template_vertices - root) @ R.T + root
        np.testing.assert_allclose(verts, expected, atol=1e-9)

    def test_additivity_in_shape_at_zero_pose(self, toy):
        rng = np.random.default_rng(2)
        b1, b2 = rng.normal(size=10), rng.normal(size=10)
        zero = np.zeros(toy.pose_dim)
        g = np.zeros(3)
        f = lambda b: bm.forward(toy, zero, b, g)
        lhs = f(b1 + b2) - f(b1)
        rhs = f(b2) - f(np.zeros(10))
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_rigid_equivariance_of_root_rotation(self, toy):
        rng = np.random.default_rng(3)
        pose = rng.normal(scale=0.2, size=toy.pose_dim)
        betas = rng.normal(size=10)
        gamma = rng.normal(scale=0.4, size=3)
        rho = rng.normal(scale=0.4, size=3)
        composed = (Rotation.from_rotvec(rho) * Rotation.from_rotvec(gamma)).as_rotvec()

        v1 = bm.forward(toy, pose, betas, composed)
        v0 = bm.forward(toy, pose, betas, gamma)
        root = toy.skeleton_regressor[0] @ (
            toy.template_vertices + toy.shape_basis @ betas
        )
        R = np.asarray(bm.rodrigues(rho))
        np.testing.assert_allclose(v1, (v0 - root) @ R.T + root, atol=1e-9)

    def test_dimension_mismatch_rejected(self, toy):
        with pytest.raises(ValueError):
            bm.forward(toy, np.zeros(toy.pose_dim + 1), np.zeros(10), np.zeros(3))
        with pytest.raises(ValueError):
            bm.forward(toy, np.zeros(toy.pose_dim), np.zeros(9), np.zeros(3))

    def test_width_rejected_with_the_lbs_message(self):
        # forward checks only that each input is 1-D; lbs_vertices states the widths
        model = bm.generate_toy_model(4, 200, 12)
        with pytest.raises(ValueError, match=re.escape("pose has shape (1, 5), the body model "
                                                       "needs (B, 33)")):
            bm.forward(model, np.zeros(5), np.zeros(10), np.zeros(3))
        with pytest.raises(ValueError, match=re.escape("shape has shape (1, 4)")):
            bm.forward(model, np.zeros(33), np.zeros(4), np.zeros(3))
        with pytest.raises(ValueError, match=re.escape("pose must be 1-D, got shape (1, 33)")):
            bm.forward(model, np.zeros((1, 33)), np.zeros(10), np.zeros(3))

    def test_jacobians_match_finite_differences(self):
        # directional derivative probe over 20 random configurations
        model = bm.generate_toy_model(seed=5, num_vertices=120, num_joints=8)
        rng = np.random.default_rng(4)
        P = model.pose_dim
        worst = 0.0
        for _ in range(20):
            pose = rng.normal(scale=0.3, size=P)
            betas = rng.normal(scale=1.0, size=10)
            gamma = rng.normal(scale=0.5, size=3)
            probe = rng.normal(size=(model.num_vertices, 3))

            def f(xs):
                p = ad.stack(xs[:P])
                b = ad.stack(xs[P : P + 10])
                g = ad.stack(xs[P + 10 :])
                verts = bm.forward(model, p, b, g)
                return ad.sum_(verts * probe)

            x0 = np.concatenate([pose, betas, gamma])
            worst = max(worst, grad_check(f, x0, step=1e-5))
        assert worst < 1e-4


class TestBatchedLBS:
    @pytest.mark.parametrize("V,J", [(120, 16), (600, 24)])
    def test_matches_per_joint_loop(self, V, J):
        model = bm.generate_toy_model(seed=6, num_vertices=V, num_joints=J)
        rng = np.random.default_rng(12)
        B = 5
        pose = rng.normal(scale=0.5, size=(B, model.pose_dim))
        betas = rng.normal(size=(B, 10))
        glob = rng.normal(scale=0.8, size=(B, 3))
        got = bm.lbs_vertices(model, pose, betas, glob)
        np.testing.assert_allclose(got, lbs_per_joint_loop(model, pose, betas, glob),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("B", [1, 19])
    def test_matches_per_joint_loop_at_smpl_size(self, B):
        model = bm.generate_toy_model(seed=0, num_vertices=6890, num_joints=24)
        rng = np.random.default_rng(31)
        pose = rng.normal(scale=0.5, size=(B, model.pose_dim))
        betas = rng.normal(size=(B, 10))
        glob = rng.normal(scale=0.8, size=(B, 3))
        got = bm.lbs_vertices(model, pose, betas, glob)
        assert got.shape == (B, model.num_vertices, 3) and got.flags.c_contiguous
        np.testing.assert_allclose(got, lbs_per_joint_loop(model, pose, betas, glob),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("widths,message", [
        ((5, 10, 3), "pose has shape (2, 5), the body model needs (B, 33)"),
        ((33, 4, 3), "shape has shape (2, 4), the body model needs (B, 10)"),
        ((33, 10, 2), "global rotation has shape (2, 2), the body model needs (B, 3)"),
    ])
    def test_width_mismatch_rejected(self, widths, message):
        model = bm.generate_toy_model(4, 200, 12)
        args = [np.zeros((2, width)) for width in widths]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            bm.lbs_vertices(model, *args)
        tape = ad.Tape()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            bm.lbs_vertices(model, *[tape.variable(a) for a in args])
        with pytest.raises(ValueError, match=r"^pose has shape \(33,\)"):
            bm.lbs_vertices(model, np.zeros(33), np.zeros((1, 10)), np.zeros((1, 3)))

    @pytest.mark.parametrize("batch", [(2, 3, 2), (2, 2, 1), (1, 2, 2)])
    def test_batch_size_mismatch_rejected(self, batch):
        model = bm.generate_toy_model(4, 200, 12)
        args = [np.zeros((n, width)) for n, width in zip(batch, (33, 10, 3))]
        with pytest.raises(ValueError, match=re.escape(f"batch sizes {list(batch)}")):
            bm.lbs_vertices(model, *args)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("arg", [0, 1, 2], ids=["pose", "shape", "glob"])
    def test_non_finite_value_rejected(self, arg, bad):
        # unchecked, a NaN global rotation gave all-NaN vertices and an
        # infinite shape coefficient NaN in every vertex, with no error
        model = bm.generate_toy_model(4, 200, 12)
        args = [np.zeros((2, width)) for width in (33, 10, 3)]
        args[arg][1, -1] = bad
        message = "^pose, shape and global rotation must be finite$"
        with pytest.raises(ValueError, match=message):
            bm.lbs_vertices(model, *args)
        tape = ad.Tape()
        with pytest.raises(ValueError, match=message):
            bm.lbs_vertices(model, *[tape.variable(a) for a in args])
        with pytest.raises(ValueError, match=message):
            bm.forward(model, *(a[1] for a in args))

    def test_is_the_component_major_core_transposed(self, toy):
        rng = np.random.default_rng(35)
        args = [rng.normal(scale=0.5, size=(4, width)) for width in (toy.pose_dim, 10, 3)]
        core = bm._skinned_components(toy, *args)
        assert core.shape == (4, 3, toy.num_vertices)
        got = bm.lbs_vertices(toy, *args)
        assert type(got) is np.ndarray and got.flags.c_contiguous
        np.testing.assert_array_equal(got, core.transpose(0, 2, 1))
        tape = ad.Tape()
        taped = bm.lbs_vertices(toy, *[tape.variable(a) for a in args])
        taped_core = bm._skinned_components(toy, *[tape.variable(a) for a in args])
        np.testing.assert_array_equal(taped.value, got)
        np.testing.assert_array_equal(taped_core.value, core)

    @pytest.mark.parametrize("seed,V,J,nodes", [(4, 200, 12, 67), (11, 300, 16, 70),
                                                (0, 600, 24, 82)])
    def test_tape_nodes_per_call(self, seed, V, J, nodes):
        # 55 nodes plus three per tree level (4, 5 and 9 levels here), the
        # count from when `lbs_vertices` held the skinning itself: its one
        # own node is the transpose of `_skinned_components`
        model = bm.generate_toy_model(seed=seed, num_vertices=V, num_joints=J)
        rng = np.random.default_rng(5)
        tape = ad.Tape()
        args = [tape.variable(rng.normal(scale=0.3, size=(3, width)))
                for width in (model.pose_dim, model.shape_dim, 3)]
        bm.lbs_vertices(model, *args)
        assert len(tape.nodes) - len(args) == nodes

    def test_zero_pose_is_shaped_template_exact(self, toy):
        betas = np.random.default_rng(13).normal(size=(5, 10))
        zero = np.zeros((5, toy.pose_dim))
        got = bm.lbs_vertices(toy, zero, betas, np.zeros((5, 3)))
        np.testing.assert_array_equal(got, bm.shaped_template(toy, betas))

    def test_numpy_peak_memory_per_vertex(self):
        # the per-vertex blend is (B, 9, V) and must not outlive its apply:
        # the peak stays below 18 float64 per (batch, vertex)
        model = bm.generate_toy_model(seed=0, num_vertices=600, num_joints=24)
        assert lbs_peak_per_vertex(model, 100, np.random.default_rng(14)) <= 18.0

    def test_numpy_peak_memory_at_smpl_size(self):
        model = bm.generate_toy_model(seed=0, num_vertices=6890, num_joints=24)
        for name in ("skinning", "joint_basis", "tree"):
            getattr(model, name)  # built once per model, so not part of a call's peak
        assert lbs_peak_per_vertex(model, 19, np.random.default_rng(32)) <= 18.0


def lbs_peak_per_vertex(model, B, rng) -> float:
    """The tracemalloc peak of one untaped `bm.lbs_vertices` call on B
    random bodies, in float64 per (batch, vertex)."""
    pose = rng.normal(scale=0.3, size=(B, model.pose_dim))
    betas = rng.normal(size=(B, 10))
    glob = rng.normal(scale=0.3, size=(B, 3))
    tracemalloc.start()
    try:
        bm.lbs_vertices(model, pose, betas, glob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * B * model.num_vertices)


class TestRegressJoints:
    def test_one_hot_row_selects_vertex(self, toy):
        verts = bm.shaped_template(toy, np.zeros(10))
        row = np.zeros(toy.num_vertices)
        row[7] = 1.0
        model2 = dataclasses.replace(toy, joint_regressor=np.vstack([row, toy.joint_regressor[1:]]))
        joints = bm.regress_joints(model2, verts)
        np.testing.assert_allclose(joints[0], verts[7])

    def test_uniform_row_gives_centroid(self, toy):
        verts = bm.shaped_template(toy, np.zeros(10))
        # one keypoint: its name, attachment and no left/right pairs go with it
        model2 = dataclasses.replace(
            toy, joint_regressor=np.full((1, toy.num_vertices), 1.0 / toy.num_vertices),
            keypoint_names=toy.keypoint_names[:1], keypoint_attach=toy.keypoint_attach[:1],
            meta=dict(toy.meta, lr_swap_pairs=[]),
        )
        joints = bm.regress_joints(model2, verts)
        np.testing.assert_allclose(joints[0], verts.mean(axis=0), atol=1e-12)

    def test_neutral_joints_inside_bounding_box(self, toy):
        verts = bm.shaped_template(toy, np.zeros(10))
        joints = bm.regress_joints(toy, verts)
        lo, hi = verts.min(axis=0), verts.max(axis=0)
        assert np.all(joints >= lo - 1e-9) and np.all(joints <= hi + 1e-9)

    def test_batch_matches_per_body(self, toy):
        rng = np.random.default_rng(15)
        n = 4
        verts = bm.lbs_vertices(toy, rng.normal(scale=0.3, size=(n, toy.pose_dim)),
                                rng.normal(size=(n, 10)), rng.normal(scale=0.3, size=(n, 3)))
        got = bm.regress_joints(toy, verts)
        assert got.shape == (n, toy.num_keypoints, 3)
        for k in range(n):
            np.testing.assert_array_equal(got[k], bm.regress_joints(toy, verts[k]))

    def test_vertex_count_mismatch(self, toy):
        with pytest.raises(ValueError):
            bm.regress_joints(toy, np.zeros((toy.num_vertices + 1, 3)))


class TestKeypointRig:
    @pytest.mark.parametrize("budget", [(0, 6890, 24), (0, 600, 16), (3, 150, 12),
                                        (5, 120, 8), (0, 50, 8), (11, 300, 16)])
    def test_matches_reduced_model(self, budget):
        model = bm.generate_toy_model(*budget)
        rig = model.keypoint_rig
        vertices, layout, regressor = reduced_for_keypoints(model)
        np.testing.assert_array_equal(rig.vertices, vertices)
        for got, want in zip(rig.layout + (rig.regressor,), layout + (regressor,)):
            assert got.dtype == want.dtype and got.flags.c_contiguous
            np.testing.assert_array_equal(got, want)
        if budget[1] == 6890:
            assert len(rig.vertices) < model.num_vertices // 10
            assert len(rig.layout.joints) < model.num_joints
        rng = np.random.default_rng(budget[0] + budget[1])
        args = (rng.normal(scale=0.5, size=(5, model.pose_dim)), rng.normal(size=(5, 10)),
                rng.normal(scale=0.8, size=(5, 3)))
        for got, want in zip(keypoints_and_gradients(model, args, bm.posed_keypoints),
                             keypoints_and_gradients(model, args, keypoints_of_mesh)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_built_on_first_use_once_per_model(self):
        model = bm.generate_toy_model(seed=11, num_vertices=300, num_joints=16)
        assert "keypoint_rig" not in vars(model) and "tree" not in vars(model)
        rig = model.keypoint_rig
        assert model.keypoint_rig is rig
        fresh = dataclasses.replace(model)
        assert "keypoint_rig" not in vars(fresh)
        assert fresh.keypoint_rig is not rig and fresh.tree is not model.tree
        for got, want in zip(fresh.keypoint_rig.layout + (fresh.keypoint_rig.regressor,),
                             rig.layout + (rig.regressor,)):
            np.testing.assert_array_equal(got, want)

    def test_posed_keypoints_pose_the_rig(self):
        model = bm.generate_toy_model(seed=6, num_vertices=600, num_joints=24)
        rng = np.random.default_rng(26)
        args = (rng.normal(scale=0.5, size=(4, model.pose_dim)), rng.normal(size=(4, 10)),
                rng.normal(scale=0.8, size=(4, 3)))
        got = bm.posed_keypoints(model, *args)
        _, layout, regressor = reduced_for_keypoints(model)
        rot_delta, trans = bm._joint_transforms(model, *args)
        posed = bm._skin_components(layout, args[1], *(np.ascontiguousarray(t[:, layout.joints])
                                                       for t in (rot_delta, trans)))
        np.testing.assert_array_equal(got, np.einsum("bkv,lv->blk", posed, regressor))
        np.testing.assert_allclose(got, bm.regress_joints(model, bm.lbs_vertices(model, *args)),
                                   rtol=0, atol=1e-12)

    def test_rig_of_one_part_poses_like_the_mesh(self):
        # regressors that read torso vertices only cut the rig down to one
        # part and to the one joint that skins those vertices, which poses
        # them with the whole mesh's bits
        model = bm.generate_toy_model(seed=0, num_vertices=600, num_joints=16)
        torso = np.flatnonzero(model.part_labels == model.part_names.index("torso"))

        def one_hot(rows):
            out = np.zeros((rows, model.num_vertices))
            out[np.arange(rows), torso[:rows]] = 1.0
            return out

        model = dataclasses.replace(model, joint_regressor=one_hot(model.num_keypoints),
                                    skeleton_regressor=one_hot(model.num_joints))
        rig = model.keypoint_rig
        np.testing.assert_array_equal(rig.vertices, torso[:model.num_keypoints])
        assert len(rig.layout.joints) == 1
        rng = np.random.default_rng(27)
        args = (rng.normal(scale=0.5, size=(2, model.pose_dim)), rng.normal(size=(2, 10)),
                rng.normal(scale=0.8, size=(2, 3)))
        np.testing.assert_array_equal(bm.posed_keypoints(model, *args),
                                      keypoints_of_mesh(model, *args))
        for got, want in zip(keypoints_and_gradients(model, args, bm.posed_keypoints),
                             keypoints_and_gradients(model, args, keypoints_of_mesh)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_fewer_than_six_part_names_rejected(self, toy):
        with pytest.raises(ValueError, match="at least 6 body parts"):
            dataclasses.replace(toy, part_names=toy.part_names[:5],
                                part_labels=np.minimum(toy.part_labels, 4))


def pivots_from_basis(model, betas) -> np.ndarray:
    """The (B, J, 3) rest pivots of (B, S) shape vectors, as `bm.lbs_vertices`
    takes them from the model's joint basis."""
    basis = model.joint_basis
    return basis.rest + (betas @ basis.shape).reshape(len(betas), model.num_joints, 3)


class TestJointBasis:
    @pytest.mark.parametrize("budget", [(0, 6890, 24), (0, 600, 16), (3, 150, 12),
                                        (5, 120, 8), (0, 50, 8)])
    def test_matches_regressed_shaped_template(self, budget):
        model = bm.generate_toy_model(*budget)
        betas = np.random.default_rng(28).normal(scale=2.0, size=(6, model.shape_dim))
        basis = model.joint_basis
        assert basis.rest.shape == (model.num_joints, 3)
        assert basis.shape.shape == (model.shape_dim, 3 * model.num_joints)
        want = model.skeleton_regressor @ bm.shaped_template(model, betas)
        np.testing.assert_allclose(pivots_from_basis(model, betas), want, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(pivots_from_basis(model, np.zeros((1, model.shape_dim)))[0],
                                      model.skeleton_regressor @ model.template_vertices)

    def test_matches_after_save_and_load(self, toy, tmp_path):
        path = tmp_path / "model.sfc"
        bm.save_model(path, toy)
        loaded = bm.load_model(path)
        assert "joint_basis" not in vars(loaded)
        betas = np.random.default_rng(29).normal(size=(4, toy.shape_dim))
        want = loaded.skeleton_regressor @ bm.shaped_template(loaded, betas)
        np.testing.assert_allclose(pivots_from_basis(loaded, betas), want, rtol=0, atol=1e-12)
        for got, expected in zip(loaded.joint_basis, toy.joint_basis):
            np.testing.assert_array_equal(got, expected)

    def test_built_on_first_use_once_per_model(self):
        model = bm.generate_toy_model(seed=11, num_vertices=300, num_joints=16)
        assert "joint_basis" not in vars(model)
        rng = np.random.default_rng(30)
        args = (rng.normal(scale=0.3, size=(2, model.pose_dim)), rng.normal(size=(2, 10)),
                rng.normal(scale=0.3, size=(2, 3)))
        bm.lbs_vertices(model, *args)
        basis = vars(model)["joint_basis"]
        bm.lbs_vertices(model, *args)
        assert model.joint_basis is basis
        fresh = dataclasses.replace(model)
        assert "joint_basis" not in vars(fresh)
        assert fresh.joint_basis is not basis
        for got, expected in zip(fresh.joint_basis, basis):
            np.testing.assert_array_equal(got, expected)


class TestSkinningLayout:
    @pytest.mark.parametrize("budget", [(0, 6890, 24), (3, 150, 12), (0, 50, 8)])
    def test_is_the_model_component_major(self, budget):
        model = bm.generate_toy_model(*budget)
        layout = model.skinning
        V, S = model.num_vertices, model.shape_dim
        np.testing.assert_array_equal(layout.weights, model.skinning_weights.T)
        np.testing.assert_array_equal(layout.template, model.template_vertices.T)
        assert layout.shape.shape == (S, 3 * V)
        for c in range(3):
            np.testing.assert_array_equal(layout.shape[:, c * V:(c + 1) * V],
                                          model.shape_basis[:, c, :].T)
        assert all(a.flags.c_contiguous for a in layout)

    def test_built_on_first_use_once_per_model(self):
        model = bm.generate_toy_model(seed=11, num_vertices=300, num_joints=16)
        assert "skinning" not in vars(model)
        rng = np.random.default_rng(33)
        args = (rng.normal(scale=0.3, size=(2, model.pose_dim)), rng.normal(size=(2, 10)),
                rng.normal(scale=0.3, size=(2, 3)))
        bm.lbs_vertices(model, *args)
        layout = vars(model)["skinning"]
        bm.lbs_vertices(model, *args)
        bm.shaped_template(model, args[1])
        assert model.skinning is layout
        fresh = dataclasses.replace(model)
        assert "skinning" not in vars(fresh)
        assert fresh.skinning is not layout
        for got, expected in zip(fresh.skinning, layout):
            np.testing.assert_array_equal(got, expected)


class TestSkinningTiles:
    """`BodyModel.skinning_groups`: the vertices grouped by support set,
    each group cut into tiles of at most the width."""

    @pytest.mark.parametrize("width", [1, 7, 64, 599, 600, 1000])
    def test_tiles_partition_the_vertices_over_their_supports(self, width):
        model = bm.generate_toy_model(seed=3, num_vertices=600, num_joints=24)
        assert "_support_groups" not in vars(model)
        tiles = model.skinning_groups(width)
        groups = vars(model)["_support_groups"]
        V, S = model.num_vertices, model.shape_dim
        np.testing.assert_array_equal(np.sort(np.concatenate([v for v, _ in tiles])),
                                      np.arange(V))
        nonzero = model.skinning_weights != 0
        supports = []
        for vertices, layout in tiles:
            assert 0 < len(vertices) <= width and np.all(np.diff(vertices) > 0)
            assert vertices.flags.c_contiguous and all(a.flags.c_contiguous for a in layout)
            # one support set per tile
            assert (nonzero[vertices] == nonzero[vertices[0]]).all()
            np.testing.assert_array_equal(layout.joints, np.flatnonzero(nonzero[vertices[0]]))
            weights = model.skinning_weights[vertices]
            np.testing.assert_array_equal(layout.weights, weights[:, layout.joints].T)
            np.testing.assert_array_equal(layout.template, model.template_vertices[vertices].T)
            np.testing.assert_array_equal(
                layout.shape.reshape(S, 3, len(vertices)),
                model.shape_basis[vertices].transpose(2, 1, 0))
            assert layout.rigid == (len(layout.joints) == 1)
            if layout.rigid:
                assert (layout.weights == 1.0).all()
            if not supports or supports[-1][0] != tuple(layout.joints):
                supports.append((tuple(layout.joints), []))
            supports[-1][1].append(vertices)
        # each group's tiles run together, ascending, as full tiles then one
        # shorter, and hold all its vertices
        assert len({joints for joints, _ in supports}) == len(supports) == len(groups)
        for (_, run), group in zip(supports, groups):
            np.testing.assert_array_equal(np.concatenate(run), group)
            assert [len(v) for v in run[:-1]] == [width] * (len(run) - 1)
        assert model.skinning_groups(width) is tiles
        # a model keeps the tiles of one width, and builds its groups once
        assert model.skinning_groups(width + 1) is not tiles
        assert vars(model)["_tiles"].keys() == {width + 1}
        assert vars(model)["_support_groups"] is groups
        fresh = dataclasses.replace(model)
        assert "_support_groups" not in vars(fresh) and "_tiles" not in vars(fresh)
        np.testing.assert_array_equal(model.skinning.joints, np.arange(model.num_joints))
        assert len(model.skinning.joints) == 24 > max(len(layout.joints) for _, layout in tiles)

    @pytest.mark.parametrize("width", [0, -1, 2.0, True])
    def test_width_must_be_a_positive_int(self, toy, width):
        with pytest.raises(ValueError, match="tile width must be an int >= 1"):
            toy.skinning_groups(width)

    @pytest.mark.parametrize("width", [37, 600])
    def test_buffered_skin_is_bit_identical(self, toy, width):
        rng = np.random.default_rng(36)
        B = 5
        args = [rng.normal(scale=0.5, size=(B, w)) for w in (toy.pose_dim, 10, 3)]
        rot_delta, trans = bm._joint_transforms(toy, *args)
        for vertices, layout in toy.skinning_groups(width):
            columns = [np.take(m, layout.joints, axis=1) for m in (rot_delta, trans)]
            want = bm._skin_components(layout, args[1], *columns)
            out = np.full((2, B, 3, len(vertices)), np.nan)
            got = bm._skin_components(layout, args[1], *columns, out=out)
            assert got is out[1] or np.shares_memory(got, out[1])
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(out[0], bm._shaped_components(layout, args[1]))
            np.testing.assert_allclose(
                got, bm.lbs_vertices(toy, *args).transpose(0, 2, 1)[..., vertices],
                rtol=0, atol=1e-14)

    @pytest.mark.parametrize("draws", ["random", "rest"])
    def test_rigid_apply_equals_the_blend_bit_for_bit(self, draws):
        # every one-joint tile at benchmark size skips the (B*9, 1) @ (1, Vt)
        # blend; the broadcast of its joint's 3x3 keeps the blend's bits,
        # signed zeros included, also at the rest pose, where R - I is 0
        model = bm.generate_toy_model(seed=0, num_vertices=6890, num_joints=24)
        rng = np.random.default_rng(37)
        B = 100
        pose, glob = (rng.normal(scale=0.5, size=(B, w)) for w in (model.pose_dim, 3))
        if draws == "rest":
            pose, glob = np.zeros_like(pose), np.zeros_like(glob)
        betas = rng.normal(size=(B, 10))
        rot_delta, trans = bm._joint_transforms(model, pose, betas, glob)
        if draws == "rest":
            assert not rot_delta.any() and not trans.any()
        rigid = 0
        for vertices, layout in model.skinning_groups(163):  # the width at 100 draws
            if len(layout.joints) > 1:
                continue
            assert layout.rigid
            rigid += 1
            columns = [np.take(m, layout.joints, axis=1) for m in (rot_delta, trans)]
            want = bm._skin_components(layout, betas, *columns)
            out = np.full((2, B, 3, len(vertices)), np.nan)
            got = bm._skin_components(layout, betas, *columns, out=out)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        assert rigid == 33

    def test_one_joint_below_weight_one_is_blended(self, toy):
        # a one-joint vertex whose weight only sums to 1 within the model's
        # tolerance keeps its blend, so the out= path still equals the product
        vertices, layout = next((v, t) for v, t in toy.skinning_groups(16) if t.rigid)
        near = layout._replace(weights=np.nextafter(layout.weights, 0.0))
        assert not near.rigid
        rng = np.random.default_rng(38)
        args = [rng.normal(scale=0.5, size=(3, w)) for w in (toy.pose_dim, 10, 3)]
        columns = [np.take(m, layout.joints, axis=1) for m in bm._joint_transforms(toy, *args)]
        want = bm._skin_components(near, args[1], *columns)
        got = bm._skin_components(near, args[1], *columns,
                                  out=np.empty((2, 3, 3, len(vertices))))
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        assert not np.array_equal(want, bm._skin_components(layout, args[1], *columns))


class TestNeutralPose:
    """The neutral (T-pose) body of one shape vector: `shaped_template` on (S,)."""

    def test_matches_forward_zero(self, toy):
        betas = np.full(10, 0.5)
        a = bm.shaped_template(toy, betas)
        b = bm.forward(toy, np.zeros(toy.pose_dim), betas, np.zeros(3))
        np.testing.assert_array_equal(a, b)

    def test_matches_batched_form(self, toy):
        # a one-row and a six-row product may take different BLAS kernels,
        # so the two forms agree to the last bit of a coordinate, not exactly
        betas = np.random.default_rng(16).normal(size=(2, 3, 10))
        batched = bm.shaped_template(toy, betas)
        assert batched.shape == (2, 3, toy.num_vertices, 3)
        for i in range(2):
            for j in range(3):
                np.testing.assert_allclose(bm.shaped_template(toy, betas[i, j]), batched[i, j],
                                           rtol=0, atol=1e-15)

    def test_second_basis_direction(self, toy):
        e2 = np.zeros(10)
        e2[1] = 1.0
        verts = bm.shaped_template(toy, e2)
        np.testing.assert_allclose(
            verts, toy.template_vertices + toy.shape_basis[:, :, 1], atol=1e-12
        )

    def test_height_positive(self, toy):
        verts = bm.shaped_template(toy, np.zeros(10))
        assert verts[:, 1].max() - verts[:, 1].min() > 0


class TestToyGenerator:
    def test_same_seed_identical(self):
        m1 = bm.generate_toy_model(seed=3, num_vertices=150, num_joints=12)
        m2 = bm.generate_toy_model(seed=3, num_vertices=150, num_joints=12)
        np.testing.assert_array_equal(m1.template_vertices, m2.template_vertices)
        np.testing.assert_array_equal(m1.skinning_weights, m2.skinning_weights)
        np.testing.assert_array_equal(m1.shape_basis, m2.shape_basis)

    def test_different_seed_differs(self):
        m1 = bm.generate_toy_model(seed=3, num_vertices=150)
        m2 = bm.generate_toy_model(seed=4, num_vertices=150)
        assert not np.array_equal(m1.template_vertices, m2.template_vertices)

    @pytest.mark.parametrize("V,J", [(600, 16), (600, 24), (120, 8), (50, 9)])
    def test_invariants_across_budgets(self, V, J):
        model = bm.generate_toy_model(seed=7, num_vertices=V, num_joints=J)
        dataclasses.replace(model)  # builds again, so passes every check again
        assert model.num_vertices == V
        assert model.num_joints == J
        assert model.num_keypoints == 17
        assert model.pose_dim == 3 * (J - 1)

    def test_24_joint_model_has_69_pose_dims(self):
        model = bm.generate_toy_model(seed=0, num_vertices=120, num_joints=24)
        assert model.pose_dim == 69

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            bm.generate_toy_model(seed=0, num_vertices=10)
        with pytest.raises(ValueError):
            bm.generate_toy_model(seed=0, num_vertices=100, num_joints=4)
        with pytest.raises(ValueError, match="num_vertices"):
            bm.generate_toy_model(seed=0, num_vertices=600.5)
        with pytest.raises(ValueError, match="num_joints"):
            bm.generate_toy_model(seed=0, num_joints=16.0)
        with pytest.raises(ValueError, match="num_joints"):
            bm.generate_toy_model(seed=0, num_joints=True)

    @pytest.mark.parametrize("seed", [1.5, True, "0"])
    def test_non_int_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            bm.generate_toy_model(seed=seed, num_vertices=120)

    @pytest.mark.parametrize("segs,rings,a,b,radius,scales", [
        (14, 9, (0.0, -0.12, 0.0), (0.0, 0.5, 0.0), 0.11, (1.35, 0.8)),  # upright: frame from z
        (7, 5, (0.17, 0.44, 0.0), (0.42, 0.44, 0.0), 0.04, (1.0, 1.0)),  # sideways: frame from x
        (5, 4, (0.11, -0.87, 0.0), (0.11, -0.92, 0.1), 0.03, (1.0, 1.2)),
        (3, 1, (0.0, 0.0, 0.0), (0.3, 0.2, 0.1), 0.06, (1.0, 1.0)),
        # the head of generate_toy_model(25, 841, 12): the square of its last
        # ring's cap fraction differs in the last bit between x * x and pow
        (9, 10, (0.0, 0.6428999999999999, 0.0), (0.0, 0.7689999999999999, 0.0),
         0.08245000000000001, (1.0, 1.05)),
    ])
    def test_capsule_matches_per_vertex_build(self, segs, rings, a, b, radius, scales):
        got = bm._capsule_mesh(segs, rings, a, b, radius, scales, np.random.default_rng(segs))
        want = capsule_mesh_per_vertex(segs, rings, a, b, radius, scales,
                                       np.random.default_rng(segs))
        assert got[1].dtype == np.int64
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    # generate_toy_model output at five (seed, V, J) budgets. The integer
    # arrays, the name tuples and the metadata are pinned by a sha256; each
    # float array, whose last bits may depend on the numpy build, by its sum
    # and its position-weighted sum at a tight tolerance.
    GOLDEN = {
        (0, 6890, 24): ("dc4965689d2dd9bad5c7dd6a7feab98dedb1cdac4ae5f608bf4c1e2984697706", dict(
            template_vertices=(1358.8038008251506, 1641.24701495775),
            shape_basis=(128.29091090098444, 175.4893194672328),
            joint_regressor=(17.0, 25.581868927917697),
            skeleton_regressor=(24.0, 36.07522446651899),
            skinning_weights=(6890.0, 10334.863249745093))),
        (0, 600, 16): ("a55651d9317080e21084d03eb9105a6f9c12ee818ca6446ed42135c2709c62f7", dict(
            template_vertices=(126.05613712355637, 159.93030662649835),
            shape_basis=(11.621390502877164, 16.30551108072162),
            joint_regressor=(17.0, 25.528208338172053),
            skeleton_regressor=(16.0, 24.077883000202814),
            skinning_weights=(600.0, 899.8408993921196))),
        (3, 150, 12): ("d77e4a5c7c4c780d1f94680494ee986472c1f5ad749386ba9ec5bf7b8eaff415", dict(
            template_vertices=(24.05983274575408, 26.071125741968505),
            shape_basis=(2.445784834489986, 3.224550162208797),
            joint_regressor=(17.0, 25.513088957744777),
            skeleton_regressor=(12.0, 17.975206068643146),
            skinning_weights=(150.0, 224.92707150230854))),
        (5, 120, 8): ("837d05d113d8734e573c5d08ce1b54bfff7b2750897d18e39100bf354157e9f4", dict(
            template_vertices=(25.124880669141707, 32.29823531448641),
            shape_basis=(2.404840220165597, 3.4183089233748296),
            joint_regressor=(17.0, 25.51909680327484),
            skeleton_regressor=(8.0, 11.924319510303729),
            skinning_weights=(120.0, 179.97606708376782))),
        (0, 50, 8): ("99d04c49433c4f78cba67862e4a5aa20823a0e27cc2567fcd2e8c65cb9451b68", dict(
            template_vertices=(7.993263430284073, 5.836834205596837),
            shape_basis=(0.8392255897578347, 1.0169913645181692),
            joint_regressor=(17.0, 25.45711503161982),
            skeleton_regressor=(8.0, 11.855894002855702),
            skinning_weights=(50.0, 75.16430361618332))),
    }

    @pytest.mark.parametrize("budget", list(GOLDEN), ids=lambda b: "-".join(map(str, b)))
    def test_golden_model(self, budget):
        digest, float_sums = self.GOLDEN[budget]
        model = bm.generate_toy_model(*budget)
        exact = hashlib.sha256()
        sums = {}
        for f in dataclasses.fields(model):
            value = getattr(model, f.name)
            if not isinstance(value, np.ndarray):
                exact.update(json.dumps(value, sort_keys=True).encode())
            elif np.issubdtype(value.dtype, np.integer):
                exact.update(np.ascontiguousarray(value).tobytes())
            else:
                sums[f.name] = pinned_sums(value)
        assert exact.hexdigest() == digest
        assert sums.keys() == float_sums.keys()
        for name, want in float_sums.items():
            np.testing.assert_allclose(sums[name], want, rtol=1e-12, err_msg=name)


def mis_wound_faces(faces):
    faces = faces.copy()
    faces[0] = faces[0, ::-1]
    return faces


def write_damaged(path, model, **arrays):
    """Save `model`, then overwrite the named arrays in the file without
    building a model from them."""
    bm.save_model(path, model)
    saved, meta = read_container(path, expected_kind="body_model")
    write_container(path, "body_model", {**saved, **arrays}, meta)


class TestClosedSurface:
    def test_reoriented_surface_validates(self, toy):
        dataclasses.replace(toy, faces=toy.faces[:, [1, 2, 0]])
        dataclasses.replace(toy, faces=toy.faces[:, ::-1])

    @pytest.mark.parametrize("damage", [
        pytest.param(lambda faces: faces[1:], id="open"),
        pytest.param(mis_wound_faces, id="mis-wound"),
        pytest.param(lambda faces: np.concatenate([faces, faces[:1]]), id="duplicated-face"),
    ])
    def test_rejected_by_validate_and_load(self, toy, tmp_path, damage):
        with pytest.raises(ValueError, match="closed, consistently oriented"):
            dataclasses.replace(toy, faces=damage(toy.faces))
        path = tmp_path / "model.sfc"
        write_damaged(path, toy, faces=damage(toy.faces))
        with pytest.raises(ContainerError, match="closed, consistently oriented"):
            bm.load_model(path)

    def test_empty_face_set_validates(self, toy):
        dataclasses.replace(toy, faces=np.zeros((0, 3), dtype=np.int64))


def closed_oriented(faces, num_vertices):
    """Whether each directed edge of the faces occurs once and its reverse
    occurs once, by two sorts of the directed edge keys: the model check
    before the twin table."""
    faces = faces.astype(np.int64)
    tails, heads = faces.ravel(), faces[:, [1, 2, 0]].ravel()
    edges = np.sort(tails * num_vertices + heads)
    reverse = np.sort(heads * num_vertices + tails)
    return not np.any(edges[1:] == edges[:-1]) and np.array_equal(edges, reverse)


class TestEdgeTwins:
    def test_twin_of_the_twin_is_the_edge(self, toy):
        twins = toy.edge_twins
        assert twins.shape == toy.faces.shape and twins.min() >= 0
        faces = toy.faces
        f, k = np.meshgrid(np.arange(len(faces)), np.arange(3), indexing="ij")
        g = twins[f, k]
        tail, head = faces[f, k], faces[f, (k + 1) % 3]
        # the twin face holds the reverse edge head -> tail, at some corner j
        at = (faces[g] == head[..., None]) & (np.roll(faces[g], -1, axis=-1) == tail[..., None])
        assert np.all(at.sum(axis=-1) == 1)
        j = np.argmax(at, axis=-1)
        np.testing.assert_array_equal(twins[g, j], f)

    def test_built_once_on_first_use_and_not_copied(self, toy):
        model = dataclasses.replace(toy)
        assert "edge_twins" not in vars(model)
        assert model.edge_twins is model.edge_twins
        moved = dataclasses.replace(model, faces=model.faces[:, [1, 2, 0]])
        assert "edge_twins" not in vars(moved)
        np.testing.assert_array_equal(moved.edge_twins, model.edge_twins[:, [1, 2, 0]])

    @pytest.mark.parametrize("damage, closed", [
        pytest.param(lambda faces: faces, True, id="closed"),
        pytest.param(lambda faces: faces[1:], False, id="open"),
        pytest.param(lambda faces: np.concatenate([faces, faces[:1]]), False, id="duplicated-edge"),
        pytest.param(mis_wound_faces, False, id="flipped-face"),
        pytest.param(lambda faces: np.concatenate([faces, faces[:1, ::-1]]), False,
                     id="extra-reverse"),
        pytest.param(lambda faces: faces[:0], True, id="no-faces"),
        # an edge from a vertex to itself is its own reverse under both rules
        pytest.param(lambda faces: np.array([[0, 0, 1]]), True, id="repeated-corner"),
    ])
    def test_verdict_matches_the_two_sort_check(self, toy, damage, closed):
        faces = damage(toy.faces)
        twins = bm.edge_twins(faces)
        assert twins.shape == faces.shape
        assert closed_oriented(faces, toy.num_vertices) == closed
        assert np.all(twins >= 0) == closed
        assert bm._is_closed_oriented(faces) == closed

    def test_open_mesh_marks_the_boundary(self):
        # two triangles sharing one edge: that edge pair is twinned, the
        # four boundary edges are not
        faces = np.array([[0, 1, 2], [2, 1, 3]])
        np.testing.assert_array_equal(bm.edge_twins(faces), [[-1, 1, -1], [0, -1, -1]])


class TestIndexDtypes:
    @pytest.mark.parametrize("name", ["faces", "parents", "part_labels", "keypoint_attach"])
    def test_float_indices_rejected_by_validate_and_load(self, tmp_path, name):
        # these arrays index others; float64 faces would load and then make
        # the rasterizer raise IndexError
        model = bm.generate_toy_model(seed=3, num_vertices=150, num_joints=16)
        as_float = {name: getattr(model, name).astype(np.float64)}
        with pytest.raises(ValueError, match=f"{name} must hold integers"):
            dataclasses.replace(model, **as_float)
        path = tmp_path / "model.sfc"
        write_damaged(path, model, **as_float)
        with pytest.raises(ContainerError, match=f"{name} must hold integers"):
            bm.load_model(path)


class TestFrozen:
    def test_assignment_rejected(self, toy):
        with pytest.raises(dataclasses.FrozenInstanceError):
            toy.faces = toy.faces[:, ::-1]

    def test_replace_checks(self, toy):
        negative = toy.joint_regressor.copy()
        # a negative weight in a row that still sums to 1
        negative[0, :2] = [-1.0, 1.0 + negative[0, 0] + negative[0, 1]]
        with pytest.raises(ValueError, match="joint regressor has negative weights"):
            dataclasses.replace(toy, joint_regressor=negative)

    @pytest.mark.parametrize("pairs", [5, [3], [None]], ids=["int", "int-pair", "none-pair"])
    def test_replace_rejects_malformed_swap_pairs(self, toy, pairs):
        with pytest.raises(ValueError, match="swap pair"):
            dataclasses.replace(toy, meta=dict(toy.meta, lr_swap_pairs=pairs))


def edit_measurement(**changes):
    """An edit of the first measurement plane in a saved model's metadata."""
    def edit(arrays, meta):
        name = next(iter(meta["measurements"]))
        meta["measurements"][name] = {**meta["measurements"][name], **changes}
    return edit


class TestModelIO:
    def test_layout_matches_explicit_layout(self, toy, tmp_path):
        # the layout as it was written out by hand before it came from the fields
        arrays = {name: getattr(toy, name) for name in (
            "template_vertices", "shape_basis", "faces", "joint_regressor",
            "skeleton_regressor", "skinning_weights", "parents", "part_labels",
            "keypoint_attach",
        )}
        meta = dict(toy.meta, part_names=list(toy.part_names), joint_names=list(toy.joint_names),
                    keypoint_names=list(toy.keypoint_names))
        write_container(tmp_path / "explicit.sfc", "body_model", arrays, meta)
        bm.save_model(tmp_path / "model.sfc", toy)
        assert (tmp_path / "model.sfc").read_bytes() == (tmp_path / "explicit.sfc").read_bytes()

    def test_round_trip_bit_exact(self, toy, tmp_path):
        path = tmp_path / "model.sfc"
        bm.save_model(path, toy)
        loaded = bm.load_model(path)
        np.testing.assert_array_equal(loaded.template_vertices, toy.template_vertices)
        np.testing.assert_array_equal(loaded.shape_basis, toy.shape_basis)
        np.testing.assert_array_equal(loaded.skinning_weights, toy.skinning_weights)
        np.testing.assert_array_equal(loaded.parents, toy.parents)
        np.testing.assert_array_equal(loaded.faces, toy.faces)
        assert loaded.joint_names == toy.joint_names
        assert loaded.meta["measurements"] == toy.meta["measurements"]

    def test_truncated_file_rejected(self, toy, tmp_path):
        path = tmp_path / "model.sfc"
        bm.save_model(path, toy)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ContainerError):
            bm.load_model(path)

    def test_wrong_magic_rejected(self, toy, tmp_path):
        path = tmp_path / "model.sfc"
        bm.save_model(path, toy)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(ContainerError):
            bm.load_model(path)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda arrays, meta: meta.update(part_names=5), id="part-names-not-list"),
        pytest.param(lambda arrays, meta: meta.pop("joint_names"), id="no-joint-names"),
        pytest.param(lambda arrays, meta: arrays.update(shape_basis=arrays["shape_basis"][:, :, 0]),
                     id="shape-basis-2d"),
        pytest.param(lambda arrays, meta: meta.update(joint_names=meta["joint_names"][:3]),
                     id="joint-names-short"),
        pytest.param(lambda arrays, meta: meta.update(keypoint_names=meta["keypoint_names"][:2]),
                     id="keypoint-names-short"),
        pytest.param(lambda arrays, meta: meta.update(part_names=meta["part_names"][:2]),
                     id="part-label-beyond-part-names"),
        pytest.param(lambda arrays, meta: meta.update(lr_swap_pairs=[[0, 99]]),
                     id="swap-pair-out-of-range"),
        pytest.param(lambda arrays, meta: meta.update(lr_swap_pairs=[[True, 2]]),
                     id="swap-pair-bool"),
        pytest.param(lambda arrays, meta: meta.update(lr_swap_pairs=5), id="swap-pairs-int"),
        pytest.param(lambda arrays, meta: meta.update(lr_swap_pairs=[3]), id="swap-pair-int"),
        pytest.param(lambda arrays, meta: meta.update(lr_swap_pairs=[None]), id="swap-pair-none"),
        pytest.param(edit_measurement(axis="w"), id="measurement-axis"),
        pytest.param(edit_measurement(anchors=["pelvis", "tail"]), id="measurement-unknown-anchor"),
        pytest.param(edit_measurement(anchors=["pelvis"]), id="measurement-one-anchor"),
        pytest.param(edit_measurement(t="x"), id="measurement-t-string"),
        pytest.param(lambda arrays, meta: meta["measurements"].update(chest=3),
                     id="measurement-not-dict"),
        pytest.param(edit_measurement(parts=["torso", 1]), id="measurement-part-not-string"),
        pytest.param(lambda arrays, meta: meta.update(measurements=[]), id="measurements-list"),
        pytest.param(lambda arrays, meta: arrays.pop("faces"), id="missing-array"),
        pytest.param(lambda arrays, meta: arrays.update(extra=np.zeros(3)), id="unexpected-array"),
    ])
    def test_malformed_metadata_rejected(self, toy, tmp_path, edit):
        path = tmp_path / "model.sfc"
        bm.save_model(path, toy)
        arrays, meta = read_container(path, expected_kind="body_model")
        edit(arrays, meta)
        write_container(path, "body_model", arrays, meta)
        with pytest.raises(ContainerError, match="malformed body model"):
            bm.load_model(path)

    @pytest.mark.parametrize("name", ["template_vertices", "parents", "joint_regressor"])
    def test_zero_dim_array_rejected(self, toy, tmp_path, name):
        # write_container stores at least one dimension, so the header is
        # edited to give the one-element array none
        path = tmp_path / "model.sfc"
        write_damaged(path, toy, **{name: np.zeros(1, dtype=getattr(toy, name).dtype)})
        data = path.read_bytes()
        end = 12 + int.from_bytes(data[4:12], "little")
        header = json.loads(data[12:end])
        next(e for e in header["arrays"] if e["name"] == name)["shape"] = []
        header_bytes = json.dumps(header).encode()
        path.write_bytes(data[:4] + len(header_bytes).to_bytes(8, "little") + header_bytes
                         + data[end:])
        with pytest.raises(ContainerError, match="malformed body model"):
            bm.load_model(path)
