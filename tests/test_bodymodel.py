import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from shapefuse import autodiff as ad
from shapefuse import bodymodel as bm
from shapefuse.containerio import ContainerError, read_container, write_container

from gradcheck import grad_check


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

    def test_zero_pose_is_shaped_template_exact(self, toy):
        betas = np.random.default_rng(13).normal(size=(5, 10))
        zero = np.zeros((5, toy.pose_dim))
        got = bm.lbs_vertices(toy, zero, betas, np.zeros((5, 3)))
        np.testing.assert_array_equal(got, bm.shaped_template(toy, betas))

    def test_numpy_peak_memory_per_vertex(self):
        # the per-vertex blend is (B, V, 9) and must not outlive its apply:
        # the peak stays below 18 float64 per (batch, vertex)
        model = bm.generate_toy_model(seed=0, num_vertices=600, num_joints=24)
        rng = np.random.default_rng(14)
        B = 100
        pose = rng.normal(scale=0.3, size=(B, model.pose_dim))
        betas = rng.normal(size=(B, 10))
        glob = rng.normal(scale=0.3, size=(B, 3))
        tracemalloc.start()
        try:
            bm.lbs_vertices(model, pose, betas, glob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (8 * B * model.num_vertices) <= 18.0


class TestRegressJoints:
    def test_one_hot_row_selects_vertex(self, toy):
        verts = bm.shaped_template(toy, np.zeros(10))
        model2 = bm.BodyModel(**{**toy.__dict__})
        row = np.zeros(toy.num_vertices)
        row[7] = 1.0
        model2.joint_regressor = np.vstack([row, toy.joint_regressor[1:]])
        joints = bm.regress_joints(model2, verts)
        np.testing.assert_allclose(joints[0], verts[7])

    def test_uniform_row_gives_centroid(self, toy):
        verts = bm.shaped_template(toy, np.zeros(10))
        model2 = bm.BodyModel(**{**toy.__dict__})
        model2.joint_regressor = np.full(
            (1, toy.num_vertices), 1.0 / toy.num_vertices
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
        model.validate()
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


def mis_wound_faces(faces):
    faces = faces.copy()
    faces[0] = faces[0, ::-1]
    return faces


class TestClosedSurface:
    def test_reoriented_surface_validates(self, toy):
        dataclasses.replace(toy, faces=toy.faces[:, [1, 2, 0]]).validate()
        dataclasses.replace(toy, faces=toy.faces[:, ::-1]).validate()

    @pytest.mark.parametrize("damage", [
        pytest.param(lambda faces: faces[1:], id="open"),
        pytest.param(mis_wound_faces, id="mis-wound"),
        pytest.param(lambda faces: np.concatenate([faces, faces[:1]]), id="duplicated-face"),
    ])
    def test_rejected_by_validate_and_load(self, toy, tmp_path, damage):
        damaged = dataclasses.replace(toy, faces=damage(toy.faces))
        with pytest.raises(ValueError, match="closed, consistently oriented"):
            damaged.validate()
        path = tmp_path / "model.sfc"
        bm.save_model(path, damaged)
        with pytest.raises(ContainerError, match="closed, consistently oriented"):
            bm.load_model(path)

    def test_empty_face_set_validates(self, toy):
        dataclasses.replace(toy, faces=np.zeros((0, 3), dtype=np.int64)).validate()


class TestIndexDtypes:
    @pytest.mark.parametrize("name", ["faces", "parents", "part_labels", "keypoint_attach"])
    def test_float_indices_rejected_by_validate_and_load(self, tmp_path, name):
        # these arrays index others; float64 faces would load and then make
        # the rasterizer raise IndexError
        model = bm.generate_toy_model(seed=3, num_vertices=150, num_joints=16)
        damaged = dataclasses.replace(model, **{name: getattr(model, name).astype(np.float64)})
        with pytest.raises(ValueError, match=f"{name} must hold integers"):
            damaged.validate()
        path = tmp_path / "model.sfc"
        bm.save_model(path, damaged)
        with pytest.raises(ContainerError, match=f"{name} must hold integers"):
            bm.load_model(path)


class TestModelIO:
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
    ])
    def test_malformed_metadata_rejected(self, toy, tmp_path, edit):
        path = tmp_path / "model.sfc"
        bm.save_model(path, toy)
        arrays, meta = read_container(path, expected_kind="body_model")
        edit(arrays, meta)
        write_container(path, "body_model", arrays, meta)
        with pytest.raises(ContainerError, match="malformed body model"):
            bm.load_model(path)
