import dataclasses
import json
import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapefuse import bodymodel as bm
from shapefuse import metrics, network, synth
from shapefuse.gaussians import GaussianDiag, PredictionSet, fuse_shapes, reparam_sample


def random_rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def umeyama(P: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Closed-form least-squares similarity transform of P onto G
    (Umeyama 1991, eqs. 40-42), with the reflection correction of eq. 43
    decided by the sign of det(Sigma_xy)."""
    n = len(P)
    mu_p, mu_g = P.mean(axis=0), G.mean(axis=0)
    X, Y = P - mu_p, G - mu_g
    sigma_xy = Y.T @ X / n
    U, D, Vt = np.linalg.svd(sigma_xy)
    S = np.eye(3)
    if np.linalg.det(sigma_xy) < 0:
        S[2, 2] = -1.0
    R = U @ S @ Vt
    c = np.trace(np.diag(D) @ S) / ((X**2).sum() / n)
    t = mu_g - c * R @ mu_p
    return c * P @ R.T + t


def linear_part(P: np.ndarray, aligned: np.ndarray) -> np.ndarray:
    """The 3x3 matrix A with aligned - mean = (P - mean) @ A.T, by least squares."""
    X = P - P.mean(axis=0)
    Y = aligned - aligned.mean(axis=0)
    return np.linalg.lstsq(X, Y, rcond=None)[0].T


def sse(a, b) -> float:
    return float(((a - b) ** 2).sum())


class TestProcrustes:
    def test_recovers_exact_similarity(self):
        rng = np.random.default_rng(0)
        P = rng.normal(size=(12, 3))
        G = 1.7 * P @ random_rotation(rng).T + np.array([0.3, -2.0, 0.5])
        np.testing.assert_allclose(metrics.procrustes_align(P, G), G, atol=1e-10)
        assert metrics.mpjpe_pa(P, G) < 1e-7

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_umeyama_on_noisy_points(self, seed):
        rng = np.random.default_rng(seed)
        P = rng.normal(size=(15, 3))
        G = 0.8 * P @ random_rotation(rng).T + rng.normal(size=3) + 0.2 * rng.normal(size=(15, 3))
        aligned = metrics.procrustes_align(P, G)
        np.testing.assert_allclose(aligned, umeyama(P, G), atol=1e-10)

        # no nearby similarity transform fits better
        best = sse(aligned, G)
        for _ in range(50):
            R = bm.rodrigues(rng.normal(scale=1e-3, size=3))
            scale = 1.0 + rng.normal(scale=1e-3)
            shift = rng.normal(scale=1e-3, size=3)
            c = aligned.mean(axis=0)
            other = scale * (aligned - c) @ np.asarray(R).T + c + shift
            assert sse(other, G) >= best - 1e-12

    def test_reflected_target_gets_a_proper_rotation(self):
        rng = np.random.default_rng(7)
        P = rng.normal(size=(10, 3))
        mirror = np.diag([-1.0, 1.0, 1.0])
        G = 1.3 * P @ mirror @ random_rotation(rng).T + np.array([1.0, 0.0, -1.0])
        aligned = metrics.procrustes_align(P, G)
        np.testing.assert_allclose(aligned, umeyama(P, G), atol=1e-10)
        A = linear_part(P, aligned)
        assert np.linalg.det(A) > 0
        scale = np.cbrt(np.linalg.det(A))
        np.testing.assert_allclose(A @ A.T / scale**2, np.eye(3), atol=1e-10)
        # the mirror image cannot be reached by a rotation
        assert sse(aligned, G) > 1e-3

    @pytest.mark.parametrize("points", [
        np.zeros((2, 3)),
        np.ones((5, 3)),
        np.outer(np.arange(5.0), [1.0, 2.0, 3.0]),
    ], ids=["too-few", "zero-spread", "collinear"])
    def test_degenerate_rejected(self, points):
        with pytest.raises(ValueError):
            metrics.procrustes_align(points, np.random.default_rng(0).normal(size=points.shape))


class TestBatchedJointMetrics:
    """`(..., L, 3)` skeletons against one call per skeleton."""

    @staticmethod
    def skeletons(shape, seed=0):
        rng = np.random.default_rng(seed)
        gt = rng.normal(size=shape + (14, 3))
        rot = np.stack([random_rotation(rng) for _ in range(int(np.prod(shape)))])
        pred = 0.8 * gt @ np.swapaxes(rot.reshape(shape + (3, 3)), -1, -2)
        return pred + 0.1 * rng.normal(size=pred.shape), gt

    @pytest.mark.parametrize("root", [0, (3, 5)], ids=["joint-root", "hip-root"])
    def test_mpjpe_sc_equals_per_skeleton_exactly(self, root):
        pred, gt = self.skeletons((64,))
        got = metrics.mpjpe_sc(pred, gt, root=root)
        assert got.shape == (64,)
        want = [metrics.mpjpe_sc(p, g, root=root) for p, g in zip(pred, gt)]
        assert all(isinstance(w, float) for w in want)
        np.testing.assert_array_equal(got, want)

    def test_mpjpe_pa_equals_per_skeleton(self):
        pred, gt = self.skeletons((64,), seed=1)
        got = metrics.mpjpe_pa(pred, gt)
        want = [metrics.mpjpe_pa(p, g) for p, g in zip(pred, gt)]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_leading_axes_and_alignment(self):
        pred, gt = self.skeletons((2, 3), seed=2)
        aligned = metrics.procrustes_align(pred, gt)
        assert aligned.shape == pred.shape
        for i in range(2):
            for j in range(3):
                np.testing.assert_allclose(aligned[i, j],
                                           metrics.procrustes_align(pred[i, j], gt[i, j]),
                                           rtol=0, atol=1e-12)
        np.testing.assert_array_equal(metrics.scale_correct(pred, gt)[1, 2],
                                      metrics.scale_correct(pred[1, 2], gt[1, 2]))

    @pytest.mark.parametrize("fn", [metrics.procrustes_align, metrics.mpjpe_pa])
    def test_one_collinear_skeleton_in_a_batch_rejected(self, fn):
        pred, gt = self.skeletons((5,), seed=3)
        pred[2] = np.outer(np.arange(14.0), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="collinear"):
            fn(pred, gt)

    def test_one_all_zero_prediction_in_a_batch_rejected(self):
        pred, gt = self.skeletons((4,), seed=4)
        pred[1] = 0.0
        with pytest.raises(ValueError):
            metrics.scale_correct(pred, gt)


class TestScaleCorrect:
    def test_least_squares_optimum(self):
        rng = np.random.default_rng(1)
        pred = rng.normal(size=(20, 3))
        gt = 2.5 * pred + 0.3 * rng.normal(size=(20, 3))
        corrected = metrics.scale_correct(pred, gt)
        s_lstsq = np.linalg.lstsq(pred.reshape(-1, 1), gt.reshape(-1), rcond=None)[0][0]
        np.testing.assert_allclose(corrected, s_lstsq * pred, rtol=1e-12)
        best = sse(corrected, gt)
        for factor in (1 - 1e-4, 1 + 1e-4, 0.5, 2.0):
            assert sse(factor * corrected, gt) > best

    def test_all_zero_prediction_rejected(self):
        with pytest.raises(ValueError):
            metrics.scale_correct(np.zeros((4, 3)), np.ones((4, 3)))


class TestPveTSc:
    @pytest.fixture(scope="class")
    def model(self):
        """Toy model whose first shape direction scales the template and
        whose second translates it, so scaled and shifted bodies are
        reachable through the shape vector."""
        toy = bm.generate_toy_model(seed=3, num_vertices=150, num_joints=12)
        basis = toy.shape_basis.copy()
        basis[:, :, 0] = toy.template_vertices
        basis[:, :, 1] = np.array([0.1, -0.2, 0.3])
        return dataclasses.replace(toy, shape_basis=basis)

    def test_zero_for_identical_shapes(self, model):
        beta = np.random.default_rng(2).normal(size=model.shape_dim)
        assert metrics.pve_t_sc(beta, beta, model) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("scale,shift", [(0.4, 0.0), (-0.3, 2.0), (0.0, -1.5), (1.5, 0.7)])
    def test_invariant_to_global_scale_and_translation(self, model, scale, shift):
        rng = np.random.default_rng(4)
        gt = rng.normal(size=model.shape_dim)
        plain = np.zeros(model.shape_dim)
        moved = plain.copy()
        moved[0], moved[1] = scale, shift
        # template scaled by (1 + scale) and shifted, against the same target
        want = metrics.pve_t_sc(plain, gt, model)
        assert want > 1.0
        assert metrics.pve_t_sc(moved, gt, model) == pytest.approx(want, rel=1e-9)
        # a scaled and shifted copy of the target mesh scores zero
        copy = gt * (1 + scale)
        copy[0], copy[1] = gt[0] * (1 + scale) + scale, shift + gt[1] * (1 + scale)
        assert metrics.pve_t_sc(copy, gt, model) == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("pred_shape, gt_shape", [((3, 10), (10,)), ((10,), (3, 10)),
                                                      ((9,), (10,)), ((), (10,))],
                             ids=["batch-pred", "batch-gt", "short-pred", "scalar-pred"])
    def test_one_shape_vector_each(self, model, pred_shape, gt_shape):
        with pytest.raises(ValueError, match="one \\(10,\\) shape vector"):
            metrics.pve_t_sc(np.zeros(pred_shape), np.zeros(gt_shape), model)

    @pytest.mark.parametrize("bad, side, where", [
        (float("nan"), "pred", slice(None)), (float("inf"), "gt", 3), (-float("inf"), "pred", 9),
    ], ids=["all-nan-pred", "inf-gt", "minus-inf-pred"])
    def test_non_finite_shape_rejected_before_posing(self, model, bad, side, where, monkeypatch):
        def pose(*args):
            raise AssertionError("posed a body before checking the shape vectors")

        monkeypatch.setattr(bm, "shaped_template", pose)
        beta = {"pred": np.zeros(10), "gt": np.zeros(10)}
        beta[side][where] = bad
        with pytest.raises(ValueError, match="shape coefficients must be finite"):
            metrics.pve_t_sc(beta["pred"], beta["gt"], model)


def uncertainty_prediction(model, seed) -> PredictionSet:
    rng = np.random.default_rng(seed)
    return PredictionSet(
        pose=GaussianDiag(rng.normal(scale=0.2, size=model.pose_dim),
                          rng.uniform(0.01, 0.1, model.pose_dim)),
        shape=GaussianDiag(rng.normal(size=model.shape_dim),
                           rng.uniform(0.1, 1.0, model.shape_dim)),
        global_rot=[0.1, -0.3, 0.2],
        camera=[1.0, 0.0, 0.0],
    )


def uncertainty_one_call(pred, model, n, rng) -> np.ndarray:
    """Every draw posed by one `lbs_vertices` call, with the draws made as
    `metrics.per_vertex_uncertainty` makes them: the oracle for its blocks."""
    pose = pred.pose.mean + np.sqrt(pred.pose.var) * rng.standard_normal((n, pred.pose.dim))
    shape = pred.shape.mean + np.sqrt(pred.shape.var) * rng.standard_normal((n, pred.shape.dim))
    verts = bm.lbs_vertices(model, pose, shape, np.tile(pred.global_rot, (n, 1)))
    return np.linalg.norm(verts - verts.mean(axis=0), axis=2).mean(axis=0) * metrics.CM


def uncertainty_by_ranges(pred, model, n, rng) -> np.ndarray:
    """`metrics.per_vertex_uncertainty` over tiles of consecutive vertices:
    each range skinned over its joint support by the blend products, with
    the same draws and the same in-place reduction. The bit-for-bit oracle
    for its support-group tiles at benchmark size."""
    pose = reparam_sample(pred.pose.mean, pred.pose.var, rng.standard_normal((n, pred.pose.dim)))
    shape = reparam_sample(pred.shape.mean, pred.shape.var,
                           rng.standard_normal((n, pred.shape.dim)))
    rot_delta, trans = bm._joint_transforms(model, pose, shape, np.broadcast_to(pred.global_rot,
                                                                               (n, 3)))
    width = max(1, metrics.UNCERTAINTY_BLOCK_ROWS // n)
    dist = np.empty(model.num_vertices)
    for start in range(0, model.num_vertices, width):
        vertices = slice(start, min(start + width, model.num_vertices))
        tile = bm._skinning_layout(model, vertices)
        verts = bm._skin_components(tile, shape, np.take(rot_delta, tile.joints, axis=1),
                                    np.take(trans, tile.joints, axis=1))
        verts -= verts.mean(axis=0)
        np.square(verts, out=verts)
        tile_dist = verts[:, 0]
        tile_dist += verts[:, 1]
        tile_dist += verts[:, 2]
        np.sqrt(tile_dist, out=tile_dist)
        dist[vertices] = tile_dist.mean(axis=0)
    return dist * metrics.CM


def uncertainty_and_tile_draws(pred, model, n, rng, monkeypatch):
    """`metrics.per_vertex_uncertainty` with the posed draws of every tile
    that its vertex skin returns recorded, before they are reduced in
    place: (result, tile widths, the (n, V, 3) draws in vertex order)."""
    tiles = []
    skin = bm._skin_components

    def recording(*args, **kwargs):
        out = skin(*args, **kwargs)
        tiles.append(np.array(out))
        return out

    monkeypatch.setattr(bm, "_skin_components", recording)
    got = metrics.per_vertex_uncertainty(pred, model, n_samples=n, rng=rng)
    vertices = np.concatenate([v for v, _ in model.skinning_groups(
        max(1, metrics.UNCERTAINTY_BLOCK_ROWS // n))])
    draws = np.empty((n, 3, model.num_vertices))
    draws[..., vertices] = np.concatenate(tiles, axis=2)
    return got, [t.shape[2] for t in tiles], draws.transpose(0, 2, 1)


class TestPerVertexUncertainty:
    def test_equals_linalg_norm_bit_for_bit(self, monkeypatch):
        model = bm.generate_toy_model(seed=4, num_vertices=200, num_joints=12)
        pred = uncertainty_prediction(model, 6)
        monkeypatch.setattr(metrics, "UNCERTAINTY_BLOCK_ROWS", 30 * 64 + 29)
        got, sizes, verts = uncertainty_and_tile_draws(pred, model, 30,
                                                       np.random.default_rng(7), monkeypatch)
        # tiles of at most 64 vertices, one support set each
        assert sizes == [13, 13, 7, 4, 7, 4, 13, 13, 7, 1, 7, 1, 22, 17, 29, 18, 24]
        assert verts.shape == (30, 200, 3)
        want = np.linalg.norm(verts - verts.mean(axis=0), axis=2).mean(axis=0) * metrics.CM
        assert want.min() > 0
        np.testing.assert_array_equal(got, want)

    def test_equals_linalg_norm_bit_for_bit_at_benchmark_size(self, monkeypatch):
        model = bm.generate_toy_model(seed=0, num_vertices=6890, num_joints=24)
        pred = uncertainty_prediction(model, 14)
        got, sizes, verts = uncertainty_and_tile_draws(pred, model, 100,
                                                       np.random.default_rng(15), monkeypatch)
        # support groups in tiles of at most 163 vertices, the default budget
        # of 2^14 rows
        assert sizes == [121, 49, 121, 49, 163, 104, 71, 163, 104, 71, 163, 160, 85, 163, 160,
                         85, 101, 31, 101, 31, 163, 48, 57, 163, 48, 57, 163, 76, 71, 163, 76,
                         71, 163, 163, 163, 163, 106, 163, 163, 138, 163, 163, 93, 163, 163, 75,
                         163, 163, 64, 163, 163, 163, 163, 49, 163, 163, 163, 16]
        want = np.linalg.norm(verts - verts.mean(axis=0), axis=2).mean(axis=0) * metrics.CM
        assert want.min() > 0
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("seed", [21, 22])
    def test_equals_consecutive_tiles_bit_for_bit_at_benchmark_size(self, seed):
        model = bm.generate_toy_model(seed=0, num_vertices=6890, num_joints=24)
        pred = uncertainty_prediction(model, seed)
        want = uncertainty_by_ranges(pred, model, 100, np.random.default_rng(seed))
        got = metrics.per_vertex_uncertainty(pred, model, 100, np.random.default_rng(seed))
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field,value", [("global_rot", [0, 0, 0]), ("camera", [1, 0, 0])])
    def test_non_finite_rotation_or_camera_rejected(self, field, value, bad):
        # unchecked, a non-finite global rotation gave an all-NaN uncertainty
        # and no error; the camera is checked with it, as one rule
        model = bm.generate_toy_model(4, 200, 12)
        pred = uncertainty_prediction(model, 6)
        value = np.array(value, dtype=np.float64)
        value[1] = bad
        with pytest.raises(ValueError, match="^global rotation and camera must be finite$"):
            metrics.per_vertex_uncertainty(dataclasses.replace(pred, **{field: value}), model,
                                           n_samples=3, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["pose", "shape", "global_rot"])
    def test_non_finite_draw_rejected_by_the_skinning(self, field, bad):
        # a prediction is checked when built; a value changed in place after
        # that reaches the draws, and the skinning core rejects it
        model = bm.generate_toy_model(4, 200, 12)
        pred = uncertainty_prediction(model, 6)
        values = pred.global_rot if field == "global_rot" else getattr(pred, field).mean
        values[1] = bad
        with pytest.raises(ValueError, match="^pose, shape and global rotation must be finite$"):
            metrics.per_vertex_uncertainty(pred, model, n_samples=3,
                                           rng=np.random.default_rng(0))

    @pytest.mark.parametrize("field,width,need", [("pose", 5, 33), ("shape", 4, 10)])
    def test_width_mismatch_rejected(self, field, width, need):
        model = bm.generate_toy_model(4, 200, 12)
        rng = np.random.default_rng(34)
        pred = uncertainty_prediction(model, 6)
        pred = dataclasses.replace(pred, **{field: GaussianDiag(rng.normal(size=width),
                                                                rng.uniform(0.1, 1.0, width))})
        with pytest.raises(ValueError, match=rf"^{field} has shape \(3, {width}\), "
                                             rf"the body model needs \(B, {need}\)$"):
            metrics.per_vertex_uncertainty(pred, model, n_samples=3, rng=rng)

    @pytest.mark.parametrize("n", [1, 4, 5, 6, 13])
    def test_blocks_match_one_call(self, n, monkeypatch):
        # tiles of 1000 // n vertices over their joint supports; products
        # of other sizes and inner sizes may differ in the last bit (see
        # test_bodymodel.py, test_matches_batched_form)
        model = bm.generate_toy_model(seed=4, num_vertices=200, num_joints=12)
        pred = uncertainty_prediction(model, 8)
        want = uncertainty_one_call(pred, model, n, np.random.default_rng(9))
        monkeypatch.setattr(metrics, "UNCERTAINTY_BLOCK_ROWS", 5 * 200)
        got = metrics.per_vertex_uncertainty(pred, model, n, np.random.default_rng(9))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_model_larger_than_the_budget_takes_one_draw_per_block(self, monkeypatch):
        # a budget below the vertex count: tiles of 50 vertices for 3 draws
        model = bm.generate_toy_model(seed=4, num_vertices=200, num_joints=12)
        pred = uncertainty_prediction(model, 10)
        want = uncertainty_one_call(pred, model, 3, np.random.default_rng(11))
        monkeypatch.setattr(metrics, "UNCERTAINTY_BLOCK_ROWS", 150)
        got = metrics.per_vertex_uncertainty(pred, model, 3, np.random.default_rng(11))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_more_draws_than_the_budget_take_tiles_of_one_vertex(self, monkeypatch):
        model = bm.generate_toy_model(seed=4, num_vertices=200, num_joints=12)
        pred = uncertainty_prediction(model, 16)
        want = uncertainty_one_call(pred, model, 9, np.random.default_rng(17))
        monkeypatch.setattr(metrics, "UNCERTAINTY_BLOCK_ROWS", 7)
        got, sizes, _ = uncertainty_and_tile_draws(pred, model, 9, np.random.default_rng(17),
                                                   monkeypatch)
        assert sizes == [1] * 200
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_tiles_that_touch_every_joint(self, monkeypatch):
        # every vertex weighted on every joint, so each tile's support is
        # all J joints, as in the whole-mesh layout
        model = bm.generate_toy_model(seed=4, num_vertices=200, num_joints=12)
        rng = np.random.default_rng(18)
        dense = model.skinning_weights + rng.uniform(0.01, 0.1, model.skinning_weights.shape)
        dense /= dense.sum(axis=1, keepdims=True)
        model = dataclasses.replace(model, skinning_weights=dense)
        pred = uncertainty_prediction(model, 19)
        want = uncertainty_one_call(pred, model, 6, np.random.default_rng(20))
        monkeypatch.setattr(metrics, "UNCERTAINTY_BLOCK_ROWS", 6 * 32)
        got = metrics.per_vertex_uncertainty(pred, model, 6, np.random.default_rng(20))
        tiles = model.skinning_groups(32)
        assert len(tiles) == 7
        for _, tile in tiles:
            np.testing.assert_array_equal(tile.joints, np.arange(12))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_peak_memory_at_benchmark_size(self):
        # the skin of one tile at a time: the parent's (n, 3, V) draws
        # array and one block's skinning peaked at 2x that array, and one
        # call for all draws at 5x
        model = bm.generate_toy_model(seed=0, num_vertices=6890, num_joints=24)
        pred = uncertainty_prediction(model, 12)
        n = 100
        metrics.per_vertex_uncertainty(pred, model, n, np.random.default_rng(0))  # cached tiles
        tracemalloc.start()
        try:
            metrics.per_vertex_uncertainty(pred, model, n, np.random.default_rng(13))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * (8 * n * model.num_vertices * 3)

    @pytest.mark.parametrize("n_samples", [0, -3, 2.0, True])
    def test_non_positive_or_non_int_draws_rejected(self, n_samples):
        model = bm.generate_toy_model(seed=4, num_vertices=200, num_joints=12)
        pred = PredictionSet(
            pose=GaussianDiag(np.zeros(model.pose_dim), np.ones(model.pose_dim)),
            shape=GaussianDiag(np.zeros(model.shape_dim), np.ones(model.shape_dim)),
            global_rot=np.zeros(3),
            camera=[1.0, 0.0, 0.0],
        )
        with pytest.raises(ValueError, match="draws"):
            metrics.per_vertex_uncertainty(pred, model, n_samples=n_samples,
                                           rng=np.random.default_rng(0))

    def test_batch_of_predictions_rejected(self):
        model = bm.generate_toy_model(seed=4, num_vertices=200, num_joints=12)
        pred = PredictionSet(
            pose=GaussianDiag(np.zeros((3, model.pose_dim)), np.ones((3, model.pose_dim))),
            shape=GaussianDiag(np.zeros((3, model.shape_dim)), np.ones((3, model.shape_dim))),
            global_rot=np.zeros((3, 3)),
            camera=np.tile([1.0, 0.0, 0.0], (3, 1)),
        )
        with pytest.raises(ValueError, match="batch"):
            metrics.per_vertex_uncertainty(pred, model, n_samples=3,
                                           rng=np.random.default_rng(0))


def split_by_subtree_walk(pose_var, visibility, model):
    """The occlusion variance split one joint at a time, over keypoint
    groups found by a recursive subtree walk: the exact oracle for
    `metrics.pose_variance_by_joint_visibility`."""
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
    vis = np.asarray(visibility).astype(bool)
    invisible_dims, visible_dims = [], []
    for i in range(J - 1):
        kps = np.flatnonzero(np.isin(attach, subtree(i + 1)))
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


class TestPoseVisibility:
    # root 0 -> 1 -> 2 and root 0 -> 3 -> 4. Keypoints: k0 on the root, k1
    # and k2 on joint 2, k3 on joint 1, k4 on joint 3; nothing hangs on 4.
    # `tree.below` stands in for the model's own copy of the subtree table.
    PARENTS = np.array([-1, 0, 1, 0, 3])
    TREE = types.SimpleNamespace(num_joints=5, parents=PARENTS,
                                 tree=types.SimpleNamespace(below=bm.subtree_table(PARENTS)),
                                 keypoint_attach=np.array([0, 2, 2, 1, 3]),
                                 pose_dim=12, num_keypoints=5)
    # pose dims [3i, 3i+3) belong to joint i+1; joint 4's keypoint-free
    # dims carry a variance that would show if they were counted
    POSE_VAR = np.array([1.0, 1, 1, 2, 2, 2, 3, 3, 3, 1000, 1000, 1000])

    @pytest.fixture(scope="class")
    def toy(self):
        return bm.generate_toy_model(seed=3, num_vertices=150, num_joints=12)

    def test_keypoints_of_each_subtree(self):
        moves = bm.subtree_table(self.TREE.parents)[1:, self.TREE.keypoint_attach]
        assert [np.flatnonzero(row).tolist() for row in moves] == [[1, 2, 3], [1, 2], [4], []]

    @pytest.mark.parametrize("visibility, want", [
        # joint 1 mixed, joint 2 hidden, joint 3 seen; the root keypoint is ignored
        ([1, 0, 0, 1, 1], (2.0, 3.0)),
        ([0, 0, 0, 1, 1], (2.0, 3.0)),
        # joints 1 and 2 seen, joint 3 hidden
        ([0, 1, 1, 1, 0], (3.0, 1.5)),
        # nothing hidden, then nothing seen
        ([1, 1, 1, 1, 1], None),
        ([1, 0, 0, 0, 0], None),
    ])
    def test_variance_split(self, visibility, want):
        got = metrics.pose_variance_by_joint_visibility(self.POSE_VAR, np.array(visibility),
                                                        self.TREE)
        assert got == want
        assert split_by_subtree_walk(self.POSE_VAR, visibility, self.TREE) == want

    def test_matches_subtree_walk_on_random_cases(self):
        # every toy skeleton, 200 seeded (pose_var, visibility) pairs each,
        # with variances over six decades so a reordered mean would show
        rng = np.random.default_rng(23)
        splits = 0
        for J in range(8, 25):
            model = bm.generate_toy_model(seed=0, num_vertices=50, num_joints=J)
            for _ in range(200):
                pose_var = 10.0 ** rng.uniform(-4, 2, model.pose_dim)
                visibility = (rng.random(model.num_keypoints) < rng.random()).astype(int)
                want = split_by_subtree_walk(pose_var, visibility, model)
                got = metrics.pose_variance_by_joint_visibility(pose_var, visibility, model)
                assert got == want
                splits += want is not None
        assert splits > 1000

    def visible_but_left_arm(self, toy):
        visibility = np.ones(toy.num_keypoints, dtype=int)
        visibility[[toy.keypoint_names.index(n) for n in ("l_elbow", "l_wrist")]] = 0
        return visibility

    def test_left_arm_hidden_splits(self, toy):
        rng = np.random.default_rng(24)
        pose_var = rng.uniform(0.1, 1.0, toy.pose_dim)
        visibility = self.visible_but_left_arm(toy)
        got = metrics.pose_variance_by_joint_visibility(pose_var, visibility, toy)
        assert got is not None
        assert got == split_by_subtree_walk(pose_var, visibility, toy)
        # booleans are 0s and 1s too
        assert metrics.pose_variance_by_joint_visibility(pose_var, visibility == 1, toy) == got

    @pytest.mark.parametrize("pose_var_shape", [(33 + 6,), (33 - 3,), (1, 33), (33, 1), ()],
                             ids=["long", "short", "row", "column", "scalar"])
    def test_pose_var_shape_rejected(self, toy, pose_var_shape):
        assert toy.pose_dim == 33
        with pytest.raises(ValueError, match="pose variances"):
            metrics.pose_variance_by_joint_visibility(np.ones(pose_var_shape),
                                                      self.visible_but_left_arm(toy), toy)

    @pytest.mark.parametrize("edit", [
        lambda v: np.concatenate([v, [1, 1]]),
        lambda v: v[:-1],
        lambda v: v[None],
        lambda v: v * 0.5,
        lambda v: np.where(v == 1, 2, 0),
        lambda v: np.where(v == 1, np.nan, 0.0),
    ], ids=["long", "short", "row", "halves", "twos", "nan"])
    def test_visibility_rejected(self, toy, edit):
        visibility = edit(self.visible_but_left_arm(toy))
        with pytest.raises(ValueError, match="visibility"):
            metrics.pose_variance_by_joint_visibility(np.ones(toy.pose_dim), visibility, toy)


class TestConvexHullPerimeter:
    def test_square_with_interior_edge_and_duplicate_points(self):
        rng = np.random.default_rng(0)
        corners = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
        on_edges = np.array([[1.0, 0.0], [2.0, 0.5], [0.0, 1.5], [1.2, 2.0]])
        inside = rng.uniform(0.1, 1.9, size=(30, 2))
        points = np.concatenate([corners, on_edges, inside, corners])
        assert metrics.convex_hull_perimeter(rng.permutation(points)) == pytest.approx(8.0)

    @pytest.mark.parametrize("n", [3, 5, 12, 64])
    def test_regular_polygon(self, n):
        angles = 2 * np.pi * np.arange(n) / n + 0.3
        points = 1.5 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        want = n * 2 * 1.5 * np.sin(np.pi / n)
        assert metrics.convex_hull_perimeter(points) == pytest.approx(want, rel=1e-12)

    def test_right_triangle_with_duplicates(self):
        points = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0], [3.0, 0.0], [0.0, 0.0]])
        assert metrics.convex_hull_perimeter(points) == pytest.approx(12.0)

    def test_collinear_points_give_twice_the_segment(self):
        t = np.array([0.0, 0.25, 0.5, 0.9, 1.0, 0.5])
        points = np.stack([1.0 + 3.0 * t, -2.0 + 4.0 * t], axis=1)
        assert metrics.convex_hull_perimeter(points) == pytest.approx(10.0)

    def test_single_point(self):
        assert metrics.convex_hull_perimeter(np.array([[1.0, 1.0], [1.0, 1.0]])) == 0.0


def closed_prism(n: int, r: float, rings: int = 3):
    """n-gon prism of radius r along y, rings at y = 0, 1, ..., with
    triangulated sides and fan caps; (vertices, faces)."""
    angles = 2 * np.pi * np.arange(n) / n
    ring = np.stack([r * np.cos(angles), np.zeros(n), r * np.sin(angles)], axis=1)
    vertices = np.concatenate(
        [ring + [0.0, y, 0.0] for y in range(rings)]
        + [[[0.0, 0.0, 0.0], [0.0, rings - 1.0, 0.0]]]
    )
    k, k1 = np.arange(n), (np.arange(n) + 1) % n
    faces = []
    for level in range(rings - 1):
        lo, hi = level * n, (level + 1) * n
        faces += [np.stack([lo + k, lo + k1, hi + k1], axis=1),
                  np.stack([lo + k, hi + k1, hi + k], axis=1)]
    bottom, top = rings * n, rings * n + 1
    faces += [np.stack([np.full(n, bottom), k1, k], axis=1),
              np.stack([np.full(n, top), (rings - 1) * n + k, (rings - 1) * n + k1], axis=1)]
    return vertices, np.concatenate(faces)


def slice_points_per_edge(vertices, faces, face_mask, axis, plane):
    """One face and one edge at a time: the plane points that
    `metrics._slice_girth` takes the hull of, as its oracle."""
    keep = [i for i in range(3) if i != axis]
    points = []
    for tri in faces[face_mask]:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            va, vb = vertices[tri[a]], vertices[tri[b]]
            ca, cb = va[axis] - plane, vb[axis] - plane
            if ca == 0.0:
                points.append(va[keep])
            if (ca < 0 < cb) or (cb < 0 < ca):
                points.append((va + ca / (ca - cb) * (vb - va))[keep])
    return np.array(points).reshape(-1, 2)


class TestGirths:
    @pytest.mark.parametrize("n", [3, 8, 24])
    @pytest.mark.parametrize("plane", [0.37, 1.0], ids=["between-rings", "on-ring"])
    def test_prism_slice_is_the_ngon_perimeter(self, n, plane):
        r = 0.3
        vertices, faces = closed_prism(n, r)
        girth = metrics._slice_girth(vertices, faces, np.ones(len(faces), bool), 1, plane)
        assert girth == pytest.approx(2 * n * r * np.sin(np.pi / n), rel=1e-12, abs=0)

    # the six girths of a fixed shape, at 1.7 m, for two budgets
    GOLDEN = {
        (600, 16): dict(chest=69.05505374103494, stomach=70.4528289966325,
                        hips=70.19764378909255, biceps=15.190881250554645,
                        forearms=10.323943661130194, thighs=31.85569441126092),
        (6890, 24): dict(chest=68.74210227553068, stomach=70.3164349873645,
                         hips=69.70980842691662, biceps=16.83131160157598,
                         forearms=11.685187189312138, thighs=33.778391096576335),
    }

    @pytest.mark.parametrize("V,J", list(GOLDEN))
    def test_golden_girths(self, V, J):
        model = bm.generate_toy_model(seed=0, num_vertices=V, num_joints=J)
        girths = metrics.measure_and_normalize(np.linspace(-1.5, 1.5, 10), model, 1.7).girths_cm
        assert girths.keys() == self.GOLDEN[V, J].keys()
        for name, want in self.GOLDEN[V, J].items():
            assert girths[name] == pytest.approx(want, rel=1e-12, abs=0), name

    def test_slices_match_per_edge_crossings(self, monkeypatch):
        model = bm.generate_toy_model(seed=0, num_vertices=600, num_joints=16)
        verts = bm.shaped_template(model, np.linspace(-1.0, 1.0, 10))
        on_vertex = verts[7, 1]  # a plane through a vertex takes it once per edge it starts
        hulls = []  # the points each slice passes to the hull; it returns their count
        monkeypatch.setattr(metrics, "convex_hull_perimeter",
                            lambda pts: hulls.append(pts) or float(len(pts)))
        mask = np.ones(len(model.faces), bool)
        for axis, plane in [(1, on_vertex), (1, 0.4), (0, 0.3), (2, 0.0), (1, 5.0)]:
            want = slice_points_per_edge(verts, model.faces, mask, axis, plane)
            got = metrics._slice_girth(verts, model.faces, mask, axis, plane)
            if len(want) < 3:
                assert got == 0.0
                continue
            assert got == len(want)
            np.testing.assert_array_equal(np.unique(hulls[-1], axis=0), np.unique(want, axis=0))
        assert len(hulls) == 4

    def test_girths_scale_linearly_with_true_height(self):
        toy = bm.generate_toy_model(seed=3, num_vertices=150, num_joints=12)
        beta = np.random.default_rng(4).normal(size=toy.shape_basis.shape[-1])
        base = metrics.measure_and_normalize(beta, toy, 1.0)
        assert base.girths_cm
        for height in (0.5, 1.7, 2.0):
            scaled = metrics.measure_and_normalize(beta, toy, height)
            assert scaled.girths_cm.keys() == base.girths_cm.keys()
            for name, girth in base.girths_cm.items():
                assert scaled.girths_cm[name] == pytest.approx(height * girth, rel=1e-12)


    @pytest.mark.parametrize("height", [float("nan"), float("inf"), -float("inf"), 0.0, -1.7,
                                        True, "1.7"])
    def test_height_must_be_finite_and_positive(self, height):
        toy = bm.generate_toy_model(seed=3, num_vertices=150, num_joints=12)
        beta = np.zeros(toy.shape_basis.shape[-1])
        with pytest.raises(ValueError, match="finite and positive"):
            metrics.measure_and_normalize(beta, toy, height)
        with pytest.raises(ValueError, match="finite and positive"):
            metrics.MeasurementSet({"waist": 80.0}, height)

    @pytest.mark.parametrize("bad, where", [
        (float("nan"), 0), (float("nan"), slice(None)), (float("inf"), 3), (-float("inf"), 9),
    ], ids=["one-nan", "all-nan", "inf", "minus-inf"])
    def test_non_finite_shape_rejected(self, bad, where):
        toy = bm.generate_toy_model(seed=3, num_vertices=150, num_joints=12)
        beta = np.zeros(toy.shape_basis.shape[-1])
        beta[where] = bad
        with pytest.raises(ValueError, match="shape coefficients must be finite"):
            metrics.measure_and_normalize(beta, toy, 1.7)

    @pytest.mark.parametrize("shape", [(3, 10), (1, 10), (9,)], ids=["batch", "row", "short"])
    def test_one_shape_vector(self, shape):
        toy = bm.generate_toy_model(seed=3, num_vertices=150, num_joints=12)
        with pytest.raises(ValueError, match="one \\(10,\\) shape vector"):
            metrics.measure_and_normalize(np.zeros(shape), toy, 1.7)

    @pytest.mark.parametrize("girth", [float("nan"), float("inf"), -float("inf"), 0.0, -80.0,
                                       True, "80"])
    def test_girths_must_be_finite_and_positive(self, girth):
        with pytest.raises(ValueError, match="measurement waist must be finite and positive"):
            metrics.MeasurementSet({"hip": 90.0, "waist": girth}, 1.7)


class TestSplitGroups:
    @settings(max_examples=100, deadline=None)
    @given(
        items=st.lists(st.integers(-1000, 1000), unique=True, max_size=40),
        size=st.integers(1, 7),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_partition_with_bounded_groups(self, items, size, seed):
        groups = metrics.split_groups(items, size, np.random.default_rng(seed))
        assert sorted(x for g in groups for x in g) == sorted(items)
        assert all(1 <= len(g) <= size for g in groups)
        assert len(groups) == math.ceil(len(items) / size)

    def test_group_size_below_one_rejected(self):
        with pytest.raises(ValueError):
            metrics.split_groups([1, 2], 0, np.random.default_rng(0))

    @pytest.mark.parametrize("size", [2.0, "2", True])
    def test_non_int_group_size_rejected(self, size):
        with pytest.raises(ValueError, match="group size"):
            metrics.split_groups([1, 2], size, np.random.default_rng(0))


class TestMetricsReportJson:
    @pytest.mark.parametrize("with_uncertainty", [False, True])
    def test_round_trip(self, with_uncertainty):
        rng = np.random.default_rng(5)
        report = metrics.MetricsReport(
            combination="pc",
            group_size=4,
            sample_index=np.arange(6),
            sample_subject=np.array([0, 0, 0, 1, 1, 1]),
            sample_mpjpe_sc=rng.uniform(10, 90, 6),
            sample_mpjpe_pa=rng.uniform(5, 60, 6),
            group_subject=[0, 1],
            group_sizes=[3, 3],
            group_pve_t_sc=[12.25, 30.5],
            uncertainty_cm=rng.uniform(0, 3, 8) if with_uncertainty else None,
            part_uncertainty_cm=rng.uniform(0, 3, (6, 7)) if with_uncertainty else None,
        )
        got = json.loads(report.to_json())
        assert got["combination"] == "pc" and got["group_size"] == 4
        agg = got["aggregates"]
        assert agg["mean_mpjpe_sc_mm"] == pytest.approx(report.sample_mpjpe_sc.mean(), rel=1e-15)
        assert agg["mean_mpjpe_pa_mm"] == pytest.approx(report.sample_mpjpe_pa.mean(), rel=1e-15)
        assert agg["mean_pve_t_sc_mm"] == pytest.approx(21.375)
        assert (agg["num_samples"], agg["num_groups"]) == (6, 2)
        per = got["per_sample"]
        assert per["index"] == list(range(6))
        assert per["subject"] == [0, 0, 0, 1, 1, 1]
        np.testing.assert_allclose(per["mpjpe_sc_mm"], report.sample_mpjpe_sc, atol=5e-7)
        np.testing.assert_allclose(per["mpjpe_pa_mm"], report.sample_mpjpe_pa, atol=5e-7)
        assert got["per_group"] == [
            {"subject": 0, "size": 3, "pve_t_sc_mm": 12.25},
            {"subject": 1, "size": 3, "pve_t_sc_mm": 30.5},
        ]
        if with_uncertainty:
            np.testing.assert_allclose(got["mean_per_vertex_uncertainty_cm"],
                                       report.uncertainty_cm, atol=5e-7)
            np.testing.assert_allclose(per["part_uncertainty_cm"], report.part_uncertainty_cm,
                                       atol=5e-7)
        else:
            assert "mean_per_vertex_uncertainty_cm" not in got
            assert "part_uncertainty_cm" not in per


class TestEvaluate:
    """`evaluate` on 2 subjects x 4 exact facings, with the tiny model and
    untrained network of test_network.py, rebuilt from the parts it uses."""

    GROUP_SIZE = 3  # splits each subject's 4 samples, so the shuffle matters

    @pytest.fixture(scope="class")
    def setup(self):
        model = bm.generate_toy_model(seed=5, num_vertices=120, num_joints=16)
        net = network.PredictorNet.for_model(
            model, network.EncoderConfig(pool_to=16, channels=(2, 4, 8)), hidden=16, seed=0
        )
        cfg = synth.GenerationConfig(image_size=64, focal_length=75.0)
        samples = synth.generate_dataset(model, cfg, synth.AugmentationConfig(), num_subjects=2,
                                         poses_per_subject=4, seed=3, corrupt=True,
                                         exact_facings=True)
        dataset = synth.SynthDataset.from_samples(samples)
        return model, net, dataset, network.predict_dataset(net, dataset)

    def evaluate(self, setup, combination, draws=0, group_size=GROUP_SIZE):
        model, net, dataset, _ = setup
        return metrics.evaluate(dataset, net, model, group_size, combination,
                                np.random.default_rng(9), draws)

    @pytest.mark.parametrize("combination,combine", [
        ("pc", lambda shapes: fuse_shapes(shapes).mean),
        ("mean", lambda shapes: np.mean(shapes.mean, axis=0)),
    ], ids=["pc", "mean"])
    def test_groups_combine_their_shapes(self, setup, combination, combine):
        model, _, dataset, predictions = setup
        subjects, betas = dataset.arrays["subject_id"], dataset.arrays["beta"]
        rng = np.random.default_rng(9)
        groups = [(int(subj), g) for subj in np.unique(subjects)
                  for g in metrics.split_groups(np.flatnonzero(subjects == subj).tolist(),
                                                self.GROUP_SIZE, rng)]
        report = self.evaluate(setup, combination)
        assert report.group_size == self.GROUP_SIZE
        assert report.group_subject == [subj for subj, _ in groups]
        assert report.group_sizes == [len(g) for _, g in groups] == [3, 1, 3, 1]
        assert report.group_pve_t_sc == [
            metrics.pve_t_sc(combine(predictions[g].shape), betas[g[0]], model)
            for _, g in groups
        ]

    def test_single_gives_one_group_per_sample(self, setup):
        # single-image evaluation is group size 1 under either rule; the shuffle
        # orders a subject's groups, whose values are each sample's own
        model, _, dataset, predictions = setup
        subjects = dataset.arrays["subject_id"]
        for combination in ("pc", "mean"):
            report = self.evaluate(setup, combination, group_size=1)
            assert report.group_size == 1
            assert report.group_sizes == [1] * len(dataset)
            assert report.group_subject == sorted(subjects.tolist())
            for subj in np.unique(subjects):
                got = [v for s, v in zip(report.group_subject, report.group_pve_t_sc)
                       if s == subj]
                want = [metrics.pve_t_sc(predictions[i].shape.mean, dataset.arrays["beta"][i],
                                         model)
                        for i in np.flatnonzero(subjects == subj)]
                assert sorted(got) == sorted(want)

    def test_joint_errors_do_not_depend_on_the_combination(self, setup):
        reports = [self.evaluate(setup, c) for c in ("pc", "mean")]
        for report in reports[1:]:
            np.testing.assert_array_equal(report.sample_mpjpe_sc, reports[0].sample_mpjpe_sc)
            np.testing.assert_array_equal(report.sample_mpjpe_pa, reports[0].sample_mpjpe_pa)
        assert reports[0].sample_mpjpe_sc.shape == (8,)

    def test_joint_errors_match_per_sample_forward(self, setup):
        # oracle: one single-body `forward` per ground-truth and predicted body
        model, _, dataset, predictions = setup
        a = dataset.arrays
        root = metrics.hip_root(model)
        want_sc, want_pa = [], []
        for i, p in enumerate(predictions):
            gt = bm.regress_joints(model, bm.forward(model, a["theta"][i], a["beta"][i],
                                                     a["glob"][i]))
            pred = bm.regress_joints(model, bm.forward(model, p.pose.mean, p.shape.mean,
                                                       p.global_rot))
            want_sc.append(metrics.mpjpe_sc(pred, gt, root=root))
            want_pa.append(metrics.mpjpe_pa(pred, gt))
        assert len(set(want_sc)) == len(set(want_pa)) == len(dataset)
        report = self.evaluate(setup, "pc")
        np.testing.assert_allclose(report.sample_mpjpe_sc, want_sc, rtol=1e-9)
        np.testing.assert_allclose(report.sample_mpjpe_pa, want_pa, rtol=1e-9)

    def test_uncertainty_only_with_draws(self, setup):
        model = setup[0]
        off = self.evaluate(setup, "pc", draws=0)
        assert off.uncertainty_cm is None and off.part_uncertainty_cm is None
        assert "part_uncertainty_cm" not in json.loads(off.to_json())["per_sample"]
        uncertainty = self.evaluate(setup, "pc", draws=3).uncertainty_cm
        assert uncertainty.shape == (model.num_vertices,)
        assert np.all(uncertainty > 0)

    def test_part_uncertainty_is_each_samples_part_mean(self, setup):
        # oracle: a masked mean per sample and part; the (V,) mean over the
        # samples keeps its sum order, so it is pinned bit for bit
        model, _, dataset, predictions = setup
        draws = 4
        samples = [metrics.per_vertex_uncertainty(predictions[i], model, draws,
                                                  np.random.default_rng(draws + i))
                   for i in range(len(dataset))]
        report = self.evaluate(setup, "pc", draws=draws)
        np.testing.assert_array_equal(report.uncertainty_cm, sum(samples) / len(samples))
        parts = len(model.part_names)
        assert report.part_uncertainty_cm.shape == (len(dataset), parts)
        want = [[u[model.part_labels == p].mean() for p in range(parts)] for u in samples]
        np.testing.assert_allclose(report.part_uncertainty_cm, want, rtol=1e-12, atol=0)
        got = json.loads(report.to_json())["per_sample"]["part_uncertainty_cm"]
        np.testing.assert_allclose(got, want, rtol=0, atol=5e-7)

    def test_part_without_vertices_reads_nan(self, setup):
        model, net, dataset, _ = setup
        names = model.part_names + ("empty",)
        report = metrics.evaluate(dataset, net, dataclasses.replace(model, part_names=names), 1,
                                  "pc", np.random.default_rng(9), 2)
        assert np.isnan(report.part_uncertainty_cm[:, -1]).all()
        assert np.isfinite(report.part_uncertainty_cm[:, :-1]).all()

    @pytest.mark.parametrize("draws", ["3", -2, 1.5, None, True])
    def test_bad_draw_count_rejected_before_predicting(self, setup, draws, monkeypatch):
        def predict(*args):
            raise AssertionError("predicted before checking the draw count")

        monkeypatch.setattr(metrics.net_mod, "predict_dataset", predict)
        with pytest.raises(ValueError, match="number of draws"):
            self.evaluate(setup, "pc", draws=draws)

    @pytest.mark.parametrize("group_size", [True, 0, None])
    def test_bad_group_size_rejected_before_predicting(self, setup, group_size, monkeypatch):
        def predict(*args):
            raise AssertionError("predicted before checking the group size")

        monkeypatch.setattr(metrics.net_mod, "predict_dataset", predict)
        with pytest.raises(ValueError, match="group size"):
            self.evaluate(setup, "pc", group_size=group_size)

    def test_unknown_combination_rejected(self, setup, monkeypatch):
        def predict(*args):
            raise AssertionError("predicted before checking the combination")

        monkeypatch.setattr(metrics.net_mod, "predict_dataset", predict)
        for combination in ("median", "single", "PC", "", ["pc"]):
            with pytest.raises(ValueError, match="unknown combination"):
                self.evaluate(setup, combination)

    def test_float_group_size_rejected(self, setup):
        model, net, dataset, _ = setup
        with pytest.raises(ValueError, match="group size"):
            metrics.evaluate(dataset, net, model, 2.0, "pc", np.random.default_rng(9))


class TestLabelWidths:
    """A dataset whose `theta` or `beta` is not as wide as the model's pose
    or shape is rejected by `evaluate` and `network.train` before they
    predict or step, naming both widths; before the check it failed inside
    LBS with numpy's "cannot reshape"."""

    @pytest.fixture(scope="class")
    def setup(self):
        model = bm.generate_toy_model(2, 300, 16)
        net = network.PredictorNet.for_model(
            model, network.EncoderConfig(pool_to=16, channels=(2, 4, 8)), hidden=16, seed=0
        )
        samples = synth.generate_dataset(
            model, synth.GenerationConfig(image_size=64, focal_length=75.0),
            synth.AugmentationConfig(), num_subjects=1, poses_per_subject=2, seed=3,
            corrupt=False,
        )
        return model, net, synth.SynthDataset.from_samples(samples)

    @pytest.fixture(params=[("theta", 5), ("beta", 3), ("beta", 11)],
                    ids=["theta-5", "beta-3", "beta-11"])
    def cut(self, request, setup):
        model, net, dataset = setup
        name, width = request.param
        arrays = dict(dataset.arrays)
        full = arrays[name]
        arrays[name] = np.hstack([full, full])[:, :width]
        want = {"theta": model.pose_dim, "beta": model.shape_dim}[name]
        assert len(dataset) == 2 and full.shape[1] == want != width
        return synth.SynthDataset(arrays, dataset.meta), rf"{name} has width {width}\b.*\b{want}\b"

    def test_evaluate_rejects_before_predicting(self, setup, cut, monkeypatch):
        model, net, _ = setup
        bad, message = cut

        def predict(*args):
            raise AssertionError("predicted before checking the label widths")

        monkeypatch.setattr(metrics.net_mod, "predict_dataset", predict)
        with pytest.raises(ValueError, match=message):
            metrics.evaluate(bad, net, model, 1, "pc", np.random.default_rng(0))

    def test_train_rejects_before_a_step(self, setup, cut):
        model, net, _ = setup
        bad, message = cut
        before = {k: v.copy() for k, v in net.params.items()}
        cfg = network.TrainConfig(epochs=1, batch_size=2, reproj_samples=2, seed=0)
        with pytest.raises(ValueError, match=message):
            network.train(net, bad, cfg, model)
        for k in before:
            np.testing.assert_array_equal(net.params[k], before[k])

    def test_matching_widths_pass(self, setup):
        model, _, dataset = setup
        network.check_label_widths(dataset, model)
