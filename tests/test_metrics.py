import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapefuse import bodymodel as bm
from shapefuse import metrics
from shapefuse.gaussians import GaussianDiag, PredictionSet


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


class TestPerVertexUncertainty:
    def test_equals_linalg_norm_bit_for_bit(self, monkeypatch):
        model = bm.generate_toy_model(seed=4, num_vertices=200, num_joints=12)
        rng = np.random.default_rng(6)
        pred = PredictionSet(
            pose=GaussianDiag(rng.normal(scale=0.2, size=model.pose_dim),
                              rng.uniform(0.01, 0.1, model.pose_dim)),
            shape=GaussianDiag(rng.normal(size=model.shape_dim),
                               rng.uniform(0.1, 1.0, model.shape_dim)),
            global_rot=[0.1, -0.3, 0.2],
            camera=[1.0, 0.0, 0.0],
        )
        draws = []
        lbs = bm.lbs_vertices

        def recording(*args):
            out = lbs(*args)
            draws.append(np.asarray(out))
            return out

        monkeypatch.setattr(bm, "lbs_vertices", recording)
        got = metrics.per_vertex_uncertainty(pred, model, n_samples=30,
                                             rng=np.random.default_rng(7))
        (verts,) = draws
        assert verts.shape == (30, 200, 3)
        want = np.linalg.norm(verts - verts.mean(axis=0), axis=2).mean(axis=0) * metrics.CM
        assert want.min() > 0
        np.testing.assert_array_equal(got, want)


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


class TestGirths:
    @pytest.mark.parametrize("n", [3, 8, 24])
    @pytest.mark.parametrize("plane", [0.37, 1.0], ids=["between-rings", "on-ring"])
    def test_prism_slice_is_the_ngon_perimeter(self, n, plane):
        r = 0.3
        vertices, faces = closed_prism(n, r)
        girth = metrics._slice_girth(vertices, faces, np.ones(len(faces), bool), 1, plane)
        assert girth == pytest.approx(2 * n * r * np.sin(np.pi / n), rel=1e-12, abs=0)

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
        else:
            assert "mean_per_vertex_uncertainty_cm" not in got
