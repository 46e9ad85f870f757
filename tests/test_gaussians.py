import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapefuse import autodiff as ad
from shapefuse.gaussians import (
    GaussianDiag,
    PredictionSet,
    fuse_shapes,
    gaussian_nll,
    reparam_sample,
)

from gradcheck import grad_check


def grid_product_moments(means, variances, spacing=1e-3, half_width_sigmas=10.0):
    """Mean/variance of the normalized product density by brute-force grid
    integration (1-D)."""
    means = np.asarray(means, float)
    sigmas = np.sqrt(np.asarray(variances, float))
    lo = (means - half_width_sigmas * sigmas).min()
    hi = (means + half_width_sigmas * sigmas).max()
    x = np.arange(lo, hi + spacing, spacing)
    log_density = np.zeros_like(x)
    for m, v in zip(means, np.asarray(variances, float)):
        log_density += -0.5 * (x - m) ** 2 / v - 0.5 * np.log(2 * np.pi * v)
    density = np.exp(log_density - log_density.max())
    density /= density.sum()
    mean = (x * density).sum()
    var = ((x - mean) ** 2 * density).sum()
    return mean, var


def gaussians(dim):
    """(n, dim) stacks of 1 to 6 isotropic Gaussians."""
    return st.lists(
        st.tuples(
            st.floats(-5, 5, allow_nan=False),
            st.floats(0.05, 10.0, allow_nan=False),
        ),
        min_size=1,
        max_size=6,
    ).map(
        lambda items: GaussianDiag(
            np.array([np.full(dim, m) for m, _ in items]),
            np.array([np.full(dim, v) for _, v in items]),
        )
    )


def stack(*dists: GaussianDiag) -> GaussianDiag:
    return GaussianDiag(np.stack([d.mean for d in dists]), np.stack([d.var for d in dists]))


class TestFusion:
    def test_single_input_unchanged(self):
        d = GaussianDiag(np.array([1.0, -2.0]), np.array([0.5, 3.0]))
        out = fuse_shapes(stack(d))
        np.testing.assert_array_equal(out.mean, d.mean)
        np.testing.assert_array_equal(out.var, d.var)

    def test_two_identical_double_precision(self):
        d = GaussianDiag(np.array([1.0]), np.array([4.0]))
        out = fuse_shapes(stack(d, d))
        assert out.mean[0] == pytest.approx(1.0)
        assert out.var[0] == pytest.approx(2.0)

    def test_hand_case_and_grid_oracle(self):
        a = GaussianDiag(np.array([1.0]), np.array([0.25]))
        b = GaussianDiag(np.array([3.0]), np.array([1.0]))
        out = fuse_shapes(stack(a, b))
        assert out.mean[0] == pytest.approx(1.4)
        assert out.var[0] == pytest.approx(0.2)
        grid_mean, grid_var = grid_product_moments([1.0, 3.0], [0.25, 1.0])
        assert abs(out.mean[0] - grid_mean) < 1e-3
        assert abs(out.var[0] - grid_var) < 1e-3

    def test_grid_oracle_2d(self):
        # diagonal 2-D product: each dimension checked against the 1-D grid
        dists = GaussianDiag(np.array([[0.5, -1.0], [2.0, 1.5], [-0.5, 0.0]]),
                             np.array([[0.3, 2.0], [1.2, 0.4], [0.8, 0.9]]))
        out = fuse_shapes(dists)
        for k in range(2):
            gm, gv = grid_product_moments(dists.mean[:, k], dists.var[:, k])
            assert abs(out.mean[k] - gm) < 1e-3
            assert abs(out.var[k] - gv) < 1e-3

    def test_errors(self):
        with pytest.raises(ValueError):
            fuse_shapes(GaussianDiag(np.zeros((0, 2)), np.ones((0, 2))))
        with pytest.raises(ValueError):
            stack(GaussianDiag(np.zeros(2), np.ones(2)), GaussianDiag(np.zeros(3), np.ones(3)))
        with pytest.raises(ValueError):
            fuse_shapes(GaussianDiag(np.zeros(2), np.ones(2)))
        with pytest.raises(ValueError):
            GaussianDiag(np.zeros(2), np.array([1.0, 0.0]))

    @settings(max_examples=60, deadline=None)
    @given(gaussians(dim=3), st.randoms(use_true_random=False))
    def test_order_invariant_and_associative(self, dists, pyrandom):
        fused = fuse_shapes(dists)
        order = list(range(len(dists.mean)))
        pyrandom.shuffle(order)
        fused_shuffled = fuse_shapes(dists[order])
        np.testing.assert_allclose(fused.mean, fused_shuffled.mean, atol=1e-12)
        np.testing.assert_allclose(fused.var, fused_shuffled.var, atol=1e-12)
        if len(dists.mean) >= 3:
            rest = [dists[i] for i in range(2, len(dists.mean))]
            nested = fuse_shapes(stack(fuse_shapes(dists[:2]), *rest))
            np.testing.assert_allclose(fused.mean, nested.mean, atol=1e-12)
            np.testing.assert_allclose(fused.var, nested.var, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_n_copies_divides_variance_exactly(self, n):
        d = GaussianDiag(np.array([0.7, -1.3]), np.array([2.0, 0.5]))
        out = fuse_shapes(stack(*[d] * n))
        np.testing.assert_allclose(out.mean, d.mean, atol=1e-12)
        np.testing.assert_allclose(out.var, d.var / n, rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(gaussians(dim=2))
    def test_fused_mean_in_componentwise_hull_and_var_bounded(self, dists):
        out = fuse_shapes(dists)
        assert np.all(out.mean >= dists.mean.min(axis=0) - 1e-9)
        assert np.all(out.mean <= dists.mean.max(axis=0) + 1e-9)
        assert np.all(out.var <= dists.var.min(axis=0) + 1e-12)

    def test_huge_variance_input_gets_no_weight(self):
        sharp = GaussianDiag(np.array([1.0]), np.array([1.0]))
        vague = GaussianDiag(np.array([100.0]), np.array([1e12]))
        out = fuse_shapes(stack(sharp, vague))
        assert abs(out.mean[0] - 1.0) < 1e-6
        assert out.var[0] == pytest.approx(1.0, rel=1e-6)


class TestReparamSampling:
    def test_zero_noise_returns_mean(self):
        d = GaussianDiag(np.array([1.0, 2.0]), np.array([4.0, 9.0]))
        np.testing.assert_array_equal(reparam_sample(d.mean, d.var, np.zeros(2)), d.mean)

    def test_unit_noise_adds_std(self):
        d = GaussianDiag(np.array([1.0]), np.array([4.0]))
        assert reparam_sample(d.mean, d.var, np.ones(1))[0] == pytest.approx(3.0)

    def test_dimension_mismatch(self):
        d = GaussianDiag(np.array([1.0]), np.array([4.0]))
        with pytest.raises(ValueError):
            reparam_sample(d.mean, d.var, np.zeros(2))

    def test_monte_carlo_moments(self):
        rng = np.random.default_rng(9)
        d = GaussianDiag(np.array([0.5]), np.array([2.5]))
        n = 100_000
        samples = reparam_sample(d.mean, d.var, rng.standard_normal((n, 1)))[:, 0]
        se_mean = np.sqrt(d.var[0] / n)
        assert abs(samples.mean() - d.mean[0]) < 3 * se_mean
        se_var = d.var[0] * np.sqrt(2.0 / (n - 1))
        assert abs(samples.var(ddof=1) - d.var[0]) < 3 * se_var

    def test_differentiable_through_mean_and_var(self):
        eps = np.array([0.7, -1.1])

        def f(xs):
            mean = ad.stack(xs[:2])
            var = ad.exp(ad.stack(xs[2:]))
            return ad.sum_(ad.square(reparam_sample(mean, var, eps)))

        assert grad_check(f, [0.3, -0.2, 0.1, 0.5], step=1e-6) < 1e-6


def nll(d: GaussianDiag, target) -> float:
    return float(gaussian_nll(d.mean, d.var, np.asarray(target, dtype=np.float64)))


class TestNLL:
    def test_log_term_cancels(self):
        d = GaussianDiag(np.array([0.3, -1.0]), np.full(2, 1.0 / (2 * np.pi)))
        assert nll(d, d.mean) == pytest.approx(0.0, abs=1e-12)

    def test_unit_variance_gives_d_log_2pi(self):
        d = GaussianDiag(np.zeros(5), np.ones(5))
        assert nll(d, d.mean) == pytest.approx(5 * np.log(2 * np.pi))

    def test_hand_arithmetic_case(self):
        d = GaussianDiag(np.array([0.0]), np.array([2.0]))
        assert nll(d, [2.0]) == pytest.approx(np.log(4 * np.pi) + 2.0)
        assert nll(d, [2.0]) == pytest.approx(4.5310, abs=1e-4)

    def test_dimension_mismatch(self):
        d = GaussianDiag(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            nll(d, np.zeros(3))

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            gaussian_nll(np.zeros(2), np.array([1.0, -1.0]), np.zeros(2))

    def test_variance_gradient_vanishes_at_squared_residual(self):
        # minimizing the NLL over variance recovers the squared residual
        resid = 1.7

        def f(xs):
            return gaussian_nll(ad.stack([xs[0]]), ad.stack([xs[1]]), np.array([resid]))

        tape = ad.Tape()
        mu = tape.variable(0.0)
        var = tape.variable(resid**2)
        root = gaussian_nll(ad.stack([mu]), ad.stack([var]), np.array([resid]))
        _, g_var = ad.gradient(root, [mu, var])
        assert abs(float(g_var)) < 1e-12
        # and it is a minimum: slightly smaller/larger variance has negative/positive slope
        for v, sign in [(resid**2 * 0.9, -1), (resid**2 * 1.1, +1)]:
            tape = ad.Tape()
            var = tape.variable(v)
            root = gaussian_nll(np.zeros(1), ad.stack([var]), np.array([resid]))
            (g,) = ad.gradient(root, [var])
            assert np.sign(float(g)) == sign


class TestPredictionSet:
    def test_camera_scale_must_be_positive(self):
        pose = GaussianDiag(np.zeros(4), np.ones(4))
        shape = GaussianDiag(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            PredictionSet(pose, shape, np.zeros(3), np.array([-1.0, 0.0, 0.0]))

    def test_valid_construction(self):
        pose = GaussianDiag(np.zeros(4), np.ones(4))
        shape = GaussianDiag(np.zeros(2), np.ones(2))
        ps = PredictionSet(pose, shape, np.zeros(3), np.array([0.9, 0.1, -0.1]))
        assert ps.camera[0] == 0.9

    def test_leading_sample_axis(self):
        rng = np.random.default_rng(0)
        ps = PredictionSet(GaussianDiag(rng.normal(size=(5, 4)), rng.uniform(1, 2, (5, 4))),
                           GaussianDiag(rng.normal(size=(5, 2)), rng.uniform(1, 2, (5, 2))),
                           rng.normal(size=(5, 3)), np.tile([0.9, 0.1, -0.1], (5, 1)))
        assert len(ps) == 5
        row = ps[3]
        np.testing.assert_array_equal(row.pose.var, ps.pose.var[3])
        np.testing.assert_array_equal(row.global_rot, ps.global_rot[3])
        picked = ps[[4, 0]]
        assert len(picked) == 2
        np.testing.assert_array_equal(picked.shape.mean, ps.shape.mean[[4, 0]])
        with pytest.raises(TypeError):
            len(row)

    @pytest.mark.parametrize("field", ["shape", "global_rot", "camera"])
    def test_mismatched_sample_axes_rejected(self, field):
        fields = dict(pose=GaussianDiag(np.zeros((3, 4)), np.ones((3, 4))),
                      shape=GaussianDiag(np.zeros((3, 2)), np.ones((3, 2))),
                      global_rot=np.zeros((3, 3)), camera=np.ones((3, 3)))
        fields[field] = fields[field][:2]
        with pytest.raises(ValueError):
            PredictionSet(**fields)

    def test_any_non_positive_camera_scale_rejected(self):
        camera = np.ones((3, 3))
        camera[1, 0] = 0.0
        with pytest.raises(ValueError, match="camera scale"):
            PredictionSet(GaussianDiag(np.zeros((3, 4)), np.ones((3, 4))),
                          GaussianDiag(np.zeros((3, 2)), np.ones((3, 2))),
                          np.zeros((3, 3)), camera)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field,entry", [("global_rot", 0), ("global_rot", 2),
                                             ("camera", 0), ("camera", 1), ("camera", 2)])
    def test_non_finite_rotation_or_camera_rejected(self, field, entry, bad):
        fields = dict(pose=GaussianDiag(np.zeros((3, 4)), np.ones((3, 4))),
                      shape=GaussianDiag(np.zeros((3, 2)), np.ones((3, 2))),
                      global_rot=np.zeros((3, 3)), camera=np.ones((3, 3)))
        fields[field][1, entry] = bad
        with pytest.raises(ValueError, match="^global rotation and camera must be finite$"):
            PredictionSet(**fields)
