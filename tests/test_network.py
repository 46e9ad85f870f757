import dataclasses
import gc
import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from shapefuse import autodiff as ad
from shapefuse import bodymodel as bm
from shapefuse import camera as cr
from shapefuse import network as net_mod
from shapefuse import synth
from shapefuse.containerio import ContainerError, read_container, write_container
from shapefuse.gaussians import GaussianDiag, PredictionSet, gaussian_nll
from shapefuse.rng import named_rng

from gradcheck import grad_check


TINY_ENCODER = dict(pool_to=16, channels=(2, 4, 8))
# `save_weights` of the tiny network (seed 0) with zero Adam moments at t=3, epoch 2
SAVED_WEIGHTS_SHA256 = "55d3f79b2a21bcf33783f033ab906d0c64cd7a53f0247ce2deac4e441a9aa3a5"


@pytest.fixture(scope="module")
def tiny_model():
    return bm.generate_toy_model(seed=5, num_vertices=120, num_joints=16)


@pytest.fixture(scope="module")
def tiny_net(tiny_model):
    return net_mod.PredictorNet.for_model(
        tiny_model, net_mod.EncoderConfig(**TINY_ENCODER), hidden=16, seed=0
    )


@pytest.fixture(scope="module")
def tiny_data(tiny_model):
    return synth.generate_dataset(
        tiny_model, synth.GenerationConfig(image_size=64, focal_length=75.0),
        synth.AugmentationConfig(), num_subjects=10, poses_per_subject=2, seed=3, corrupt=True,
    )


def average_pool(images: np.ndarray, out_size: int) -> np.ndarray:
    """(..., H, W, C) -> (..., out, out, C) by block averaging: the pooling
    oracle for `pooled_from_dataset`."""
    h, w = images.shape[-3], images.shape[-2]
    if h % out_size or w % out_size:
        raise ValueError(f"image size {h}x{w} not divisible by pooled size {out_size}")
    f = h // out_size
    lead = images.shape[:-3]
    c = images.shape[-1]
    reshaped = images.reshape(lead + (out_size, f, out_size, f, c))
    return reshaped.mean(axis=(-4, -2))


def window_profiles(joints2d, visibility, size: int) -> tuple:
    """The (..., L, S) full-resolution row and column profiles, drawn on
    every call by the heatmap window rule over the whole frame: the
    full-resolution oracle for `camera.heatmap_profiles`."""
    centers = cr.joint_pixel(joints2d)
    visible = np.asarray(visibility).astype(bool)[..., None]
    radius = int(np.ceil(4 * cr.HEATMAP_SIGMA))

    def profile(center):
        offset = np.arange(size) - center[..., None]
        window = visible & (np.abs(offset) <= radius)
        return np.where(window, np.exp(-(offset**2) / (2.0 * cr.HEATMAP_SIGMA**2)), 0.0)

    return profile(centers[..., 1]), profile(centers[..., 0])


def block_mean_profiles(joints2d, visibility, size: int, pool_to: int) -> tuple:
    """`window_profiles` averaged by `mean` over blocks of f = S / P
    pixels: the bit-for-bit oracle for `camera.heatmap_profiles`."""
    f = size // pool_to
    return tuple(p.reshape(p.shape[:-1] + (pool_to, f)).mean(axis=-1)
                 for p in window_profiles(joints2d, visibility, size))


def block_mean_silhouette(silhouette: np.ndarray, pool_to: int) -> np.ndarray:
    """(..., S, S) 0/1 silhouettes -> (..., P, P) block means by int64 row
    then column sums, one reduction each: the bit-for-bit oracle for the
    silhouette of `pooled_from_dataset`."""
    lead, size = silhouette.shape[:-2], silhouette.shape[-1]
    f = size // pool_to
    rows = silhouette.reshape(lead + (pool_to, f, size)).sum(axis=-2, dtype=np.int64)
    return rows.reshape(lead + (pool_to, pool_to, f)).sum(axis=-1) / (f * f)


def dense_stack(pooled) -> np.ndarray:
    """The dense (..., P, P, L+1) stack of a `PooledProxy`: the silhouette at
    channel 0 and heatmap l at 1 + l, the outer product of its profiles."""
    heatmaps = np.einsum("...lh,...lw->...hwl", pooled.rows, pooled.cols)
    return np.concatenate([pooled.silhouette[..., None], heatmaps], axis=-1)


def random_pooled(rng, batch, pool, num_joints) -> net_mod.PooledProxy:
    return net_mod.PooledProxy(rng.uniform(0, 1, size=(batch, pool, pool)),
                               rng.uniform(0, 1, size=(batch, num_joints, pool)),
                               rng.uniform(0, 1, size=(batch, num_joints, pool)))


def conv_mlp_oracle(net, params, pooled):
    """Nested-loop forward of the encoder and MLP: 3x3 stride-2 convolutions
    with zero padding and ELU, then the dense layers. Conv weights are laid
    out (kernel row, kernel column, input channel) by output channel."""
    def elu(a):
        return np.where(a > 0, a, np.expm1(np.minimum(a, 0.0)))

    x = pooled
    k = 3
    for i in range(len(net.encoder.channels)):
        B, h, w, c_in = x.shape
        weight = params[f"conv{i}_w"].reshape(k, k, c_in, -1)
        out = np.zeros((B, (h + 1) // 2, (w + 1) // 2, weight.shape[-1]))
        for orow in range(out.shape[1]):
            for ocol in range(out.shape[2]):
                for kr in range(k):
                    for kc in range(k):
                        ir, ic = 2 * orow - k // 2 + kr, 2 * ocol - k // 2 + kc
                        if 0 <= ir < h and 0 <= ic < w:
                            out[:, orow, ocol] += x[:, ir, ic] @ weight[kr, kc]
        x = elu(out + params[f"conv{i}_b"])
    hidden = elu(x.reshape(x.shape[0], -1) @ params["dense0_w"] + params["dense0_b"])
    return hidden @ params["dense1_w"] + params["dense1_b"]


def reproj_loss(pred, model, joints_norm, visibility, n_draws, rng) -> float:
    """`loss_reproj_batch` on one prediction with `n_draws` fresh draws."""
    heads, _ = heads_from_prediction(pred)
    value = net_mod.loss_reproj_batch(
        heads, model, joints_norm[None], np.asarray(visibility)[None],
        rng.standard_normal((1, n_draws, pred.pose.dim)),
        rng.standard_normal((1, n_draws, pred.shape.dim)),
    )
    return float(ad.value_of(value))


def heads_from_prediction(pred, tape=None):
    arrays = {
        "pose_mean": pred.pose.mean[None],
        "pose_var": pred.pose.var[None],
        "shape_mean": pred.shape.mean[None],
        "shape_var": pred.shape.var[None],
        "glob": pred.global_rot[None],
        "camera": pred.camera[None],
    }
    if tape is None:
        return arrays, None
    leaves = {k: tape.variable(v) for k, v in arrays.items()}
    return leaves, leaves


class TestOutputContract:
    def test_output_dim_164_for_24_joint_body(self):
        model = bm.generate_toy_model(seed=1, num_vertices=150, num_joints=24)
        net = net_mod.PredictorNet.for_model(model)
        assert model.pose_dim == 69
        assert net.params["dense1_b"].shape == (164,)
        pooled = random_pooled(np.random.default_rng(3), 2, 64, model.num_keypoints)
        heads = net.heads(pooled)
        shapes = [heads[k].shape for k in
                  ("pose_mean", "pose_var", "shape_mean", "shape_var", "glob", "camera")]
        assert shapes == [(2, 69), (2, 69), (2, 10), (2, 10), (2, 3), (2, 3)]
        # the heads are the output layer's columns in that order
        raw = net.raw_outputs(pooled)
        np.testing.assert_array_equal(heads["pose_mean"], raw[:, :69])
        np.testing.assert_array_equal(heads["shape_mean"], raw[:, 138:148])
        np.testing.assert_array_equal(heads["glob"], raw[:, 158:161])
        np.testing.assert_array_equal(heads["camera"][:, 1:], raw[:, 162:])

    def test_zero_input_finite_positive_variances(self, tiny_net, tiny_model):
        L = tiny_model.num_keypoints
        heads = tiny_net.heads(net_mod.PooledProxy(np.zeros((1, 16, 16)), np.zeros((1, L, 16)),
                                                   np.zeros((1, L, 16))))
        assert np.all(np.isfinite(heads["pose_mean"]))
        assert np.all(heads["pose_var"] > 0)
        assert np.all(heads["shape_var"] > 0)
        assert heads["camera"][0, 0] > 0

    def test_deterministic(self, tiny_net, tiny_data):
        samples = tiny_data
        ds = synth.SynthDataset.from_samples(samples[:3])
        p1 = net_mod.predict_dataset(tiny_net, ds)
        p2 = net_mod.predict_dataset(tiny_net, ds)
        for a, b in zip(p1, p2):
            np.testing.assert_array_equal(a.pose.mean, b.pose.mean)
            np.testing.assert_array_equal(a.pose.var, b.pose.var)
            np.testing.assert_array_equal(a.camera, b.camera)

    def test_positive_variances_on_random_inputs(self, tiny_net, tiny_model):
        rng = np.random.default_rng(0)
        heads = tiny_net.heads(random_pooled(rng, 64, 16, tiny_model.num_keypoints))
        assert np.all(heads["pose_var"] > 0)
        assert np.all(heads["shape_var"] > 0)
        assert np.all(heads["camera"][:, 0] > 0)

    def test_raw_outputs_match_nested_loop_convolution(self, tiny_model):
        rng = np.random.default_rng(15)
        for pool in (16, 32):
            net = net_mod.PredictorNet.for_model(
                tiny_model, net_mod.EncoderConfig(pool_to=pool, channels=(2, 4, 8)),
                hidden=16, seed=0,
            )
            params = {k: v + rng.normal(scale=0.1, size=v.shape) for k, v in net.params.items()}
            pooled = random_pooled(rng, 3, pool, tiny_model.num_keypoints)
            pooled.rows[:, 2] = pooled.cols[:, 2] = 0.0  # an invisible joint
            got = net.raw_outputs(pooled, params)
            np.testing.assert_allclose(got, conv_mlp_oracle(net, params, dense_stack(pooled)),
                                       rtol=0, atol=1e-12)

            tape = ad.Tape()
            taped = net.raw_outputs(pooled, {k: tape.variable(v) for k, v in params.items()})
            np.testing.assert_array_equal(taped.value, got)

    def test_first_stage_gradients_match_fd(self, tiny_model):
        net = net_mod.PredictorNet.for_model(
            tiny_model, net_mod.EncoderConfig(**TINY_ENCODER), hidden=16, seed=1
        )
        rng = np.random.default_rng(16)
        pooled = random_pooled(rng, 2, 16, tiny_model.num_keypoints)
        pooled.rows[:, 3] = pooled.cols[:, 3] = 0.0
        probe = rng.normal(size=(2, net.params["dense1_b"].shape[0]))
        w_shape = net.params["conv0_w"].shape
        n_w = int(np.prod(w_shape))

        def f(xs):
            params = dict(net.params, conv0_w=ad.reshape(ad.stack(xs[:n_w]), w_shape),
                          conv0_b=ad.stack(xs[n_w:]))
            return ad.sum_(net.raw_outputs(pooled, params) * probe)

        x0 = np.concatenate([net.params["conv0_w"].ravel(), rng.normal(scale=0.1, size=2)])
        assert grad_check(f, x0) < 1e-6

    def test_channel_mismatch_rejected(self, tiny_net):
        with pytest.raises(ValueError):
            tiny_net.heads(net_mod.PooledProxy(np.zeros((1, 16, 16)), np.zeros((1, 3, 16)),
                                               np.zeros((1, 3, 16))))

    def test_prediction_rows_equal_heads_of_each_sample(self, tiny_net, tiny_data):
        samples = tiny_data
        ds = synth.SynthDataset.from_samples(samples[:5])
        predictions = net_mod.predict_dataset(tiny_net, ds)
        assert len(predictions) == 5
        assert predictions.pose.mean.shape == (5, tiny_net.pose_dim)
        batch = tiny_net.heads(net_mod.pooled_from_dataset(ds, np.arange(5), 16))
        for i in range(5):
            # alone, the sample goes through a one-row GEMM: same values up to rounding
            alone = tiny_net.heads(net_mod.pooled_from_dataset(ds, np.array([i]), 16))
            row = predictions[i]
            for got, key in ((row.pose.mean, "pose_mean"), (row.pose.var, "pose_var"),
                             (row.shape.mean, "shape_mean"), (row.shape.var, "shape_var"),
                             (row.global_rot, "glob"), (row.camera, "camera")):
                np.testing.assert_array_equal(got, batch[key][i])
                np.testing.assert_allclose(got, alone[key][0], rtol=1e-12, atol=1e-15)


class TestEncoderConfig:
    def test_feature_dim_floor(self):
        with pytest.raises(ValueError):
            net_mod.EncoderConfig(pool_to=8, channels=(2, 2, 2))

    @pytest.mark.parametrize("layout", [
        pytest.param(dict(channels=()), id="no-channels"),
        pytest.param(dict(channels=(8, 0, 32)), id="zero-channels"),
        pytest.param(dict(pool_to=-16), id="negative-pool-to"),
    ])
    def test_malformed_layout_rejected(self, layout):
        with pytest.raises(ValueError):
            net_mod.EncoderConfig(**layout)

    def test_default_is_valid(self):
        assert net_mod.EncoderConfig().feature_dim == 8 * 8 * 32

    def test_numpy_int_layout_equals_int_layout(self, tiny_model, tiny_net):
        cfg = net_mod.EncoderConfig(pool_to=np.int64(16), channels=(2, np.int32(4), 8))
        assert cfg == net_mod.EncoderConfig(**TINY_ENCODER)
        net = net_mod.PredictorNet.for_model(tiny_model, cfg, hidden=16, seed=0)
        assert net.params.keys() == tiny_net.params.keys()
        for k in net.params:
            np.testing.assert_array_equal(net.params[k], tiny_net.params[k])
        for got, want in zip(net._conv_tables, tiny_net._conv_tables):
            np.testing.assert_array_equal(got, want)

    def test_frozen_and_replace_checks(self):
        cfg = net_mod.EncoderConfig(**TINY_ENCODER)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.pool_to = 32
        assert dataclasses.replace(cfg, pool_to=32).feature_dim == 4 * 4 * 8
        with pytest.raises(ValueError):
            dataclasses.replace(cfg, pool_to=12)


class TestTrainConfig:
    @pytest.mark.parametrize("field", [
        dict(batch_size=2.5), dict(reproj_samples=1.5), dict(epochs=1.5),
        dict(batch_size=0), dict(reproj_samples=0), dict(learning_rate=-1e-3),
        dict(learning_rate="1e-3"), dict(learning_rate=float("inf")),
        dict(learning_rate=float("nan")), dict(batch_size=True), dict(seed=1.5),
        dict(seed=True), dict(learning_rate=True), dict(lambda_2d=-1.0),
        dict(lambda_2d=float("nan")), dict(lambda_glob=float("inf")), dict(lambda_2d="x"),
        dict(lambda_glob=True),
    ], ids=["float-batch", "float-draws", "float-epochs", "zero-batch", "zero-draws",
            "negative-rate", "string-rate", "inf-rate", "nan-rate", "bool-batch",
            "float-seed", "bool-seed", "bool-rate", "negative-lambda-2d", "nan-lambda-2d",
            "inf-lambda-glob", "string-lambda-2d", "bool-lambda-glob"])
    def test_malformed_config_rejected(self, field):
        with pytest.raises(ValueError):
            net_mod.TrainConfig(**field)
        with pytest.raises(ValueError):
            dataclasses.replace(net_mod.TrainConfig(), **field)

    def test_numpy_scalars_accepted(self, tiny_model, tiny_data):
        cfg = net_mod.TrainConfig(learning_rate=np.float32(1e-3), batch_size=np.int64(2),
                                  epochs=1, reproj_samples=np.int32(2), seed=np.uint8(3))
        net = net_mod.PredictorNet.for_model(tiny_model, net_mod.EncoderConfig(**TINY_ENCODER),
                                             hidden=16, seed=0)
        log = net_mod.train(net, synth.SynthDataset.from_samples(tiny_data[:4]), cfg,
                            tiny_model)
        assert len(log) == 1 and np.isfinite(log[0]["total"])

    def test_zero_loss_weights_accepted(self):
        cfg = net_mod.TrainConfig(lambda_glob=0.0, lambda_2d=0)
        assert dataclasses.replace(cfg, lambda_2d=0.0).lambda_2d == 0.0

    def test_frozen(self):
        cfg = net_mod.TrainConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.learning_rate = 1.0


class TestGlobalRotationLoss:
    def test_zero_at_equality(self):
        g = np.array([0.3, -0.5, 0.2])
        assert float(ad.value_of(net_mod.loss_glob(g, g))) == pytest.approx(0.0)

    def test_pi_rotation_gives_eight(self):
        # trace identity: |R1 - R2|_F^2 = 6 - 2 tr(R1^T R2) = 8 at angle pi
        g = np.array([0.0, 0.0, 0.0])
        g_hat = np.array([np.pi - 1e-12, 0.0, 0.0])
        val = float(ad.value_of(net_mod.loss_glob(g_hat, g)))
        assert val == pytest.approx(8.0, abs=1e-9)

    def test_trace_identity_random(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = rng.normal(scale=0.7, size=(2, 3))
            val = float(ad.value_of(net_mod.loss_glob(a, b)))
            Ra, Rb = np.asarray(bm.rodrigues(a)), np.asarray(bm.rodrigues(b))
            want = 6.0 - 2.0 * np.trace(Rb.T @ Ra)
            assert val == pytest.approx(want, abs=1e-9)

    def test_gradient_matches_fd(self):
        target = np.array([0.2, 0.4, -0.3])

        def f(xs):
            return net_mod.loss_glob(ad.stack(xs), target)

        rng = np.random.default_rng(2)
        for _ in range(5):
            assert grad_check(f, rng.normal(scale=0.6, size=3)) < 1e-4


class TestReprojectionLoss:
    def _make_pred(self, model, var=1e-4):
        P = model.pose_dim
        rng = np.random.default_rng(3)
        return PredictionSet(
            pose=GaussianDiag(rng.normal(scale=0.2, size=P), np.full(P, var)),
            shape=GaussianDiag(rng.normal(scale=0.5, size=10), np.full(10, var)),
            global_rot=rng.normal(scale=0.3, size=3),
            camera=np.array([0.9, 0.05, -0.02]),
        )

    def test_all_invisible_gives_zero(self, tiny_model):
        pred = self._make_pred(tiny_model)
        L = tiny_model.num_keypoints
        loss = reproj_loss(pred, tiny_model, np.zeros((L, 2)),
                           np.zeros(L, dtype=int), 4, named_rng(0, "r"))
        assert loss == 0.0

    def test_degenerate_distribution_recovers_targets(self, tiny_model):
        pred = self._make_pred(tiny_model, var=1e-18)
        verts = bm.forward(tiny_model, pred.pose.mean, pred.shape.mean, pred.global_rot)
        joints3d = np.asarray(bm.regress_joints(tiny_model, verts))
        targets = np.asarray(cr.project_weak(joints3d, pred.camera))
        L = tiny_model.num_keypoints
        loss = reproj_loss(pred, tiny_model, targets,
                           np.ones(L, dtype=int), 4, named_rng(1, "r"))
        assert loss < 1e-12

    def test_gradients_match_fd_with_frozen_noise(self, tiny_model):
        model = tiny_model
        P = model.pose_dim
        rng = np.random.default_rng(4)
        L = model.num_keypoints
        joints_norm = rng.uniform(-0.8, 0.8, size=(1, L, 2))
        vis = (rng.random((1, L)) < 0.8).astype(np.int64)
        n_draws = 2
        noise_pose = rng.standard_normal((1, n_draws, P))
        noise_shape = rng.standard_normal((1, n_draws, 10))

        x0 = np.concatenate([
            rng.normal(scale=0.2, size=P),      # pose mean
            rng.uniform(-2, 0, size=P),         # pose log-var
            rng.normal(scale=0.5, size=10),     # shape mean
            rng.uniform(-2, 0, size=10),        # shape log-var
            rng.normal(scale=0.3, size=3),      # glob
            [0.0, 0.05, -0.05],                 # camera (log-scale, tx, ty)
        ])

        def f(xs):
            stacked = ad.stack(xs)
            heads = {
                "pose_mean": ad.reshape(stacked[:P], (1, P)),
                "pose_var": ad.reshape(ad.exp(stacked[P : 2 * P]), (1, P)),
                "shape_mean": ad.reshape(stacked[2 * P : 2 * P + 10], (1, 10)),
                "shape_var": ad.reshape(ad.exp(stacked[2 * P + 10 : 2 * P + 20]), (1, 10)),
                "glob": ad.reshape(stacked[2 * P + 20 : 2 * P + 23], (1, 3)),
                "camera": ad.reshape(
                    ad.concat([ad.exp(stacked[2 * P + 23 : 2 * P + 24]),
                               stacked[2 * P + 24 :]]),
                    (1, 3),
                ),
            }
            return net_mod.loss_reproj_batch(heads, model, joints_norm, vis,
                                             noise_pose, noise_shape)

        assert grad_check(f, x0, step=1e-5) < 1e-4

    def test_estimator_mean_independent_of_draw_count(self, tiny_model):
        # per-draw average has the same expectation for any B (3 SE check)
        pred = self._make_pred(tiny_model, var=0.05)
        verts = bm.forward(tiny_model, pred.pose.mean, pred.shape.mean, pred.global_rot)
        joints3d = np.asarray(bm.regress_joints(tiny_model, verts))
        targets = np.asarray(cr.project_weak(joints3d, pred.camera))
        L = tiny_model.num_keypoints
        vis = np.ones(L, dtype=int)

        def estimate(n_draws, n_rep, key):
            vals = []
            for i in range(n_rep):
                v = reproj_loss(pred, tiny_model, targets, vis, n_draws, named_rng(key, "mc", i))
                vals.append(v / n_draws)
            return np.array(vals)

        a = estimate(1, 2500, 10)
        b = estimate(4, 650, 11)
        se = np.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
        assert abs(a.mean() - b.mean()) <= 3 * se


class TestTotalLoss:
    def _setup(self, tiny_model, tiny_net, tiny_data):
        samples = tiny_data
        ds = synth.SynthDataset.from_samples(samples[:4])
        ds_targets = {
            "theta": np.stack([s.theta for s in samples[:4]]),
            "beta": np.stack([s.beta for s in samples[:4]]),
            "glob": np.stack([s.glob for s in samples[:4]]),
            "joints_norm": np.stack(
                [cr.normalize_pixels(s.joints2d, 64) for s in samples[:4]]
            ),
            "visibility": np.stack([s.visibility for s in samples[:4]]),
        }
        return net_mod.pooled_from_dataset(ds, np.arange(4), 16), ds_targets

    def test_zero_lambdas_equals_nll(self, tiny_model, tiny_net, tiny_data):
        pooled, targets = self._setup(tiny_model, tiny_net, tiny_data)
        heads = tiny_net.heads(pooled)
        cfg = net_mod.TrainConfig(lambda_glob=0.0, lambda_2d=0.0, reproj_samples=2)
        noise_p = np.zeros((4, 2, tiny_model.pose_dim))
        noise_s = np.zeros((4, 2, 10))
        total, parts = net_mod.loss_total_batch(heads, targets, tiny_model, cfg, noise_p, noise_s)
        assert float(ad.value_of(total)) == pytest.approx(parts["nll"])

    def test_additivity_in_lambdas(self, tiny_model, tiny_net, tiny_data):
        pooled, targets = self._setup(tiny_model, tiny_net, tiny_data)
        heads = tiny_net.heads(pooled)
        rng = named_rng(0, "noise")
        noise_p = rng.standard_normal((4, 2, tiny_model.pose_dim))
        noise_s = rng.standard_normal((4, 2, 10))

        def total_for(lg, l2):
            cfg = net_mod.TrainConfig(lambda_glob=lg, lambda_2d=l2, reproj_samples=2)
            t, parts = net_mod.loss_total_batch(heads, targets, tiny_model, cfg, noise_p, noise_s)
            return float(ad.value_of(t)), parts

        t_full, parts = total_for(1.0, 0.01)
        t_zero, _ = total_for(0.0, 0.0)
        assert t_full - t_zero == pytest.approx(
            parts["glob"] + 0.01 * parts["reproj"], rel=1e-9
        )

    def test_zero_reprojection_weight_only_scales_the_term(self, tiny_model, tiny_net,
                                                           tiny_data):
        pooled, targets = self._setup(tiny_model, tiny_net, tiny_data)
        rng = named_rng(2, "noise")
        noise_p = rng.standard_normal((4, 2, tiny_model.pose_dim))
        noise_s = rng.standard_normal((4, 2, 10))
        cfg = net_mod.TrainConfig(lambda_glob=0.5, lambda_2d=0.0, reproj_samples=2)

        def gradient_bytes(root_of):
            tape = ad.Tape()
            leaves = {k: tape.variable(v) for k, v in tiny_net.params.items()}
            root = root_of(tiny_net.heads(pooled, leaves))
            return [g.tobytes() for g in ad.gradient(root, list(leaves.values()))]

        def explicit(heads):
            nll = (gaussian_nll(heads["pose_mean"], heads["pose_var"], targets["theta"])
                   + gaussian_nll(heads["shape_mean"], heads["shape_var"], targets["beta"]))
            return (nll + 0.5 * net_mod.loss_glob(heads["glob"], targets["glob"])) / 4.0

        def total(heads):
            return net_mod.loss_total_batch(heads, targets, tiny_model, cfg, noise_p, noise_s)[0]

        assert gradient_bytes(total) == gradient_bytes(explicit)
        heads = tiny_net.heads(pooled)
        _, parts = net_mod.loss_total_batch(heads, targets, tiny_model, cfg, noise_p, noise_s)
        reproj = net_mod.loss_reproj_batch(heads, tiny_model, targets["joints_norm"],
                                           targets["visibility"], noise_p, noise_s)
        assert parts["reproj"] == float(reproj) / 4 > 0

    def test_finite_on_random_net(self, tiny_model, tiny_net, tiny_data):
        pooled, targets = self._setup(tiny_model, tiny_net, tiny_data)
        heads = tiny_net.heads(pooled)
        cfg = net_mod.TrainConfig(reproj_samples=2)
        rng = named_rng(1, "noise")
        total, _ = net_mod.loss_total_batch(
            heads, targets, tiny_model, cfg,
            rng.standard_normal((4, 2, tiny_model.pose_dim)),
            rng.standard_normal((4, 2, 10)),
        )
        assert np.isfinite(float(ad.value_of(total)))


class TestTraining:
    def test_smoke_one_epoch(self, tiny_model, tiny_data):
        samples = tiny_data
        net = net_mod.PredictorNet.for_model(
            tiny_model, net_mod.EncoderConfig(**TINY_ENCODER), hidden=16, seed=1
        )
        cfg = net_mod.TrainConfig(epochs=1, batch_size=5, reproj_samples=2, seed=0)
        log = net_mod.train(net, synth.SynthDataset.from_samples(samples[:10]),
                            cfg, tiny_model)
        assert len(log) == 1
        assert np.isfinite(log[0]["total"])

    def test_start_epoch_resumes_the_epoch_count(self, tiny_model, tiny_data):
        samples = tiny_data
        net = net_mod.PredictorNet.for_model(
            tiny_model, net_mod.EncoderConfig(**TINY_ENCODER), hidden=16, seed=1
        )
        cfg = net_mod.TrainConfig(epochs=3, batch_size=5, reproj_samples=2, seed=0)
        log = net_mod.train(net, synth.SynthDataset.from_samples(samples[:5]),
                            cfg, tiny_model, start_epoch=2)
        assert [row["epoch"] for row in log] == [2]

    @pytest.mark.parametrize("start_epoch", [0.5, -1, "1", None])
    def test_bad_start_epoch_rejected(self, tiny_model, tiny_data, start_epoch):
        samples = tiny_data
        net = net_mod.PredictorNet.for_model(
            tiny_model, net_mod.EncoderConfig(**TINY_ENCODER), hidden=16, seed=1
        )
        before = {k: v.copy() for k, v in net.params.items()}
        cfg = net_mod.TrainConfig(epochs=1, batch_size=5, reproj_samples=2, seed=0)
        with pytest.raises(ValueError, match="start_epoch"):
            net_mod.train(net, synth.SynthDataset.from_samples(samples[:5]),
                          cfg, tiny_model, start_epoch=start_epoch)
        for k in before:
            np.testing.assert_array_equal(net.params[k], before[k])

    @pytest.mark.slow
    def test_overfits_small_set(self, tiny_model, tiny_data):
        samples = tiny_data
        net = net_mod.PredictorNet.for_model(
            tiny_model, net_mod.EncoderConfig(**TINY_ENCODER), hidden=16, seed=2
        )
        cfg = net_mod.TrainConfig(epochs=500, batch_size=20, learning_rate=3e-4,
                                  reproj_samples=2, seed=0)
        log = net_mod.train(net, synth.SynthDataset.from_samples(samples[:20]),
                            cfg, tiny_model)
        assert log[-1]["nll"] < log[0]["nll"]

    def test_same_seed_identical_weights(self, tiny_model, tiny_data):
        samples = tiny_data
        dataset = synth.SynthDataset.from_samples(samples[:14])

        def run():
            net = net_mod.PredictorNet.for_model(
                tiny_model, net_mod.EncoderConfig(**TINY_ENCODER), hidden=16, seed=3
            )
            cfg = net_mod.TrainConfig(epochs=2, batch_size=7, reproj_samples=2, seed=5)
            net_mod.train(net, dataset, cfg, tiny_model)
            return net.params

        p1, p2 = run(), run()
        for k in p1:
            np.testing.assert_array_equal(p1[k], p2[k])

    def test_tapes_freed_without_cycle_collection(self, tiny_model, tiny_data):
        samples = tiny_data
        net = net_mod.PredictorNet.for_model(
            tiny_model, net_mod.EncoderConfig(**TINY_ENCODER), hidden=16, seed=4
        )
        cfg = net_mod.TrainConfig(epochs=1, batch_size=3, reproj_samples=2, seed=0)
        gc.collect()
        gc.disable()
        try:
            net_mod.train(net, synth.SynthDataset.from_samples(samples[:9]),
                          cfg, tiny_model)
            tapes = [o for o in gc.get_objects() if isinstance(o, ad.Tape)]
        finally:
            gc.enable()
        assert tapes == []

    def test_non_finite_gradient_aborts(self, tiny_model, tiny_data, monkeypatch):
        samples = tiny_data
        net = net_mod.PredictorNet.for_model(
            tiny_model, net_mod.EncoderConfig(**TINY_ENCODER), hidden=16, seed=5
        )
        before = {k: v.copy() for k, v in net.params.items()}
        monkeypatch.setattr(
            net_mod.ad, "gradient",
            lambda root, inputs: [np.full(node.shape, np.nan) for node in inputs],
        )
        cfg = net_mod.TrainConfig(epochs=1, batch_size=5, reproj_samples=2, seed=0)
        with pytest.raises(net_mod.TrainDivergenceError, match="gradient"):
            net_mod.train(net, synth.SynthDataset.from_samples(samples[:5]),
                          cfg, tiny_model)
        for k in before:
            np.testing.assert_array_equal(net.params[k], before[k])


def adam_matches_out_of_place_formula(params: dict, rng) -> None:
    """Three `AdamState.step`s against Adam's out-of-place formula, bit for
    bit; the gradients are only read and each parameter is a new array."""
    expected = {k: v.copy() for k, v in params.items()}
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v2 = {k: np.zeros_like(v) for k, v in params.items()}
    opt = net_mod.AdamState(params)
    lr = 3e-3
    for t in range(1, 4):
        grads = {k: rng.normal(size=v.shape) * 10.0**-t for k, v in params.items()}
        unchanged = {k: g.copy() for k, g in grads.items()}
        before = dict(params)
        opt.step(params, grads, lr)
        b1, b2, eps = net_mod.ADAM_BETA1, net_mod.ADAM_BETA2, net_mod.ADAM_EPS
        for k, g in unchanged.items():
            m[k] = b1 * m[k] + (1 - b1) * g
            v2[k] = b2 * v2[k] + (1 - b2) * g * g
            m_hat = m[k] / (1.0 - b1**t)
            v_hat = v2[k] / (1.0 - b2**t)
            expected[k] = expected[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
            np.testing.assert_array_equal(grads[k], g)
            np.testing.assert_array_equal(opt.m[k], m[k])
            np.testing.assert_array_equal(opt.v[k], v2[k])
            np.testing.assert_array_equal(params[k], expected[k])
            assert params[k] is not before[k] and params[k].shape == g.shape
    assert opt.t == 3


class TestAdam:
    def test_matches_out_of_place_formula_bit_for_bit(self):
        rng = np.random.default_rng(7)
        adam_matches_out_of_place_formula({"w": rng.normal(size=(5, 4)), "b": rng.normal(size=4)},
                                          rng)

    def test_blocks_match_out_of_place_formula_bit_for_bit(self):
        # several `ADAM_BLOCK` blocks and a remainder, flat and in two dims
        rng = np.random.default_rng(37)
        block = net_mod.ADAM_BLOCK
        adam_matches_out_of_place_formula(
            {"w": rng.normal(size=(3, block + 1000)), "b": rng.normal(size=2 * block + 17),
             "s": rng.normal(size=(7,))}, rng)

    def test_resume_from_saved_weights_is_bit_identical(self, tiny_model, tiny_data, tmp_path):
        samples = tiny_data
        dataset = synth.SynthDataset.from_samples(samples[:10])

        def fresh():
            net = net_mod.PredictorNet.for_model(
                tiny_model, net_mod.EncoderConfig(**TINY_ENCODER), hidden=16, seed=6
            )
            return net, net_mod.AdamState(net.params)

        def config(epochs):
            return net_mod.TrainConfig(epochs=epochs, batch_size=4, reproj_samples=2, seed=2)

        straight, straight_opt = fresh()
        net_mod.train(straight, dataset, config(2), tiny_model, optimizer=straight_opt)

        first, first_opt = fresh()
        net_mod.train(first, dataset, config(1), tiny_model, optimizer=first_opt)
        path = tmp_path / "w.sfw"
        net_mod.save_weights(path, first, first_opt, epoch=1)
        resumed, resumed_opt, meta = net_mod.load_weights(path)
        log = net_mod.train(resumed, dataset, config(2), tiny_model,
                            start_epoch=meta["epoch"], optimizer=resumed_opt)

        assert [row["epoch"] for row in log] == [1]
        assert resumed_opt.t == straight_opt.t == 6
        for k in straight.params:
            np.testing.assert_array_equal(resumed.params[k], straight.params[k])
            np.testing.assert_array_equal(resumed_opt.m[k], straight_opt.m[k])
            np.testing.assert_array_equal(resumed_opt.v[k], straight_opt.v[k])


class TestWeightsIO:
    def test_round_trip_bit_exact(self, tiny_net, tmp_path):
        path = tmp_path / "w.sfw"
        opt = net_mod.AdamState(tiny_net.params)
        opt.t = 17
        net_mod.save_weights(path, tiny_net, opt, epoch=3)
        loaded, opt2, meta = net_mod.load_weights(path)
        assert meta["epoch"] == 3
        assert opt2.t == 17
        for k in tiny_net.params:
            np.testing.assert_array_equal(loaded.params[k], tiny_net.params[k])

    @pytest.mark.parametrize("epoch", [1.5, True, -1])
    def test_malformed_epoch_rejected_before_writing(self, tiny_net, tmp_path, epoch):
        with pytest.raises(ValueError, match="epoch"):
            net_mod.save_weights(tmp_path / "w.sfw", tiny_net, epoch=epoch)
        assert list(tmp_path.iterdir()) == []

    def test_checksum_corruption_detected(self, tiny_net, tmp_path):
        path = tmp_path / "w.sfw"
        net_mod.save_weights(path, tiny_net)
        data = bytearray(path.read_bytes())
        data[-5] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ContainerError):
            net_mod.load_weights(path)

    def test_partial_optimizer_state_rejected(self, tiny_net, tmp_path):
        path = tmp_path / "w.sfw"
        net_mod.save_weights(path, tiny_net, net_mod.AdamState(tiny_net.params))
        arrays, meta = read_container(path, expected_kind="weights")
        del arrays["adam_v/conv0_w"]
        write_container(path, "weights", arrays, meta)
        with pytest.raises(ContainerError, match="adam_v/conv0_w"):
            net_mod.load_weights(path)

    def test_missing_first_moments_rejected(self, tiny_net, tmp_path):
        # the second moments alone are a partial optimizer state, not none
        path = tmp_path / "w.sfw"
        net_mod.save_weights(path, tiny_net, net_mod.AdamState(tiny_net.params))
        arrays, meta = read_container(path, expected_kind="weights")
        arrays = {k: v for k, v in arrays.items() if not k.startswith("adam_m/")}
        write_container(path, "weights", arrays, meta)
        with pytest.raises(ContainerError, match="adam_m/conv0_w"):
            net_mod.load_weights(path)

    @pytest.mark.parametrize("name", ["param/bogus", "adam_m/bogus", "bogus"])
    def test_unexpected_array_rejected(self, tiny_net, tmp_path, name):
        path = tmp_path / "w.sfw"
        net_mod.save_weights(path, tiny_net, net_mod.AdamState(tiny_net.params))
        arrays, meta = read_container(path, expected_kind="weights")
        arrays[name] = np.zeros(3)
        write_container(path, "weights", arrays, meta)
        with pytest.raises(ContainerError, match="unexpected arrays"):
            net_mod.load_weights(path)

    def test_non_float_parameter_rejected(self, tiny_net, tmp_path):
        path = tmp_path / "w.sfw"
        net_mod.save_weights(path, tiny_net)
        arrays, meta = read_container(path, expected_kind="weights")
        arrays["param/conv0_b"] = arrays["param/conv0_b"].astype(np.int64)
        write_container(path, "weights", arrays, meta)
        with pytest.raises(ContainerError, match="conv0_b missing or misshapen"):
            net_mod.load_weights(path)

    def test_header_sizes_checked_before_building(self, tiny_net, tmp_path):
        # a header claiming a wide hidden layer over the small file's arrays
        # fails on their shapes, before anything of the claimed size is made
        path = tmp_path / "w.sfw"
        net_mod.save_weights(path, tiny_net)
        arrays, meta = read_container(path, expected_kind="weights")
        meta["hidden"] = 20_000
        write_container(path, "weights", arrays, meta)
        tracemalloc.start()
        try:
            with pytest.raises(ContainerError, match="dense0_w missing or misshapen"):
                net_mod.load_weights(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_load_makes_no_random_draw(self, tiny_net, tmp_path, monkeypatch):
        path = tmp_path / "w.sfw"
        optimizer = net_mod.AdamState(tiny_net.params)
        optimizer.t = 5
        net_mod.save_weights(path, tiny_net, optimizer, epoch=1)

        def no_draw(*key):
            raise AssertionError(f"random draw {key!r} while loading weights")

        monkeypatch.setattr(net_mod, "named_rng", no_draw)
        net, loaded, meta = net_mod.load_weights(path)
        assert meta["epoch"] == 1 and loaded.t == 5
        for k, v in tiny_net.params.items():
            np.testing.assert_array_equal(net.params[k], v)
            np.testing.assert_array_equal(loaded.m[k], optimizer.m[k])
            np.testing.assert_array_equal(loaded.v[k], optimizer.v[k])

    def test_saved_bytes_pinned(self, tiny_model, tmp_path):
        # each layer initialises from its own named substream, and the file
        # holds the parameters, then both Adam moments, in layout order
        net = net_mod.PredictorNet.for_model(
            tiny_model, net_mod.EncoderConfig(**TINY_ENCODER), hidden=16, seed=0
        )
        optimizer = net_mod.AdamState(net.params)
        optimizer.t = 3
        path = tmp_path / "w.sfw"
        net_mod.save_weights(path, net, optimizer, epoch=2)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED_WEIGHTS_SHA256

    def test_numpy_scalar_sizes_round_trip(self, tiny_model, tiny_net, tmp_path):
        # numpy ints are ints by the scalar rule; the file holds the Python ints
        encoder = net_mod.EncoderConfig(**dict(TINY_ENCODER, pool_to=np.int64(16)))
        net = net_mod.PredictorNet.for_model(tiny_model, encoder, hidden=np.int64(16), seed=0)
        net_mod.save_weights(tmp_path / "numpy.sfw", net)
        net_mod.save_weights(tmp_path / "python.sfw", tiny_net)
        assert (tmp_path / "numpy.sfw").read_bytes() == (tmp_path / "python.sfw").read_bytes()
        loaded, _, meta = net_mod.load_weights(tmp_path / "numpy.sfw")
        assert type(meta["hidden"]) is int and type(meta["encoder"]["pool_to"]) is int
        assert loaded.hidden == 16 and loaded.encoder == tiny_net.encoder

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda meta: meta.pop("encoder"), id="no-encoder"),
        pytest.param(lambda meta: meta.pop("hidden"), id="no-hidden"),
        pytest.param(lambda meta: meta["encoder"].update(pool_to="x"), id="pool-to-not-int"),
        pytest.param(lambda meta: meta.update(encoder=[1]), id="encoder-not-object"),
        pytest.param(lambda meta: meta["encoder"].update(pool_to=60), id="invalid-encoder"),
        pytest.param(lambda meta: meta.update(adam_t=[1]), id="adam-t-list"),
        pytest.param(lambda meta: meta.update(adam_t=None), id="adam-t-null"),
        pytest.param(lambda meta: meta.update(adam_t="x"), id="adam-t-string"),
        pytest.param(lambda meta: meta.update(adam_t=-1), id="adam-t-negative"),
        pytest.param(lambda meta: meta.pop("epoch"), id="no-epoch"),
        pytest.param(lambda meta: meta.update(epoch=-1), id="epoch-negative"),
        pytest.param(lambda meta: meta.update(epoch="x"), id="epoch-string"),
        pytest.param(lambda meta: meta.update(epoch=2.5), id="epoch-float"),
        pytest.param(lambda meta: meta.update(epoch=None), id="epoch-null"),
        pytest.param(lambda meta: meta.update(epoch=True), id="epoch-bool"),
        pytest.param(lambda meta: meta["encoder"].update(channels=[]), id="no-channels"),
        pytest.param(lambda meta: meta.update(in_channels=0), id="in-channels-zero"),
        pytest.param(lambda meta: meta["encoder"].update(pool_to=-16), id="pool-to-negative"),
        pytest.param(lambda meta: meta["encoder"].update(pool_to=16.5), id="pool-to-float"),
        pytest.param(lambda meta: meta["encoder"].update(pool_to=16.0), id="pool-to-whole-float"),
        pytest.param(lambda meta: meta.update(pose_dim=meta["pose_dim"] + 0.9),
                     id="pose-dim-float"),
        pytest.param(lambda meta: meta.update(hidden=True), id="hidden-bool"),
        pytest.param(lambda meta: meta.update(shape_dim="10"), id="shape-dim-string"),
    ])
    def test_malformed_layout_rejected(self, tiny_net, tmp_path, edit):
        path = tmp_path / "w.sfw"
        net_mod.save_weights(path, tiny_net, net_mod.AdamState(tiny_net.params))
        arrays, meta = read_container(path, expected_kind="weights")
        edit(meta)
        write_container(path, "weights", arrays, meta)
        with pytest.raises(ContainerError, match="malformed network layout"):
            net_mod.load_weights(path)

    @pytest.mark.parametrize("kernel", [3, 0, -3], ids=["kernel-3", "kernel-zero",
                                                          "kernel-negative"])
    def test_legacy_kernel_key_ignored(self, tiny_net, tmp_path, kernel):
        # older files record the encoder kernel; it is now fixed and the key unread
        path = tmp_path / "w.sfw"
        net_mod.save_weights(path, tiny_net)
        arrays, meta = read_container(path, expected_kind="weights")
        assert "kernel" not in meta["encoder"]
        meta["encoder"]["kernel"] = kernel
        write_container(path, "weights", arrays, meta)
        loaded, _, _ = net_mod.load_weights(path)
        for k in tiny_net.params:
            np.testing.assert_array_equal(loaded.params[k], tiny_net.params[k])

    def test_other_kernel_fails_shape_check(self, tiny_net, tmp_path):
        path = tmp_path / "w.sfw"
        net_mod.save_weights(path, tiny_net)
        arrays, meta = read_container(path, expected_kind="weights")
        meta["encoder"]["kernel"] = 5
        for i in range(len(tiny_net.encoder.channels)):
            w = arrays[f"param/conv{i}_w"]
            arrays[f"param/conv{i}_w"] = np.zeros((w.shape[0] // 9 * 25, w.shape[1]))
        write_container(path, "weights", arrays, meta)
        with pytest.raises(ContainerError, match="conv0_w missing or misshapen"):
            net_mod.load_weights(path)

    def test_shape_mismatch_detected(self, tiny_net, tiny_model, tmp_path):
        path = tmp_path / "w.sfw"
        other = net_mod.PredictorNet.for_model(
            tiny_model, net_mod.EncoderConfig(**TINY_ENCODER), hidden=24, seed=0
        )
        net_mod.save_weights(path, other)
        loaded, _, meta = net_mod.load_weights(path)  # same layout reloads fine
        assert loaded.hidden == 24


class TestPooling:
    def test_pooled_from_dataset_matches_full_resolution(self, tiny_model, tmp_path):
        gen_cfg = synth.GenerationConfig(image_size=64, focal_length=75.0)
        aug = synth.AugmentationConfig()
        samples = synth.generate_dataset(tiny_model, gen_cfg, aug, 2, 2, seed=9, corrupt=True)
        path = tmp_path / "d.sfd"
        synth.write_dataset(path, samples, gen_cfg, aug, seed=9)
        ds = synth.read_dataset(path)
        invisible = 0
        for i, pool in itertools.product(range(len(ds)), (16, 32)):
            parts = net_mod.pooled_from_dataset(ds, i, pool)
            proxy = samples[i].proxy
            full = average_pool(np.concatenate([proxy.silhouette[:, :, None].astype(np.float64),
                                                proxy.heatmaps], axis=2), pool)
            np.testing.assert_allclose(dense_stack(parts), full, atol=1e-12)
            hidden = samples[i].visibility == 0
            assert not parts.rows[hidden].any() and not parts.cols[hidden].any()
            invisible += hidden.sum()
        assert invisible > 0

    @pytest.mark.parametrize("indices", [[7, 2, 9, 0, 4, 1], [3, 3, 5, 3], [6]],
                             ids=["shuffled", "repeated", "single"])
    def test_batch_equals_per_index_bit_for_bit(self, tiny_data, indices):
        samples = tiny_data
        ds = synth.SynthDataset.from_samples(samples)
        batch = net_mod.pooled_from_dataset(ds, np.array(indices), 16)
        L = len(samples[0].visibility)
        assert [part.shape for part in batch] == [(len(indices), 16, 16), (len(indices), L, 16),
                                                  (len(indices), L, 16)]
        for k, i in enumerate(indices):
            for part, alone in zip(batch, net_mod.pooled_from_dataset(ds, i, 16)):
                np.testing.assert_array_equal(part[k], alone)

    def test_pooled_from_dataset_rejects_indivisible(self, tiny_data):
        samples = tiny_data
        with pytest.raises(ValueError):
            net_mod.pooled_from_dataset(synth.SynthDataset.from_samples(samples[:1]),
                                        0, 24)

    @pytest.mark.parametrize("pool_to", [0, -16, 16.0, True, "16", None])
    def test_pooled_size_must_be_an_int_of_at_least_one(self, tiny_data, pool_to):
        ds = synth.SynthDataset.from_samples(tiny_data[:1])
        with pytest.raises(ValueError, match="pooled size must be an int >= 1"):
            net_mod.pooled_from_dataset(ds, 0, pool_to)

    @pytest.mark.parametrize("f", [1, 2, 4, 8, 16, 32, 64, 128, 256])
    def test_block_means_bit_for_bit_at_every_divisor(self, edge_dataset, f):
        pool_to = 256 // f
        for indices in (np.arange(len(edge_dataset)), np.array([5, 0, 5, 2]), 3):
            got = net_mod.pooled_from_dataset(edge_dataset, indices, pool_to)
            joints = edge_dataset.arrays["joints2d"][indices]
            visibility = edge_dataset.arrays["visibility"][indices]
            want = (block_mean_silhouette(edge_dataset.silhouette(indices), pool_to),
                    *block_mean_profiles(joints, visibility, 256, pool_to))
            for part, oracle in zip(got, want):
                assert part.dtype == np.float64 and part.shape == oracle.shape
                np.testing.assert_array_equal(part.view(np.int64), oracle.view(np.int64))

    def test_edge_joints_give_the_window_profiles(self, edge_dataset):
        joints, visibility = edge_dataset.arrays["joints2d"], edge_dataset.arrays["visibility"]
        rows, cols = cr.heatmap_profiles(joints, visibility, 256, 256)
        want_rows, want_cols = window_profiles(joints, visibility, 256)
        np.testing.assert_array_equal(rows, want_rows)
        np.testing.assert_array_equal(cols, want_cols)
        # a frame edge peaks there, one pixel outside peaks nowhere, and a
        # joint 1e6 pixels off the frame has no profile in that axis
        on_edge = np.isin(cr.joint_pixel(joints), [0, 255])
        assert on_edge.any() and np.all(np.where(on_edge[..., 0], cols.max(axis=-1), 1) == 1)
        assert not cols[np.abs(joints[..., 0]) == 1e6].any()
        assert not rows[np.abs(joints[..., 1]) == 1e6].any()


# joints of the bit-pin dataset: on each frame edge, one pixel outside
# each, at +-1e6 and inside, all visible, beside random ones
_EDGE_JOINTS = [(0, 0), (255, 255), (0, 255), (255, 0), (-1, 128), (256, 128), (128, -1),
                (128, 256), (1e6, 40), (-1e6, 40), (40, 1e6), (40, -1e6), (-0.5, 255.49), (127.5, 0.5),
                (-16.6, 271.4), (-17.5, 272.5), (-33.0, 290.0)]


@pytest.fixture(scope="module")
def edge_dataset():
    """Six samples at 256 px with random 0/1 silhouettes: sample 0 holds the
    `_EDGE_JOINTS`, the others random joints in and around the frame, of
    which about one in five is hidden."""
    rng = np.random.default_rng(30)
    n, size, L = 6, 256, len(_EDGE_JOINTS)
    joints = rng.uniform(-40.0, 296.0, (n, L, 2))
    joints[0] = _EDGE_JOINTS
    visibility = (rng.random((n, L)) < 0.8).astype(np.uint8)
    visibility[0] = 1
    silhouettes = rng.random((n, size * size)) < rng.uniform(0.1, 0.9, (n, 1))
    arrays = {"silhouette_bits": np.packbits(silhouettes, axis=-1), "joints2d": joints,
              "visibility": visibility, "theta": np.zeros((n, 3)), "beta": np.zeros((n, 2)),
              "glob": np.zeros((n, 3)), "cam_translation": np.zeros((n, 3)),
              "subject_id": np.arange(n), "corrupted": np.zeros(n, dtype=np.uint8)}
    return synth.SynthDataset(arrays, {"image_size": size})
