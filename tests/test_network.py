import gc
import itertools

import numpy as np
import pytest

from shapefuse import autodiff as ad
from shapefuse import bodymodel as bm
from shapefuse import camera as cr
from shapefuse import network as net_mod
from shapefuse import synth
from shapefuse.containerio import ContainerError, read_container, write_container
from shapefuse.gaussians import GaussianDiag, PredictionSet
from shapefuse.rng import named_rng

from gradcheck import grad_check


TINY_ENCODER = dict(pool_to=16, channels=(2, 4, 8))


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


def reproj_loss(pred, reduced, joints_norm, visibility, n_draws, rng) -> float:
    """`loss_reproj_batch` on one prediction with `n_draws` fresh draws."""
    heads, _ = heads_from_prediction(pred)
    value = net_mod.loss_reproj_batch(
        heads, reduced, joints_norm[None], np.asarray(visibility)[None],
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
        assert net.output_dim == 164
        sl = net.head_slices()
        widths = [sl[k].stop - sl[k].start for k in
                  ("pose_mean", "pose_logvar", "shape_mean", "shape_logvar", "glob", "camera")]
        assert widths == [69, 69, 10, 10, 3, 3]

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
        probe = rng.normal(size=(2, net.output_dim))
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
            net_mod.EncoderConfig(pool_to=8, channels=(2, 2, 2)).validate()

    @pytest.mark.parametrize("layout", [
        pytest.param(dict(channels=()), id="no-channels"),
        pytest.param(dict(channels=(8, 0, 32)), id="zero-channels"),
        pytest.param(dict(pool_to=-16), id="negative-pool-to"),
    ])
    def test_malformed_layout_rejected(self, layout):
        with pytest.raises(ValueError):
            net_mod.EncoderConfig(**layout).validate()

    def test_default_is_valid(self):
        cfg = net_mod.EncoderConfig()
        cfg.validate()
        assert cfg.feature_dim == 8 * 8 * 32


class TestTrainConfig:
    @pytest.mark.parametrize("field", [
        dict(batch_size=2.5), dict(reproj_samples=1.5), dict(epochs=1.5),
        dict(batch_size=0), dict(reproj_samples=0), dict(learning_rate=-1e-3),
        dict(learning_rate="1e-3"), dict(learning_rate=float("inf")),
        dict(learning_rate=float("nan")), dict(batch_size=True),
    ], ids=["float-batch", "float-draws", "float-epochs", "zero-batch", "zero-draws",
            "negative-rate", "string-rate", "inf-rate", "nan-rate", "bool-batch"])
    def test_malformed_config_rejected(self, field, tiny_model, tiny_net, tiny_data):
        cfg = net_mod.TrainConfig(**field)
        with pytest.raises(ValueError):
            cfg.validate()
        samples = tiny_data
        with pytest.raises(ValueError):
            net_mod.train(tiny_net, synth.SynthDataset.from_samples(samples[:4]),
                          cfg, tiny_model)


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
        loss = reproj_loss(pred, net_mod.reduced_for_keypoints(tiny_model), np.zeros((L, 2)),
                           np.zeros(L, dtype=int), 4, named_rng(0, "r"))
        assert loss == 0.0

    def test_degenerate_distribution_recovers_targets(self, tiny_model):
        pred = self._make_pred(tiny_model, var=1e-18)
        verts = bm.forward(tiny_model, pred.pose.mean, pred.shape.mean, pred.global_rot)
        joints3d = np.asarray(bm.regress_joints(tiny_model, verts))
        targets = np.asarray(cr.project_weak(joints3d, pred.camera))
        L = tiny_model.num_keypoints
        loss = reproj_loss(pred, net_mod.reduced_for_keypoints(tiny_model), targets,
                           np.ones(L, dtype=int), 4, named_rng(1, "r"))
        assert loss < 1e-12

    def test_gradients_match_fd_with_frozen_noise(self, tiny_model):
        model = tiny_model
        P = model.pose_dim
        reduced = net_mod.reduced_for_keypoints(model)
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
            return net_mod.loss_reproj_batch(heads, reduced, joints_norm, vis,
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
        reduced = net_mod.reduced_for_keypoints(tiny_model)

        def estimate(n_draws, n_rep, key):
            vals = []
            for i in range(n_rep):
                v = reproj_loss(pred, reduced, targets, vis, n_draws, named_rng(key, "mc", i))
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
                [cr.normalize_pixels(s.joints2d, 64, 64) for s in samples[:4]]
            ),
            "visibility": np.stack([s.visibility for s in samples[:4]]),
        }
        return net_mod.pooled_from_dataset(ds, np.arange(4), 16), ds_targets

    def test_zero_lambdas_equals_nll(self, tiny_model, tiny_net, tiny_data):
        pooled, targets = self._setup(tiny_model, tiny_net, tiny_data)
        reduced = net_mod.reduced_for_keypoints(tiny_model)
        heads = tiny_net.heads(pooled)
        cfg = net_mod.TrainConfig(lambda_glob=0.0, lambda_2d=0.0, reproj_samples=2)
        noise_p = np.zeros((4, 2, tiny_model.pose_dim))
        noise_s = np.zeros((4, 2, 10))
        total, parts = net_mod.loss_total_batch(heads, targets, reduced, cfg, noise_p, noise_s)
        assert float(ad.value_of(total)) == pytest.approx(parts["nll"])

    def test_additivity_in_lambdas(self, tiny_model, tiny_net, tiny_data):
        pooled, targets = self._setup(tiny_model, tiny_net, tiny_data)
        reduced = net_mod.reduced_for_keypoints(tiny_model)
        heads = tiny_net.heads(pooled)
        rng = named_rng(0, "noise")
        noise_p = rng.standard_normal((4, 2, tiny_model.pose_dim))
        noise_s = rng.standard_normal((4, 2, 10))

        def total_for(lg, l2):
            cfg = net_mod.TrainConfig(lambda_glob=lg, lambda_2d=l2, reproj_samples=2)
            t, parts = net_mod.loss_total_batch(heads, targets, reduced, cfg, noise_p, noise_s)
            return float(ad.value_of(t)), parts

        t_full, parts = total_for(1.0, 0.01)
        t_zero, _ = total_for(0.0, 0.0)
        assert t_full - t_zero == pytest.approx(
            parts["glob"] + 0.01 * parts["reproj"], rel=1e-9
        )

    def test_finite_on_random_net(self, tiny_model, tiny_net, tiny_data):
        pooled, targets = self._setup(tiny_model, tiny_net, tiny_data)
        reduced = net_mod.reduced_for_keypoints(tiny_model)
        heads = tiny_net.heads(pooled)
        cfg = net_mod.TrainConfig(reproj_samples=2)
        rng = named_rng(1, "noise")
        total, _ = net_mod.loss_total_batch(
            heads, targets, reduced, cfg,
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


class TestAdam:
    def test_matches_out_of_place_formula_bit_for_bit(self):
        rng = np.random.default_rng(7)
        params = {"w": rng.normal(size=(5, 4)), "b": rng.normal(size=4)}
        expected = {k: v.copy() for k, v in params.items()}
        m = {k: np.zeros_like(v) for k, v in params.items()}
        v2 = {k: np.zeros_like(v) for k, v in params.items()}
        opt = net_mod.AdamState(params)
        lr = 3e-3
        for t in range(1, 4):
            grads = {k: rng.normal(size=v.shape) * 10.0**-t for k, v in params.items()}
            unchanged = {k: g.copy() for k, g in grads.items()}
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
        assert opt.t == 3

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
        pytest.param(lambda meta: meta["encoder"].update(channels=[]), id="no-channels"),
        pytest.param(lambda meta: meta.update(in_channels=0), id="in-channels-zero"),
        pytest.param(lambda meta: meta["encoder"].update(pool_to=-16), id="pool-to-negative"),
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
            full = average_pool(samples[i].proxy.stacked(), pool)
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
