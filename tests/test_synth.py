import hashlib

import numpy as np
import pytest

from shapefuse import bodymodel as bm
from shapefuse import camera as cr
from shapefuse import synth
from shapefuse.rng import named_rng


@pytest.fixture(scope="module")
def model():
    return bm.generate_toy_model(seed=2, num_vertices=300, num_joints=16)


@pytest.fixture(scope="module")
def small_cfg():
    return synth.GenerationConfig(image_size=64, focal_length=75.0)


@pytest.fixture(scope="module")
def source(model):
    return synth.procedural_pose_source(model, n_poses=32, seed=0)


@pytest.fixture
def calls(monkeypatch):
    """Counts `PerspCamera` constructions and full rasterizations made
    through the `camera` module while the test runs."""
    counts = {"cameras": 0, "rasterized": 0}

    class CountedCamera(cr.PerspCamera):
        def __post_init__(self):
            counts["cameras"] += 1
            super().__post_init__()

    rasterize = cr.rasterize_silhouette

    def counted_rasterize(*args):
        counts["rasterized"] += 1
        return rasterize(*args)

    monkeypatch.setattr(cr, "PerspCamera", CountedCamera)
    monkeypatch.setattr(cr, "rasterize_silhouette", counted_rasterize)
    return counts


def no_aug():
    return synth.AugmentationConfig(
        body_part_occlusion_prob=0.0,
        joint_lr_swap_prob=0.0,
        half_image_occlusion_prob=0.0,
        joint_removal_prob=0.0,
        joint_noise_range=0.0,
        vertex_noise_range=0.0,
        occlusion_box_prob=0.0,
        occlusion_box_size=0,
    )


class TestShapeSampling:
    def test_monte_carlo_variance(self):
        rng = named_rng(0, "shapes")
        draws = np.stack([synth.sample_shape(rng) for _ in range(100_000)])
        per_dim_var = draws.var(axis=0)
        assert np.all(per_dim_var > 2.2) and np.all(per_dim_var < 2.3)

    def test_fixed_seed_reproducible(self):
        a = synth.sample_shape(named_rng(7, "x"))
        b = synth.sample_shape(named_rng(7, "x"))
        np.testing.assert_array_equal(a, b)

    def test_truncation_bound(self):
        cfg = synth.GenerationConfig(shape_variance=25.0)  # huge variance
        rng = named_rng(1, "trunc")
        draws = np.stack([synth.sample_shape(rng, cfg) for _ in range(2000)])
        assert np.abs(draws).max() <= cfg.shape_clip


class TestCleanGeneration:
    def test_clean_silhouette_matches_rasterizer(self, model, small_cfg, source):
        rng = named_rng(0, "clean")
        s = synth.generate_sample(model, source, small_cfg, no_aug(), rng, corrupt=False)
        mesh = bm.forward(model, s.theta, s.beta, s.glob)
        camera = cr.PerspCamera(
            small_cfg.focal_length, small_cfg.image_size, small_cfg.image_size,
            s.cam_translation,
        )
        expected = cr.rasterize_silhouette(bm.VertexMesh(mesh.vertices, model.faces), camera)
        np.testing.assert_array_equal(s.proxy.silhouette, expected)
        # visibility is exactly the in-frame indicator for clean samples
        expected_vis = cr.in_frame_visibility(s.joints2d, small_cfg.image_size,
                                              small_cfg.image_size)
        np.testing.assert_array_equal(s.visibility, expected_vis)

    def test_degenerate_augmentation_equals_clean(self, model, small_cfg, source):
        key = (3, "degenerate")
        clean = synth.generate_sample(
            model, source, small_cfg, no_aug(), named_rng(*key), corrupt=False
        )
        corrupted = synth.generate_sample(
            model, source, small_cfg, no_aug(), named_rng(*key), corrupt=True
        )
        np.testing.assert_array_equal(clean.proxy.silhouette, corrupted.proxy.silhouette)
        np.testing.assert_array_equal(clean.joints2d, corrupted.joints2d)
        np.testing.assert_array_equal(clean.visibility, corrupted.visibility)

    def test_removal_prob_one_blanks_everything(self, model, small_cfg, source):
        aug = no_aug()
        aug.joint_removal_prob = 1.0
        s = synth.generate_sample(
            model, source, small_cfg, aug, named_rng(4, "removed"), corrupt=True
        )
        assert not s.visibility.any()
        assert not s.proxy.heatmaps.any()


class TestCameraAndRenders:
    @pytest.mark.parametrize("corrupt, noise", [(True, 0.010), (True, 0.0), (False, 0.010)],
                             ids=["noisy", "zero-noise", "clean"])
    def test_one_full_rasterization_per_sample(self, model, small_cfg, corrupt, noise, calls):
        aug = synth.AugmentationConfig(vertex_noise_range=noise)
        samples = synth.generate_dataset(model, small_cfg, aug, num_subjects=2,
                                         poses_per_subject=3, seed=3, corrupt=corrupt)
        assert calls["cameras"] == len(samples)
        assert calls["rasterized"] == len(samples)

    def test_no_camera_sees_subject_raises_value_error(self, model, small_cfg, calls):
        gen_cfg = synth.GenerationConfig(image_size=small_cfg.image_size,
                                         focal_length=small_cfg.focal_length,
                                         cam_translation_mean=(50.0, -0.2, 2.5))
        with pytest.raises(ValueError, match="no valid camera"):
            synth.render_sample(model, np.zeros(model.pose_dim), np.zeros(bm.SHAPE_DIM),
                                np.zeros(3), gen_cfg, synth.AugmentationConfig(),
                                named_rng(0, "miss"), corrupt=True)
        assert calls["cameras"] == synth.MAX_CAMERA_RETRIES
        assert calls["rasterized"] == 0


class TestVisibilityInvariants:
    @pytest.mark.parametrize("trial", range(6))
    def test_zeroed_channels_iff_invisible(self, model, small_cfg, source, trial):
        s = synth.generate_sample(
            model, source, small_cfg, synth.AugmentationConfig(),
            named_rng(trial, "viz"), corrupt=True,
        )
        for l in range(len(s.visibility)):
            channel_zero = not s.proxy.heatmaps[:, :, l].any()
            assert channel_zero == (s.visibility[l] == 0)

    @pytest.mark.parametrize("trial", range(6))
    def test_visible_joints_are_in_frame(self, model, small_cfg, source, trial):
        aug = no_aug()
        aug.joint_noise_range = 40.0  # aggressive noise pushes joints out
        s = synth.generate_sample(
            model, source, small_cfg, aug, named_rng(trial, "noise"), corrupt=True
        )
        size = small_cfg.image_size
        vis = s.visibility.astype(bool)
        cols = np.rint(s.joints2d[vis, 0])
        rows = np.rint(s.joints2d[vis, 1])
        assert np.all((cols >= 0) & (cols < size) & (rows >= 0) & (rows < size))


class TestPartOcclusion:
    def _assignment(self, model, small_cfg, source):
        rng = named_rng(5, "occ")
        s = synth.generate_sample(model, source, small_cfg, no_aug(), rng, corrupt=False)
        mesh = bm.forward(model, s.theta, s.beta, s.glob)
        camera = cr.PerspCamera(
            small_cfg.focal_length, small_cfg.image_size, small_cfg.image_size,
            s.cam_translation,
        )
        assignment = cr.rasterize_part_assignment(mesh, model.part_labels, camera,
                                                  s.proxy.silhouette)
        return s.proxy.silhouette, assignment

    def test_never_adds_pixels(self, model, small_cfg, source):
        sil, assignment = self._assignment(model, small_cfg, source)
        for part_id in range(len(model.part_names)):
            out = synth.occlude_body_part(sil, assignment, part_id)
            assert not np.any(out > sil)

    def test_invisible_part_is_noop(self, model, small_cfg, source):
        sil, assignment = self._assignment(model, small_cfg, source)
        covered = set(np.unique(assignment[assignment >= 0]).tolist())
        hidden = [p for p in range(len(model.part_names)) if p not in covered]
        if not hidden:
            pytest.skip("every part visible in this view")
        out = synth.occlude_body_part(sil, assignment, hidden[0])
        np.testing.assert_array_equal(out, sil)

    def test_union_of_all_part_occlusions_empties_silhouette(self, model, small_cfg, source):
        # set-cover oracle: the part assignment partitions the silhouette
        sil, assignment = self._assignment(model, small_cfg, source)
        out = sil
        for part_id in range(len(model.part_names)):
            out = synth.occlude_body_part(out, assignment, part_id)
        assert not out.any()


class TestLRSwap:
    PAIRS = [(0, 1), (2, 3)]

    def test_prob_zero_is_identity(self):
        joints = np.arange(8, dtype=float).reshape(4, 2)
        vis = np.array([1, 0, 1, 1])
        out_j, out_v, n = synth.swap_lr_joints(joints, vis, named_rng(0, "s"), 0.0, self.PAIRS)
        np.testing.assert_array_equal(out_j, joints)
        np.testing.assert_array_equal(out_v, vis)
        assert n == 0

    def test_double_swap_is_identity(self):
        joints = np.arange(8, dtype=float).reshape(4, 2)
        vis = np.array([1, 0, 1, 1])
        j1, v1, _ = synth.swap_lr_joints(joints, vis, named_rng(1, "s"), 1.0, self.PAIRS)
        j2, v2, _ = synth.swap_lr_joints(j1, v1, named_rng(2, "s"), 1.0, self.PAIRS)
        np.testing.assert_array_equal(j2, joints)
        np.testing.assert_array_equal(v2, vis)

    def test_coordinate_multiset_preserved(self):
        joints = np.random.default_rng(3).normal(size=(4, 2))
        vis = np.ones(4, dtype=np.int64)
        out_j, _, _ = synth.swap_lr_joints(joints, vis, named_rng(3, "s"), 0.5, self.PAIRS)
        got = sorted(map(tuple, out_j))
        want = sorted(map(tuple, joints))
        assert got == want


class TestDatasetIO:
    def test_round_trip_and_random_access(self, model, small_cfg, tmp_path):
        gen_cfg = small_cfg
        aug_cfg = synth.AugmentationConfig()
        samples = synth.generate_dataset(
            model, gen_cfg, aug_cfg, num_subjects=3, poses_per_subject=2,
            seed=42, corrupt=True,
        )
        path = tmp_path / "data.sfd"
        synth.write_dataset(path, samples, gen_cfg, aug_cfg, seed=42,
                            model_fingerprint=synth.model_fingerprint(model))
        ds = synth.read_dataset(path)
        assert len(ds) == 6
        assert ds.meta["seed"] == 42
        for i in [0, 3, 5]:
            s = ds.sample(i)
            np.testing.assert_array_equal(s.proxy.silhouette, samples[i].proxy.silhouette)
            np.testing.assert_array_equal(s.proxy.heatmaps, samples[i].proxy.heatmaps)
            np.testing.assert_array_equal(s.theta, samples[i].theta)
            np.testing.assert_array_equal(s.joints2d, samples[i].joints2d)
            assert s.subject_id == samples[i].subject_id

    def test_identical_seed_identical_bytes(self, model, small_cfg, tmp_path):
        aug_cfg = synth.AugmentationConfig()

        def build(path):
            samples = synth.generate_dataset(
                model, small_cfg, aug_cfg, num_subjects=2, poses_per_subject=2,
                seed=7, corrupt=True,
            )
            synth.write_dataset(path, samples, small_cfg, aug_cfg, seed=7)

        build(tmp_path / "a.sfd")
        build(tmp_path / "b.sfd")
        assert (tmp_path / "a.sfd").read_bytes() == (tmp_path / "b.sfd").read_bytes()

    def test_per_sample_streams_match_batch(self, model, small_cfg):
        # regenerating one sample in isolation reproduces the batch result
        aug_cfg = synth.AugmentationConfig()
        samples = synth.generate_dataset(
            model, small_cfg, aug_cfg, num_subjects=2, poses_per_subject=3,
            seed=11, corrupt=True,
        )
        source = synth.procedural_pose_source(model, seed=11)
        subj, k = 1, 2
        rng = named_rng(11, "sample", subj, k)
        theta, gamma = source.sample(rng)
        beta = synth.sample_shape(named_rng(11, "shape", subj), small_cfg)
        redo = synth.render_sample(model, theta, beta, gamma, small_cfg, aug_cfg,
                                   rng, corrupt=True, subject_id=subj)
        original = samples[subj * 3 + k]
        np.testing.assert_array_equal(redo.proxy.silhouette, original.proxy.silhouette)
        np.testing.assert_array_equal(redo.joints2d, original.joints2d)

    # write_dataset output for a 600-vertex model at 96 px, 3 subjects x 4
    # poses, seed 5; the second config's cameras often miss. The integer and
    # boolean arrays are pinned by a sha256; the floats, whose last bits
    # depend on the BLAS build, by per-sample sums at a tight tolerance.
    GOLDEN = {
        "default": dict(
            cam_mean=(0.0, -0.2, 2.5), cam_var=(0.05, 0.05, 0.25), retries=False,
            digest="f4165310713afa192386c835d305f984bc4b1ecf5e5cb9487d2a5435da55e03d",
            cam_sums=[2.874141212637004, 1.289449914279063, 2.0083916917452944,
                      2.9925540830544684, 2.6132531535300854, 2.002533304436178,
                      1.7048558933830553, 2.127020530823743, 1.0466486721224784,
                      1.4207976941847054, 1.6855071195641265, 2.294319400164194],
            joint_sums=[1861.7134065569055, 1412.3344274975143, 1799.653441695748,
                        1403.5928937736066, 2198.9781114659486, 1954.55111528282,
                        1330.3864755898712, 2041.3318224788943, 1455.5691508851958,
                        1112.956225016287, 1458.865745328459, 1612.1992378441998]),
        "retries": dict(
            cam_mean=(1.6, -0.2, 2.5), cam_var=(0.3, 0.05, 0.25), retries=True,
            digest="ab66774ad77ff60797603e842980d4139f4fd55bb8375427d077836e32df5279",
            cam_sums=[4.765814025093107, 2.5441876167397712, 4.402028191189202,
                      4.061330227370904, 4.280173793925399, 4.179145500290983,
                      3.0691216108720125, 4.5955268403224, 4.328421613880471,
                      2.5360513550689903, 2.899579525471534, 3.1549633986672787],
            joint_sums=[2694.6584647770883, 2823.4238373754706, 2755.284033280887,
                        1959.2482786244832, 2799.2774834191823, 2679.0601603551627,
                        2479.224191302403, 2661.415592787256, 2779.365927804841,
                        2059.524294741294, 2515.406239911981, 1828.9041658018907]),
    }

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_golden_dataset(self, name, tmp_path, calls):
        golden = self.GOLDEN[name]
        model = bm.generate_toy_model(seed=0, num_vertices=600)
        gen_cfg = synth.GenerationConfig(image_size=96, focal_length=112.5,
                                         cam_translation_mean=golden["cam_mean"],
                                         cam_translation_var=golden["cam_var"])
        aug_cfg = synth.AugmentationConfig()
        samples = synth.generate_dataset(model, gen_cfg, aug_cfg, num_subjects=3,
                                         poses_per_subject=4, seed=5, corrupt=True)
        path = tmp_path / "golden.sfd"
        synth.write_dataset(path, samples, gen_cfg, aug_cfg, seed=5,
                            model_fingerprint=synth.model_fingerprint(model))
        arrays = synth.read_dataset(path).arrays
        exact = hashlib.sha256()
        for key in ("silhouette_bits", "visibility", "subject_id", "corrupted"):
            exact.update(np.ascontiguousarray(arrays[key]).tobytes())
        assert exact.hexdigest() == golden["digest"]
        np.testing.assert_allclose(arrays["cam_translation"].sum(axis=1),
                                   golden["cam_sums"], rtol=1e-12)
        np.testing.assert_allclose(arrays["joints2d"].sum(axis=(1, 2)),
                                   golden["joint_sums"], rtol=1e-12)
        assert calls["rasterized"] == len(samples)
        assert (calls["cameras"] > len(samples)) == golden["retries"]

    def test_empty_dataset_rejected(self, small_cfg, tmp_path):
        with pytest.raises(ValueError):
            synth.write_dataset(tmp_path / "e.sfd", [], small_cfg,
                                synth.AugmentationConfig(), seed=0)


@pytest.mark.slow
class TestAugmentationFrequencies:
    def test_empirical_rates_match_config(self):
        model = bm.generate_toy_model(seed=8, num_vertices=120, num_joints=12)
        gen_cfg = synth.GenerationConfig(image_size=48, focal_length=56.0)
        aug_cfg = synth.AugmentationConfig()
        source = synth.procedural_pose_source(model, n_poses=64, seed=0)
        n = 10_000
        counts = {"part_occluded": 0, "half_occluded": 0, "box_occluded": 0}
        swapped_total = 0
        removed_total = 0
        for i in range(n):
            s = synth.generate_sample(
                model, source, gen_cfg, aug_cfg, named_rng(123, "freq", i), corrupt=True
            )
            for key in counts:
                counts[key] += s.events[key]
            swapped_total += s.events["pairs_swapped"]
            removed_total += s.events["joints_removed"]

        def within_3se(observed_rate, p, n_trials):
            se = np.sqrt(p * (1 - p) / n_trials)
            return abs(observed_rate - p) <= 3 * se

        assert within_3se(counts["part_occluded"] / n, aug_cfg.body_part_occlusion_prob, n)
        assert within_3se(counts["half_occluded"] / n, aug_cfg.half_image_occlusion_prob, n)
        assert within_3se(counts["box_occluded"] / n, aug_cfg.occlusion_box_prob, n)
        n_pairs = len(model.meta["lr_swap_pairs"])
        assert within_3se(swapped_total / (n * n_pairs), aug_cfg.joint_lr_swap_prob, n * n_pairs)
        L = model.num_keypoints
        assert within_3se(removed_total / (n * L), aug_cfg.joint_removal_prob, n * L)
