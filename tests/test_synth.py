import copy
import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from shapefuse import bodymodel as bm
from shapefuse import camera as cr
from shapefuse import synth
from shapefuse.containerio import ContainerError, read_container, write_container
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


def pose_bank_per_pose(model, n_poses, seed):
    """One pose, one joint and one scalar hinge draw at a time: the oracle
    for `synth.procedural_pose_source`."""
    rng = named_rng(seed, "pose_source")
    J = model.num_joints
    poses = np.empty((n_poses, model.pose_dim))
    for i in range(n_poses):
        aa = rng.normal(scale=synth.POSE_STD, size=(J - 1, 3))
        for j in range(1, J):
            name = model.joint_names[j]
            if name in ("l_elbow", "r_elbow", "l_knee", "r_knee"):
                aa[j - 1, 1 if "elbow" in name else 0] += abs(rng.normal(scale=0.4))
            norm = np.linalg.norm(aa[j - 1])
            if norm > 0.95 * np.pi:
                aa[j - 1] *= 0.95 * np.pi / norm
        poses[i] = aa.reshape(-1)
    return poses


@pytest.fixture
def calls(monkeypatch):
    """Counts `PerspCamera` constructions, full rasterizations and heatmap
    stacks made through the `camera` module while the test runs."""
    counts = {"cameras": 0, "rasterized": 0, "heatmaps": 0}

    class CountedCamera(cr.PerspCamera):
        def __post_init__(self):
            counts["cameras"] += 1
            super().__post_init__()

    rasterize = cr.rasterize_silhouette

    def counted_rasterize(*args):
        counts["rasterized"] += 1
        return rasterize(*args)

    heatmaps = cr.joints_to_heatmaps

    def counted_heatmaps(*args, **kwargs):
        counts["heatmaps"] += 1
        return heatmaps(*args, **kwargs)

    monkeypatch.setattr(cr, "PerspCamera", CountedCamera)
    monkeypatch.setattr(cr, "rasterize_silhouette", counted_rasterize)
    monkeypatch.setattr(cr, "joints_to_heatmaps", counted_heatmaps)
    return counts


def sample_and_render(model, source, gen_cfg, aug_cfg, rng, corrupt):
    """One sample with every draw from `rng`: pose and facing from the bank,
    then shape from the prior, then the render's own draws."""
    theta, gamma = source.sample(rng)
    beta = synth.sample_shape(rng, gen_cfg)
    return synth.render_sample(model, theta, beta, gamma, gen_cfg, aug_cfg, rng, corrupt)


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


class TestConfigValidation:
    """Each rule of the `GenerationConfig` and `AugmentationConfig`
    constructors raises ValueError; `dataclasses.replace` checks too."""

    @pytest.mark.parametrize("field", [
        pytest.param(dict(image_size=64.0), id="image-size-float"),
        pytest.param(dict(image_size=True), id="image-size-bool"),
        pytest.param(dict(focal_length=float("inf")), id="focal-inf"),
        pytest.param(dict(focal_length=0.0), id="focal-zero"),
        pytest.param(dict(shape_variance=float("nan")), id="shape-variance-nan"),
        pytest.param(dict(shape_clip=-1.0), id="shape-clip-negative"),
        pytest.param(dict(shape_clip=0), id="shape-clip-zero"),
        pytest.param(dict(cam_translation_mean=(0.0, float("nan"), 2.5)), id="cam-mean-nan"),
        pytest.param(dict(cam_translation_var=(0.05, float("inf"), 0.25)), id="cam-var-inf"),
        pytest.param(dict(cam_translation_var=(0.05, 0.0, 0.25)), id="cam-var-zero"),
    ])
    def test_generation_config_rejected(self, small_cfg, field):
        with pytest.raises(ValueError):
            dataclasses.replace(small_cfg, **field)
        with pytest.raises(ValueError):
            synth.GenerationConfig(**field)

    @pytest.mark.parametrize("field", [
        pytest.param(dict(occlusion_box_size=12.5), id="box-size-float"),
        pytest.param(dict(occlusion_box_size=True), id="box-size-bool"),
        pytest.param(dict(occlusion_box_size=-1), id="box-size-negative"),
        pytest.param(dict(vertex_noise_range=float("inf")), id="vertex-noise-inf"),
        pytest.param(dict(joint_noise_range=float("nan")), id="joint-noise-nan"),
        pytest.param(dict(joint_noise_range=-1.0), id="joint-noise-negative"),
        pytest.param(dict(occlusion_box_prob=float("nan")), id="prob-nan"),
    ])
    def test_augmentation_config_rejected(self, field):
        with pytest.raises(ValueError):
            synth.AugmentationConfig(**field)
        with pytest.raises(ValueError):
            dataclasses.replace(no_aug(), **field)

    def test_configs_are_frozen(self, small_cfg):
        with pytest.raises(dataclasses.FrozenInstanceError):
            small_cfg.image_size = 32
        aug = no_aug()
        with pytest.raises(dataclasses.FrozenInstanceError):
            aug.joint_removal_prob = 1.0
        assert small_cfg.image_size == 64 and aug.joint_removal_prob == 0.0

    def test_numpy_scalars_accepted(self, small_cfg):
        cfg = dataclasses.replace(small_cfg, image_size=np.int64(64),
                                  focal_length=np.float32(75.0))
        assert cfg.image_size == 64 and cfg.focal_length == 75.0
        aug = synth.AugmentationConfig(occlusion_box_size=np.int32(8),
                                       joint_removal_prob=np.float64(0.5))
        assert aug.occlusion_box_size == 8

    @pytest.mark.parametrize("counts", [
        pytest.param(dict(num_subjects=2.0), id="subjects-float"),
        pytest.param(dict(num_subjects=-1), id="subjects-negative"),
        pytest.param(dict(num_subjects=0), id="subjects-zero"),
        pytest.param(dict(num_subjects=True), id="subjects-bool"),
        pytest.param(dict(poses_per_subject=0), id="poses-zero"),
        pytest.param(dict(poses_per_subject=1.5), id="poses-float"),
    ])
    def test_dataset_counts_rejected(self, model, small_cfg, source, counts):
        args = dict(dict(num_subjects=1, poses_per_subject=1), **counts)
        with pytest.raises(ValueError):
            synth.generate_dataset(model, small_cfg, synth.AugmentationConfig(), seed=0,
                                   corrupt=True, pose_source=source, **args)

    @pytest.mark.parametrize("n_poses", [2.5, True, 0], ids=["float", "bool", "zero"])
    def test_pose_count_rejected(self, model, n_poses):
        with pytest.raises(ValueError):
            synth.procedural_pose_source(model, n_poses=n_poses, seed=0)


class TestShapeSampling:
    def test_monte_carlo_variance(self):
        rng = named_rng(0, "shapes")
        cfg = synth.GenerationConfig()
        draws = np.stack([synth.sample_shape(rng, cfg) for _ in range(100_000)])
        per_dim_var = draws.var(axis=0)
        assert np.all(per_dim_var > 2.2) and np.all(per_dim_var < 2.3)

    def test_fixed_seed_reproducible(self):
        cfg = synth.GenerationConfig()
        a = synth.sample_shape(named_rng(7, "x"), cfg)
        b = synth.sample_shape(named_rng(7, "x"), cfg)
        np.testing.assert_array_equal(a, b)

    def test_truncation_bound(self):
        cfg = synth.GenerationConfig(shape_variance=25.0)  # huge variance
        rng = named_rng(1, "trunc")
        draws = np.stack([synth.sample_shape(rng, cfg) for _ in range(2000)])
        assert np.abs(draws).max() <= cfg.shape_clip


class TestPoseSource:
    @pytest.mark.parametrize("J", [8, 16, 24])  # 8 joints keep no hinge
    @pytest.mark.parametrize("std, clamped", [(synth.POSE_STD, False), (2.0, True)])
    def test_pose_bank_matches_per_pose_draws(self, J, std, clamped, monkeypatch):
        # at the real spread no rotation reaches the norm clamp; a wider one
        # clamps some
        monkeypatch.setattr(synth, "POSE_STD", std)
        model = bm.generate_toy_model(seed=0, num_vertices=120, num_joints=J)
        got = synth.procedural_pose_source(model, n_poses=300, seed=J).poses
        np.testing.assert_array_equal(got, pose_bank_per_pose(model, 300, J))
        norms = np.linalg.norm(got.reshape(300, J - 1, 3), axis=-1)
        assert np.any(np.isclose(norms, 0.95 * np.pi, rtol=1e-12)) == clamped

    def test_golden_pose_bank(self):
        # the 24-joint pose bank of seed 1, pinned by its sum and its sum
        # weighted from 1 to 2 along the flat array at a tight tolerance
        model = bm.generate_toy_model(seed=0, num_vertices=600, num_joints=24)
        poses = synth.procedural_pose_source(model, seed=1).poses
        assert poses.shape == (256, 69)
        weighted = (poses.ravel() * np.linspace(1.0, 2.0, poses.size)).sum()
        np.testing.assert_allclose([poses.sum(), weighted],
                                   [356.0758727321954, 548.3256302813772], rtol=1e-12)

    def test_jitter_is_applied_after_the_facing(self, source):
        # replays the draws of one `sample`: pose index, facing index, jitter
        for i in range(20):
            theta, gamma = source.sample(named_rng(4, "pose", i))
            rng = named_rng(4, "pose", i)
            pose = source.poses[rng.integers(len(source.poses))]
            facing = source.facings[rng.integers(len(source.facings))]
            jitter = rng.normal(scale=synth.GLOBAL_JITTER_STD, size=3)
            np.testing.assert_array_equal(theta, pose)
            np.testing.assert_allclose(bm.rodrigues(gamma),
                                       bm.rodrigues(jitter) @ bm.rodrigues(facing),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("facing", range(len(synth.CANONICAL_FACINGS)),
                             ids=["front", "back", "left", "right"])
    def test_composition_matches_scipy(self, facing):
        # scipy's canonical rotation vector: for the back facing, just under
        # pi, the plain quaternion product of about half the draws has w < 0
        rng = np.random.default_rng(facing)
        gamma = synth.CANONICAL_FACINGS[facing]
        flipped = 0
        for _ in range(500):
            jitter = rng.normal(scale=synth.GLOBAL_JITTER_STD, size=3)
            composed = Rotation.from_rotvec(jitter) * Rotation.from_rotvec(gamma)
            flipped += composed.as_quat()[3] < 0
            np.testing.assert_allclose(synth._compose_rotvecs(jitter, gamma),
                                       composed.as_rotvec(), rtol=0, atol=1e-14)
        assert (flipped > 100) == (facing == 1)

    @pytest.mark.parametrize("scale", [0.0, 1e-9, 1e-4])
    def test_small_angles_match_scipy(self, scale):
        # below the 1e-3 series threshold in the jitter's quaternion and, on
        # the front facing, in the composed rotation vector
        rng = np.random.default_rng(3)
        for gamma in synth.CANONICAL_FACINGS[:2]:
            for _ in range(20):
                jitter = scale * rng.normal(size=3)
                want = (Rotation.from_rotvec(jitter) * Rotation.from_rotvec(gamma)).as_rotvec()
                np.testing.assert_allclose(synth._compose_rotvecs(jitter, gamma), want,
                                           rtol=0, atol=1e-14)


class TestCleanGeneration:
    def test_clean_silhouette_matches_rasterizer(self, model, small_cfg, source):
        rng = named_rng(0, "clean")
        s = sample_and_render(model, source, small_cfg, no_aug(), rng, corrupt=False)
        verts = bm.forward(model, s.theta, s.beta, s.glob)
        camera = cr.PerspCamera(
            small_cfg.focal_length, small_cfg.image_size,
            s.cam_translation,
        )
        expected = cr.rasterize_silhouette(verts, model.faces, model.edge_twins, camera)
        np.testing.assert_array_equal(s.proxy.silhouette, expected)
        # visibility is exactly the in-frame indicator for clean samples
        expected_vis = cr.in_frame_visibility(s.joints2d, small_cfg.image_size)
        np.testing.assert_array_equal(s.visibility, expected_vis)

    def test_degenerate_augmentation_equals_clean(self, model, small_cfg, source):
        key = (3, "degenerate")
        clean = sample_and_render(
            model, source, small_cfg, no_aug(), named_rng(*key), corrupt=False
        )
        corrupted = sample_and_render(
            model, source, small_cfg, no_aug(), named_rng(*key), corrupt=True
        )
        np.testing.assert_array_equal(clean.proxy.silhouette, corrupted.proxy.silhouette)
        np.testing.assert_array_equal(clean.joints2d, corrupted.joints2d)
        np.testing.assert_array_equal(clean.visibility, corrupted.visibility)

    def test_removal_prob_one_blanks_everything(self, model, small_cfg, source):
        aug = dataclasses.replace(no_aug(), joint_removal_prob=1.0)
        s = sample_and_render(
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

    def test_generation_draws_no_heatmaps(self, model, small_cfg, calls):
        samples = synth.generate_dataset(model, small_cfg, synth.AugmentationConfig(),
                                         num_subjects=2, poses_per_subject=3, seed=3,
                                         corrupt=True)
        assert calls["heatmaps"] == 0
        s = samples[-1]
        assert s.proxy.joints2d is s.joints2d and s.proxy.visibility is s.visibility
        size = small_cfg.image_size
        want = cr.joints_to_heatmaps(s.joints2d, s.visibility, size)
        np.testing.assert_array_equal(s.proxy.heatmaps, want)
        assert calls["heatmaps"] == 2  # drawn on each access, not cached

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
        s = sample_and_render(
            model, source, small_cfg, synth.AugmentationConfig(),
            named_rng(trial, "viz"), corrupt=True,
        )
        heatmaps = s.proxy.heatmaps
        for l in range(len(s.visibility)):
            channel_zero = not heatmaps[:, :, l].any()
            assert channel_zero == (s.visibility[l] == 0)

    @pytest.mark.parametrize("trial", range(6))
    def test_visible_joints_are_in_frame(self, model, small_cfg, source, trial):
        # aggressive noise pushes joints out
        aug = dataclasses.replace(no_aug(), joint_noise_range=40.0)
        s = sample_and_render(
            model, source, small_cfg, aug, named_rng(trial, "noise"), corrupt=True
        )
        size = small_cfg.image_size
        vis = s.visibility.astype(bool)
        cols = np.rint(s.joints2d[vis, 0])
        rows = np.rint(s.joints2d[vis, 1])
        assert np.all((cols >= 0) & (cols < size) & (rows >= 0) & (rows < size))


class ForcedIntegers:
    """An rng whose `integers` draws return `value`; with only one of the
    part or half-image occlusions on, the part or side is the render's one
    `integers` draw."""

    def __init__(self, rng, value):
        self.rng, self.value = rng, value

    def integers(self, *args, **kwargs):
        return self.value

    def __getattr__(self, name):
        return getattr(self.rng, name)


class TestPartOcclusion:
    def _assignment(self, model, small_cfg, source):
        rng = named_rng(5, "occ")
        s = sample_and_render(model, source, small_cfg, no_aug(), rng, corrupt=False)
        verts = bm.forward(model, s.theta, s.beta, s.glob)
        camera = cr.PerspCamera(
            small_cfg.focal_length, small_cfg.image_size,
            s.cam_translation,
        )
        assignment = cr.rasterize_part_assignment(verts, model.part_labels, camera,
                                                  s.proxy.silhouette)
        return s.proxy.silhouette, assignment

    def test_assignment_partitions_silhouette(self, model, small_cfg, source):
        # the per-part masks tile the silhouette: occluding every part in turn
        # empties it, and occluding a part with no pixels changes nothing
        sil, assignment = self._assignment(model, small_cfg, source)
        np.testing.assert_array_equal(assignment >= 0, sil.astype(bool))
        assert assignment.max() < len(model.part_names)

    def _occlude(self, model, small_cfg, source, part_id):
        # the view of `_assignment` with part `part_id` occluded
        rng = named_rng(5, "occ")
        theta, gamma = source.sample(rng)
        beta = synth.sample_shape(rng, small_cfg)
        aug = dataclasses.replace(no_aug(), body_part_occlusion_prob=1.0)
        s = synth.render_sample(model, theta, beta, gamma, small_cfg, aug,
                                ForcedIntegers(rng, part_id), corrupt=True)
        assert s.events["part_occluded"]
        return s.proxy.silhouette

    def test_invisible_part_is_noop(self, model, small_cfg, source):
        sil, assignment = self._assignment(model, small_cfg, source)
        covered = set(np.unique(assignment[assignment >= 0]).tolist())
        hidden = [p for p in range(len(model.part_names)) if p not in covered]
        if not hidden:
            pytest.skip("every part visible in this view")
        out = self._occlude(model, small_cfg, source, hidden[0])
        np.testing.assert_array_equal(out, sil)

    def test_union_of_all_part_occlusions_empties_silhouette(self, model, small_cfg, source):
        # set-cover oracle: the part assignment partitions the silhouette
        sil, _ = self._assignment(model, small_cfg, source)
        out = sil.copy()
        for part_id in range(len(model.part_names)):
            out &= self._occlude(model, small_cfg, source, part_id)
        assert sil.any() and not out.any()

    def test_part_occlusion_erases_one_part(self, model, small_cfg, source):
        sil, assignment = self._assignment(model, small_cfg, source)
        aug = dataclasses.replace(no_aug(), body_part_occlusion_prob=1.0)
        s = sample_and_render(model, source, small_cfg, aug, named_rng(5, "occ"), corrupt=True)
        out = s.proxy.silhouette
        assert s.events["part_occluded"]
        assert not np.any(out > sil)
        cleared = np.unique(assignment[(sil == 1) & (out == 0)])
        assert len(cleared) <= 1
        np.testing.assert_array_equal(out, sil * ~np.isin(assignment, cleared))

    def test_package_runs_without_scipy(self):
        # a fresh interpreter in which any import of scipy raises ImportError
        # imports every module and renders a part-occluded sample
        script = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None
import shapefuse
names = [m.name for m in pkgutil.iter_modules(shapefuse.__path__)]
for name in names:
    importlib.import_module("shapefuse." + name)
from shapefuse import bodymodel as bm, synth
from shapefuse.rng import named_rng
model = bm.generate_toy_model(seed=2, num_vertices=300, num_joints=16)
theta, gamma = synth.procedural_pose_source(model, n_poses=4, seed=0).sample(named_rng(0, "t"))
gen = synth.GenerationConfig(image_size=64, focal_length=75.0)
aug = synth.AugmentationConfig(body_part_occlusion_prob=1.0)
rng = named_rng(0, "s")
s = synth.render_sample(model, theta, synth.sample_shape(rng, gen), gamma, gen, aug, rng, True)
assert s.events["part_occluded"]
print(" ".join(names))
"""
        package = Path(synth.__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=str(package.parent))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert set(done.stdout.split()) == {p.stem for p in package.glob("*.py")} - {"__init__"}


class TestHalfImageOcclusion:
    @pytest.mark.parametrize("side, half", [  # halves of the 64 px small_cfg frame
        (0, np.s_[:, :32]), (1, np.s_[:, 32:]), (2, np.s_[:32]), (3, np.s_[32:]),
    ], ids=["left", "right", "top", "bottom"])
    def test_zeroes_the_named_half(self, model, small_cfg, source, side, half):
        aug = dataclasses.replace(no_aug(), half_image_occlusion_prob=1.0)
        theta, gamma = source.sample(named_rng(6, "pose"))
        beta = synth.sample_shape(named_rng(6, "shape"), small_cfg)

        def render(rng, corrupt):
            return synth.render_sample(model, theta, beta, gamma, small_cfg, aug, rng, corrupt)

        clean = render(named_rng(6, "half"), corrupt=False).proxy.silhouette
        s = render(ForcedIntegers(named_rng(6, "half"), side), corrupt=True)
        want = clean.copy()
        want[half] = 0
        assert s.events["half_occluded"]
        assert clean[half].any() and want.any()
        np.testing.assert_array_equal(s.proxy.silhouette, want)


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
        size = gen_cfg.image_size
        for i in [0, 3, 5]:
            s = samples[i]
            np.testing.assert_array_equal(ds.silhouette(i), s.proxy.silhouette)
            heatmaps = cr.joints_to_heatmaps(ds.arrays["joints2d"][i], ds.arrays["visibility"][i],
                                             size)
            np.testing.assert_array_equal(heatmaps, s.proxy.heatmaps)
            np.testing.assert_array_equal(ds.arrays["theta"][i], s.theta)
            np.testing.assert_array_equal(ds.arrays["joints2d"][i], s.joints2d)
            assert ds.arrays["subject_id"][i] == s.subject_id
        np.testing.assert_array_equal(ds.silhouette(np.array([5, 0, 5])),
                                      [samples[i].proxy.silhouette for i in (5, 0, 5)])

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

    @pytest.mark.parametrize("seed", [1.5, True, "1"], ids=["float", "bool", "string"])
    def test_non_int_seed_rejected(self, model, small_cfg, tmp_path, seed):
        samples = synth.generate_dataset(model, small_cfg, no_aug(), 1, 1, seed=1, corrupt=False)
        with pytest.raises(ValueError, match="seed"):
            synth.write_dataset(tmp_path / "d.sfd", samples, small_cfg, no_aug(), seed=seed)
        assert not (tmp_path / "d.sfd").exists()

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

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda a, m: m.pop("image_size"), id="no-image-size"),
        pytest.param(lambda a, m: m.update(image_size="64"), id="image-size-string"),
        pytest.param(lambda a, m: m.update(image_size=64.0), id="image-size-float"),
        pytest.param(lambda a, m: m.update(image_size=True), id="image-size-bool"),
        pytest.param(lambda a, m: m.update(image_size=0), id="image-size-zero"),
        pytest.param(lambda a, m: m.update(image_size=-64), id="image-size-negative"),
        pytest.param(lambda a, m: m.update(image_size=32), id="bits-wider-than-image"),
        *[pytest.param(lambda a, m, k=k: a.pop(k), id=f"no-{k}") for k in synth.DATASET_ARRAYS],
        pytest.param(lambda a, m: a.update({k: v[:0] for k, v in a.items()}), id="no-rows"),
        pytest.param(lambda a, m: a.update(beta=a["beta"][:-1]), id="ragged-beta"),
        pytest.param(lambda a, m: a.update(subject_id=a["subject_id"][0]), id="scalar-array"),
        pytest.param(lambda a, m: a.update(joints2d=a["joints2d"][:, :-1]), id="joint-count"),
        pytest.param(lambda a, m: a.update(joints2d=a["joints2d"][..., :1]), id="joints-not-2d"),
        pytest.param(lambda a, m: a.update(visibility=a["visibility"][:, 0]), id="visibility-1d"),
        pytest.param(lambda a, m: a.update(visibility=np.full_like(a["visibility"], 3)),
                     id="visibility-three"),
        pytest.param(lambda a, m: a.update(corrupted=np.full_like(a["corrupted"], 2)),
                     id="corrupted-two"),
        pytest.param(lambda a, m: a.update(corrupted=np.zeros((2, 2), np.uint8)),
                     id="corrupted-2d"),
        pytest.param(lambda a, m: a.update(glob=np.hstack([a["glob"], a["glob"][:, :1]])),
                     id="glob-width-4"),
        pytest.param(lambda a, m: a.update(cam_translation=a["cam_translation"][:, :2]),
                     id="cam-translation-width-2"),
        pytest.param(lambda a, m: a.update(theta=a["theta"][:, 0]), id="theta-1d"),
        pytest.param(lambda a, m: a.update(beta=a["beta"][:, :, None]), id="beta-3d"),
        pytest.param(lambda a, m: a.update(subject_id=a["subject_id"] + 0.5),
                     id="subject-id-fraction"),
        pytest.param(lambda a, m: a["beta"].__setitem__((0, 0), np.nan), id="beta-nan"),
        pytest.param(lambda a, m: a["joints2d"].__setitem__((1, 0, 0), np.inf), id="joints-inf"),
        pytest.param(lambda a, m: a["theta"].__setitem__((0, 0), -np.inf), id="theta-inf"),
        pytest.param(lambda a, m: a["glob"].__setitem__((1, 2), np.nan), id="glob-nan"),
        pytest.param(lambda a, m: a["cam_translation"].__setitem__((0, 2), np.nan),
                     id="cam-translation-nan"),
        pytest.param(lambda a, m: a.update(bogus=np.zeros(2)), id="extra-array"),
        pytest.param(lambda a, m: a.update(silhouette_bits=a["silhouette_bits"][:, :-1]),
                     id="bits-narrow"),
        pytest.param(lambda a, m: a.update(silhouette_bits=a["silhouette_bits"].astype(np.int64)),
                     id="bits-not-uint8"),
    ])
    def test_malformed_container_rejected(self, model, small_cfg, tmp_path, edit):
        aug_cfg = synth.AugmentationConfig()
        samples = synth.generate_dataset(model, small_cfg, aug_cfg, num_subjects=1,
                                         poses_per_subject=2, seed=4, corrupt=False)
        path = tmp_path / "d.sfd"
        synth.write_dataset(path, samples, small_cfg, aug_cfg, seed=4)
        arrays, meta = read_container(path, expected_kind="dataset")
        edit(arrays, meta)
        write_container(path, "dataset", arrays, meta)
        with pytest.raises(ContainerError, match="malformed dataset"):
            synth.read_dataset(path)

    @pytest.mark.parametrize("name, value", [("visibility", 3), ("visibility", -1),
                                             ("visibility", 0.5), ("corrupted", 2)])
    def test_flags_other_than_zero_and_one_rejected(self, model, small_cfg, name, value):
        # the reprojection loss weights each keypoint's squared error by its
        # visibility, so a visibility of 3 would weight it by 9
        samples = synth.generate_dataset(model, small_cfg, synth.AugmentationConfig(),
                                         num_subjects=1, poses_per_subject=2, seed=4,
                                         corrupt=False)
        dataset = synth.SynthDataset.from_samples(samples)
        arrays = dict(dataset.arrays, **{name: dataset.arrays[name].astype(np.float64)})
        arrays[name].flat[0] = value
        with pytest.raises(ValueError, match="visibility and corrupted must hold only 0s and 1s"):
            synth.SynthDataset(arrays, dataset.meta)
        arrays[name].flat[0] = 1 - dataset.arrays[name].flat[0]
        assert len(synth.SynthDataset(arrays, dataset.meta)) == 2

    @pytest.mark.parametrize("sigma", [4.0, "2", 0.0, -1.5, float("nan"), float("inf")],
                             ids=["sigma-4", "sigma-string", "sigma-zero", "sigma-negative",
                                  "sigma-nan", "sigma-inf"])
    def test_legacy_heatmap_sigma_ignored(self, model, small_cfg, tmp_path, sigma):
        # older containers record the heatmap width at the top level and in
        # the generation config; the width is now fixed and the key unread
        aug_cfg = synth.AugmentationConfig()
        samples = synth.generate_dataset(model, small_cfg, aug_cfg, num_subjects=1,
                                         poses_per_subject=2, seed=4, corrupt=False)
        path = tmp_path / "d.sfd"
        synth.write_dataset(path, samples, small_cfg, aug_cfg, seed=4)
        arrays, meta = read_container(path, expected_kind="dataset")
        assert "heatmap_sigma" not in meta and "heatmap_sigma" not in meta["generation_config"]
        meta["heatmap_sigma"] = meta["generation_config"]["heatmap_sigma"] = sigma
        write_container(path, "dataset", arrays, meta)
        ds = synth.read_dataset(path)
        assert ds.image_size == small_cfg.image_size and ds.arrays.keys() == arrays.keys()
        for key in arrays:
            np.testing.assert_array_equal(ds.arrays[key], arrays[key])

    def test_numpy_scalar_config_round_trip(self, model, source, tmp_path):
        # numpy scalars are ints and reals by the scalar rule; the file holds
        # the Python scalars, so it matches one written from a plain config
        given = synth.GenerationConfig(image_size=np.int64(32), focal_length=np.float32(40.0))
        plain = synth.GenerationConfig(image_size=32, focal_length=40.0)
        aug_cfg = synth.AugmentationConfig()
        samples = [sample_and_render(model, source, given, aug_cfg, named_rng(7, "np", i),
                                     corrupt=False) for i in range(2)]
        synth.write_dataset(tmp_path / "numpy.sfd", samples, given, aug_cfg, seed=7)
        synth.write_dataset(tmp_path / "python.sfd", samples, plain, aug_cfg, seed=7)
        assert (tmp_path / "numpy.sfd").read_bytes() == (tmp_path / "python.sfd").read_bytes()
        stored = synth.read_dataset(tmp_path / "numpy.sfd").meta["generation_config"]
        assert stored["image_size"] == 32 and type(stored["image_size"]) is int
        assert stored["focal_length"] == 40.0 and type(stored["focal_length"]) is float
        assert sorted(p.name for p in tmp_path.iterdir()) == ["numpy.sfd", "python.sfd"]

    def test_from_samples_takes_image_size_from_silhouettes(self, model, small_cfg, source):
        samples = [sample_and_render(model, source, small_cfg, synth.AugmentationConfig(),
                                     named_rng(6, "size", i), corrupt=False) for i in range(2)]
        assert synth.SynthDataset.from_samples(samples).image_size == small_cfg.image_size
        other = synth.GenerationConfig(image_size=32, focal_length=37.5)
        samples.append(sample_and_render(model, source, other, synth.AugmentationConfig(),
                                         named_rng(6, "size", 2), corrupt=False))
        with pytest.raises(ValueError, match="silhouette shape"):
            synth.SynthDataset.from_samples(samples)


class TestModelFingerprint:
    def test_every_field_changes_it(self, model):
        base = synth.model_fingerprint(model)
        seen = {base}
        for f in dataclasses.fields(model):
            value = getattr(model, f.name)
            # each edit keeps the model valid, since a model checks itself when built
            if f.name == "parents":
                changed = np.r_[value[:-1], 0]  # the last joint hangs from the root
            elif isinstance(value, np.ndarray):
                changed = value[::-1]  # reversed rows keep every row rule
            elif isinstance(value, tuple):
                changed = value[:-1] + (value[-1] + "_x",)
            else:
                changed = dict(value, extra=1)
            seen.add(synth.model_fingerprint(dataclasses.replace(model, **{f.name: changed})))
        assert len(seen) == 1 + len(dataclasses.fields(model))

    def test_shape_and_dtype_change_it(self, model):
        base = synth.model_fingerprint(model)
        # same bytes in a shape no model may have: set on a copy, past the checks
        flat = copy.copy(model)
        object.__setattr__(flat, "shape_basis",
                           model.shape_basis.reshape(model.num_vertices, -1, 1))
        assert synth.model_fingerprint(flat) != base
        as_uint = model.faces.view(np.uint64)
        assert synth.model_fingerprint(dataclasses.replace(model, faces=as_uint)) != base

    def test_survives_save_and_load(self, model, tmp_path):
        bm.save_model(tmp_path / "m.sfm", model)
        loaded = bm.load_model(tmp_path / "m.sfm")
        assert synth.model_fingerprint(loaded) == synth.model_fingerprint(model)


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
            s = sample_and_render(
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
