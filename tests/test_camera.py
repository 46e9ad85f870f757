import numpy as np
import pytest

from shapefuse import autodiff as ad
from shapefuse import bodymodel as bm
from shapefuse import camera as cam
from shapefuse import synth

from gradcheck import grad_check


def brute_force_coverage(tri_px, h, w):
    """Independent per-pixel, per-triangle point-in-triangle oracle."""
    mask = np.zeros((h, w), dtype=bool)
    for r in range(h):
        for c in range(w):
            px, py = c + 0.5, r + 0.5
            for tri in tri_px:
                (x0, y0), (x1, y1), (x2, y2) = tri
                area2 = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
                if area2 == 0.0:
                    continue
                if area2 < 0.0:
                    x1, y1, x2, y2 = x2, y2, x1, y1
                e0 = (x1 - x0) * (py - y0) - (y1 - y0) * (px - x0)
                e1 = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
                e2 = (x0 - x2) * (py - y2) - (y0 - y2) * (px - x2)
                if e0 >= 0 and e1 >= 0 and e2 >= 0:
                    mask[r, c] = True
                    break
    return mask


def counter_clockwise(tri_px):
    """The non-degenerate triangles of a soup (n, 3, 2), each reordered to
    positive signed area, as `_covered_cells` requires."""
    tri = np.array(tri_px, dtype=np.float64)
    (x0, y0), (x1, y1), (x2, y2) = tri[:, 0].T, tri[:, 1].T, tri[:, 2].T
    area2 = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
    tri[area2 < 0.0] = tri[area2 < 0.0][:, [0, 2, 1]]
    return tri[area2 != 0.0]


class TestWeakPerspective:
    def test_identity_drops_z(self):
        pts = np.array([[0.1, 0.2, 5.0], [-0.3, 0.4, -2.0]])
        out = cam.project_weak(pts, np.array([1.0, 0.0, 0.0]))
        np.testing.assert_array_equal(out, pts[:, :2])

    def test_scale_translate_arithmetic(self):
        out = cam.project_weak(np.array([[0.5, 0.25, 3.0]]), np.array([2.0, 0.1, -0.1]))
        np.testing.assert_allclose(out, [[1.1, 0.4]])

    def test_gradients_match_fd(self):
        pts = np.array([[0.5, 0.25, 3.0], [-0.2, 0.7, 1.0]])

        def f(xs):
            c = ad.stack(xs)
            proj = cam.project_weak(pts, c)
            return ad.sum_(proj * np.array([[1.0, 2.0], [3.0, -1.0]]))

        assert grad_check(f, [1.3, 0.2, -0.4], step=1e-6) < 1e-6

    def test_commutes_with_in_plane_translation(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(5, 3))
        c = np.array([1.7, 0.3, -0.2])
        d = np.array([0.05, -0.08, 0.0])
        lhs = cam.project_weak(pts + d, c)
        rhs = cam.project_weak(pts, c) + c[0] * d[:2]
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_one_camera_per_leading_index(self):
        # (B, S, L, 3) points with a (B, 3) camera, as in the reprojection loss
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(2, 3, 4, 3))
        c = np.array([[1.5, 0.1, -0.2], [0.7, -0.3, 0.4]])
        out = cam.project_weak(pts, c)
        assert out.shape == (2, 3, 4, 2)
        for b in range(2):
            for s in range(3):
                np.testing.assert_array_equal(out[b, s], cam.project_weak(pts[b, s], c[b]))

    @pytest.mark.parametrize("pts_shape, cam_shape", [
        ((4, 3), (2, 3)), ((2, 4, 3), (3, 3)), ((4, 2), (3,)), ((4, 3), (2,)), ((3,), (3, 3)),
    ], ids=["lead-differs", "batch-differs", "points-2d", "camera-2", "camera-outranks"])
    def test_mismatched_shapes_rejected(self, pts_shape, cam_shape):
        with pytest.raises(ValueError):
            cam.project_weak(np.zeros(pts_shape), np.ones(cam_shape))


class TestPerspective:
    def test_optical_axis_maps_to_center(self):
        c = cam.PerspCamera(300.0, 256, 256, np.array([0.0, 0.0, 2.5]))
        out = cam.project_persp(np.zeros((1, 3)), c)
        np.testing.assert_allclose(out, [[128.0, 128.0]])

    def test_doubling_focal_doubles_offset(self):
        p = np.array([[0.3, -0.2, 0.0]])
        c1 = cam.PerspCamera(300.0, 256, 256, np.array([0.0, 0.0, 2.5]))
        c2 = cam.PerspCamera(600.0, 256, 256, np.array([0.0, 0.0, 2.5]))
        off1 = cam.project_persp(p, c1)[0] - 128.0
        off2 = cam.project_persp(p, c2)[0] - 128.0
        np.testing.assert_allclose(off2, 2 * off1)

    def test_toy_neutral_mesh_fits_default_frame(self):
        # default generation camera: translation (0, -0.2, 2.5) m, focal 300
        model = bm.generate_toy_model(seed=0, num_vertices=600, num_joints=16)
        verts = bm.shaped_template(model, np.zeros(10))
        c = cam.PerspCamera(300.0, 256, 256, np.array([0.0, -0.2, 2.5]))
        px = cam.project_persp(verts, c)
        assert px.min() >= 0.0 and px.max() <= 256.0

    def test_point_behind_camera_rejected(self):
        c = cam.PerspCamera(300.0, 256, 256, np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            cam.project_persp(np.array([[0.0, 0.0, -1.0]]), c)


# one triangle and its reverse: the smallest closed, consistently oriented surface
TWO_SIDED = np.array([[0, 1, 2], [0, 2, 1]])


class TestRasterizer:
    def test_covering_triangle_fills_frame(self):
        verts = np.array([[-50.0, -50.0, 0.0], [50.0, -50.0, 0.0], [0.0, 80.0, 0.0]])
        faces = TWO_SIDED
        c = cam.PerspCamera(10.0, 32, 32, np.array([0.0, 0.0, 1.0]))
        mask = cam.rasterize_silhouette(verts, faces, c)
        assert mask.all()
        assert cam.covers_any_pixel(verts, faces, c) is True
        # the same mesh moved wholly past the frame's right edge
        shifted = verts + [200.0, 0.0, 0.0]
        assert not cam.rasterize_silhouette(shifted, faces, c).any()
        assert cam.covers_any_pixel(shifted, faces, c) is False

    def test_empty_mesh_gives_zeros(self):
        c = cam.PerspCamera(10.0, 16, 16, np.array([0.0, 0.0, 1.0]))
        verts, faces = np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64)
        mask = cam.rasterize_silhouette(verts, faces, c)
        assert mask.shape == (16, 16) and not mask.any()
        assert cam.covers_any_pixel(verts, faces, c) is False

    def test_degenerate_triangles_skipped(self):
        verts = np.array([[0.0, 0.0, 0.0], [0.1, 0.1, 0.0], [0.2, 0.2, 0.0]])
        faces = TWO_SIDED
        c = cam.PerspCamera(50.0, 32, 32, np.array([0.0, 0.0, 1.0]))
        mask = cam.rasterize_silhouette(verts, faces, c)
        assert not mask.any()
        assert cam.covers_any_pixel(verts, faces, c) is False

    @pytest.mark.parametrize("seed, size, spread, cells", [
        *(pytest.param(100 + t, 64, 0.8, None, id=str(t)) for t in range(8)),
        # boxes past 4096 cells (the old loop cutoff), off every frame edge;
        # seeds whose meshes reach all four edges, as asserted below
        *(pytest.param(s, 96, 4.0, None, id=f"96px-{s}") for s in (202, 204, 205)),
        # a 64-cell budget splits batches, and single boxes exceed it
        *(pytest.param(100 + t, 64, 0.8, 64, id=f"64cells-{t}") for t in range(3)),
    ])
    def test_matches_brute_force_oracle(self, seed, size, spread, cells, monkeypatch):
        # a triangle soup, oriented here; the oracle takes either winding
        if cells is not None:
            monkeypatch.setattr(cam, "COVERAGE_CELLS", cells)
        rng = np.random.default_rng(seed)
        verts = rng.uniform(-0.8, 0.8, size=(12, 3)) * [spread / 0.8, spread / 0.8, 1.0]
        faces = rng.integers(0, 12, size=(20, 3))
        c = cam.PerspCamera(40.0, size, size, np.array([0.0, 0.0, 2.0]))
        tri_px = cam.project_persp(verts, c)[faces]
        got = cam._coverage_mask(counter_clockwise(tri_px), size, size)
        if size == 96:
            lo, hi = tri_px.min(axis=1), tri_px.max(axis=1)
            assert (np.prod(np.clip(hi, 0, size) - np.clip(lo, 0, size), axis=1) > 4096).any()
            assert (lo < 0).any(axis=0).all() and (hi > size).any(axis=0).all()
        want = brute_force_coverage(tri_px.tolist(), size, size)
        np.testing.assert_array_equal(got, want)
        assert any(cells.size for cells in
                   cam._covered_cells(counter_clockwise(tri_px), size, size)) == want.any()

    def test_part_assignment_partitions_silhouette(self):
        model = bm.generate_toy_model(seed=1, num_vertices=300, num_joints=16)
        verts = bm.shaped_template(model, np.zeros(10))
        c = cam.PerspCamera(150.0, 128, 128, np.array([0.0, -0.2, 2.5]))
        sil = cam.rasterize_silhouette(verts, model.faces, c)
        assign = cam.rasterize_part_assignment(verts, model.part_labels, c, sil)
        np.testing.assert_array_equal(assign >= 0, sil.astype(bool))


def posed_noisy_bodies(model, seed, facings):
    """Posed, shaped bodies (n, V, 3), one per index into the canonical
    facings, jittered, under the generator's default uniform vertex noise."""
    rng = np.random.default_rng(seed)
    n = len(facings)
    glob = synth.CANONICAL_FACINGS[facings] + rng.normal(scale=0.15, size=(n, 3))
    verts = bm.lbs_vertices(model, rng.normal(scale=0.3, size=(n, model.pose_dim)),
                            rng.normal(size=(n, model.shape_dim)), glob)
    noise = synth.AugmentationConfig().vertex_noise_range
    return verts + rng.uniform(-noise, noise, verts.shape)


class TestClosedMeshRasterizer:
    """On a closed body mesh, the rasterizers test one facing of the faces;
    these oracles test all of them."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_brute_force_on_posed_bodies(self, seed):
        model = bm.generate_toy_model(seed=seed, num_vertices=150, num_joints=16)
        c = cam.PerspCamera(75.0, 48, 48, np.array([0.0, -0.2, 2.5]))
        for verts in posed_noisy_bodies(model, seed, [2 * seed, 2 * seed + 1]):
            # Python floats: the same arithmetic as numpy scalars, several times faster
            want = brute_force_coverage(cam.project_persp(verts, c)[model.faces].tolist(), 48, 48)
            assert want.any() and not want.all()
            np.testing.assert_array_equal(cam.rasterize_silhouette(verts, model.faces, c), want)
            np.testing.assert_array_equal(
                cam.rasterize_silhouette(verts, model.faces[:, ::-1], c), want)
            assert cam.covers_any_pixel(verts, model.faces, c) is True

    @pytest.mark.parametrize("shift", [0.0, 1.0, 3.0], ids=["centred", "past-edge", "off-frame"])
    def test_matches_all_faces_at_benchmark_size(self, shift):
        model = bm.generate_toy_model(seed=0, num_vertices=6890, num_joints=24)
        c = cam.PerspCamera(300.0, 256, 256, np.array([shift, -0.2, 2.5]))
        for verts in posed_noisy_bodies(model, 7, [0, 1, 2, 3]):
            want = cam._coverage_mask(
                counter_clockwise(cam.project_persp(verts, c)[model.faces]), 256, 256)
            assert want.any() == (shift < 3.0) and not want.all()
            for faces in (model.faces, model.faces[:, ::-1]):
                kept = len(cam._projected_triangles(verts, faces, c))
                assert 0 < kept < len(faces)
                np.testing.assert_array_equal(cam.rasterize_silhouette(verts, faces, c), want)
                assert cam.covers_any_pixel(verts, faces, c) == want.any()
            if shift == 1.0:
                assert want[:, -1].any()


class TestHeatmaps:
    def test_peak_one_at_joint_pixel(self):
        maps = cam.joints_to_heatmaps(np.array([[128.0, 128.0]]), np.array([1]), 256, 256)
        assert maps[128, 128, 0] == 1.0
        assert maps[:, :, 0].max() == 1.0

    def test_invisible_channel_all_zero(self):
        maps = cam.joints_to_heatmaps(np.array([[128.0, 128.0]]), np.array([0]), 256, 256)
        assert not maps.any()

    def test_value_at_sigma_distance(self):
        assert cam.HEATMAP_SIGMA == 4.0
        maps = cam.joints_to_heatmaps(np.array([[100.0, 100.0]]), np.array([1]), 256, 256)
        assert maps[100, 104, 0] == pytest.approx(np.exp(-0.5))

    def test_peak_at_rounded_pixel(self):
        maps = cam.joints_to_heatmaps(np.array([[100.4, 99.6]]), np.array([1]), 256, 256)
        r, c = np.unravel_index(np.argmax(maps[:, :, 0]), (256, 256))
        assert (r, c) == (100, 100)
