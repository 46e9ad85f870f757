import numpy as np
import pytest

from shapefuse import autodiff as ad
from shapefuse import bodymodel as bm
from shapefuse import camera as cam


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


class TestWeakPerspective:
    def test_identity_drops_z(self):
        pts = np.array([[0.1, 0.2, 5.0], [-0.3, 0.4, -2.0]])
        out = cam.project_weak(pts, np.array([1.0, 0.0, 0.0]))
        np.testing.assert_array_equal(out, pts[:, :2])

    def test_scale_translate_arithmetic(self):
        out = cam.project_weak(
            np.array([[0.5, 0.25, 3.0]]), cam.WeakPerspCamera(2.0, 0.1, -0.1)
        )
        np.testing.assert_allclose(out, [[1.1, 0.4]])

    def test_gradients_match_fd(self):
        pts = np.array([[0.5, 0.25, 3.0], [-0.2, 0.7, 1.0]])

        def f(xs):
            c = ad.stack(xs)
            proj = cam.project_weak(pts, c)
            return ad.sum_(proj * np.array([[1.0, 2.0], [3.0, -1.0]]))

        assert ad.grad_check(f, [1.3, 0.2, -0.4], step=1e-6) < 1e-6

    def test_commutes_with_in_plane_translation(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(5, 3))
        c = np.array([1.7, 0.3, -0.2])
        d = np.array([0.05, -0.08, 0.0])
        lhs = cam.project_weak(pts + d, c)
        rhs = cam.project_weak(pts, c) + c[0] * d[:2]
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            cam.WeakPerspCamera(0.0, 0.0, 0.0)


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
        mesh = bm.neutral_pose_mesh(model, np.zeros(10))
        c = cam.PerspCamera(300.0, 256, 256, np.array([0.0, -0.2, 2.5]))
        px = cam.project_persp(mesh.vertices, c)
        assert px.min() >= 0.0 and px.max() <= 256.0

    def test_point_behind_camera_rejected(self):
        c = cam.PerspCamera(300.0, 256, 256, np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            cam.project_persp(np.array([[0.0, 0.0, -1.0]]), c)


class TestRasterizer:
    def test_covering_triangle_fills_frame(self):
        verts = np.array([[-50.0, -50.0, 0.0], [50.0, -50.0, 0.0], [0.0, 80.0, 0.0]])
        faces = np.array([[0, 1, 2]])
        c = cam.PerspCamera(10.0, 32, 32, np.array([0.0, 0.0, 1.0]))
        mask = cam.rasterize_silhouette(bm.VertexMesh(verts, faces), c)
        assert mask.all()
        assert cam.covers_any_pixel(bm.VertexMesh(verts, faces), c) is True
        # the same mesh moved wholly past the frame's right edge
        shifted = bm.VertexMesh(verts + [200.0, 0.0, 0.0], faces)
        assert not cam.rasterize_silhouette(shifted, c).any()
        assert cam.covers_any_pixel(shifted, c) is False

    def test_empty_mesh_gives_zeros(self):
        c = cam.PerspCamera(10.0, 16, 16, np.array([0.0, 0.0, 1.0]))
        mesh = bm.VertexMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
        mask = cam.rasterize_silhouette(mesh, c)
        assert mask.shape == (16, 16) and not mask.any()
        assert cam.covers_any_pixel(mesh, c) is False

    def test_degenerate_triangles_skipped(self):
        verts = np.array([[0.0, 0.0, 0.0], [0.1, 0.1, 0.0], [0.2, 0.2, 0.0]])
        faces = np.array([[0, 1, 2]])
        c = cam.PerspCamera(50.0, 32, 32, np.array([0.0, 0.0, 1.0]))
        mask = cam.rasterize_silhouette(bm.VertexMesh(verts, faces), c)
        assert not mask.any()
        assert cam.covers_any_pixel(bm.VertexMesh(verts, faces), c) is False

    @pytest.mark.parametrize("seed, size, spread, cells", [
        *(pytest.param(100 + t, 64, 0.8, None, id=str(t)) for t in range(8)),
        # boxes past 4096 cells (the old loop cutoff), off every frame edge;
        # seeds whose meshes reach all four edges, as asserted below
        *(pytest.param(s, 96, 4.0, None, id=f"96px-{s}") for s in (202, 204, 205)),
        # a 64-cell budget splits batches, and single boxes exceed it
        *(pytest.param(100 + t, 64, 0.8, 64, id=f"64cells-{t}") for t in range(3)),
    ])
    def test_matches_brute_force_oracle(self, seed, size, spread, cells, monkeypatch):
        if cells is not None:
            monkeypatch.setattr(cam, "COVERAGE_CELLS", cells)
        rng = np.random.default_rng(seed)
        verts = rng.uniform(-0.8, 0.8, size=(12, 3)) * [spread / 0.8, spread / 0.8, 1.0]
        faces = rng.integers(0, 12, size=(20, 3))
        c = cam.PerspCamera(40.0, size, size, np.array([0.0, 0.0, 2.0]))
        mesh = bm.VertexMesh(verts, faces)
        got = cam.rasterize_silhouette(mesh, c)
        tri_px = cam.project_persp(verts, c)[faces]
        if size == 96:
            lo, hi = tri_px.min(axis=1), tri_px.max(axis=1)
            assert (np.prod(np.clip(hi, 0, size) - np.clip(lo, 0, size), axis=1) > 4096).any()
            assert (lo < 0).any(axis=0).all() and (hi > size).any(axis=0).all()
        want = brute_force_coverage(tri_px, size, size)
        np.testing.assert_array_equal(got.astype(bool), want)
        assert cam.covers_any_pixel(mesh, c) == want.any()

    def test_winding_invariance(self):
        rng = np.random.default_rng(5)
        verts = rng.uniform(-0.5, 0.5, size=(9, 3))
        faces = rng.integers(0, 9, size=(6, 3))
        c = cam.PerspCamera(40.0, 48, 48, np.array([0.0, 0.0, 2.0]))
        m1 = cam.rasterize_silhouette(bm.VertexMesh(verts, faces), c)
        m2 = cam.rasterize_silhouette(bm.VertexMesh(verts, faces[:, ::-1]), c)
        np.testing.assert_array_equal(m1, m2)

    def test_part_assignment_partitions_silhouette(self):
        model = bm.generate_toy_model(seed=1, num_vertices=300, num_joints=16)
        mesh = bm.neutral_pose_mesh(model, np.zeros(10))
        c = cam.PerspCamera(150.0, 128, 128, np.array([0.0, -0.2, 2.5]))
        sil = cam.rasterize_silhouette(bm.VertexMesh(mesh.vertices, model.faces), c)
        assign = cam.rasterize_part_assignment(mesh, model.part_labels, c, sil)
        np.testing.assert_array_equal(assign >= 0, sil.astype(bool))


class TestHeatmaps:
    def test_peak_one_at_joint_pixel(self):
        maps = cam.joints_to_heatmaps(np.array([[128.0, 128.0]]), np.array([1]), 256, 256)
        assert maps[128, 128, 0] == 1.0
        assert maps[:, :, 0].max() == 1.0

    def test_invisible_channel_all_zero(self):
        maps = cam.joints_to_heatmaps(np.array([[128.0, 128.0]]), np.array([0]), 256, 256)
        assert not maps.any()

    def test_value_at_sigma_distance(self):
        sigma = 4.0
        maps = cam.joints_to_heatmaps(
            np.array([[100.0, 100.0]]), np.array([1]), 256, 256, sigma=sigma
        )
        assert maps[100, 104, 0] == pytest.approx(np.exp(-0.5))

    def test_peak_at_rounded_pixel(self):
        maps = cam.joints_to_heatmaps(np.array([[100.4, 99.6]]), np.array([1]), 256, 256)
        r, c = np.unravel_index(np.argmax(maps[:, :, 0]), (256, 256))
        assert (r, c) == (100, 100)


class TestThreshold:
    def test_below_threshold_invisible(self):
        om = cam.threshold_detections(np.zeros((1, 2)), np.array([0.024]), 0.025)
        assert om[0] == 0

    def test_exactly_threshold_visible(self):
        om = cam.threshold_detections(np.zeros((1, 2)), np.array([0.025]), 0.025)
        assert om[0] == 1

    def test_full_confidence_all_visible(self):
        om = cam.threshold_detections(np.zeros((3, 2)), np.ones(3), 0.025)
        np.testing.assert_array_equal(om, [1, 1, 1])
