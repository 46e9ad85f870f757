import dataclasses

import numpy as np
import pytest

from shapefuse import autodiff as ad
from shapefuse import bodymodel as bm
from shapefuse import camera as cam
from shapefuse import synth

from gradcheck import grad_check


def brute_force_coverage(tri_px, h, w):
    """Independent per-pixel, per-triangle point-in-triangle oracle.

    A center outside a triangle's bounding box is outside the triangle; the
    rounded edge tests alone can accept a center on the line of a
    near-collinear sliver beyond its ends (see
    `test_sliver_line_past_its_box_not_covered`)."""
    mask = np.zeros((h, w), dtype=bool)
    for r in range(h):
        for c in range(w):
            px, py = c + 0.5, r + 0.5
            for tri in tri_px:
                (x0, y0), (x1, y1), (x2, y2) = tri
                if not (min(x0, x1, x2) <= px <= max(x0, x1, x2)
                        and min(y0, y1, y2) <= py <= max(y0, y1, y2)):
                    continue
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


def widened_box_coverage(tri_px, size, margin=2):
    """Pixel-center coverage of counter-clockwise triangles (n, 3, 2) in an
    S x S image, each tested at every center of its bounding box widened by
    `margin` pixels on every side: a reference that shares no box rule with
    the rasterizer. As in `brute_force_coverage`, a center outside a
    triangle's bounding box is outside it."""
    mask = np.zeros((size, size), dtype=bool)
    for tri in np.array_split(tri_px, max(1, len(tri_px) // 512)):
        lo, hi = tri.min(axis=1)[:, :, None, None], tri.max(axis=1)[:, :, None, None]
        start = np.floor(lo).astype(np.int64) - margin
        steps = np.arange(int((np.ceil(hi) - np.floor(lo)).max()) + 2 * margin + 1)
        cols = start[:, 0] + steps[None, None, :]                  # (n, 1, E)
        rows = start[:, 1] + steps[None, :, None]                  # (n, E, 1)
        px, py = cols + 0.5, rows + 0.5
        (x0, y0), (x1, y1), (x2, y2) = (tri[:, k, :, None, None].transpose(1, 0, 2, 3)
                                        for k in range(3))
        inside = (
            (cols >= 0) & (cols < size) & (rows >= 0) & (rows < size)
            & (px >= lo[:, 0]) & (px <= hi[:, 0]) & (py >= lo[:, 1]) & (py <= hi[:, 1])
            & ((x1 - x0) * (py - y0) - (y1 - y0) * (px - x0) >= 0)
            & ((x2 - x1) * (py - y1) - (y2 - y1) * (px - x1) >= 0)
            & ((x0 - x2) * (py - y2) - (y0 - y2) * (px - x2) >= 0)
        )
        mask[np.broadcast_to(rows, inside.shape)[inside],
             np.broadcast_to(cols, inside.shape)[inside]] = True
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
        c = cam.PerspCamera(300.0, 256, np.array([0.0, 0.0, 2.5]))
        out = cam.project_persp(np.zeros((1, 3)), c)
        np.testing.assert_allclose(out, [[128.0, 128.0]])

    def test_doubling_focal_doubles_offset(self):
        p = np.array([[0.3, -0.2, 0.0]])
        c1 = cam.PerspCamera(300.0, 256, np.array([0.0, 0.0, 2.5]))
        c2 = cam.PerspCamera(600.0, 256, np.array([0.0, 0.0, 2.5]))
        off1 = cam.project_persp(p, c1)[0] - 128.0
        off2 = cam.project_persp(p, c2)[0] - 128.0
        np.testing.assert_allclose(off2, 2 * off1)

    def test_toy_neutral_mesh_fits_default_frame(self):
        # default generation camera: translation (0, -0.2, 2.5) m, focal 300
        model = bm.generate_toy_model(seed=0, num_vertices=600, num_joints=16)
        verts = bm.shaped_template(model, np.zeros(10))
        c = cam.PerspCamera(300.0, 256, np.array([0.0, -0.2, 2.5]))
        px = cam.project_persp(verts, c)
        assert px.min() >= 0.0 and px.max() <= 256.0

    @pytest.mark.parametrize("focal", [0.0, -1.0, float("inf"), float("nan"), True])
    def test_focal_must_be_finite_and_positive(self, focal):
        with pytest.raises(ValueError, match="finite and positive"):
            cam.PerspCamera(focal, 256, np.array([0.0, 0.0, 2.5]))

    @pytest.mark.parametrize("size", [0, 64.5, True])
    def test_size_must_be_positive_int(self, size):
        with pytest.raises(ValueError, match="image size"):
            cam.PerspCamera(300.0, size, np.array([0.0, 0.0, 2.5]))

    @pytest.mark.parametrize("translation", [[0.0, 0.0], [np.nan, 0.0, 2.0], [0.0, np.inf, 2.0],
                                             [[0.0, 0.0, 2.0]]],
                             ids=["two", "nan", "inf", "nested"])
    def test_translation_must_be_three_finite_values(self, translation):
        with pytest.raises(ValueError, match="translation"):
            cam.PerspCamera(300.0, 256, translation)

    @pytest.mark.parametrize("field, value", [("size", 0), ("translation", np.array([0, 0, -1.0])),
                                              ("focal", -1.0)])
    def test_assignment_rejected(self, field, value):
        c = cam.PerspCamera(300.0, 256, [0, 0, 2.5])
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(c, field, value)
        assert c.size == 256 and c.focal == 300.0
        np.testing.assert_array_equal(c.translation, [0.0, 0.0, 2.5])
        assert c.translation.dtype == np.float64

    def test_translation_is_an_own_read_only_copy(self):
        given = np.array([0.0, 0.0, 2.5])
        c = cam.PerspCamera(300.0, 256, given)
        given[2] = -1.0
        with pytest.raises(ValueError, match="read-only"):
            c.translation[2] = -1.0
        np.testing.assert_array_equal(c.translation, [0.0, 0.0, 2.5])

    def test_point_behind_camera_rejected(self):
        c = cam.PerspCamera(300.0, 256, np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            cam.project_persp(np.array([[0.0, 0.0, -1.0]]), c)

    @pytest.mark.parametrize("bad, where", [
        (float("nan"), (0, 0)), (float("nan"), (2, 2)), (float("inf"), (1, 1)),
        (-float("inf"), (0, 2)),
    ], ids=["nan-x", "nan-z", "inf-y", "minus-inf-z"])
    @pytest.mark.parametrize("call", [
        lambda v, c: cam.project_persp(v, c),
        lambda v, c: cam.rasterize_silhouette(v, np.array([[0, 1, 2], [0, 2, 1]]), c),
        lambda v, c: cam.covers_any_pixel(v, np.array([[0, 1, 2], [0, 2, 1]]), c),
    ], ids=["project", "rasterize", "covers"])
    def test_non_finite_point_rejected(self, bad, where, call):
        # a NaN z passes a `z <= eps` test, and a NaN pixel area is not
        # positive, so the faces at a NaN vertex would vanish from the mask
        verts = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.1, 0.0]])
        verts[where] = bad
        with pytest.raises(ValueError, match="finite"):
            call(verts, cam.PerspCamera(300.0, 64, [0.0, 0.0, 2.5]))


# one triangle and its reverse: the smallest closed, consistently oriented surface
TWO_SIDED = np.array([[0, 1, 2], [0, 2, 1]])


def hard_triangles(kind, rng, size, n):
    """(n, 3, 2) pixel-space triangles of one kind that tests the ends of
    the rasterizer's boxes in an S x S frame:
    - "centers": vertices on pixel centers and pixel corners (multiples of
      1/2), on and past the frame;
    - "slivers": a segment, half of them snapped to multiples of 1/2, and a
      third point 1e-14 to 1e-3 px off its line;
    - "collinear": three points on a line through a pixel center along a
      small whole-pixel step, each nudged by 1e-15 to 1e-6 px;
    - "past-<edge>": wholly beyond the last pixel centers at that frame
      edge, some on quarter pixels (the frame edge itself among them)."""
    if kind == "centers":
        return rng.integers(-6, 2 * size + 6, size=(n, 3, 2)) / 2.0
    if kind == "slivers":
        p = rng.uniform(-3, size + 3, size=(n, 2))
        angle = rng.uniform(0, 2 * np.pi, n)
        d = rng.uniform(1, size, n)[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
        q = p + d
        snap = rng.random(n) < 0.5
        p[snap], q[snap] = np.round(2 * p[snap]) / 2, np.round(2 * q[snap]) / 2
        d = q - p
        normal = np.stack([-d[:, 1], d[:, 0]], axis=1) / np.hypot(d[:, 0], d[:, 1])[:, None]
        gap = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-14, -3, n)
        third = p + rng.uniform(-0.5, 1.5, n)[:, None] * d + gap[:, None] * normal
        return np.stack([p, q, third], axis=1)
    if kind == "collinear":
        center = rng.integers(0, size, size=(n, 1, 2)) + 0.5
        step = rng.integers(1, 4, size=(n, 1, 2)) * rng.choice([-1, 1], size=(n, 1, 2))
        along = rng.uniform(-3, 3, size=(n, 3, 1))
        nudge = rng.normal(size=(n, 3, 2)) * 10.0 ** rng.uniform(-15, -6, size=(n, 1, 1))
        return center + along * step + nudge
    edge = kind.removeprefix("past-")
    # beyond the centers 0.5 and S - 0.5; a box of whole centers is empty
    depth = np.where(rng.random((n, 3)) < 0.5, rng.uniform(0, 4, (n, 3)),
                     rng.integers(1, 16, (n, 3)) / 4.0)
    depth = np.maximum(depth, 1e-9)
    across = rng.uniform(-3, size + 3, size=(n, 3))
    far = np.where(edge in ("left", "top"), 0.5 - depth, size - 0.5 + depth)
    x, y = (far, across) if edge in ("left", "right") else (across, far)
    return np.stack([x, y], axis=2)


class TestRasterizer:
    def test_covering_triangle_fills_frame(self):
        verts = np.array([[-50.0, -50.0, 0.0], [50.0, -50.0, 0.0], [0.0, 80.0, 0.0]])
        faces = TWO_SIDED
        c = cam.PerspCamera(10.0, 32, np.array([0.0, 0.0, 1.0]))
        mask = cam.rasterize_silhouette(verts, faces, c)
        assert mask.all()
        assert cam.covers_any_pixel(verts, faces, c) is True
        # the same mesh moved wholly past the frame's right edge
        shifted = verts + [200.0, 0.0, 0.0]
        assert not cam.rasterize_silhouette(shifted, faces, c).any()
        assert cam.covers_any_pixel(shifted, faces, c) is False

    def test_empty_mesh_gives_zeros(self):
        c = cam.PerspCamera(10.0, 16, np.array([0.0, 0.0, 1.0]))
        verts, faces = np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64)
        mask = cam.rasterize_silhouette(verts, faces, c)
        assert mask.shape == (16, 16) and not mask.any()
        assert cam.covers_any_pixel(verts, faces, c) is False

    def test_degenerate_triangles_skipped(self):
        verts = np.array([[0.0, 0.0, 0.0], [0.1, 0.1, 0.0], [0.2, 0.2, 0.0]])
        faces = TWO_SIDED
        c = cam.PerspCamera(50.0, 32, np.array([0.0, 0.0, 1.0]))
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
        c = cam.PerspCamera(40.0, size, np.array([0.0, 0.0, 2.0]))
        tri_px = cam.project_persp(verts, c)[faces]
        got = cam._coverage_mask(counter_clockwise(tri_px), size)
        if size == 96:
            lo, hi = tri_px.min(axis=1), tri_px.max(axis=1)
            assert (np.prod(np.clip(hi, 0, size) - np.clip(lo, 0, size), axis=1) > 4096).any()
            assert (lo < 0).any(axis=0).all() and (hi > size).any(axis=0).all()
        want = brute_force_coverage(tri_px.tolist(), size, size)
        np.testing.assert_array_equal(got, want)
        assert any(cells.size for cells in
                   cam._covered_cells(counter_clockwise(tri_px), size)) == want.any()

    @pytest.mark.parametrize("kind, seed, cells", [
        *(pytest.param(k, s, None, id=f"{k}-{s}") for k in ("centers", "slivers", "collinear")
          for s in range(3)),
        *(pytest.param(k, 0, 16, id=f"{k}-16cells") for k in ("centers", "slivers", "collinear")),
        *(pytest.param(f"past-{edge}", s, None, id=f"past-{edge}-{s}")
          for edge in ("left", "right", "top", "bottom") for s in range(2)),
    ])
    def test_tight_boxes_match_brute_force(self, kind, seed, cells, monkeypatch):
        # triangles on and between pixel centers, where a box's ends are
        # decided; per triangle and as one soup, at a budget that batches them
        if cells is not None:
            monkeypatch.setattr(cam, "COVERAGE_CELLS", cells)
        size = 24
        c = cam.PerspCamera(1.0, size, np.array([0.0, 0.0, 1.0]))
        designed = hard_triangles(kind, np.random.default_rng(seed), size, 40)
        verts = np.concatenate([designed - size / 2, np.zeros((40, 3, 1))], axis=2)
        tri_px = cam.project_persp(verts, c)
        masks = [brute_force_coverage([t.tolist()], size, size) for t in tri_px]
        for v, want in zip(verts, masks):
            assert cam.covers_any_pixel(v, TWO_SIDED, c) == want.any()
            np.testing.assert_array_equal(cam.rasterize_silhouette(v, TWO_SIDED, c), want)
        want = np.any(masks, axis=0)
        np.testing.assert_array_equal(cam._coverage_mask(counter_clockwise(tri_px), size), want)
        assert any(cells.size for cells in
                   cam._covered_cells(counter_clockwise(tri_px), size)) == want.any()
        if kind.startswith("past"):
            # no center lies within their boxes, so no batch is tested
            assert not want.any()
            assert list(cam._covered_cells(counter_clockwise(tri_px), size)) == []
        else:
            assert want.any()

    def test_sliver_line_past_its_box_not_covered(self):
        # a near-collinear sliver along x + y = 17: the rounded edge tests
        # accept the centers (2.5, 14.5) and (1.5, 15.5) on its line, left of
        # its leftmost vertex, so outside it; a box of whole centers drops them
        tri = np.array([[14.565855547963992, 2.4341444520360147],
                        [3.079821961670765, 13.920178038329235],
                        [8.611650750443419, 8.388349249556583]])
        (x0, y0), (x1, y1), (x2, y2) = tri
        assert (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0) > 0
        for px, py in [(2.5, 14.5), (1.5, 15.5)]:
            assert px < tri[:, 0].min()
            assert ((x1 - x0) * (py - y0) - (y1 - y0) * (px - x0) >= 0
                    and (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1) >= 0
                    and (x0 - x2) * (py - y2) - (y0 - y2) * (px - x2) >= 0)
        got = cam._coverage_mask(tri[None], 16)
        assert not got[14, 2] and not got[15, 1]
        np.testing.assert_array_equal(got, brute_force_coverage([tri.tolist()], 16, 16))

    def test_part_assignment_partitions_silhouette(self):
        model = bm.generate_toy_model(seed=1, num_vertices=300, num_joints=16)
        verts = bm.shaped_template(model, np.zeros(10))
        c = cam.PerspCamera(150.0, 128, np.array([0.0, -0.2, 2.5]))
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
        c = cam.PerspCamera(75.0, 48, np.array([0.0, -0.2, 2.5]))
        for verts in posed_noisy_bodies(model, seed, [2 * seed, 2 * seed + 1]):
            # Python floats: the same arithmetic as numpy scalars, several times faster
            want = brute_force_coverage(cam.project_persp(verts, c)[model.faces].tolist(), 48, 48)
            assert want.any() and not want.all()
            np.testing.assert_array_equal(cam.rasterize_silhouette(verts, model.faces, c), want)
            np.testing.assert_array_equal(
                cam.rasterize_silhouette(verts, model.faces[:, ::-1], c), want)
            assert cam.covers_any_pixel(verts, model.faces, c) is True

    @pytest.fixture(scope="class")
    def benchmark_model(self):
        return bm.generate_toy_model(seed=0, num_vertices=6890, num_joints=24)

    @pytest.mark.parametrize("shift", [0.0, 1.0, 3.0], ids=["centred", "past-edge", "off-frame"])
    def test_matches_all_faces_at_benchmark_size(self, benchmark_model, shift):
        model = benchmark_model
        c = cam.PerspCamera(300.0, 256, np.array([shift, -0.2, 2.5]))
        for verts in posed_noisy_bodies(model, 7, [0, 1, 2, 3]):
            want = widened_box_coverage(
                counter_clockwise(cam.project_persp(verts, c)[model.faces]), 256)
            assert want.any() == (shift < 3.0) and not want.all()
            for faces in (model.faces, model.faces[:, ::-1]):
                kept = len(cam._projected_triangles(verts, faces, c))
                assert 0 < kept < len(faces)
                np.testing.assert_array_equal(cam.rasterize_silhouette(verts, faces, c), want)
                assert cam.covers_any_pixel(verts, faces, c) == want.any()
            if shift == 1.0:
                assert want[:, -1].any()

    def test_visibility_stops_at_the_first_batch(self, benchmark_model, monkeypatch):
        # a visible body's first batch covers a pixel, so covers_any_pixel
        # pulls one batch of the many that a full render pulls
        model = benchmark_model
        c = cam.PerspCamera(300.0, 256, np.array([0.0, -0.2, 2.5]))
        verts = posed_noisy_bodies(model, 7, [0])[0]
        covered_cells, pulled = cam._covered_cells, []

        def counting(tri_px, size):
            pulled.append(0)
            for cells in covered_cells(tri_px, size):
                pulled[-1] += 1
                yield cells

        monkeypatch.setattr(cam, "_covered_cells", counting)
        assert cam.covers_any_pixel(verts, model.faces, c) is True
        assert cam.rasterize_silhouette(verts, model.faces, c).any()
        assert pulled[0] == 1 < pulled[1]


class TestHeatmaps:
    def test_peak_one_at_joint_pixel(self):
        maps = cam.joints_to_heatmaps(np.array([[128.0, 128.0]]), np.array([1]), 256)
        assert maps[128, 128, 0] == 1.0
        assert maps[:, :, 0].max() == 1.0

    def test_invisible_channel_all_zero(self):
        maps = cam.joints_to_heatmaps(np.array([[128.0, 128.0]]), np.array([0]), 256)
        assert not maps.any()

    def test_value_at_sigma_distance(self):
        assert cam.HEATMAP_SIGMA == 4.0
        maps = cam.joints_to_heatmaps(np.array([[100.0, 100.0]]), np.array([1]), 256)
        assert maps[100, 104, 0] == pytest.approx(np.exp(-0.5))

    def test_peak_at_rounded_pixel(self):
        maps = cam.joints_to_heatmaps(np.array([[100.4, 99.6]]), np.array([1]), 256)
        r, c = np.unravel_index(np.argmax(maps[:, :, 0]), (256, 256))
        assert (r, c) == (100, 100)


class TestJointPixel:
    def test_rounds_half_a_pixel_off_the_rasterizer_cells(self):
        # the rasterizer's column 10 covers [10, 11), so 10.6 lies in it and
        # -0.4 lies left of the frame; the joint pixel rounds both
        np.testing.assert_array_equal(cam.joint_pixel([[10.6, -0.4], [255.6, 3.5]]),
                                      [[11, 0], [256, 4]])
        np.testing.assert_array_equal(cam.in_frame_visibility([[-0.4, 10], [255.6, 10]], 256),
                                      [1, 0])

    def test_visibility_and_heatmap_peaks_follow_it(self):
        joints = np.random.default_rng(0).uniform(-3.0, 67.0, (40, 2))
        pixel = cam.joint_pixel(joints)
        inside = np.all((pixel >= 0) & (pixel < 64), axis=1)
        np.testing.assert_array_equal(cam.in_frame_visibility(joints, 64), inside)
        rows, cols = cam.heatmap_profiles(joints, np.ones(40), 64)
        np.testing.assert_array_equal(np.argmax(cols[inside], axis=1), pixel[inside, 0])
        np.testing.assert_array_equal(np.argmax(rows[inside], axis=1), pixel[inside, 1])
