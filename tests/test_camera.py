import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

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
    positive signed area, as `widened_box_coverage` requires."""
    tri = np.array(tri_px, dtype=np.float64)
    (x0, y0), (x1, y1), (x2, y2) = tri[:, 0].T, tri[:, 1].T, tri[:, 2].T
    area2 = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
    tri[area2 < 0.0] = tri[area2 < 0.0][:, [0, 2, 1]]
    return tri[area2 != 0.0]


def pillow(triangles):
    """A closed, consistently oriented mesh of a triangle soup (n, 3, 3):
    each triangle gets its own three vertices, and its reversed face with
    corners 1 and 2 swapped, as `TWO_SIDED` has it. The two pixel areas are
    then exact negatives, so the positive face is the triangle the oracle
    tests. Returns (vertices (3n, 3), faces (2n, 3), their `camera.Mesh`)."""
    n = len(triangles)
    faces = np.arange(3 * n).reshape(n, 3)
    faces = np.concatenate([faces, faces[:, [0, 2, 1]]])
    return np.reshape(triangles, (3 * n, 3)), faces, cam.mesh(faces)


def silhouette(vertices, faces, c):
    return cam.rasterize_silhouette(vertices, cam.mesh(faces), c)


def covers(vertices, faces, c):
    return cam.covers_any_pixel(vertices, cam.mesh(faces), c)


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
        lambda v, c: silhouette(v, np.array([[0, 1, 2], [0, 2, 1]]), c),
        lambda v, c: covers(v, np.array([[0, 1, 2], [0, 2, 1]]), c),
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
        mask = silhouette(verts, faces, c)
        assert mask.all()
        assert covers(verts, faces, c) is True
        # the same mesh moved wholly past the frame's right edge
        shifted = verts + [200.0, 0.0, 0.0]
        assert not silhouette(shifted, faces, c).any()
        assert covers(shifted, faces, c) is False

    def test_empty_mesh_gives_zeros(self):
        c = cam.PerspCamera(10.0, 16, np.array([0.0, 0.0, 1.0]))
        verts, faces = np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64)
        mask = silhouette(verts, faces, c)
        assert mask.shape == (16, 16) and not mask.any()
        assert covers(verts, faces, c) is False

    @pytest.mark.parametrize("faces, match", [
        pytest.param([[0, 1, 2]], "closed, consistently oriented", id="open-triangle"),
        pytest.param([[0, 2, 1]], "closed, consistently oriented", id="open-reversed"),
        pytest.param(np.concatenate([TWO_SIDED, [[0, 1, 2]]]), "closed, consistently oriented",
                     id="duplicated-face"),
        pytest.param(np.array([[0, 1, 2], [0, 2, 1]], dtype=np.float64), "integers", id="float"),
        pytest.param(np.array([[True, False, True]]), "integers", id="bool"),
        pytest.param([0, 1, 2], "integers", id="flat"),
        pytest.param(TWO_SIDED[:, :2], "integers", id="two-corners"),
        pytest.param(TWO_SIDED - 1, ">= 0", id="negative"),
    ])
    def test_mesh_checked_when_built(self, faces, match):
        # unchecked, one open triangle rendered 15 px in one winding and
        # none in the other
        with pytest.raises(ValueError, match=match):
            cam.mesh(faces)

    @pytest.mark.parametrize("call", [cam.rasterize_silhouette, cam.covers_any_pixel],
                             ids=["rasterize", "covers"])
    @pytest.mark.parametrize("verts", [
        pytest.param(np.zeros((2, 3)) + [0.0, 0.0, 1.0], id="two-of-three"),
        pytest.param(np.zeros((0, 3)), id="empty"),
        pytest.param(np.zeros((3, 2)), id="flat"),
    ])
    def test_vertices_must_hold_every_face_index(self, call, verts):
        # two vertices under faces that index three raised IndexError
        c = cam.PerspCamera(50.0, 32, np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="the mesh needs"):
            call(verts, cam.mesh(TWO_SIDED), c)

    def test_degenerate_triangles_skipped(self):
        verts = np.array([[0.0, 0.0, 0.0], [0.1, 0.1, 0.0], [0.2, 0.2, 0.0]])
        faces = TWO_SIDED
        c = cam.PerspCamera(50.0, 32, np.array([0.0, 0.0, 1.0]))
        mask = silhouette(verts, faces, c)
        assert not mask.any()
        assert covers(verts, faces, c) is False

    @pytest.mark.parametrize("seed, size, spread", [
        *(pytest.param(100 + t, 64, 0.8, id=str(t)) for t in range(8)),
        # boxes past 4096 cells, off every frame edge; seeds whose meshes
        # reach all four edges, as asserted below
        *(pytest.param(s, 96, 4.0, id=f"96px-{s}") for s in (202, 204, 205)),
    ])
    def test_matches_brute_force_oracle(self, seed, size, spread):
        # a triangle soup, closed up as a pillow; the oracle takes either winding
        rng = np.random.default_rng(seed)
        verts = rng.uniform(-0.8, 0.8, size=(12, 3)) * [spread / 0.8, spread / 0.8, 1.0]
        faces = rng.integers(0, 12, size=(20, 3))
        c = cam.PerspCamera(40.0, size, np.array([0.0, 0.0, 2.0]))
        tri_px = cam.project_persp(verts, c)[faces]
        if size == 96:
            lo, hi = tri_px.min(axis=1), tri_px.max(axis=1)
            assert (np.prod(np.clip(hi, 0, size) - np.clip(lo, 0, size), axis=1) > 4096).any()
            assert (lo < 0).any(axis=0).all() and (hi > size).any(axis=0).all()
        want = brute_force_coverage(tri_px.tolist(), size, size)
        soup, _, mesh = pillow(verts[faces])
        np.testing.assert_array_equal(cam.rasterize_silhouette(soup, mesh, c), want)
        assert cam.covers_any_pixel(soup, mesh, c) == want.any()

    @pytest.mark.parametrize("kind, seed", [
        *(pytest.param(k, s, id=f"{k}-{s}") for k in ("centers", "slivers", "collinear")
          for s in range(3)),
        *(pytest.param(f"past-{edge}", s, id=f"past-{edge}-{s}")
          for edge in ("left", "right", "top", "bottom") for s in range(2)),
    ])
    def test_tight_boxes_match_brute_force(self, kind, seed):
        # triangles on and between pixel centers, where the fill's crossings
        # tie with centers; per triangle and as one soup
        size = 24
        c = cam.PerspCamera(1.0, size, np.array([0.0, 0.0, 1.0]))
        designed = hard_triangles(kind, np.random.default_rng(seed), size, 40)
        verts = np.concatenate([designed - size / 2, np.zeros((40, 3, 1))], axis=2)
        tri_px = cam.project_persp(verts, c)
        masks = [brute_force_coverage([t.tolist()], size, size) for t in tri_px]
        for v, want in zip(verts, masks):
            assert covers(v, TWO_SIDED, c) == want.any()
            np.testing.assert_array_equal(silhouette(v, TWO_SIDED, c), want)
        want = np.any(masks, axis=0)
        soup, faces, mesh = pillow(verts)
        np.testing.assert_array_equal(cam.rasterize_silhouette(soup, mesh, c), want)
        assert cam.covers_any_pixel(soup, mesh, c) == want.any()
        if kind.startswith("past"):
            # no center lies within their boxes
            assert not want.any()
        else:
            assert want.any()

    def test_sliver_line_past_its_box_not_covered(self):
        # a near-collinear sliver along x + y = 17: the rounded edge tests
        # accept the centers (2.5, 14.5) and (1.5, 15.5) on its line, left of
        # its leftmost vertex, so outside it; the rule's box clause drops them
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
        # the camera maps these vertices back to the sliver's pixels exactly
        c = cam.PerspCamera(1.0, 16, np.array([0.0, 0.0, 1.0]))
        soup, faces, mesh = pillow(np.concatenate([tri - 8, np.zeros((3, 1))], axis=1)[None])
        np.testing.assert_array_equal(cam.project_persp(soup, c), tri)
        got = cam.rasterize_silhouette(soup, mesh, c)
        assert not got[14, 2] and not got[15, 1]
        np.testing.assert_array_equal(got, brute_force_coverage([tri.tolist()], 16, 16))

    def test_part_assignment_partitions_silhouette(self):
        model = bm.generate_toy_model(seed=1, num_vertices=300, num_joints=16)
        verts = bm.shaped_template(model, np.zeros(10))
        c = cam.PerspCamera(150.0, 128, np.array([0.0, -0.2, 2.5]))
        sil = cam.rasterize_silhouette(verts, model.mesh, c)
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


@pytest.fixture(scope="module")
def benchmark_model():
    return bm.generate_toy_model(seed=0, num_vertices=6890, num_joints=24)


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
            np.testing.assert_array_equal(
                cam.rasterize_silhouette(verts, model.mesh, c), want)
            np.testing.assert_array_equal(silhouette(verts, model.faces[:, ::-1], c), want)
            assert cam.covers_any_pixel(verts, model.mesh, c) is True

    def test_matches_brute_force_at_streamed_training_size(self):
        # 600 vertices at 64 px, the size the streamed training renders
        model = bm.generate_toy_model(seed=0, num_vertices=600, num_joints=16)
        c = cam.PerspCamera(75.0, 64, np.array([0.0, -0.2, 2.5]))
        verts = posed_noisy_bodies(model, 5, [1])[0]
        want = brute_force_coverage(cam.project_persp(verts, c)[model.faces].tolist(), 64, 64)
        assert want.any() and not want.all()
        np.testing.assert_array_equal(
            cam.rasterize_silhouette(verts, model.mesh, c), want)

    @pytest.mark.parametrize("shift", [0.0, 1.0, 3.0], ids=["centred", "past-edge", "off-frame"])
    def test_matches_all_faces_at_benchmark_size(self, benchmark_model, shift):
        model = benchmark_model
        c = cam.PerspCamera(300.0, 256, np.array([shift, -0.2, 2.5]))
        for verts in posed_noisy_bodies(model, 7, [0, 1, 2, 3]):
            want = widened_box_coverage(
                counter_clockwise(cam.project_persp(verts, c)[model.faces]), 256)
            assert want.any() == (shift < 3.0) and not want.all()
            for faces in (model.faces, model.faces[:, ::-1]):
                kept = np.count_nonzero(cam._face_pixels(*cam._project(verts, c), faces.T)[2] > 0)
                assert 0 < kept < len(faces)
                np.testing.assert_array_equal(silhouette(verts, faces, c), want)
                assert covers(verts, faces, c) == want.any()
            if shift == 1.0:
                assert want[:, -1].any()

    @pytest.mark.parametrize("shift, accepted", [(0.0, True), (1.0, None), (3.0, False)],
                             ids=["centred", "past-edge", "off-frame"])
    def test_covers_any_pixel_is_the_masks_any(self, benchmark_model, shift, accepted,
                                               monkeypatch):
        # a visible body is settled by a face's centroid center; a body off
        # the frame needs the fill
        model = benchmark_model
        c = cam.PerspCamera(300.0, 256, np.array([shift, -0.2, 2.5]))
        filled = filling(monkeypatch)
        for verts in posed_noisy_bodies(model, 11, [0, 1, 2, 3]):
            want = cam.rasterize_silhouette(verts, model.mesh, c).any()
            del filled[:]
            assert cam.covers_any_pixel(verts, model.mesh, c) == want
            if accepted is not None:
                assert want == accepted and bool(filled) != accepted

    @pytest.mark.parametrize("small_at, want", [(0.0, True), (40.0, False)],
                             ids=["small-visible", "both-off-frame"])
    def test_every_face_is_tried_before_the_fill(self, small_at, want, monkeypatch):
        # a large triangle wholly left of the frame and a small one at
        # small_at: the center nearest the large one's centroid is off the
        # frame; the small one's center settles a visible mesh, and the
        # fill decides an invisible one
        c = cam.PerspCamera(1.0, 32, np.array([0.0, 0.0, 1.0]))
        large = [[-60.0, -10.0, 0.0], [-30.0, -10.0, 0.0], [-45.0, 10.0, 0.0]]
        small = [[small_at - 2, -2.0, 0.0], [small_at + 2, -2.0, 0.0], [small_at, 2.0, 0.0]]
        verts, faces, mesh = pillow(np.array([large, small]))
        filled = filling(monkeypatch)
        assert cam.covers_any_pixel(verts, mesh, c) is want
        assert len(filled) == (not want)
        assert cam.rasterize_silhouette(verts, mesh, c).any() == want

    def test_fill_decides_when_no_face_covers_its_centroid_center(self, monkeypatch):
        # a sliver over the centers (10.5, 16.5) and (11.5, 16.5) whose
        # centroid's center (13.5, 16.5) lies just above it: no face
        # settles the check, and the fill finds the centers it covers
        c = cam.PerspCamera(1.0, 32, np.array([0.0, 0.0, 1.0]))
        sliver = [[-16.0, 0.0, 0.0], [14.0, 0.0, 0.0], [-5.5, 0.55, 0.0]]
        verts, faces, mesh = pillow(np.array([sliver]))
        x, y, area2 = cam._face_pixels(*cam._project(verts, c), faces.T)
        assert np.count_nonzero(area2 > 0) == 1
        assert not cam._covers_centroid_center(x[:, area2 > 0], y[:, area2 > 0], 32).any()
        want = cam.rasterize_silhouette(verts, mesh, c)
        assert set(zip(*np.nonzero(want))) == {(16, 10), (16, 11)}
        filled = filling(monkeypatch)
        assert cam.covers_any_pixel(verts, mesh, c) is True
        assert len(filled) == 1

    @pytest.mark.parametrize("rest, want, fills", [
        ("small", True, 0), ("sliver", True, 1), ("off-frame", False, 1),
    ], ids=["all-faces", "fill", "fill-none"])
    def test_sampled_faces_front_facing_or_off_frame(self, rest, want, fills, monkeypatch):
        # 130 two-sided triangles: the sample, every fourth of the 260
        # faces, holds one face of every other triangle, turned front-facing
        # here, and both faces of the rest of those, moved off the frame;
        # the triangles left out of the sample decide the check by the
        # all-faces step, or leave it to the fill
        c = cam.PerspCamera(1.0, 32, np.array([0.0, 0.0, 1.0]))
        n = 130
        probed = set(range(0, 2 * n, 2 * n // 64))
        small = np.array([[-3.0, -3.0, 0.0], [3.0, -3.0, 0.0], [0.0, 3.0, 0.0]])
        sliver = np.array([[-16.0, 0.0, 0.0], [14.0, 0.0, 0.0], [-5.5, 0.55, 0.0]])
        off = [40.0, 0.0, 0.0]
        triangles = []
        for i in range(n):
            tri = {"small": small, "sliver": sliver, "off-frame": small + off}[rest]
            if i in probed and n + i in probed:
                tri = small + off
            elif i in probed:
                tri = tri[[0, 2, 1]]  # face i front-facing, its positive twin not sampled
            triangles.append(tri)
        verts, faces, mesh = pillow(np.array(triangles))
        assert mesh.probe.shape == (3, 65)
        x, y, area2 = cam._face_pixels(*cam._project(verts, c), mesh.probe)
        assert not cam._covers_centroid_center(x[:, area2 > 0], y[:, area2 > 0], 32).any()
        filled = filling(monkeypatch)
        assert cam.covers_any_pixel(verts, mesh, c) is want
        assert len(filled) == fills
        assert cam.rasterize_silhouette(verts, mesh, c).any() == want

    @pytest.mark.parametrize("bad, match", [
        ([np.nan, 0.0, 0.0], "finite"), ([0.0, 0.0, -2.5], "behind"),
    ], ids=["nan", "behind"])
    def test_every_vertex_checked_beside_the_sampled_faces(self, bad, match):
        # the sample settles the clean mesh, and a bad vertex off every
        # sampled face still raises
        model = bm.generate_toy_model(seed=0, num_vertices=600, num_joints=16)
        c = cam.PerspCamera(75.0, 64, np.array([0.0, -0.2, 2.5]))
        verts = posed_noisy_bodies(model, 5, [1])[0]
        x, y, area2 = cam._face_pixels(*cam._project(verts, c), model.mesh.probe)
        assert cam._covers_centroid_center(x[:, area2 > 0], y[:, area2 > 0], 64).any()
        vertex = np.setdiff1d(np.arange(len(verts)), model.mesh.probe)[0]
        verts[vertex] = bad
        with pytest.raises(ValueError, match=match):
            cam.covers_any_pixel(verts, model.mesh, c)

    def test_mesh_tables_built_once_per_model(self):
        model = bm.generate_toy_model(seed=0, num_vertices=150, num_joints=16)
        mesh = model.mesh
        assert model.mesh is mesh
        F = len(model.faces)
        twins = cam.edge_twins(model.faces)
        np.testing.assert_array_equal(mesh.corners, model.faces.T)
        np.testing.assert_array_equal(mesh.probe, model.faces[::F // 64].T)
        np.testing.assert_array_equal(mesh.twins, twins.T)
        np.testing.assert_array_equal(mesh.leads, twins.T > np.arange(F))
        assert mesh.num_vertices == model.faces.max() + 1
        for table in mesh[:4]:
            assert table.flags.c_contiguous and not table.flags.writeable
        # the mesh of equal faces is an equal value, built afresh
        again = cam.mesh(model.faces.copy())
        assert again is not mesh
        for got, want in zip(again, mesh):
            np.testing.assert_array_equal(got, want)


def filling(monkeypatch):
    """A list that gets one entry per `camera._coverage` fill."""
    filled, coverage = [], cam._coverage

    def counting(*args):
        filled.append(0)
        return coverage(*args)

    monkeypatch.setattr(cam, "_coverage", counting)
    return filled


# focal 64 at depth 2 projects a vertex at z = 0 to pixel 32 x + 32 exactly,
# for pixels in [16, 64]
EXACT = cam.PerspCamera(64.0, 64, np.array([0.0, 0.0, 2.0]))


def place(verts, i, u, v):
    """Move vertex i to depth 0 where `EXACT` projects it to (u, v)."""
    verts[i] = [(u - 32.0) / 32.0, (v - 32.0) / 32.0, 0.0]
    np.testing.assert_array_equal(cam.project_persp(verts[i], EXACT), [u, v])


class TestTieRepair:
    """Posed, noisy bodies with pixel centers put on their edges, where the
    fill's crossings tie with centers: the tie repair decides some centers
    by the per-face rule, and the mask matches the per-pixel oracle."""

    @pytest.fixture
    def decided(self, monkeypatch):
        """The number of centers of each tie decision made in the test."""
        counts, decide = [], cam._decide

        def counting(x, y, cells, size):
            counts.append(len(cells))
            return decide(x, y, cells, size)

        monkeypatch.setattr(cam, "_decide", counting)
        return counts

    @pytest.fixture
    def body(self):
        model = bm.generate_toy_model(seed=2, num_vertices=150, num_joints=16)
        verts = posed_noisy_bodies(model, 3, [0])[0]
        x, y, area2 = cam._face_pixels(*cam._project(verts, EXACT), model.faces.T)
        inner = np.all((x >= 20) & (x <= 44) & (y >= 20) & (y <= 44), axis=0)
        return model, verts, np.flatnonzero(inner & (area2 > 0))

    @staticmethod
    def check(model, verts, decided):
        want = brute_force_coverage(cam.project_persp(verts, EXACT)[model.faces].tolist(), 64, 64)
        assert want.any() and not want.all()
        got = cam.rasterize_silhouette(verts, model.mesh, EXACT)
        assert decided and min(decided) > 0
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("tri", [
        [[11.5, 8.000000000000007], [1.7763568394002505e-15, 5.000000000000001],
         [6.0, 11.000000000000005]],
        [[8.500000000000004, 1.5], [3.9999999999999636, 3.5000000000000018],
         [15.5, 6.500000000000001]],
    ], ids=["corner", "side"])
    def test_crossing_within_rounding_of_a_center(self, tri, decided):
        # from a random search of triangles near the half-pixel lattice: a
        # center that lies within rounding of an edge, where the computed
        # crossing and the rule's rounded edge test disagree, so only the
        # crossing's window sends it to the rule
        c = cam.PerspCamera(1.0, 16, np.array([0.0, 0.0, 1.0]))
        verts = np.concatenate([np.array(tri) - 8, np.zeros((3, 1))], axis=1)
        soup, faces, mesh = pillow(verts[None])
        want = brute_force_coverage([cam.project_persp(verts, c).tolist()], 16, 16)
        np.testing.assert_array_equal(cam.rasterize_silhouette(soup, mesh, c), want)
        assert decided

    def test_vertex_on_a_pixel_center(self, body, decided):
        model, verts, inner = body
        corner = model.faces[inner[0], 0]
        u, v = cam.project_persp(verts[corner], EXACT)
        place(verts, corner, np.floor(u) + 0.5, np.floor(v) + 0.5)
        self.check(model, verts, decided)

    def test_contour_edge_along_a_center_row(self, body, decided):
        model, verts, inner = body
        for face, k in itertools.product(inner, range(3)):
            a, b = model.faces[face, k], model.faces[face, (k + 1) % 3]
            moved = verts.copy()
            (ua, va), (ub, vb) = cam.project_persp(verts[[a, b]], EXACT)
            row = np.floor((va + vb) / 2) + 0.5
            place(moved, a, ua, row)
            place(moved, b, ub, row)
            area2 = cam._face_pixels(*cam._project(moved, EXACT), model.faces.T)[2]
            if area2[face] > 0 and not area2[model.mesh.twins[k, face]] > 0:
                break
        else:
            pytest.fail("no contour edge stays one when laid along a row")
        self.check(model, moved, decided)

    def test_sliver_face(self, body, decided):
        # a corner 1e-15 px off the line of the other two: the sign of the
        # face's pixel area is in doubt, so its whole box is decided by rule
        model, verts, inner = body
        for face, step in itertools.product(inner, (1e-15, 2e-15, 4e-15, 8e-15)):
            a, b, corner = model.faces[face]
            moved = verts.copy()
            pa, pb = cam.project_persp(verts[[a, b]], EXACT)
            normal = np.array([pb[1] - pa[1], pa[0] - pb[0]]) / np.hypot(*(pb - pa))
            place(moved, corner, *((pa + pb) / 2 + step * normal))
            area2 = cam._face_pixels(*cam._project(moved, EXACT), model.faces.T)[2][face]
            if 0 < area2 < 1e-12:
                break
        else:
            pytest.fail("no sliver with a positive pixel area")
        self.check(model, moved, decided)


def brute_force_nearest(points, rows, cols):
    """The index of the point nearest each pixel centre by an argmin over
    all points, in `camera._nearest_points`'s arithmetic: the lowest index
    on ties."""
    dist2 = ((points[:, 0] - (cols + 0.5)[:, None]) ** 2
             + (points[:, 1] - (rows + 0.5)[:, None]) ** 2)
    return np.argmin(dist2, axis=1), dist2


def search_rounds(monkeypatch):
    """A list that gains two entries per round of the grid search, one per
    gather through `camera._slots`."""
    calls = []
    slots = cam._slots

    def counted(*args):
        calls.append(1)
        return slots(*args)

    monkeypatch.setattr(cam, "_slots", counted)
    return calls


def peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPartAssignment:
    """The grid search under `rasterize_part_assignment` against searches
    over all points."""

    @pytest.mark.parametrize("kind", ["ties", "duplicates", "sparse"])
    def test_matches_brute_force(self, kind, monkeypatch):
        rng = np.random.default_rng(["ties", "duplicates", "sparse"].index(kind))
        rounds = search_rounds(monkeypatch)
        most = 0
        for _ in range(20):
            rows, cols = np.nonzero(rng.random((32, 32)) < rng.uniform(0.05, 1.0))
            if kind == "ties":
                # on the half-pixel lattice the distances are exact, and many
                # centres lie as far from two or more points
                points = rng.integers(-4, 72, size=(60, 2)) / 2.0
            elif kind == "duplicates":
                base = rng.uniform(-3.0, 35.0, size=(12, 2))
                points = base[rng.integers(len(base), size=50)]
            else:
                points = rng.uniform(-8.0, 40.0, size=(3, 2))
            want, dist2 = brute_force_nearest(points, rows, cols)
            del rounds[:]
            np.testing.assert_array_equal(cam._nearest_points(points, rows, cols), want)
            most = max(most, len(rounds) // 2)
            if kind != "sparse":
                assert np.any((dist2 == dist2.min(axis=1, keepdims=True)).sum(axis=1) > 1)
        if kind == "sparse":
            # three points in a 32 px frame leave some centres unsettled at
            # K = 1, 2 and 4
            assert most >= 4

    def test_far_off_vertex_costs_no_memory(self):
        # a vertex projected about 1e6 px off the frame falls into a border
        # cell: the grid stays the silhouette's box, not the points' box
        model = bm.generate_toy_model(seed=0, num_vertices=600, num_joints=16)
        c = cam.PerspCamera(75.0, 64, np.array([0.0, -0.2, 2.5]))
        verts = posed_noisy_bodies(model, 3, [0])[0]
        sil = cam.rasterize_silhouette(verts, model.mesh, c)
        far = verts.copy()
        far[17, 0] = 1e6 * (far[17, 2] + 2.5) / 75.0
        assert cam.project_persp(far, c)[17, 0] > 1e6
        rows, cols = np.nonzero(sil)
        for body in (verts, far):
            want = model.part_labels[brute_force_nearest(cam.project_persp(body, c), rows, cols)[0]]
            got = cam.rasterize_part_assignment(body, model.part_labels, c, sil)
            np.testing.assert_array_equal(got[rows, cols], want)
        peaks = [peak_bytes(lambda: cam.rasterize_part_assignment(body, model.part_labels, c, sil))
                 for body in (verts, far)]
        assert peaks[1] < 1.1 * peaks[0]

    @pytest.mark.parametrize("shift", [0.0, 1.0], ids=["centred", "past-edge"])
    def test_matches_kd_tree_at_benchmark_size(self, benchmark_model, shift):
        # past the edge, the vertices off the frame are clamped into the
        # grid's border cells
        model = benchmark_model
        c = cam.PerspCamera(300.0, 256, np.array([shift, -0.2, 2.5]))
        for verts in posed_noisy_bodies(model, 13, [0, 1, 2, 3]):
            sil = cam.rasterize_silhouette(verts, model.mesh, c)
            rows, cols = np.nonzero(sil)
            projected = cam.project_persp(verts, c)
            assert rows.size > 2000
            if shift:
                assert np.any(projected[:, 0] >= 256)
            _, want = cKDTree(projected).query(np.stack([cols + 0.5, rows + 0.5], axis=1))
            np.testing.assert_array_equal(cam._nearest_points(projected, rows, cols), want)
            got = cam.rasterize_part_assignment(verts, model.part_labels, c, sil)
            np.testing.assert_array_equal(got[rows, cols], model.part_labels[want])
            assert (got >= 0).sum() == rows.size

    @pytest.mark.parametrize("labels", ["ten", "one-too-many", "float", "table"])
    def test_one_integer_label_per_vertex(self, labels):
        model = bm.generate_toy_model(seed=0, num_vertices=600, num_joints=16)
        c = cam.PerspCamera(75.0, 64, np.array([0.0, -0.2, 2.5]))
        verts = posed_noisy_bodies(model, 3, [0])[0]
        sil = cam.rasterize_silhouette(verts, model.mesh, c)
        bad = {"ten": model.part_labels[:10], "one-too-many": np.append(model.part_labels, 0),
               "float": model.part_labels.astype(np.float64),
               "table": model.part_labels[:, None]}[labels]
        with pytest.raises(ValueError, match="one integer per vertex"):
            cam.rasterize_part_assignment(verts, bad, c, sil)
        # also when the silhouette is empty
        with pytest.raises(ValueError, match="one integer per vertex"):
            cam.rasterize_part_assignment(verts, bad, c, np.zeros_like(sil))

    @pytest.mark.parametrize("shape", [(128, 128), (256, 128), (256,), (256, 256, 1)])
    def test_silhouette_must_be_the_cameras_image(self, shape):
        model = bm.generate_toy_model(seed=0, num_vertices=600, num_joints=16)
        c = cam.PerspCamera(300.0, 256, np.array([0.0, -0.2, 2.5]))
        verts = posed_noisy_bodies(model, 3, [0])[0]
        sil = np.ones(shape, dtype=np.uint8)
        with pytest.raises(ValueError, match=r"silhouette has shape .*\(256, 256\)"):
            cam.rasterize_part_assignment(verts, model.part_labels, c, sil)


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

    @pytest.mark.parametrize("joint", [[np.nan, 10.0], [10.0, np.inf], [-np.inf, -np.inf]])
    @pytest.mark.parametrize("visible", [1, 0])
    def test_non_finite_joints_rejected(self, joint, visible):
        with pytest.raises(ValueError, match="joints must be finite"):
            cam.heatmap_profiles(np.array([[20.0, 20.0], joint]), np.array([1, visible]), 64, 16)

    @pytest.mark.parametrize("pooled", [64, 16, 1])
    def test_joints_far_off_the_frame_have_zero_profiles(self, pooled):
        # far enough that an unclipped integer cast would wrap or overflow
        far = [1e6, -1e6, 1e18, -1e18, 1e300, -1e300, 2.0**63, 81.0, -18.0]
        joints = np.array([[x, 30.0] for x in far])
        rows, cols = cam.heatmap_profiles(joints, np.ones(len(far)), 64, pooled)
        assert not cols.any()
        np.testing.assert_array_equal(rows, np.broadcast_to(rows[0], rows.shape))
        assert rows[0].max() > 0

    @pytest.mark.parametrize("pooled", [0, -4, 16.0, True, 24])
    def test_pooled_size_must_divide_the_image(self, pooled):
        with pytest.raises(ValueError, match="pooled size"):
            cam.heatmap_profiles(np.zeros((1, 2)), np.ones(1), 64, pooled)


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
        rows, cols = cam.heatmap_profiles(joints, np.ones(40), 64, 64)
        np.testing.assert_array_equal(np.argmax(cols[inside], axis=1), pixel[inside, 0])
        np.testing.assert_array_equal(np.argmax(rows[inside], axis=1), pixel[inside, 1])
