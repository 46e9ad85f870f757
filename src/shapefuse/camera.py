"""Projection and proxy-input synthesis.

Weak-perspective projection (`project_weak`) is the reprojection loss's
camera model and is differentiable; full-perspective projection, binary
silhouette rasterization and joint heatmap synthesis produce the
network's proxy inputs during data generation. Heatmaps are separable:
`heatmap_profiles` defines them once, as per-joint row and column
profiles of a Gaussian of the fixed width `HEATMAP_SIGMA` (4 px), and both
the full-resolution maps and the network's pooled input are built from
those profiles. A rendered sample keeps only its keypoints; its
full-resolution heatmaps are drawn on demand. The rasterizer is plain
coverage (a pixel is set when its center lies inside a projected
triangle), which is all a binary silhouette channel needs — no z-buffer,
no anti-aliasing. A mesh must be a closed, consistently oriented surface
in front of the camera, as `BodyModel.validate` requires of a body's
faces; the rasterizer then tests only the triangles of one facing, those
with positive signed pixel area, which cover exactly the pixels the whole
mesh covers and are the counter-clockwise triangles the coverage test
requires. It has one path: triangles sorted by bounding-box area are
tested in batches of at most `COVERAGE_CELLS` edge tests (or one triangle
whose box alone is larger), so its working memory does not grow with the
number of triangles. `covers_any_pixel` runs the same batches but stops
at the first one that covers a pixel, so a visibility test costs a
fraction of a full render and always agrees with
`rasterize_silhouette(...).any()`.
A body is its posed `(V, 3)` vertex array: the rasterizers take
`(vertices, faces, cam)`, and part assignment labels a silhouette the caller
already rasterized by nearest projected vertex, so it takes no faces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

HEATMAP_SIGMA = 4.0  # heatmap Gaussian std, pixels
COVERAGE_CELLS = 1 << 16  # edge tests per rasterizer batch; bounds its working memory


@dataclass
class PerspCamera:
    """Pinhole camera: focal length in pixels, image size, world translation."""

    focal: float
    image_h: int
    image_w: int
    translation: np.ndarray  # (3,) meters, added to points before projection

    def __post_init__(self):
        self.translation = np.asarray(self.translation, dtype=np.float64)
        if not self.focal > 0:
            raise ValueError("focal length must be positive")
        if not self.translation[2] > 0:
            raise ValueError("camera translation must place the subject in front")


@dataclass
class ProxyRepresentation:
    """Network input: binary silhouette + per-joint heatmaps, H x W x (L+1).

    Only the silhouette and the keypoints are held; the heatmaps are a
    fixed function of the keypoints and are drawn on each access.
    """

    silhouette: np.ndarray  # (H, W) uint8
    joints2d: np.ndarray    # (L, 2) pixels
    visibility: np.ndarray  # (L,) in {0, 1}

    @property
    def heatmaps(self) -> np.ndarray:
        """(H, W, L) float64 in [0, 1], from `joints_to_heatmaps`; not cached."""
        h, w = self.silhouette.shape
        return joints_to_heatmaps(self.joints2d, self.visibility, h, w)

    def stacked(self) -> np.ndarray:
        """Silhouette as channel 0, then the L heatmap channels."""
        return np.concatenate(
            [self.silhouette[:, :, None].astype(np.float64), self.heatmaps], axis=2
        )


def project_weak(points, cam):
    """Orthographic drop of z, then scale and translate: s * xy + t.

    `points` is (..., 3) and `cam` is [s, tx, ty] with shape lead + (3,),
    where `lead` equals the points' leading axes: () for one camera, (B,)
    for one camera per batch item. Each camera applies to every point
    under its leading index. Differentiable in both points and camera.
    """
    pts_shape = ad.value_of(points).shape
    cam_shape = ad.value_of(cam).shape
    lead = cam_shape[:-1]
    if (cam_shape[-1:] != (3,) or pts_shape[-1:] != (3,) or len(pts_shape) < len(cam_shape)
            or pts_shape[: len(lead)] != lead):
        raise ValueError(f"camera {cam_shape} does not lead points {pts_shape}")
    ones = (1,) * (len(pts_shape) - len(cam_shape))
    s = ad.reshape(cam[..., 0:1], lead + ones + (1,))
    t = ad.reshape(cam[..., 1:3], lead + ones + (2,))
    return s * points[..., :2] + t


def project_persp(points: np.ndarray, cam: PerspCamera) -> np.ndarray:
    """Pinhole projection to pixel coordinates.

    u = focal * (x + tx) / (z + tz) + W/2, v analogously with H/2.
    """
    points = np.asarray(points, dtype=np.float64)
    shifted = points + cam.translation
    z = shifted[..., 2]
    if np.any(z <= 1e-9):
        raise ValueError("point at or behind the camera plane")
    u = cam.focal * shifted[..., 0] / z + cam.image_w / 2.0
    v = cam.focal * shifted[..., 1] / z + cam.image_h / 2.0
    return np.stack([u, v], axis=-1)


def _covered_cells(tri_px: np.ndarray, h: int, w: int):
    """Pixel-center coverage of 2D triangles (n, 3, 2), yielded per batch
    as the flat (row * W + col) indices of the cells the batch covers.

    Every triangle must be counter-clockwise and non-degenerate: positive
    signed area (x1 - x0)(y2 - y0) - (y1 - y0)(x2 - x0), as
    `_projected_triangles` keeps. A pixel center (c + .5, r + .5) counts as
    covered when all three edge cross products are >= 0. Triangles are
    sorted by the area of their bounding box clipped to the frame and cut
    into consecutive batches. A batch is tested on one grid of its largest
    box height by its largest box width, anchored at each triangle's own
    box corner, so it costs (triangles x grid) edge tests; a batch holds at
    most `COVERAGE_CELLS` of them, or one triangle whose box alone exceeds
    that. Grid cells past a triangle's own box are dropped. A cell may be
    yielded more than once, and a batch that covers nothing yields an
    empty array.
    """
    tri = np.asarray(tri_px, dtype=np.float64)
    x = tri[:, :, 0]
    y = tri[:, :, 1]
    min_x = np.minimum(np.minimum(x[:, 0], x[:, 1]), x[:, 2])
    max_x = np.maximum(np.maximum(x[:, 0], x[:, 1]), x[:, 2])
    min_y = np.minimum(np.minimum(y[:, 0], y[:, 1]), y[:, 2])
    max_y = np.maximum(np.maximum(y[:, 0], y[:, 1]), y[:, 2])
    lo_c = np.clip(np.floor(min_x - 0.5).astype(np.int64), 0, w - 1)
    hi_c = np.clip(np.ceil(max_x - 0.5).astype(np.int64), -1, w - 1)
    lo_r = np.clip(np.floor(min_y - 0.5).astype(np.int64), 0, h - 1)
    hi_r = np.clip(np.ceil(max_y - 0.5).astype(np.int64), -1, h - 1)
    bw = hi_c - lo_c + 1
    bh = hi_r - lo_r + 1
    on_screen = np.flatnonzero((bw > 0) & (bh > 0))
    order = on_screen[np.argsort(bw[on_screen] * bh[on_screen], kind="stable")]
    tri, lo_c, hi_c, lo_r, hi_r, bw, bh = (
        a[order] for a in (tri, lo_c, hi_c, lo_r, hi_r, bw, bh)
    )

    start = 0
    while start < len(tri):
        # a batch has at most COVERAGE_CELLS triangles, since each costs >= 1 cell
        window = slice(start, start + COVERAGE_CELLS)
        cells = (np.arange(1, len(bh[window]) + 1) * np.maximum.accumulate(bh[window])
                 * np.maximum.accumulate(bw[window]))
        stop = start + max(int(np.searchsorted(cells, COVERAGE_CELLS, side="right")), 1)
        batch = slice(start, stop)
        start = stop

        rows = lo_r[batch, None, None] + np.arange(bh[batch].max())[None, :, None]
        cols = lo_c[batch, None, None] + np.arange(bw[batch].max())[None, None, :]
        py = rows + 0.5                                             # (n, grid_h, 1)
        px = cols + 0.5                                             # (n, 1, grid_w)
        x0, y0 = tri[batch, 0, 0, None, None], tri[batch, 0, 1, None, None]
        x1, y1 = tri[batch, 1, 0, None, None], tri[batch, 1, 1, None, None]
        x2, y2 = tri[batch, 2, 0, None, None], tri[batch, 2, 1, None, None]
        inside = (
            (rows <= hi_r[batch, None, None])
            & (cols <= hi_c[batch, None, None])
            & ((x1 - x0) * (py - y0) - (y1 - y0) * (px - x0) >= 0)
            & ((x2 - x1) * (py - y1) - (y2 - y1) * (px - x1) >= 0)
            & ((x0 - x2) * (py - y2) - (y0 - y2) * (px - x2) >= 0)
        )
        yield (rows * w + cols)[inside]


def _coverage_mask(tri_px: np.ndarray, h: int, w: int) -> np.ndarray:
    """Pixel-center coverage of 2D triangles (n, 3, 2) -> (H, W) bool; see
    `_covered_cells` for the coverage rule and the batching."""
    mask = np.zeros((h, w), dtype=bool)
    for cells in _covered_cells(tri_px, h, w):
        mask.ravel()[cells] = True
    return mask


def _projected_triangles(vertices, faces: np.ndarray, cam: PerspCamera) -> np.ndarray:
    """The faces with positive signed pixel area, in pixel coordinates,
    (n, 3, 2); (0, 3, 2) when there are no vertices or no faces.

    These triangles cover the same pixel centers as all the faces when the
    faces form a closed, consistently oriented surface (each directed edge
    occurs once and its reverse once) whose vertices all lie in front of
    the camera. Count each triangle that covers a point +1 when its pixel
    area is positive and -1 when negative. Crossing a projected edge
    changes the terms of the two triangles sharing it by opposite
    amounts, since they run along it in opposite directions; so the count
    is constant between edges, and it is 0 far outside the image of the
    surface. A covered point off the projected edges is therefore covered
    by as many positive triangles as negative ones, hence by at least one
    positive triangle. Under the toy model's outward winding,
    positive pixel area marks the faces turned away from the camera,
    because image v grows with y. Positive area makes them the
    counter-clockwise, non-degenerate triangles `_covered_cells` requires.
    """
    vertices = ad.value_of(vertices)
    if vertices.size == 0 or faces.size == 0:
        return np.zeros((0, 3, 2))
    tri = project_persp(vertices, cam)[faces]
    area2 = (tri[:, 1, 0] - tri[:, 0, 0]) * (tri[:, 2, 1] - tri[:, 0, 1]) - (
        tri[:, 1, 1] - tri[:, 0, 1]
    ) * (tri[:, 2, 0] - tri[:, 0, 0])
    return tri[area2 > 0.0]


def rasterize_silhouette(vertices, faces: np.ndarray, cam: PerspCamera) -> np.ndarray:
    """Binary coverage mask (H, W) uint8 of the projected mesh.

    The faces must form a closed, consistently oriented surface in front
    of the camera; only the triangles of one facing are tested, which
    cover the same pixels (see `_projected_triangles`).
    """
    tri_px = _projected_triangles(vertices, faces, cam)
    return _coverage_mask(tri_px, cam.image_h, cam.image_w).astype(np.uint8)


def covers_any_pixel(vertices, faces: np.ndarray, cam: PerspCamera) -> bool:
    """Whether the projected mesh covers any pixel center, i.e. exactly
    `rasterize_silhouette(vertices, faces, cam).any()`, stopping at the
    first batch of triangles that covers one. Like `rasterize_silhouette`,
    it requires a closed, consistently oriented surface and tests only the
    triangles of one facing."""
    tri_px = _projected_triangles(vertices, faces, cam)
    return any(cells.size for cells in _covered_cells(tri_px, cam.image_h, cam.image_w))


def rasterize_part_assignment(vertices, part_labels: np.ndarray,
                              cam: PerspCamera, silhouette: np.ndarray) -> np.ndarray:
    """Silhouette pixels labelled by body part, -1 outside.

    `silhouette` is the body's coverage mask under `cam`, as returned by
    `rasterize_silhouette`; it is not rasterized again here. Each covered
    pixel is assigned the part of its nearest projected vertex, giving a
    deterministic partition of the silhouette (the per-part masks tile the
    silhouette exactly, mirroring a part segmentation).
    """
    from scipy.spatial import cKDTree

    assignment = np.full(silhouette.shape, -1, dtype=np.int64)
    rows, cols = np.nonzero(silhouette)
    if rows.size == 0:
        return assignment
    projected = project_persp(ad.value_of(vertices), cam)
    tree = cKDTree(projected)
    centers = np.stack([cols + 0.5, rows + 0.5], axis=1)
    _, nearest = tree.query(centers)
    assignment[rows, cols] = np.asarray(part_labels)[nearest]
    return assignment


def heatmap_profiles(joints2d: np.ndarray, visibility: np.ndarray, image_h: int,
                     image_w: int) -> tuple:
    """Separable factors of the joint heatmaps: `(..., L, H)` row and
    `(..., L, W)` column profiles of `(..., L, 2)` joints and `(..., L)`
    visibilities.

    Heatmap channel l is the outer product of row profile l and column
    profile l: a unit-peak Gaussian of std `HEATMAP_SIGMA` in the distance
    to the joint's rounded pixel, cut to the +-ceil(4 sigma) window around
    that pixel. Both profiles of an invisible joint are zero.
    """
    centers = np.rint(np.asarray(joints2d, dtype=np.float64))
    visible = np.asarray(visibility).astype(bool)[..., None]
    radius = int(np.ceil(4 * HEATMAP_SIGMA))

    def profile(center, n):
        offset = np.arange(n) - center[..., None]
        window = visible & (np.abs(offset) <= radius)
        return np.where(window, np.exp(-(offset**2) / (2.0 * HEATMAP_SIGMA**2)), 0.0)

    return profile(centers[..., 1], image_h), profile(centers[..., 0], image_w)


def joints_to_heatmaps(joints2d: np.ndarray, visibility: np.ndarray, image_h: int,
                       image_w: int) -> np.ndarray:
    """Unit-peak Gaussian heatmaps (H, W, L), zeroed for invisible joints.

    Each visible channel is centered on the joint's rounded pixel so its
    maximum is exactly 1 there; see `heatmap_profiles`.
    """
    rows, cols = heatmap_profiles(joints2d, visibility, image_h, image_w)
    return np.einsum("lh,lw->hwl", rows, cols)


def in_frame_visibility(joints2d: np.ndarray, image_h: int, image_w: int) -> np.ndarray:
    """1 where the joint's rounded pixel lies inside the frame."""
    joints2d = np.asarray(joints2d, dtype=np.float64)
    c = np.rint(joints2d[:, 0])
    r = np.rint(joints2d[:, 1])
    ok = (c >= 0) & (c < image_w) & (r >= 0) & (r < image_h)
    return ok.astype(np.int64)


def normalize_pixels(points_px, image_h: int, image_w: int):
    """Pixel coordinates -> [-1, 1] normalized image coordinates."""
    size = np.array([image_w, image_h], dtype=np.float64)
    return (2.0 * points_px - size) / size
