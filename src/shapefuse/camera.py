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
in front of the camera, as a `BodyModel` requires of its faces when
built; the rasterizer then tests only the triangles of one facing, those
with positive signed pixel area, which cover exactly the pixels the whole
mesh covers and are the counter-clockwise triangles the coverage test
requires. It has one path: each triangle is tested only at the pixel
centers inside its bounding box, and the triangles, sorted by the longer
and then the shorter side of that box, are tested in batches of at most
`COVERAGE_CELLS` edge tests (or one triangle whose box alone is larger),
so its working memory does not grow with the number of triangles.
`covers_any_pixel` runs the same batches but stops at the first one that
covers a pixel, so a visibility test costs a fraction of a full render
and always agrees with `rasterize_silhouette(...).any()`.
A body is its posed `(V, 3)` vertex array: the rasterizers take
`(vertices, faces, cam)`, and part assignment labels a silhouette the caller
already rasterized by nearest projected vertex, so it takes no faces.
Images are square: every function takes one side `size` (S), in pixels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .scalars import check_int, check_positive

HEATMAP_SIGMA = 4.0  # heatmap Gaussian std, pixels
# edge tests per rasterizer batch: bounds its working memory, and the first
# batch, which on a visible body is all that covers_any_pixel tests
COVERAGE_CELLS = 1 << 13


@dataclass(frozen=True)
class PerspCamera:
    """Pinhole camera: focal length and square image side in pixels,
    translation; frozen, checked when built."""

    focal: float
    size: int
    translation: np.ndarray  # (3,) meters, added to points before projection

    def __post_init__(self):
        translation = np.array(self.translation, dtype=np.float64)  # own, read-only copy
        translation.flags.writeable = False
        object.__setattr__(self, "translation", translation)
        check_positive("focal length", self.focal)
        check_int("image size", self.size, 1)
        if self.translation.shape != (3,) or not np.all(np.isfinite(self.translation)):
            raise ValueError(f"camera translation must be 3 finite values, got {self.translation!r}")
        if not self.translation[2] > 0:
            raise ValueError("camera translation must place the subject in front")


@dataclass
class ProxyRepresentation:
    """Network input: a binary (S, S) silhouette and L per-joint heatmaps.

    Only the silhouette and the keypoints are held; the heatmaps are a
    fixed function of the keypoints and are drawn on each access.
    """

    silhouette: np.ndarray  # (S, S) uint8
    joints2d: np.ndarray    # (L, 2) pixels
    visibility: np.ndarray  # (L,) in {0, 1}

    @property
    def heatmaps(self) -> np.ndarray:
        """(S, S, L) float64 in [0, 1], from `joints_to_heatmaps`; not cached."""
        return joints_to_heatmaps(self.joints2d, self.visibility, len(self.silhouette))


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

    u = focal * (x + tx) / (z + tz) + S/2, v analogously, for image side S.
    ValueError for a non-finite coordinate (so no NaN pixel reaches the
    rasterizer, whose area test would drop its faces silently) and for a
    point at or behind the camera plane.
    """
    points = np.asarray(points, dtype=np.float64)
    if not np.isfinite(points).all():
        raise ValueError("point coordinates must be finite")
    shifted = points + cam.translation
    z = shifted[..., 2]
    if np.any(z <= 1e-9):
        raise ValueError("point at or behind the camera plane")
    u = cam.focal * shifted[..., 0] / z + cam.size / 2.0
    v = cam.focal * shifted[..., 1] / z + cam.size / 2.0
    return np.stack([u, v], axis=-1)


def _covered_cells(tri_px: np.ndarray, size: int):
    """Pixel-center coverage of 2D triangles (n, 3, 2) in an S x S image, yielded
    per batch as the flat (row * S + col) indices of the cells the batch covers.

    Every triangle must be counter-clockwise and non-degenerate: positive
    signed area (x1 - x0)(y2 - y0) - (y1 - y0)(x2 - x0), as
    `_projected_triangles` keeps. A pixel center (c + .5, r + .5) counts as
    covered when it lies in the triangle's bounding box and all three edge
    cross products are >= 0. A triangle's box is the frame's columns
    ceil(min x - .5) .. floor(max x - .5), whose centers lie within its x
    extent, by the same rule for rows; a triangle whose box is empty (off
    the frame, or between two rows or columns of centers) is dropped. The
    box clause matters only on a near-collinear sliver, whose rounded cross
    products can accept centers on its line beyond its ends. Triangles are
    sorted by the longer and then the shorter side of their box, so boxes
    of one shape share batches, and cut into consecutive batches. A batch
    is tested on one grid of its largest box height by its largest box
    width, anchored at each triangle's own box corner, so it costs
    (triangles x grid) edge tests; a batch holds at most `COVERAGE_CELLS` of
    them, or one triangle whose box alone exceeds that. Grid cells past a
    triangle's own box are dropped. A cell may be yielded more than once,
    and a batch that covers nothing yields an empty array.
    """
    tri = np.asarray(tri_px, dtype=np.float64)
    x = tri[:, :, 0]
    y = tri[:, :, 1]
    min_x = np.minimum(np.minimum(x[:, 0], x[:, 1]), x[:, 2])
    max_x = np.maximum(np.maximum(x[:, 0], x[:, 1]), x[:, 2])
    min_y = np.minimum(np.minimum(y[:, 0], y[:, 1]), y[:, 2])
    max_y = np.maximum(np.maximum(y[:, 0], y[:, 1]), y[:, 2])
    lo_c = np.clip(np.ceil(min_x - 0.5).astype(np.int64), 0, size)
    hi_c = np.clip(np.floor(max_x - 0.5).astype(np.int64), -1, size - 1)
    lo_r = np.clip(np.ceil(min_y - 0.5).astype(np.int64), 0, size)
    hi_r = np.clip(np.floor(max_y - 0.5).astype(np.int64), -1, size - 1)
    bw = hi_c - lo_c + 1
    bh = hi_r - lo_r + 1
    on_screen = np.flatnonzero((bw > 0) & (bh > 0))
    order = on_screen[np.lexsort((np.minimum(bw, bh)[on_screen], np.maximum(bw, bh)[on_screen]))]
    tri, lo_c, hi_c, lo_r, hi_r, bw, bh = (
        np.take(a, order, axis=0) for a in (tri, lo_c, hi_c, lo_r, hi_r, bw, bh)
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
        yield (rows * size + cols)[inside]


def _coverage_mask(tri_px: np.ndarray, size: int) -> np.ndarray:
    """Pixel-center coverage of 2D triangles (n, 3, 2) -> (S, S) bool; see
    `_covered_cells` for the coverage rule and the batching."""
    mask = np.zeros((size, size), dtype=bool)
    for cells in _covered_cells(tri_px, size):
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
    tri = np.take(project_persp(vertices, cam), faces, axis=0)
    area2 = (tri[:, 1, 0] - tri[:, 0, 0]) * (tri[:, 2, 1] - tri[:, 0, 1]) - (
        tri[:, 1, 1] - tri[:, 0, 1]
    ) * (tri[:, 2, 0] - tri[:, 0, 0])
    return np.compress(area2 > 0.0, tri, axis=0)


def rasterize_silhouette(vertices, faces: np.ndarray, cam: PerspCamera) -> np.ndarray:
    """Binary coverage mask (S, S) uint8 of the projected mesh.

    The faces must form a closed, consistently oriented surface in front
    of the camera; only the triangles of one facing are tested, which
    cover the same pixels (see `_projected_triangles`).
    """
    tri_px = _projected_triangles(vertices, faces, cam)
    return _coverage_mask(tri_px, cam.size).astype(np.uint8)


def covers_any_pixel(vertices, faces: np.ndarray, cam: PerspCamera) -> bool:
    """Whether the projected mesh covers any pixel center, i.e. exactly
    `rasterize_silhouette(vertices, faces, cam).any()`, stopping at the
    first batch of triangles that covers one. Like `rasterize_silhouette`,
    it requires a closed, consistently oriented surface and tests only the
    triangles of one facing."""
    tri_px = _projected_triangles(vertices, faces, cam)
    return any(cells.size for cells in _covered_cells(tri_px, cam.size))


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


def joint_pixel(joints2d) -> np.ndarray:
    """The (column, row) pixel of each `(..., 2)` joint, as whole floats: the
    rounded coordinates, so pixel c holds [c - 0.5, c + 0.5). Frame
    visibility, heatmap centres and `synth.render_sample`'s erased-pixel test
    all use it. The rasterizer's pixel c covers [c, c + 1), so the two
    disagree by half a pixel (u = 10.6 is rasterized column 10 but joint
    pixel 11); the floor would agree, and would move those outputs."""
    return np.rint(np.asarray(joints2d, dtype=np.float64))


def heatmap_profiles(joints2d: np.ndarray, visibility: np.ndarray, size: int) -> tuple:
    """Separable factors of the S x S joint heatmaps: `(..., L, S)` row and
    column profiles of `(..., L, 2)` joints and `(..., L)` visibilities.

    Heatmap channel l is the outer product of row profile l and column
    profile l: a unit-peak Gaussian of std `HEATMAP_SIGMA` in the distance
    to the joint's pixel (`joint_pixel`), cut to the +-ceil(4 sigma) window
    around that pixel. Both profiles of an invisible joint are zero.
    """
    centers = joint_pixel(joints2d)
    visible = np.asarray(visibility).astype(bool)[..., None]
    radius = int(np.ceil(4 * HEATMAP_SIGMA))

    def profile(center, n):
        offset = np.arange(n) - center[..., None]
        window = visible & (np.abs(offset) <= radius)
        return np.where(window, np.exp(-(offset**2) / (2.0 * HEATMAP_SIGMA**2)), 0.0)

    return profile(centers[..., 1], size), profile(centers[..., 0], size)


def joints_to_heatmaps(joints2d: np.ndarray, visibility: np.ndarray, size: int) -> np.ndarray:
    """Unit-peak Gaussian heatmaps (S, S, L), zeroed for invisible joints.

    Each visible channel is centered on the joint's pixel so its
    maximum is exactly 1 there; see `heatmap_profiles`.
    """
    rows, cols = heatmap_profiles(joints2d, visibility, size)
    return np.einsum("lh,lw->hwl", rows, cols)


def in_frame_visibility(joints2d: np.ndarray, size: int) -> np.ndarray:
    """1 where the joint's pixel (`joint_pixel`) lies inside the S x S frame."""
    pixel = joint_pixel(joints2d)
    return np.all((pixel >= 0) & (pixel < size), axis=-1).astype(np.int64)


def normalize_pixels(points_px, size: int):
    """Pixel coordinates in an S x S image -> [-1, 1] normalized coordinates."""
    return (2.0 * points_px - size) / size
