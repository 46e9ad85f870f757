"""Projection and proxy-input synthesis.

Weak-perspective projection (`project_weak`) is the reprojection loss's
camera model and is differentiable; full-perspective projection, binary
silhouette rasterization and joint heatmap synthesis produce the
network's proxy inputs during data generation. Heatmaps are separable:
`heatmap_profiles` defines them once, as per-joint row and column
profiles of a Gaussian of the fixed width `HEATMAP_SIGMA` (4 px), by one
rule at any pooled size, full resolution being pooled size S; both the
full-resolution maps and the network's pooled input are built from
those profiles. A rendered sample keeps only its keypoints; its
full-resolution heatmaps are drawn on demand. The rasterizer is plain
coverage (a pixel is set when its center lies inside a projected
triangle), which is all a binary silhouette channel needs — no z-buffer,
no anti-aliasing. The rasterizers take a `Mesh`, the one value built
from a mesh's faces by `mesh`, which checks that they form a closed,
consistently oriented surface; the vertices must lie in front of the
camera. A `BodyModel` builds its faces' mesh once, on first use, as
`BodyModel.mesh`. The rasterizer counts only the triangles of one facing,
those with positive signed pixel area, which cover exactly the pixels
the whole mesh covers. It has one path, a scanline fill from contour
edges: the edges of those triangles whose twin face (`edge_twins`, held
by the mesh) faces the other way. Each contour edge adds +1 or -1 at its
crossing of each pixel-center row, and one cumulative sum gives each
center's winding number. Centers within rounding of an edge are decided
by the per-triangle rule instead (a tie repair), so the mask is that
rule's, pixel for pixel. What depends only on the faces (their
corner-major copies, the twin table, which edge of a shared pair is
counted, the sampled faces below) is the mesh's; a render projects the
vertices and works on the positive faces. `covers_any_pixel` projects and
checks every vertex once, then tests the center nearest the centroid of
each positive face of a fixed sample, every (F // 64)-th face, then that
of every positive face, and fills only when both fail, so it always
agrees with `rasterize_silhouette(...).any()`.
A body is its posed `(V, 3)` vertex array: the rasterizers take
`(vertices, mesh, cam)`, and part assignment labels a silhouette
the caller already rasterized by nearest projected vertex, so it takes no
faces. The nearest vertex is exact, the lowest index on ties, and is
found on a pixel grid over the silhouette's box, whose (2K+1)^2 block of
cells about a pixel, for K = 1, 2, 4, ..., holds every vertex within
K + 1/2 of its centre.
Images are square: every function takes one side `size` (S), in pixels.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .scalars import check_int, check_positive

HEATMAP_SIGMA = 4.0  # heatmap Gaussian std, pixels
_HEATMAP_RADIUS = int(np.ceil(4 * HEATMAP_SIGMA))  # half-width of the profile window, pixels
# relative rounding bound of the rasterizer's doubt set (see `_coverage`)
_TIE_BOUND = 2.0**-40


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
    return np.stack(_project(points, cam), axis=-1)


def _project(points, cam: PerspCamera) -> tuple:
    """The u and v pixel coordinates of `project_persp`, as two arrays, with
    its checks."""
    points = np.asarray(points, dtype=np.float64)
    if not np.isfinite(points).all():
        raise ValueError("point coordinates must be finite")
    (tx, ty, tz), half = cam.translation, cam.size / 2.0
    z = points[..., 2] + tz
    if np.any(z <= 1e-9):
        raise ValueError("point at or behind the camera plane")
    return (cam.focal * (points[..., 0] + tx) / z + half,
            cam.focal * (points[..., 1] + ty) / z + half)


def _face_pixels(u, v, corners: np.ndarray) -> tuple:
    """The projected corners of faces, x and y (3, F) with one row per
    corner, gathered from the vertices' pixel coordinates u and v by the
    faces' corner-major vertex indices `corners` (3, F), and twice each
    face's signed pixel area (F,), (x1 - x0)(y2 - y0) - (y1 - y0)(x2 - x0).

    The faces with positive area cover the same pixel centers as all the
    faces when the faces form a closed, consistently oriented surface
    (each directed edge occurs once and its reverse once) whose vertices
    all lie in front of the camera. Count each triangle that covers a
    point +1 when its pixel area is positive and -1 when negative.
    Crossing a projected edge changes the terms of the two triangles
    sharing it by opposite amounts, since they run along it in opposite
    directions; so the count is constant between edges, and it is 0 far
    outside the image of the surface. A covered point off the projected
    edges is therefore covered by as many positive triangles as negative
    ones, hence by at least one positive triangle. Under the toy model's
    outward winding, positive pixel area marks the faces turned away from
    the camera, because image v grows with y.
    """
    x, y = u.take(corners), v.take(corners)
    area2 = (x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0])
    return x, y, area2


def _rule_covers(x, y, px, py) -> np.ndarray:
    """The coverage rule of positive-area triangles, broadcast over corners
    x, y (3, ...) and pixel centers px, py: the center lies in the
    triangle's bounding box and all three rounded edge cross products are
    >= 0. The box clause matters only on a near-collinear sliver, whose
    rounded cross products can accept centers on its line past its ends."""
    (x0, x1, x2), (y0, y1, y2) = x, y
    return (
        (np.minimum(np.minimum(x0, x1), x2) <= px) & (px <= np.maximum(np.maximum(x0, x1), x2))
        & (np.minimum(np.minimum(y0, y1), y2) <= py) & (py <= np.maximum(np.maximum(y0, y1), y2))
        & ((x1 - x0) * (py - y0) - (y1 - y0) * (px - x0) >= 0)
        & ((x2 - x1) * (py - y1) - (y2 - y1) * (px - x1) >= 0)
        & ((x0 - x2) * (py - y2) - (y0 - y2) * (px - x2) >= 0)
    )


def _slots(counts: np.ndarray, first: np.ndarray) -> tuple:
    """(owner, number) of every slot when item i holds counts[i] slots,
    numbered first[i], first[i] + 1, ..."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) + (first - np.cumsum(counts) + counts)[owner]


def _centers(lo, hi, size: int) -> tuple:
    """The first and the last pixel index whose center (index + 0.5) lies in
    [lo, hi], clipped to the frame; first > last when there is none."""
    return (np.clip(np.ceil(lo - 0.5), 0, size).astype(np.int64),
            np.clip(np.floor(hi - 0.5), -1, size - 1).astype(np.int64))


def _rectangle_cells(rows: tuple, cols: tuple, size: int) -> np.ndarray:
    """Flat indices (row * S + col) of the centers of each rectangle given
    by its (first, last) rows and its (first, last) columns."""
    n_cols = np.maximum(cols[1] - cols[0] + 1, 0)
    owner, offset = _slots(np.maximum(rows[1] - rows[0] + 1, 0) * n_cols, np.zeros_like(n_cols))
    n_cols = n_cols[owner]
    return (rows[0][owner] + offset // n_cols) * size + cols[0][owner] + offset % n_cols


class Mesh(NamedTuple):
    """A closed, consistently oriented triangle mesh as the rasterizers read
    it, built from its faces (F, 3) by `mesh`, with read-only tables,
    corner-major: row k holds corner k of every face, or the directed edge
    from corner k to corner k + 1 (mod 3), and the flat index of edge
    (k, f) is k F + f."""

    corners: np.ndarray  # (3, F) vertex index of each corner
    probe: np.ndarray    # (3, P) the corners of the faces sampled (`_PROBE_FACES`)
    twins: np.ndarray    # (3, F) the twin face of each edge (`edge_twins`)
    leads: np.ndarray    # (3, F) bool: the face's index is below its twin's
    num_vertices: int    # the vertices the faces index: the largest index + 1, 0 for no faces


# faces sampled by `covers_any_pixel`'s first step: every (F // 64)-th face,
# or every face when F < 128
_PROBE_FACES = 64


def mesh(faces) -> Mesh:
    """The `Mesh` of the faces (F, 3). ValueError unless they are integers
    >= 0 that form a closed, consistently oriented surface: each directed
    edge occurs once and its reverse once, so their `edge_twins` table has
    no -1. No faces make a mesh that covers no pixel. A body model builds
    its mesh once, on first use (`BodyModel.mesh`)."""
    faces = np.asarray(faces)
    if faces.ndim != 2 or faces.shape[1] != 3 or not np.issubdtype(faces.dtype, np.integer):
        raise ValueError(f"faces must be (F, 3) integers, got {faces.dtype} {faces.shape}")
    if faces.min(initial=0) < 0:
        raise ValueError("face indices must be >= 0")
    twins = edge_twins(faces)
    if np.any(twins < 0):
        raise ValueError("faces must form a closed, consistently oriented surface")
    n_faces = len(faces)
    corners, twins = np.array(faces.T, dtype=np.int64, order="C"), np.ascontiguousarray(twins.T)
    tables = (corners, np.ascontiguousarray(corners[:, ::max(n_faces // _PROBE_FACES, 1)]),
              twins, twins > np.arange(n_faces))
    for table in tables:
        table.flags.writeable = False
    return Mesh(*tables, int(corners.max(initial=-1)) + 1)


def _edge_keys(faces: np.ndarray) -> tuple:
    """One key per directed edge of the faces, from corner k to corner
    k + 1 (mod 3), in row-major order: its undirected edge low * base +
    high, with its direction as the lowest bit. Returns (keys, base)."""
    faces = np.asarray(faces, dtype=np.int64)
    heads = np.empty_like(faces)
    heads[:, :2], heads[:, 2] = faces[:, 1:], faces[:, 0]
    tails, heads = faces.ravel(), heads.ravel()
    base = faces.max(initial=0) + 1
    return (np.minimum(tails, heads) * base + np.maximum(tails, heads)) * 2 + (tails > heads), base


def _reverse_positions(ranked: np.ndarray, base) -> np.ndarray:
    """For sorted edge keys, the sorted position of each edge's reverse, or
    -1: an edge has a reverse when it and one edge the other way are
    alone under their undirected edge. An edge from a vertex to itself,
    alone, is its own reverse; its undirected key v * base + v is a
    multiple of base + 1."""
    # whether each position starts an undirected edge, and one past the end
    starts = np.ones(len(ranked) + 1, dtype=bool)
    starts[1:-1] = (ranked[1:] >> 1) != (ranked[:-1] >> 1)
    reverse = np.full(len(ranked), -1)
    pair = np.flatnonzero(starts[:-2] & ~starts[1:-1] & starts[2:] & (ranked[1:] != ranked[:-1]))
    reverse[pair], reverse[pair + 1] = pair + 1, pair
    alone = np.flatnonzero(starts[:-1] & starts[1:])
    loop = alone[(ranked[alone] >> 1) % (base + 1) == 0]
    reverse[loop] = loop
    return reverse


def _is_closed_oriented(faces: np.ndarray) -> bool:
    """Whether each directed edge of the faces occurs once and its reverse
    occurs once, so that `edge_twins` has no -1; true for no faces. The
    same rule as the table's, from one sort of the edge keys, with no
    table: `BodyModel` checks its faces by it when built."""
    keys, base = _edge_keys(faces)
    return bool(np.all(_reverse_positions(np.sort(keys), base) >= 0))


def edge_twins(faces: np.ndarray) -> np.ndarray:
    """The (F, 3) twin table of the faces: entry (f, k) is the face holding
    the reverse of f's directed edge from corner k to corner k + 1 (mod 3),
    or -1 when that reverse is missing or either edge occurs more than once.

    The faces form a closed, consistently oriented surface
    (`_is_closed_oriented`) exactly when no entry is -1: each directed edge
    occurs once and its reverse once. One `argsort` of the edge keys
    (`_edge_keys`) puts each edge beside its reverse. The rasterizer reads
    the table, as `Mesh.twins`, to tell contour edges from shared ones
    (see `_coverage`)."""
    keys, base = _edge_keys(faces)
    order = np.argsort(keys)
    reverse = _reverse_positions(keys[order], base)
    twins = np.empty(len(keys), dtype=np.int64)
    twins[order] = np.where(reverse >= 0, order[reverse] // 3, -1)
    return twins.reshape(-1, 3)


def _coverage(x, y, area2, mesh: Mesh, size: int) -> np.ndarray:
    """The (S, S) bool mask of the pixel centers that some positive face
    covers by `_rule_covers`: the faces of `mesh`, projected by
    `_face_pixels` to corners x, y (3, F) and doubled signed areas `area2`.

    *Fill.* Edges shared by two positive faces cancel (`_face_pixels`), so
    the positive faces hold a point exactly when the winding number of
    their contour edges about it is not 0. A contour edge is a directed
    edge a -> b of a positive face whose twin face is not positive; of an
    edge two positive faces share, the direction of the lower face
    (`Mesh.leads`) is kept for the doubt set. Per render, only the twins'
    positivity is gathered; the rest is the mesh's tables. A contour
    edge crosses each center row with min(ya, yb) <= r + 0.5 < max(ya, yb)
    once, at x = xa + (r + 0.5 - ya) / (yb - ya) * (xb - xa), and adds +1
    going down or -1 going up at the first center at or right of x, column
    ceil(x - 0.5), or at the spare column S. One `bincount` puts every
    crossing into an array of the rows and columns that hold crossings,
    and one cumulative sum gives the winding number at every center. The
    sum runs over the flattened array: the contour edges form closed
    loops, so each row's crossings sum to 0 and no count runs on into the
    next row.

    *Ties.* Rounding can move a crossing past a center, or flip the sign
    of a rule's edge test, only at centers near an edge. Those centers
    form the doubt set D, and each is decided by `_rule_covers` over the
    positive faces. With eps = `_TIE_BOUND` = 2^-40, hundreds of times the
    relative rounding error of either computation (a few units of 2^-53),
    and X the largest |x| of a corner, D holds:
    - for each non-horizontal edge of a positive face, each shared edge
      once: the centers of its closed row span within eps (2 X + 1) of its
      computed crossing;
    - for each positive face with box width W and height H: the centers
      of its box within eps W H^2 / max(area2, eps W H) of its middle
      corner's y. That is all of its box when the sign of its area is in
      doubt, and it holds the row of any horizontal edge of the face,
      whose ends share the middle corner's y.
    Off D no center lies on an edge and every crossing lies on its true
    side, so the count is the exact winding number: the number of faces
    holding the center. Every rule is exact there too. A rule that
    disagrees with exact coverage has a rounded edge test of the wrong
    sign, on an edge that is not horizontal, since a horizontal edge's
    test is one exact-signed product. If the center's row is in that
    edge's span, the center is in its window. Else the edge is one of the
    two shorter edges in y, and the row lies in the spans of the other
    two. Off their windows, the center's barycentric weights for them
    exceed their rounding bounds, so its row lies within the face's band
    about the middle corner. So off D the mask is the rule by
    construction, and on D by evaluation.
    """
    positive = area2 > 0
    if not positive.any():
        return np.zeros((size, size), dtype=bool)
    # directed edges a -> b of the positive faces, by flat corner-major
    # index k F + f: the contour edges, and one direction of each edge
    # that two positive faces share
    n_faces = len(area2)
    twin_positive = positive.take(mesh.twins)
    line = np.flatnonzero(positive & (~twin_positive | mesh.leads))
    contour = ~twin_positive.ravel()[line]
    head = np.where(line < 2 * n_faces, line + n_faces, line - 2 * n_faces)
    xa, ya = x.ravel()[line], y.ravel()[line]
    xb, yb = x.ravel()[head], y.ravel()[head]
    dy = yb - ya
    y_hi = np.maximum(ya, yb)
    first, last = _centers(np.minimum(ya, yb), y_hi, size)
    owner, row = _slots(np.maximum(last - first + 1, 0), first)
    center_y = row + 0.5
    cross = xa[owner] + (center_y - ya[owner]) / np.where(dy == 0, 1.0, dy)[owner] * (xb - xa)[owner]

    mask = np.zeros((size, size), dtype=bool)
    fill = np.flatnonzero(contour[owner] & (center_y < y_hi[owner]))
    if fill.size:
        rows, cols = row[fill], np.clip(np.ceil(cross[fill] - 0.5), 0, size).astype(np.int64)
        r0, c0 = rows.min(), cols.min()
        n_rows, n_cols = rows.max() - r0 + 1, cols.max() - c0 + 1
        steps = np.bincount((rows - r0) * n_cols + cols - c0, weights=np.sign(dy[owner[fill]]),
                            minlength=n_rows * n_cols)
        mask[r0:r0 + n_rows, c0:c0 + n_cols - 1] = (np.cumsum(steps) != 0).reshape(
            n_rows, n_cols)[:, :-1]

    # the doubt set: centers near a crossing, and the positive faces' bands
    # about their middle corners
    window = _TIE_BOUND * (2.0 * max(x.max(), -x.min()) + 1.0)
    off = cross - 0.5
    doubt = np.flatnonzero(np.abs(off - np.rint(off)) <= window)
    doubt_cols = _centers(cross[doubt] - window, cross[doubt] + window, size)
    faces_up = np.flatnonzero(positive)
    x, y = x.take(faces_up, axis=1), y.take(faces_up, axis=1)
    (x0, x1, x2), (y0, y1, y2) = x, y
    y_min, y_max = np.minimum(np.minimum(y0, y1), y2), np.maximum(np.maximum(y0, y1), y2)
    y_mid = np.maximum(np.minimum(y0, y1), np.minimum(np.maximum(y0, y1), y2))
    height = y_max - y_min
    box = (np.maximum(np.maximum(x0, x1), x2) - np.minimum(np.minimum(x0, x1), x2)) * height
    band = _TIE_BOUND * box * height / np.maximum(area2[faces_up], _TIE_BOUND * box)
    off = y_mid - 0.5
    banded = np.flatnonzero(np.abs(off - np.rint(off)) <= band)
    if doubt.size or banded.size:
        xs = x[:, banded]
        cells = np.unique(np.concatenate([
            _rectangle_cells((row[doubt], row[doubt]), doubt_cols, size),
            _rectangle_cells(
                _centers(np.maximum(y_min, y_mid - band)[banded],
                         np.minimum(y_max, y_mid + band)[banded], size),
                _centers(xs.min(axis=0), xs.max(axis=0), size), size),
        ]))
        mask.ravel()[cells] = _decide(x, y, cells, size)
    return mask


def _decide(x, y, cells: np.ndarray, size: int) -> np.ndarray:
    """Whether `_rule_covers` holds for any of the faces with corners x, y
    (3, n) at each of the flat cells; row by row, over the faces whose
    rows hold it."""
    covered = np.zeros(len(cells), dtype=bool)
    rows = cells // size
    y_min, y_max = y.min(axis=0), y.max(axis=0)
    for r in np.unique(rows):
        at = np.flatnonzero(rows == r)
        held = np.flatnonzero((y_min <= r + 0.5) & (r + 0.5 <= y_max))
        px = (cells[at] % size + 0.5)[:, None]
        covered[at] = _rule_covers(x[:, None, held], y[:, None, held], px, r + 0.5).any(axis=1)
    return covered


def _project_mesh(vertices, mesh: Mesh, cam: PerspCamera) -> tuple:
    """`_project` of the vertices of a mesh; ValueError unless they are
    (V, 3) with every vertex its faces index, V >= `mesh.num_vertices`."""
    vertices = ad.value_of(vertices)
    shape = np.shape(vertices)
    if len(shape) != 2 or shape[1] != 3 or shape[0] < mesh.num_vertices:
        raise ValueError(f"vertices have shape {shape}, the mesh needs (V, 3) with "
                         f"V >= {mesh.num_vertices}")
    return _project(vertices, cam)


def rasterize_silhouette(vertices, mesh: Mesh, cam: PerspCamera) -> np.ndarray:
    """Binary coverage mask (S, S) uint8 of the mesh's vertices (V, 3)
    projected by the camera, which they must lie in front of; a body
    model holds its mesh as `BodyModel.mesh`. A pixel is set when some
    face covers its center; see `_coverage`."""
    u, v = _project_mesh(vertices, mesh, cam)
    return _coverage(*_face_pixels(u, v, mesh.corners), mesh, cam.size).astype(np.uint8)


def covers_any_pixel(vertices, mesh: Mesh, cam: PerspCamera) -> bool:
    """Whether the projected mesh covers any pixel center: exactly
    `rasterize_silhouette(vertices, mesh, cam).any()`, with the same
    requirements and checks: the mesh is projected once, and every
    vertex is checked. The mask holds every in-frame center that the rule
    of some positive face covers, so a covered center nearest a face's
    centroid settles it (`_covers_centroid_center`): first for the
    positive faces of a fixed sample, every (F // 64)-th face
    (`Mesh.probe`), then for every positive face at once. Only when
    neither settles it is the mask filled."""
    u, v = _project_mesh(vertices, mesh, cam)
    for corners in (mesh.probe, mesh.corners):
        x, y, area2 = _face_pixels(u, v, corners)
        positive = area2 > 0
        if _covers_centroid_center(x[:, positive], y[:, positive], cam.size).any():
            return True
    # x, y and area2 now hold every face
    return bool(_coverage(x, y, area2, mesh, cam.size).any())


def _covers_centroid_center(x, y, size: int) -> np.ndarray:
    """For faces with corners x, y (3, n): whether each covers, by
    `_rule_covers`, the pixel center nearest its centroid, when that center
    lies in the frame."""
    col, row = np.floor(x.mean(axis=0)), np.floor(y.mean(axis=0))
    return ((0 <= col) & (col < size) & (0 <= row) & (row < size)
            & _rule_covers(x, y, col + 0.5, row + 0.5))


def rasterize_part_assignment(vertices, part_labels: np.ndarray,
                              cam: PerspCamera, silhouette: np.ndarray) -> np.ndarray:
    """Silhouette pixels labelled by body part, -1 outside.

    `silhouette` is the body's coverage mask under `cam`, as returned by
    `rasterize_silhouette`; it is not rasterized again here. ValueError
    unless it is (S, S) for the camera's side S and `part_labels` holds
    one integer label per vertex. Each covered pixel is assigned the part
    of its nearest projected vertex: the exact `argmin` over the vertices
    of the squared distance to the pixel's centre, the lowest vertex index
    on ties. The per-part masks tile the silhouette exactly, mirroring a
    part segmentation.

    The search (`_nearest_points`) runs on a grid of pixel cells over the
    silhouette's box plus a one-cell margin. Each vertex goes into the
    cell of its pixel; a vertex off the grid goes into the nearest border
    cell, so a far-off vertex costs no memory. The (2K+1)^2 block of cells
    about a pixel holds every vertex within K + 1/2 of its centre, so a
    best squared distance of at most K^2 + K found in it is final. The
    pixels not settled are searched again with K doubled, from K = 1,
    until a block covers the grid.
    """
    vertices, part_labels = np.asarray(ad.value_of(vertices)), np.asarray(part_labels)
    if np.shape(silhouette) != (cam.size, cam.size):
        raise ValueError(f"silhouette has shape {np.shape(silhouette)}, the camera "
                         f"renders ({cam.size}, {cam.size})")
    if part_labels.shape != vertices.shape[:1] or not np.issubdtype(part_labels.dtype, np.integer):
        raise ValueError(f"part labels must be one integer per vertex: got {part_labels.dtype} "
                         f"{part_labels.shape} for {len(vertices)} vertices")
    assignment = np.full(silhouette.shape, -1, dtype=np.int64)
    rows, cols = np.nonzero(silhouette)
    if rows.size == 0:
        return assignment
    projected = project_persp(vertices, cam)
    assignment[rows, cols] = part_labels[_nearest_points(projected, rows, cols)]
    return assignment


def _nearest_points(points: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """For each pixel (rows[i], cols[i]), the index of the point of `points`
    (V >= 1, 2) nearest its centre (cols + 0.5, rows + 0.5) by the squared
    distance du^2 + dv^2, the lowest index on ties, by the grid search of
    `rasterize_part_assignment`, without a (pixels, V) table.

    The block bound: a point beyond a block's columns lies at least
    K + 1/2 from the centre in u, and one beyond its rows in v. Clamping a
    point into a border cell keeps it in every block its own cell lies in,
    since a block reaching past the grid is cut at the border. K^2 + K is a quarter below (K + 1/2)^2, a margin far above the
    distances' rounding, so no point outside the block can tie or beat
    that best.
    """
    r0, c0 = rows.min() - 1, cols.min() - 1
    n_rows, n_cols = rows.max() - r0 + 2, cols.max() - c0 + 2
    cell = (np.clip(np.floor(points[:, 1]) - r0, 0, n_rows - 1).astype(np.int64) * n_cols
            + np.clip(np.floor(points[:, 0]) - c0, 0, n_cols - 1).astype(np.int64))
    order = np.argsort(cell, kind="stable")
    u, v = points[order].T
    starts = np.concatenate(([0], np.cumsum(np.bincount(cell, minlength=n_rows * n_cols))))
    nearest = np.empty(len(rows), dtype=np.int64)
    pending, reach = np.arange(len(rows)), 1
    while pending.size:
        row, col = rows[pending] - r0, cols[pending] - c0
        row_lo, row_hi = np.maximum(row - reach, 0), np.minimum(row + reach, n_rows - 1)
        col_lo, col_hi = np.maximum(col - reach, 0), np.minimum(col + reach, n_cols - 1)
        # one run of sorted points per row of each block, then its points
        line, block_row = _slots(row_hi - row_lo + 1, row_lo)
        first = starts[block_row * n_cols + col_lo[line]]
        run, slot = _slots(starts[block_row * n_cols + col_hi[line] + 1] - first, first)
        pixel = line[run]
        dist2 = ((u[slot] - (cols[pending] + 0.5)[pixel]) ** 2
                 + (v[slot] - (rows[pending] + 0.5)[pixel]) ** 2)
        # candidates run grouped by pixel; a pixel with none keeps inf
        counts = np.bincount(pixel, minlength=len(pending))
        found = counts > 0
        group = (np.cumsum(counts) - counts)[found]
        best = np.full(len(pending), np.inf)
        best[found] = np.minimum.reduceat(dist2, group)
        nearest[pending[found]] = np.minimum.reduceat(
            np.where(dist2 == best[pixel], order[slot], len(points)), group)
        whole = (row_lo == 0) & (row_hi == n_rows - 1) & (col_lo == 0) & (col_hi == n_cols - 1)
        pending = pending[~(whole | (best <= reach * reach + reach))]
        reach *= 2
    return nearest


def joint_pixel(joints2d) -> np.ndarray:
    """The (column, row) pixel of each `(..., 2)` joint, as whole floats: the
    rounded coordinates, so pixel c holds [c - 0.5, c + 0.5). Frame
    visibility, heatmap centres and `synth.render_sample`'s erased-pixel test
    all use it. The rasterizer's pixel c covers [c, c + 1), so the two
    disagree by half a pixel (u = 10.6 is rasterized column 10 but joint
    pixel 11); the floor would agree, and would move those outputs."""
    return np.rint(np.asarray(joints2d, dtype=np.float64))


def heatmap_profiles(joints2d: np.ndarray, visibility: np.ndarray, size: int,
                     pooled: int) -> tuple:
    """Separable factors of the S x S joint heatmaps, block-averaged to P =
    `pooled` (P = S for full resolution): `(..., L, P)` row and column
    profiles of `(..., L, 2)` joints and `(..., L)` visibilities.
    ValueError unless P is an int >= 1 dividing S, or for a non-finite joint.

    Heatmap channel l is the outer product of row profile l and column
    profile l: a unit-peak Gaussian of std `HEATMAP_SIGMA` in the distance
    to the joint's pixel (`joint_pixel`), cut to the +-ceil(4 sigma) window
    around that pixel; both profiles of an invisible joint are zero. Its
    block mean over f x f pixels, f = S / P, is the outer product of the
    profiles' block means. A pixel c = q f + m (0 <= m < f) is whole, so
    block j depends only on m and j - q, and each entry is gathered from
    the `_block_profiles` table of f. A joint far off the frame is clipped
    to just beyond the window: its profile stays zero and its index in range.
    """
    check_int("pooled size", pooled, 1)
    if size % pooled:
        raise ValueError(f"image size {size} not divisible by pooled size {pooled}")
    centers = joint_pixel(joints2d)
    if not np.all(np.isfinite(centers)):
        raise ValueError("joints must be finite")
    f = size // pooled
    table, reach = _block_profiles(f), -(-_HEATMAP_RADIUS // f)
    pixel = np.clip(centers, -_HEATMAP_RADIUS - 1, size + _HEATMAP_RADIUS).astype(np.int64)
    q, m = np.divmod(pixel, f)
    hidden = ~np.asarray(visibility).astype(bool)[..., None]

    def profile(q, m):
        k = np.arange(pooled) - q[..., None]
        column = np.where((np.abs(k) > reach) | hidden, 2 * reach + 1, k + reach)
        return np.take(table, m[..., None] * (2 * reach + 2) + column)

    return profile(q[..., 1], m[..., 1]), profile(q[..., 0], m[..., 0])


@functools.lru_cache(maxsize=16)
def _block_profiles(f: int) -> np.ndarray:
    """(f, 2K + 2) read-only table, K = ceil(radius / f): row m holds the
    blocks k = -K..K of the profile of a joint at pixel m, each the `mean`
    of the window rule's f full-resolution values, then the 0 that every
    block further off and every invisible joint reads."""
    reach = -(-_HEATMAP_RADIUS // f)
    # a joint at pixel reach * f + m of an axis of 2K + 1 blocks: block
    # reach + k of the axis is the joint's block k
    offset = np.arange((2 * reach + 1) * f) - (reach * f + np.arange(f, dtype=np.float64))[:, None]
    full = np.where(np.abs(offset) <= _HEATMAP_RADIUS,
                    np.exp(-(offset**2) / (2.0 * HEATMAP_SIGMA**2)), 0.0)
    table = np.zeros((f, 2 * reach + 2))
    table[:, :-1] = full.reshape(f, 2 * reach + 1, f).mean(axis=-1)
    table.setflags(write=False)
    return table


def joints_to_heatmaps(joints2d: np.ndarray, visibility: np.ndarray, size: int) -> np.ndarray:
    """Unit-peak Gaussian heatmaps (S, S, L), zeroed for invisible joints.

    Each visible channel is centered on the joint's pixel so its
    maximum is exactly 1 there; see `heatmap_profiles`.
    """
    rows, cols = heatmap_profiles(joints2d, visibility, size, size)
    return np.einsum("lh,lw->hwl", rows, cols)


def in_frame_visibility(joints2d: np.ndarray, size: int) -> np.ndarray:
    """1 where the joint's pixel (`joint_pixel`) lies inside the S x S frame."""
    pixel = joint_pixel(joints2d)
    return np.all((pixel >= 0) & (pixel < size), axis=-1).astype(np.int64)


def normalize_pixels(points_px, size: int):
    """Pixel coordinates in an S x S image -> [-1, 1] normalized coordinates."""
    return (2.0 * points_px - size) / size
