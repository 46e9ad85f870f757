"""Projection and proxy-input synthesis.

Weak-perspective projection feeds the reprojection loss (differentiable);
full-perspective projection, binary silhouette rasterization and joint
heatmap synthesis produce the network's proxy inputs during data
generation. Heatmaps are separable: `heatmap_profiles` defines them once,
as per-joint row and column profiles, and both the full-resolution maps
and the network's pooled input are built from those profiles. The
rasterizer is plain coverage (a pixel is set when its center lies inside
any projected triangle, front- or back-facing), which is all a binary
silhouette channel needs — no z-buffer, no anti-aliasing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .bodymodel import VertexMesh

DEFAULT_CONFIDENCE_THRESHOLD = 0.025
DEFAULT_HEATMAP_SIGMA = 4.0


@dataclass
class WeakPerspCamera:
    """Scale plus in-plane translation in normalized image units."""

    scale: float
    tx: float
    ty: float

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError("weak-perspective scale must be positive")

    def as_array(self) -> np.ndarray:
        return np.array([self.scale, self.tx, self.ty])


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
    """Network input: binary silhouette + per-joint heatmaps, H x W x (L+1)."""

    silhouette: np.ndarray  # (H, W) uint8
    heatmaps: np.ndarray    # (H, W, L) float64 in [0, 1]

    def stacked(self) -> np.ndarray:
        """Silhouette as channel 0, then the L heatmap channels."""
        return np.concatenate(
            [self.silhouette[:, :, None].astype(np.float64), self.heatmaps], axis=2
        )


def project_weak(points, cam):
    """Orthographic drop of z, then scale and translate: s * xy + t.

    `cam` is [s, tx, ty] (array, node or WeakPerspCamera); differentiable in
    both points and camera.
    """
    if isinstance(cam, WeakPerspCamera):
        cam = cam.as_array()
    xy = points[..., :2]
    s = cam[..., 0:1]
    t = cam[..., 1:3]
    if ad.value_of(xy).ndim > 2:
        # batched points: broadcast camera over the joint axis
        s = ad.reshape(s, ad.value_of(s).shape[:-1] + (1, 1))
        t = ad.reshape(t, ad.value_of(t).shape[:-1] + (1, 2))
    return s * xy + t


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


def _coverage_loop(tri_px: np.ndarray, mask: np.ndarray) -> None:
    h, w = mask.shape
    for tri in tri_px:
        (x0, y0), (x1, y1), (x2, y2) = tri
        area2 = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
        if area2 == 0.0:
            continue
        if area2 < 0.0:
            x1, y1, x2, y2 = x2, y2, x1, y1
        lo_c = max(int(np.floor(min(x0, x1, x2) - 0.5)), 0)
        hi_c = min(int(np.ceil(max(x0, x1, x2) - 0.5)), w - 1)
        lo_r = max(int(np.floor(min(y0, y1, y2) - 0.5)), 0)
        hi_r = min(int(np.ceil(max(y0, y1, y2) - 0.5)), h - 1)
        if lo_c > hi_c or lo_r > hi_r:
            continue
        px = np.arange(lo_c, hi_c + 1) + 0.5
        py = (np.arange(lo_r, hi_r + 1) + 0.5)[:, None]
        e0 = (x1 - x0) * (py - y0) - (y1 - y0) * (px - x0)
        e1 = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
        e2 = (x0 - x2) * (py - y2) - (y0 - y2) * (px - x2)
        mask[lo_r : hi_r + 1, lo_c : hi_c + 1] |= (e0 >= 0) & (e1 >= 0) & (e2 >= 0)


def _coverage_mask(tri_px: np.ndarray, h: int, w: int) -> np.ndarray:
    """Pixel-center coverage of 2D triangles (n, 3, 2) -> (H, W) bool.

    A pixel center (c + .5, r + .5) counts as covered when all three edge
    cross products are >= 0 after orienting the triangle counter-clockwise;
    triangles with exactly zero signed area are skipped. Small triangles are
    evaluated in one vectorized batch over a shared bounding-box grid; the
    elementwise arithmetic is identical to the per-triangle loop.
    """
    mask = np.zeros((h, w), dtype=bool)
    tri = np.asarray(tri_px, dtype=np.float64)
    if tri.size == 0:
        return mask

    area2 = (tri[:, 1, 0] - tri[:, 0, 0]) * (tri[:, 2, 1] - tri[:, 0, 1]) - (
        tri[:, 1, 1] - tri[:, 0, 1]
    ) * (tri[:, 2, 0] - tri[:, 0, 0])
    tri = tri[area2 != 0.0]
    area2 = area2[area2 != 0.0]
    if tri.size == 0:
        return mask
    flip = area2 < 0.0
    tri[flip] = tri[flip][:, [0, 2, 1], :]

    lo_c = np.clip(np.floor(tri[:, :, 0].min(axis=1) - 0.5).astype(np.int64), 0, w - 1)
    hi_c = np.clip(np.ceil(tri[:, :, 0].max(axis=1) - 0.5).astype(np.int64), -1, w - 1)
    lo_r = np.clip(np.floor(tri[:, :, 1].min(axis=1) - 0.5).astype(np.int64), 0, h - 1)
    hi_r = np.clip(np.ceil(tri[:, :, 1].max(axis=1) - 0.5).astype(np.int64), -1, h - 1)
    bw = hi_c - lo_c + 1
    bh = hi_r - lo_r + 1
    keep = (bw > 0) & (bh > 0)
    tri, lo_c, lo_r, bw, bh = tri[keep], lo_c[keep], lo_r[keep], bw[keep], bh[keep]
    if tri.size == 0:
        return mask

    # huge bounding boxes would blow up the dense batch; loop those instead
    big = (bw.astype(np.int64) * bh) > 4096
    if np.any(big):
        _coverage_loop(tri[big], mask)
        tri, lo_c, lo_r, bw, bh = tri[~big], lo_c[~big], lo_r[~big], bw[~big], bh[~big]
        if tri.size == 0:
            return mask

    cap_w, cap_h = int(bw.max()), int(bh.max())
    px = lo_c[:, None] + np.arange(cap_w)[None, :] + 0.5        # (F, cap_w)
    py = lo_r[:, None] + np.arange(cap_h)[None, :] + 0.5        # (F, cap_h)
    px3 = px[:, None, :]
    py3 = py[:, :, None]

    x0, y0 = tri[:, 0, 0, None, None], tri[:, 0, 1, None, None]
    x1, y1 = tri[:, 1, 0, None, None], tri[:, 1, 1, None, None]
    x2, y2 = tri[:, 2, 0, None, None], tri[:, 2, 1, None, None]
    inside = (
        ((x1 - x0) * (py3 - y0) - (y1 - y0) * (px3 - x0) >= 0)
        & ((x2 - x1) * (py3 - y1) - (y2 - y1) * (px3 - x1) >= 0)
        & ((x0 - x2) * (py3 - y2) - (y0 - y2) * (px3 - x2) >= 0)
    )
    valid = (np.arange(cap_h)[None, :, None] < bh[:, None, None]) & (
        np.arange(cap_w)[None, None, :] < bw[:, None, None]
    ) & (px3 < w) & (py3 < h)
    inside &= valid

    flat = ((lo_r[:, None, None] + np.arange(cap_h)[None, :, None]) * w
            + lo_c[:, None, None] + np.arange(cap_w)[None, None, :])
    mask.ravel()[flat[inside]] = True
    return mask


def rasterize_silhouette(mesh: VertexMesh, cam: PerspCamera) -> np.ndarray:
    """Binary coverage mask (H, W) uint8 of the projected mesh."""
    vertices = np.asarray(ad.value_of(mesh.vertices))
    faces = np.asarray(mesh.faces)
    if vertices.size == 0 or faces.size == 0:
        return np.zeros((cam.image_h, cam.image_w), dtype=np.uint8)
    projected = project_persp(vertices, cam)
    tri_px = projected[faces]  # (F, 3, 2)
    return _coverage_mask(tri_px, cam.image_h, cam.image_w).astype(np.uint8)


def rasterize_part_assignment(mesh: VertexMesh, part_labels: np.ndarray,
                              cam: PerspCamera) -> np.ndarray:
    """Silhouette pixels labelled by body part, -1 outside.

    Each covered pixel is assigned the part of its nearest projected vertex,
    giving a deterministic partition of the silhouette (the per-part masks
    tile the silhouette exactly, mirroring a part segmentation).
    """
    from scipy.spatial import cKDTree

    silhouette = rasterize_silhouette(mesh, cam)
    assignment = np.full(silhouette.shape, -1, dtype=np.int64)
    rows, cols = np.nonzero(silhouette)
    if rows.size == 0:
        return assignment
    projected = project_persp(np.asarray(ad.value_of(mesh.vertices)), cam)
    tree = cKDTree(projected)
    centers = np.stack([cols + 0.5, rows + 0.5], axis=1)
    _, nearest = tree.query(centers)
    assignment[rows, cols] = np.asarray(part_labels)[nearest]
    return assignment


def heatmap_profiles(joints2d: np.ndarray, visibility: np.ndarray, image_h: int,
                     image_w: int, sigma: float = DEFAULT_HEATMAP_SIGMA) -> tuple:
    """Separable factors of the joint heatmaps: (L, H) row and (L, W)
    column profiles.

    Heatmap channel l is the outer product of row profile l and column
    profile l: a unit-peak Gaussian of the distance to the joint's rounded
    pixel, cut to the +-ceil(4 sigma) window around that pixel. Both
    profiles of an invisible joint are zero.
    """
    centers = np.rint(np.asarray(joints2d, dtype=np.float64))
    visible = np.asarray(visibility).astype(bool)[:, None]
    radius = int(np.ceil(4 * sigma))

    def profile(center, n):
        offset = np.arange(n)[None, :] - center[:, None]
        window = visible & (np.abs(offset) <= radius)
        return np.where(window, np.exp(-(offset**2) / (2.0 * sigma**2)), 0.0)

    return profile(centers[:, 1], image_h), profile(centers[:, 0], image_w)


def joints_to_heatmaps(joints2d: np.ndarray, visibility: np.ndarray, image_h: int,
                       image_w: int, sigma: float = DEFAULT_HEATMAP_SIGMA) -> np.ndarray:
    """Unit-peak Gaussian heatmaps (H, W, L), zeroed for invisible joints.

    Each visible channel is centered on the joint's rounded pixel so its
    maximum is exactly 1 there; see `heatmap_profiles`.
    """
    rows, cols = heatmap_profiles(joints2d, visibility, image_h, image_w, sigma)
    return np.einsum("lh,lw->hwl", rows, cols)


def threshold_detections(joints2d: np.ndarray, confidences: np.ndarray,
                         threshold: float = DEFAULT_CONFIDENCE_THRESHOLD) -> np.ndarray:
    """Visibility vector: 0 where confidence < threshold (strictly), else 1."""
    confidences = np.asarray(confidences, dtype=np.float64)
    if np.any(confidences < 0) or np.any(confidences > 1):
        raise ValueError("confidences must lie in [0, 1]")
    return (confidences >= threshold).astype(np.int64)


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
