"""Diagonal Gaussians over body parameters and multi-input shape fusion.

Fusing per-input shape posteriors multiplies their densities; for diagonal
Gaussians under a flat shape prior that is precision-weighted averaging:

    S = (sum_n 1/var_n)^-1        m = S * sum_n mu_n / var_n

computed in precision space with a small floor for numerical robustness.
Pose distributions are never fused across inputs — only the subject's
shape is assumed fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

PRECISION_FLOOR = 1e-12


@dataclass
class GaussianDiag:
    """Mean and per-dimension variance, `(..., D)` each; `[]` indexes the leading axes."""

    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.var = np.asarray(self.var, dtype=np.float64)
        if self.mean.shape != self.var.shape or self.mean.ndim < 1:
            raise ValueError("mean and variance must be (..., D) with matching shape")
        if not np.all(np.isfinite(self.mean)) or not np.all(np.isfinite(self.var)):
            raise ValueError("mean and variance must be finite")
        if np.any(self.var <= 0):
            raise ValueError("variances must be positive")

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]

    def __getitem__(self, key) -> "GaussianDiag":
        return GaussianDiag(self.mean[key], self.var[key])


@dataclass
class PredictionSet:
    """Network output for one input or `(N,)` inputs: pose and shape distributions
    plus the deterministic global rotation and weak-perspective camera heads,
    with one leading sample axis shared by all; `[]` and `len` act on it."""

    pose: GaussianDiag
    shape: GaussianDiag
    global_rot: np.ndarray  # (..., 3) axis-angle
    camera: np.ndarray      # (..., 3) [scale, tx, ty]

    def __post_init__(self):
        self.global_rot = np.asarray(self.global_rot, dtype=np.float64)
        self.camera = np.asarray(self.camera, dtype=np.float64)
        lead = self.pose.mean.shape[:-1]
        if self.global_rot.shape != lead + (3,) or self.camera.shape != lead + (3,):
            raise ValueError("global rotation and camera must be 3-vectors per sample")
        if self.shape.mean.shape[:-1] != lead:
            raise ValueError("pose and shape must cover the same samples")
        if not np.all(np.isfinite(self.global_rot)) or not np.all(np.isfinite(self.camera)):
            raise ValueError("global rotation and camera must be finite")
        if not np.all(self.camera[..., 0] > 0):
            raise ValueError("camera scale must be positive")

    def __len__(self) -> int:
        if self.camera.ndim < 2:
            raise TypeError("a single prediction has no sample axis")
        return self.camera.shape[0]

    def __getitem__(self, key) -> "PredictionSet":
        return PredictionSet(self.pose[key], self.shape[key], self.global_rot[key],
                             self.camera[key])


def fuse_shapes(dists: GaussianDiag) -> GaussianDiag:
    """Product-of-Gaussians combination of `(n, D)` shape distributions
    into one `(D,)` distribution.

    The fused variance never exceeds any input variance per dimension; a
    single input is returned unchanged.
    """
    if dists.mean.ndim != 2 or len(dists.mean) == 0:
        raise ValueError("need an (n, D) stack of at least one distribution to fuse")
    if len(dists.mean) == 1:
        return dists[0]

    precisions = np.maximum(1.0 / dists.var, PRECISION_FLOOR)
    fused_var = 1.0 / precisions.sum(axis=0)
    fused_mean = fused_var * (precisions * dists.mean).sum(axis=0)
    return GaussianDiag(fused_mean, fused_var)


def reparam_sample(mean, var, noise):
    """mu + sqrt(var) * eps with caller-supplied noise; differentiable in
    mean and variance, deterministic given eps."""
    if ad.value_of(mean).shape[-1] != np.asarray(noise).shape[-1]:
        raise ValueError("noise dimension must match the distribution")
    return mean + ad.sqrt(var) * noise


def gaussian_nll(mean, var, target):
    """Sum_i [ log(2 pi var_i) + (target_i - mean_i)^2 / var_i ].

    The proportional form of the Gaussian negative log-likelihood, used
    directly as the training loss; adaptive weighting by the predicted
    variance is what lets occluded inputs train stably.
    """
    if ad.value_of(mean).shape != np.asarray(target).shape:
        raise ValueError("target dimension must match the distribution")
    if isinstance(var, np.ndarray) and np.any(var <= 0):
        raise ValueError("variances must be positive")
    resid = target - mean
    return ad.sum_(ad.log(2.0 * np.pi * var) + ad.square(resid) / var)

