"""Distribution-prediction network and its training losses.

A small convolutional encoder (average-pooled proxy input, three 3x3 stride-2
stages) feeds an MLP with one 512-unit hidden layer and a single output
layer whose width is 2*pose_dim + 2*shape_dim + 6 — 164 for a 24-joint
body. Variance heads pass through a clamped exponential so they are always
strictly positive; the camera scale gets the same treatment.

Training minimizes

    total = nll + lambda_glob * glob + lambda_2d * reproj

where the reprojection term pushes B reparameterized samples from the
predicted distributions through the body model and weak-perspective
projection onto the visible target keypoints (normalized image
coordinates).

Inputs always come from a packed `synth.SynthDataset`: `pooled_from_dataset`
builds the pooled proxies of an index array in separable form, a silhouette
plus each heatmap's row and column profiles, and the encoder's first stage
reads those parts; no dense pooled stack is built. `train` pools each batch
with one call, and `predict_dataset`, the inference entry point, returns one
`PredictionSet` whose fields carry a leading sample axis.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import bodymodel as bm
from . import camera as cr
from .containerio import ContainerError, read_container, write_container
from .gaussians import GaussianDiag, PredictionSet, gaussian_nll, reparam_sample
from .rng import named_rng

LOGVAR_CLAMP = 12.0
LOGSCALE_CLAMP = 6.0
WEIGHTS_VERSION = "1"
PREDICT_CHUNK = 256  # samples per inference forward pass; bounds its memory
KERNEL = 3  # side of every conv stage's square kernel; the stride is always 2


class TrainDivergenceError(RuntimeError):
    """Loss or gradient became non-finite; message carries the batch index
    and weight norm."""


@dataclass
class EncoderConfig:
    """Convolutional feature extractor layout; every stage is a `KERNEL` x
    `KERNEL` (3x3) convolution of stride 2."""

    pool_to: int = 64            # proxy is average-pooled to this square size
    channels: tuple = (8, 16, 32)

    @property
    def feature_dim(self) -> int:
        side = self.pool_to // (2 ** len(self.channels))
        return side * side * self.channels[-1]

    def validate(self):
        if not (isinstance(self.pool_to, int) and self.pool_to > 0
                and isinstance(self.channels, tuple) and self.channels
                and all(isinstance(c, int) and c > 0 for c in self.channels)):
            raise ValueError("need a positive int pooled size and "
                             "a non-empty tuple of positive int channels")
        if self.pool_to % (2 ** len(self.channels)) != 0:
            raise ValueError("pooled size must survive the stride-2 stages")
        if self.feature_dim < 32:
            raise ValueError("encoder feature dimension must be at least 32")


@dataclass
class TrainConfig:
    """Adam training hyperparameters (desk-scale defaults)."""

    learning_rate: float = 1e-4
    batch_size: int = 32
    epochs: int = 50
    lambda_glob: float = 1.0
    lambda_2d: float = 0.01
    reproj_samples: int = 8    # reparameterized draws per example
    seed: int = 0

    def validate(self):
        rate = self.learning_rate
        if not (isinstance(rate, (int, float)) and not isinstance(rate, bool)
                and np.isfinite(rate) and rate > 0):
            raise ValueError(f"learning rate must be a finite positive number, got {rate!r}")
        for name in ("batch_size", "epochs", "reproj_samples"):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
                    and value > 0):
                raise ValueError(f"{name} must be a positive int, got {value!r}")


def _conv_indices(h, w, c_in):
    """Stride-2 patch-gather indices into a flattened (H*W*C + 1) layout;
    index H*W*C is the zero-padding sentinel."""
    # the kernel is centred on every second input pixel
    rows = np.arange(0, h, 2)[:, None] + np.arange(KERNEL) - KERNEL // 2  # (out_h, KERNEL)
    cols = np.arange(0, w, 2)[:, None] + np.arange(KERNEL) - KERNEL // 2  # (out_w, KERNEL)
    # axes (output row, output column, kernel row, kernel column, channel)
    ir, ic = rows[:, None, :, None, None], cols[None, :, None, :, None]
    inside = (ir >= 0) & (ir < h) & (ic >= 0) & (ic < w)
    idx = np.where(inside, (ir * w + ic) * c_in + np.arange(c_in), h * w * c_in)
    return idx.reshape(len(rows) * len(cols), -1).astype(np.int64), len(rows), len(cols)


def _profile_taps(profiles: np.ndarray) -> np.ndarray:
    """(B, L, P) profiles -> (B, L, P/2, KERNEL) taps of the stride-2
    kernel: entry (i, a) is the profile at 2i + a - KERNEL//2, zero outside."""
    pad = KERNEL // 2
    padded = np.pad(profiles, ((0, 0), (0, 0), (pad, pad)))
    return padded[..., np.arange(0, profiles.shape[-1], 2)[:, None] + np.arange(KERNEL)]


def elu(x):
    xv = ad.value_of(x)
    return ad.where(xv > 0, x, ad.exp(ad.clamp(x, hi=0.0)) - 1.0)


class PredictorNet:
    """Weights plus layout; immutable shapes, mutable parameter values."""

    def __init__(self, pose_dim: int, shape_dim: int, in_channels: int,
                 encoder: EncoderConfig = None, hidden: int = 512, seed: int = 0):
        encoder = encoder or EncoderConfig()
        encoder.validate()
        if min(pose_dim, shape_dim, in_channels, hidden) <= 0:
            raise ValueError("pose, shape, input channel and hidden sizes must be positive")
        self.pose_dim = pose_dim
        self.shape_dim = shape_dim
        self.in_channels = in_channels
        self.encoder = encoder
        self.hidden = hidden

        # weights and the static gather index table of each conv stage; stage
        # 0 gathers the silhouette alone, since the heatmaps stay separable
        self.params: dict[str, np.ndarray] = {}
        self._conv_tables = []
        c_prev, side = in_channels, encoder.pool_to
        for i, c_out in enumerate(encoder.channels):
            fan_in = KERNEL * KERNEL * c_prev
            rng = named_rng(seed, "init", f"conv{i}")
            self.params[f"conv{i}_w"] = rng.normal(0, np.sqrt(2.0 / fan_in), (fan_in, c_out))
            self.params[f"conv{i}_b"] = np.zeros(c_out)
            idx, side, _ = _conv_indices(side, side, c_prev if i else 1)
            self._conv_tables.append(idx)
            c_prev = c_out
        rng = named_rng(seed, "init", "dense0")
        self.params["dense0_w"] = rng.normal(
            0, np.sqrt(2.0 / encoder.feature_dim), (encoder.feature_dim, hidden)
        )
        self.params["dense0_b"] = np.zeros(hidden)
        rng = named_rng(seed, "init", "dense1")
        self.params["dense1_w"] = rng.normal(0, 0.01, (hidden, self.output_dim))
        self.params["dense1_b"] = np.zeros(self.output_dim)

    @classmethod
    def for_model(cls, model: bm.BodyModel, encoder: EncoderConfig = None,
                  hidden: int = 512, seed: int = 0) -> "PredictorNet":
        return cls(model.pose_dim, model.shape_dim, model.num_keypoints + 1,
                   encoder, hidden, seed)

    @property
    def output_dim(self) -> int:
        return 2 * self.pose_dim + 2 * self.shape_dim + 6

    def head_slices(self) -> dict:
        p, s = self.pose_dim, self.shape_dim
        return {
            "pose_mean": slice(0, p),
            "pose_logvar": slice(p, 2 * p),
            "shape_mean": slice(2 * p, 2 * p + s),
            "shape_logvar": slice(2 * p + s, 2 * p + 2 * s),
            "glob": slice(2 * p + 2 * s, 2 * p + 2 * s + 3),
            "camera": slice(2 * p + 2 * s + 3, 2 * p + 2 * s + 6),
        }

    # ---- forward ---------------------------------------------------------

    def raw_outputs(self, pooled: PooledProxy, params: dict = None):
        """Encoder + MLP on a batch of pooled proxies -> (B, out_dim).

        Stage 0 never forms the dense (B, P, P, L+1) stack: it adds to the
        silhouette channel's convolution a heatmap term. With R3[b, l, i, a]
        and C3[b, l, j, c] the zero-padded row and column profiles at the
        taps 2i + a and 2j + c, channel 1 + l adds sum_{a,c} R3 C3 W[a, c, 1 + l]:
        the blocks T[b, l, a] = C3[b, l] @ W[a, :, 1 + l] are one broadcast
        batched product, then one batched GEMM of R3 with T sums over (l, a).

        `params` may map names to tape nodes for differentiable evaluation;
        defaults to the stored numpy weights.
        """
        if params is None:
            params = self.params
        sil, rows, cols = pooled
        B, P, L, k = sil.shape[0], self.encoder.pool_to, self.in_channels - 1, KERNEL
        if sil.shape != (B, P, P) or rows.shape != (B, L, P) or cols.shape != (B, L, P):
            raise ValueError(f"expected a pooled silhouette (B, {P}, {P}) and "
                             f"row and column profiles (B, {L}, {P})")
        n, c0 = P // 2, self.encoder.channels[0]
        w0 = ad.reshape(params["conv0_w"], (k, k, L + 1, c0))
        # (B, L, 1, n, k) @ (L, k, k, c0) -> (B, L, k, n, c0): 14x an einsum's speed
        t = ad.matmul(_profile_taps(cols)[:, :, None],
                      ad.einsum("aclo->laco", w0[:, :, 1:, :]))
        r3 = _profile_taps(rows).transpose(0, 2, 1, 3).reshape(B, n, L * k)
        heat = ad.reshape(ad.matmul(r3, ad.reshape(t, (B, L * k, n * c0))), (B, n * n, c0))
        weights = [ad.reshape(w0[:, :, 0, :], (k * k, c0))]
        weights += [params[f"conv{i}_w"] for i in range(1, len(self.encoder.channels))]
        x = sil.reshape(B, -1)
        for i, w in enumerate(weights):
            # (B, patches, patch size), C-ordered so the product is one GEMM
            patches = ad.take(ad.concat([x, np.zeros((B, 1))], axis=1), self._conv_tables[i], 1)
            out = ad.matmul(patches, w) + params[f"conv{i}_b"]
            x = ad.reshape(elu(out + heat if i == 0 else out), (B, -1))
        h = elu(ad.matmul(x, params["dense0_w"]) + params["dense0_b"])
        return ad.matmul(h, params["dense1_w"]) + params["dense1_b"]

    def heads(self, pooled: PooledProxy, params: dict = None) -> dict:
        """Named output heads with positivity maps applied to the variances
        and the camera scale."""
        raw = self.raw_outputs(pooled, params)
        sl = self.head_slices()
        pose_var = ad.exp(ad.clamp(raw[:, sl["pose_logvar"]], -LOGVAR_CLAMP, LOGVAR_CLAMP))
        shape_var = ad.exp(ad.clamp(raw[:, sl["shape_logvar"]], -LOGVAR_CLAMP, LOGVAR_CLAMP))
        cam_raw = raw[:, sl["camera"]]
        cam_scale = ad.exp(ad.clamp(cam_raw[:, 0:1], -LOGSCALE_CLAMP, LOGSCALE_CLAMP))
        camera = ad.concat([cam_scale, cam_raw[:, 1:3]], axis=1)
        return {
            "pose_mean": raw[:, sl["pose_mean"]],
            "pose_var": pose_var,
            "shape_mean": raw[:, sl["shape_mean"]],
            "shape_var": shape_var,
            "glob": raw[:, sl["glob"]],
            "camera": camera,
        }


class PooledProxy(NamedTuple):
    """Block-mean proxy input in separable form: pooled heatmap l is the outer
    product of `rows[..., l, :]` and `cols[..., l, :]`."""

    silhouette: np.ndarray  # (..., P, P)
    rows: np.ndarray        # (..., L, P)
    cols: np.ndarray        # (..., L, P)


def pooled_from_dataset(dataset, indices, pool_to: int) -> PooledProxy:
    """Pooled proxies of an int or an index array, straight from packed
    dataset arrays, in the separable form the encoder reads: the block mean
    of an outer product of profiles is the outer product of their block
    means, so no heatmap is drawn, at full or at pooled resolution."""
    size = dataset.image_size
    if size % pool_to:
        raise ValueError(f"image size {size} not divisible by pooled size {pool_to}")
    f = size // pool_to
    rows, cols = cr.heatmap_profiles(
        dataset.arrays["joints2d"][indices], dataset.arrays["visibility"][indices], size, size
    )
    lead, L = rows.shape[:-2], rows.shape[-2]
    # block sums of the 0/1 silhouette are exact integers, so summing rows and
    # then columns gives the block mean's bits at a third of its cost
    sil = dataset.silhouette(indices).reshape(lead + (pool_to, f, size))
    row_sums = sil.sum(axis=-2, dtype=np.int64).reshape(lead + (pool_to, pool_to, f))
    return PooledProxy(row_sums.sum(axis=-1) / (f * f),
                       rows.reshape(lead + (L, pool_to, f)).mean(axis=-1),
                       cols.reshape(lead + (L, pool_to, f)).mean(axis=-1))


def predict_dataset(net: PredictorNet, dataset) -> PredictionSet:
    """Predictions for every dataset sample, in index order, as one
    `PredictionSet` with a leading sample axis (deterministic, variances > 0)."""
    n = len(dataset)
    chunks = [
        net.heads(pooled_from_dataset(dataset, np.arange(start, min(start + PREDICT_CHUNK, n)),
                                      net.encoder.pool_to))
        for start in range(0, n, PREDICT_CHUNK)
    ]
    heads = {k: np.concatenate([c[k] for c in chunks]) for k in chunks[0]}
    return PredictionSet(GaussianDiag(heads["pose_mean"], heads["pose_var"]),
                         GaussianDiag(heads["shape_mean"], heads["shape_var"]),
                         heads["glob"], heads["camera"])


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def reduced_for_keypoints(model: bm.BodyModel) -> bm.BodyModel:
    """Slice the model down to the vertices the keypoint and skeleton
    regressors actually touch; keypoint outputs are unchanged, the LBS pass
    inside the reprojection loss gets much cheaper."""
    support = np.flatnonzero(
        (model.joint_regressor > 0).any(axis=0) | (model.skeleton_regressor > 0).any(axis=0)
    )
    return dataclasses.replace(
        model,
        template_vertices=model.template_vertices[support],
        shape_basis=model.shape_basis[support],
        faces=np.zeros((0, 3), dtype=np.int64),
        joint_regressor=model.joint_regressor[:, support],
        skeleton_regressor=model.skeleton_regressor[:, support],
        skinning_weights=model.skinning_weights[support],
        part_labels=model.part_labels[support],
        meta=dict(model.meta),
    )


def loss_glob(pred_glob, target_glob):
    """Squared Frobenius distance between the two rotation matrices."""
    diff = bm.rodrigues(target_glob) - bm.rodrigues(pred_glob)
    return ad.sum_(ad.square(diff))


def loss_reproj_batch(heads: dict, model: bm.BodyModel, joints_norm: np.ndarray,
                      visibility: np.ndarray, noise_pose: np.ndarray,
                      noise_shape: np.ndarray):
    """Sum over examples and reparameterized draws of the masked squared
    keypoint reprojection error (normalized image coordinates).

    `model` should be the keypoint-reduced model for speed; noise arrays
    have shape (B, n_draws, dim) and are supplied by the caller so the
    estimator stays deterministic and differentiable.
    """
    B, S, P = noise_pose.shape
    sdim = noise_shape.shape[2]
    L = joints_norm.shape[1]

    pose_s = reparam_sample(heads["pose_mean"][:, None, :], heads["pose_var"][:, None, :],
                            noise_pose)
    shape_s = reparam_sample(heads["shape_mean"][:, None, :], heads["shape_var"][:, None, :],
                             noise_shape)
    glob_tiled = heads["glob"][:, None, :] + np.zeros((1, S, 1))

    verts = bm.lbs_vertices(
        model,
        ad.reshape(pose_s, (B * S, P)),
        ad.reshape(shape_s, (B * S, sdim)),
        ad.reshape(glob_tiled, (B * S, 3)),
    )
    joints3d = bm.regress_joints(model, verts)                   # (B*S, L, 3)
    projected = cr.project_weak(ad.reshape(joints3d, (B, S, L, 3)), heads["camera"])

    mask = visibility.astype(np.float64)[:, None, :, None]
    diff = (joints_norm[:, None, :, :] - projected) * mask
    return ad.sum_(ad.square(diff))


def loss_total_batch(heads: dict, targets: dict, model_reduced: bm.BodyModel,
                     cfg: TrainConfig, noise_pose: np.ndarray, noise_shape: np.ndarray):
    """Per-batch mean of nll + lambda_glob * glob + lambda_2d * reproj.

    Returns (total, dict of detached component means).
    """
    B = targets["theta"].shape[0]
    nll = gaussian_nll(heads["pose_mean"], heads["pose_var"], targets["theta"]) + gaussian_nll(
        heads["shape_mean"], heads["shape_var"], targets["beta"]
    )
    glob = loss_glob(heads["glob"], targets["glob"])
    total = nll + cfg.lambda_glob * glob
    if cfg.lambda_2d != 0.0:
        reproj = loss_reproj_batch(
            heads, model_reduced, targets["joints_norm"], targets["visibility"],
            noise_pose, noise_shape,
        )
        total = total + cfg.lambda_2d * reproj
    else:
        reproj = 0.0
    total = total / float(B)
    parts = {
        "nll": float(ad.value_of(nll)) / B,
        "glob": float(ad.value_of(glob)) / B,
        "reproj": float(ad.value_of(reproj)) / B,
        "total": float(ad.value_of(total)),
    }
    return total, parts


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    def __init__(self, params: dict):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: dict, grads: dict, lr: float):
        self.t += 1
        correction1 = 1.0 - ADAM_BETA1**self.t
        correction2 = 1.0 - ADAM_BETA2**self.t
        for k, g in grads.items():
            # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
            # p - lr (m / c1) / (sqrt(v / c2) + eps), operation for operation,
            # so the bits match the out-of-place formula; the moments change
            # in place, the gradient is only read, the parameter is a new array
            m, v = self.m[k], self.v[k]
            scratch = np.multiply(1 - ADAM_BETA1, g)
            m *= ADAM_BETA1
            m += scratch
            np.multiply(1 - ADAM_BETA2, g, out=scratch)
            scratch *= g
            v *= ADAM_BETA2
            v += scratch
            denominator = np.divide(v, correction2, out=scratch)
            np.sqrt(denominator, out=denominator)
            denominator += ADAM_EPS
            step = np.divide(m, correction1)
            step *= lr
            step /= denominator
            params[k] = np.subtract(params[k], step, out=step)


def _require_finite(finite: bool, what: str, epoch: int, step: int, params: dict) -> None:
    if not finite:
        norm = np.sqrt(sum(float((v**2).sum()) for v in params.values()))
        raise TrainDivergenceError(f"non-finite {what} at epoch {epoch} batch {step}; "
                                   f"parameter norm {norm:.3e}")


def train(net: PredictorNet, dataset, cfg: TrainConfig, model: bm.BodyModel,
          start_epoch: int = 0, optimizer: AdamState = None) -> list:
    """Adam training over a `synth.SynthDataset`; returns per-epoch loss
    log rows.

    Deterministic given cfg.seed: shuffling, reparameterization noise and
    initialization all derive from named substreams. A non-finite loss or
    gradient aborts with the failing batch index and current weight norm.
    """
    cfg.validate()
    if not (isinstance(start_epoch, (int, np.integer)) and start_epoch >= 0):
        raise ValueError(f"start_epoch must be an int >= 0, got {start_epoch!r}")
    n = len(dataset)
    n_batches = len(range(0, n, cfg.batch_size))
    arrays = dataset.arrays
    size = dataset.image_size
    reduced = reduced_for_keypoints(model)
    optimizer = optimizer or AdamState(net.params)

    log = []
    for epoch in range(start_epoch, cfg.epochs):
        order = named_rng(cfg.seed, "shuffle", epoch).permutation(n)
        sums = {"total": 0.0, "nll": 0.0, "glob": 0.0, "reproj": 0.0}
        for step, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            pooled = pooled_from_dataset(dataset, idx, net.encoder.pool_to)
            targets = {
                "theta": arrays["theta"][idx],
                "beta": arrays["beta"][idx],
                "glob": arrays["glob"][idx],
                "joints_norm": cr.normalize_pixels(arrays["joints2d"][idx], size, size),
                "visibility": arrays["visibility"][idx].astype(np.int64),
            }

            noise_rng = named_rng(cfg.seed, "noise", epoch, step)
            noise_pose, noise_shape = (noise_rng.standard_normal((len(idx), cfg.reproj_samples, d))
                                       for d in (net.pose_dim, net.shape_dim))

            tape = ad.Tape()
            leaves = {k: tape.variable(v) for k, v in net.params.items()}
            heads = net.heads(pooled, leaves)
            total, parts = loss_total_batch(heads, targets, reduced, cfg,
                                            noise_pose, noise_shape)
            _require_finite(np.isfinite(parts["total"]), "loss", epoch, step, net.params)
            grads = ad.gradient(total, list(leaves.values()))
            _require_finite(all(np.isfinite(g).all() for g in grads), "gradient", epoch, step,
                            net.params)
            optimizer.step(net.params, dict(zip(leaves.keys(), grads)), cfg.learning_rate)
            # nodes point at their tape and the tape lists its nodes; breaking
            # that cycle lets reference counting free the step's tape
            tape.nodes.clear()

            for k in sums:
                sums[k] += parts[k]
        log.append({"epoch": epoch, **{k: v / n_batches for k, v in sums.items()}})
    return log


# ---------------------------------------------------------------------------
# weight serialization
# ---------------------------------------------------------------------------

def save_weights(path, net: PredictorNet, optimizer: AdamState = None,
                 epoch: int = 0) -> None:
    arrays = {f"param/{k}": v for k, v in net.params.items()}
    if optimizer is not None:
        arrays.update({f"adam_m/{k}": v for k, v in optimizer.m.items()})
        arrays.update({f"adam_v/{k}": v for k, v in optimizer.v.items()})
    meta = {
        "weights_version": WEIGHTS_VERSION,
        "pose_dim": net.pose_dim,
        "shape_dim": net.shape_dim,
        "in_channels": net.in_channels,
        "hidden": net.hidden,
        "encoder": dataclasses.asdict(net.encoder),
        "adam_t": optimizer.t if optimizer is not None else 0,
        "epoch": int(epoch),
    }
    write_container(path, "weights", arrays, meta)


def load_weights(path):
    """Returns (net, optimizer or None, meta); validates version and shapes.
    An old encoder `kernel` key is ignored; another kernel fails the shape check."""
    arrays, meta = read_container(path, expected_kind="weights")
    if meta.get("weights_version") != WEIGHTS_VERSION:
        raise ContainerError(f"{path}: unsupported weights version")
    try:
        enc = meta["encoder"]
        net = PredictorNet(
            pose_dim=int(meta["pose_dim"]),
            shape_dim=int(meta["shape_dim"]),
            in_channels=int(meta["in_channels"]),
            encoder=EncoderConfig(pool_to=int(enc["pool_to"]), channels=tuple(enc["channels"])),
            hidden=int(meta["hidden"]),
        )
        adam_t = meta["adam_t"]
        if type(adam_t) is not int or adam_t < 0:
            raise ValueError(f"adam_t must be a non-negative int, got {adam_t!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ContainerError(f"{path}: malformed network layout ({exc!r})") from exc
    for k in net.params:
        key = f"param/{k}"
        if key not in arrays or arrays[key].shape != net.params[k].shape:
            raise ContainerError(f"{path}: parameter {k} missing or misshapen")
        net.params[k] = arrays[key]
    optimizer = None
    if any(k.startswith("adam_m/") for k in arrays):
        optimizer = AdamState(net.params)
        for k in net.params:
            for key, moments in ((f"adam_m/{k}", optimizer.m), (f"adam_v/{k}", optimizer.v)):
                if key not in arrays or arrays[key].shape != net.params[k].shape:
                    raise ContainerError(f"{path}: optimizer state {key} missing or misshapen")
                moments[k] = arrays[key]
        optimizer.t = adam_t
    return net, optimizer, meta
