"""Distribution-prediction network and its training losses.

A small convolutional encoder (average-pooled proxy input, three 3x3 stride-2
stages) feeds an MLP with one 512-unit hidden layer and a single output
layer, whose width is the sum of the head widths in `head_widths` — 164 for
a 24-joint body. Every hidden activation is an ELU, the one `autodiff.elu`
primitive. Variance heads pass through a clamped exponential so they are
always strictly positive; the camera scale gets the same treatment.

Training minimizes

    total = nll + lambda_glob * glob + lambda_2d * reproj

where the reprojection term pushes B reparameterized samples from the
predicted distributions through the body model and weak-perspective
projection onto the visible target keypoints (normalized image
coordinates), posed by `bm.posed_keypoints`.

Inputs always come from a packed `synth.SynthDataset`: `pooled_from_dataset`
builds the pooled proxies of an index array in separable form, a silhouette
plus each heatmap's row and column profiles, and the encoder's first stage
reads those parts; no dense pooled stack is built, and no full-resolution
float array. `train` pools each batch with one call, and `predict_dataset`,
the inference entry point, returns one `PredictionSet` whose fields carry
a leading sample axis.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import bodymodel as bm
from . import camera as cr
from .containerio import ContainerError, read_container, write_container
from .gaussians import GaussianDiag, PredictionSet, gaussian_nll, reparam_sample
from .rng import named_rng
from .scalars import check_int, check_positive, is_int, is_real

LOGVAR_CLAMP = 12.0
LOGSCALE_CLAMP = 6.0
WEIGHTS_VERSION = "1"
PREDICT_CHUNK = 256  # samples per inference forward pass; bounds its memory
KERNEL = 3  # side of every conv stage's square kernel; the stride is always 2


class TrainDivergenceError(RuntimeError):
    """Loss or gradient became non-finite; message carries the batch index
    and weight norm."""


@dataclass(frozen=True)
class EncoderConfig:
    """Convolutional feature extractor layout; every stage is a `KERNEL` x
    `KERNEL` (3x3) convolution of stride 2; frozen, checked when built."""

    pool_to: int = 64            # proxy is average-pooled to this square size
    channels: tuple = (8, 16, 32)

    @property
    def feature_dim(self) -> int:
        side = self.pool_to // (2 ** len(self.channels))
        return side * side * self.channels[-1]

    def __post_init__(self):
        if not (is_int(self.pool_to) and self.pool_to > 0
                and isinstance(self.channels, tuple) and self.channels
                and all(is_int(c) and c > 0 for c in self.channels)):
            raise ValueError("need a positive int pooled size and "
                             "a non-empty tuple of positive int channels")
        if self.pool_to % (2 ** len(self.channels)) != 0:
            raise ValueError("pooled size must survive the stride-2 stages")
        if self.feature_dim < 32:
            raise ValueError("encoder feature dimension must be at least 32")


@dataclass(frozen=True)
class TrainConfig:
    """Adam training hyperparameters (desk-scale defaults); frozen, checked when built."""

    learning_rate: float = 1e-4
    batch_size: int = 32
    epochs: int = 50
    lambda_glob: float = 1.0
    lambda_2d: float = 0.01
    reproj_samples: int = 8    # reparameterized draws per example
    seed: int = 0

    def __post_init__(self):
        check_positive("learning rate", self.learning_rate)
        for name in ("batch_size", "epochs", "reproj_samples"):
            check_int(name, getattr(self, name), 1)
        check_int("seed", self.seed)
        for name in ("lambda_glob", "lambda_2d"):
            weight = getattr(self, name)
            if not (is_real(weight) and weight >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {weight!r}")


def _conv_indices(side, c_in):
    """Stride-2 patch-gather indices into a flattened (S*S*C + 1) layout, and
    the output side; index S*S*C is the zero-padding sentinel."""
    # the kernel is centred on every second input pixel
    taps = np.arange(0, side, 2)[:, None] + np.arange(KERNEL) - KERNEL // 2  # (out, KERNEL)
    # axes (output row, output column, kernel row, kernel column, channel)
    ir, ic = taps[:, None, :, None, None], taps[None, :, None, :, None]
    inside = (ir >= 0) & (ir < side) & (ic >= 0) & (ic < side)
    idx = np.where(inside, (ir * side + ic) * c_in + np.arange(c_in), side * side * c_in)
    return idx.reshape(len(taps) ** 2, -1).astype(np.int64), len(taps)


def head_widths(pose_dim: int, shape_dim: int) -> dict:
    """Name -> width of each output head, in the output layer's order: the
    one statement of that layout, which `PredictorNet.heads` slices."""
    return {"pose_mean": pose_dim, "pose_logvar": pose_dim, "shape_mean": shape_dim,
            "shape_logvar": shape_dim, "glob": 3, "camera": 3}


def _param_shapes(pose_dim: int, shape_dim: int, in_channels: int, encoder: EncoderConfig,
                 hidden: int) -> dict:
    """Name -> shape of every parameter of a network layout, in the order
    the network initialises them and a weights file stores them; allocates
    nothing. ValueError unless the four sizes are positive ints."""
    if not all(is_int(d) and d > 0 for d in (pose_dim, shape_dim, in_channels, hidden)):
        raise ValueError("pose, shape, input channel and hidden sizes must be positive ints")
    shapes = {}
    for i, (c_in, c_out) in enumerate(zip((in_channels,) + encoder.channels, encoder.channels)):
        shapes[f"conv{i}_w"], shapes[f"conv{i}_b"] = (KERNEL * KERNEL * c_in, c_out), (c_out,)
    out = sum(head_widths(pose_dim, shape_dim).values())
    shapes.update(dense0_w=(encoder.feature_dim, hidden), dense0_b=(hidden,),
                  dense1_w=(hidden, out), dense1_b=(out,))
    return shapes


def _profile_taps(profiles: np.ndarray) -> np.ndarray:
    """(B, L, P) profiles -> (B, L, P/2, KERNEL) taps of the stride-2
    kernel: entry (i, a) is the profile at 2i + a - KERNEL//2, zero outside."""
    pad = KERNEL // 2
    padded = np.pad(profiles, ((0, 0), (0, 0), (pad, pad)))
    return padded[..., np.arange(0, profiles.shape[-1], 2)[:, None] + np.arange(KERNEL)]


class PredictorNet:
    """Weights plus layout; immutable shapes, mutable parameter values."""

    def __init__(self, pose_dim: int, shape_dim: int, in_channels: int,
                 encoder: EncoderConfig, hidden: int, params: dict):
        """Keeps `params` (laid out by `_param_shapes`) as given: `for_model`
        draws them, `load_weights` checks a file's."""
        self.pose_dim = pose_dim
        self.shape_dim = shape_dim
        self.in_channels = in_channels
        self.encoder = encoder
        self.hidden = hidden
        self.params: dict[str, np.ndarray] = params
        # the static gather index table of each conv stage; stage 0 gathers
        # the silhouette alone, since the heatmaps stay separable
        self._conv_tables, side = [], encoder.pool_to
        for c_in in (1,) + encoder.channels[:-1]:
            idx, side = _conv_indices(side, c_in)
            self._conv_tables.append(idx)

    @classmethod
    def for_model(cls, model: bm.BodyModel, encoder: EncoderConfig = None,
                  hidden: int = 512, seed: int = 0) -> "PredictorNet":
        """A freshly initialised network for `model`'s sizes."""
        layout = (model.pose_dim, model.shape_dim, model.num_keypoints + 1,
                  encoder or EncoderConfig(), hidden)
        # each layer draws from its own substream; the output layer starts small
        params = {}
        for name, shape in _param_shapes(*layout).items():
            layer, kind = name.rsplit("_", 1)
            if kind == "b":
                params[name] = np.zeros(shape)
            else:
                std = 0.01 if name == "dense1_w" else np.sqrt(2.0 / shape[0])
                params[name] = named_rng(seed, "init", layer).normal(0, std, shape)
        return cls(*layout, params)

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
            x = ad.reshape(ad.elu(out + heat if i == 0 else out), (B, -1))
        h = ad.elu(ad.matmul(x, params["dense0_w"]) + params["dense0_b"])
        return ad.matmul(h, params["dense1_w"]) + params["dense1_b"]

    def heads(self, pooled: PooledProxy, params: dict = None) -> dict:
        """Named output heads with positivity maps applied to the variances
        and the camera scale."""
        raw = self.raw_outputs(pooled, params)
        widths = head_widths(self.pose_dim, self.shape_dim)
        out = {name: raw[:, end - width:end]
               for (name, width), end in zip(widths.items(), accumulate(widths.values()))}
        cam_scale = ad.exp(ad.clamp(out["camera"][:, 0:1], -LOGSCALE_CLAMP, LOGSCALE_CLAMP))
        return {
            "pose_mean": out["pose_mean"],
            "pose_var": ad.exp(ad.clamp(out["pose_logvar"], -LOGVAR_CLAMP, LOGVAR_CLAMP)),
            "shape_mean": out["shape_mean"],
            "shape_var": ad.exp(ad.clamp(out["shape_logvar"], -LOGVAR_CLAMP, LOGVAR_CLAMP)),
            "glob": out["glob"],
            "camera": ad.concat([cam_scale, out["camera"][:, 1:3]], axis=1),
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
    means, so no heatmap is drawn, at full or at pooled resolution.
    ValueError unless `pool_to` is an int of at least 1 that divides the
    image size (`camera.heatmap_profiles` checks it)."""
    size = dataset.image_size
    rows, cols = cr.heatmap_profiles(dataset.arrays["joints2d"][indices],
                                     dataset.arrays["visibility"][indices], size, pool_to)
    # block sums of the 0/1 silhouette are exact in the narrowest integer
    # that holds f^2: f strided adds of rows, then f of columns, then one
    # division, so the bits are those of the block mean
    f = size // pool_to
    sil = dataset.silhouette(indices)
    row_sums = sil[..., ::f, :].astype(np.min_scalar_type(f * f))
    for k in range(1, f):
        row_sums += sil[..., k::f, :]
    sums = row_sums[..., ::f].copy()
    for k in range(1, f):
        sums += row_sums[..., k::f]
    return PooledProxy(sums / float(f * f), rows, cols)


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

def loss_glob(pred_glob, target_glob):
    """Squared Frobenius distance between the two rotation matrices."""
    diff = bm.rodrigues(target_glob) - bm.rodrigues(pred_glob)
    return ad.sum_(ad.square(diff))


def loss_reproj_batch(heads: dict, model: bm.BodyModel, joints_norm: np.ndarray,
                      visibility: np.ndarray, noise_pose: np.ndarray,
                      noise_shape: np.ndarray):
    """Sum over examples and reparameterized draws of the masked squared
    keypoint reprojection error (normalized image coordinates).

    The drawn bodies' keypoints are posed by `bm.posed_keypoints`;
    noise arrays have shape (B, n_draws, dim) and are supplied by the
    caller so the estimator stays deterministic and differentiable.
    """
    B, S, P = noise_pose.shape
    sdim = noise_shape.shape[2]
    L = joints_norm.shape[1]

    pose_s = reparam_sample(heads["pose_mean"][:, None, :], heads["pose_var"][:, None, :],
                            noise_pose)
    shape_s = reparam_sample(heads["shape_mean"][:, None, :], heads["shape_var"][:, None, :],
                             noise_shape)
    glob_tiled = heads["glob"][:, None, :] + np.zeros((1, S, 1))

    joints3d = bm.posed_keypoints(                               # (B*S, L, 3)
        model,
        ad.reshape(pose_s, (B * S, P)),
        ad.reshape(shape_s, (B * S, sdim)),
        ad.reshape(glob_tiled, (B * S, 3)),
    )
    projected = cr.project_weak(ad.reshape(joints3d, (B, S, L, 3)), heads["camera"])

    mask = visibility.astype(np.float64)[:, None, :, None]
    diff = (joints_norm[:, None, :, :] - projected) * mask
    return ad.sum_(ad.square(diff))


def loss_total_batch(heads: dict, targets: dict, model: bm.BodyModel,
                     cfg: TrainConfig, noise_pose: np.ndarray, noise_shape: np.ndarray):
    """Per-batch mean of nll + lambda_glob * glob + lambda_2d * reproj;
    every term is computed whatever its weight.

    Returns (total, dict of detached component means).
    """
    B = targets["theta"].shape[0]
    nll = gaussian_nll(heads["pose_mean"], heads["pose_var"], targets["theta"]) + gaussian_nll(
        heads["shape_mean"], heads["shape_var"], targets["beta"]
    )
    glob = loss_glob(heads["glob"], targets["glob"])
    reproj = loss_reproj_batch(heads, model, targets["joints_norm"], targets["visibility"],
                               noise_pose, noise_shape)
    total = (nll + cfg.lambda_glob * glob + cfg.lambda_2d * reproj) / float(B)
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
# elements per block of `AdamState.step`: a block's operands stay in cache
# across all of its passes
ADAM_BLOCK = 1 << 14


class AdamState:
    def __init__(self, params: dict):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: dict, grads: dict, lr: float):
        self.t += 1
        correction1 = 1.0 - ADAM_BETA1**self.t
        correction2 = 1.0 - ADAM_BETA2**self.t
        scratch = np.empty(ADAM_BLOCK)
        for k, g in grads.items():
            # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
            # p - lr (m / c1) / (sqrt(v / c2) + eps), operation for operation,
            # so the bits match the out-of-place formula; the moments (C-ordered,
            # so their flat forms are views) change in place, the gradient is
            # only read, the parameter is a new array. Each block of elements
            # takes every pass before the next block starts.
            m, v, g, p = (a.reshape(-1) for a in (self.m[k], self.v[k], g, params[k]))
            new = np.empty(params[k].shape)
            out = new.reshape(-1)
            for lo in range(0, m.size, ADAM_BLOCK):
                block = slice(lo, lo + ADAM_BLOCK)
                mb, vb, gb, step = m[block], v[block], g[block], out[block]
                s = scratch[:len(gb)]
                np.multiply(1 - ADAM_BETA1, gb, out=s)
                mb *= ADAM_BETA1
                mb += s
                np.multiply(1 - ADAM_BETA2, gb, out=s)
                s *= gb
                vb *= ADAM_BETA2
                vb += s
                np.divide(vb, correction2, out=s)
                np.sqrt(s, out=s)
                s += ADAM_EPS
                np.divide(mb, correction1, out=step)
                step *= lr
                step /= s
                np.subtract(p[block], step, out=step)
            params[k] = new


def check_label_widths(dataset, model: bm.BodyModel) -> None:
    """ValueError unless the dataset's `theta` and `beta` are as wide as the
    model's `pose_dim` and `shape_dim`; `train` and `metrics.evaluate` check
    this before they predict or step."""
    for name, width in (("theta", model.pose_dim), ("beta", model.shape_dim)):
        got = dataset.arrays[name].shape[1]
        if got != width:
            raise ValueError(f"dataset {name} has width {got}, the body model needs {width}")


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
    ValueError, before any step, unless the dataset's label widths fit the
    model (`check_label_widths`).
    """
    check_int("start_epoch", start_epoch, 0)
    check_label_widths(dataset, model)
    n = len(dataset)
    n_batches = len(range(0, n, cfg.batch_size))
    arrays = dataset.arrays
    size = dataset.image_size
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
                "joints_norm": cr.normalize_pixels(arrays["joints2d"][idx], size),
                "visibility": arrays["visibility"][idx].astype(np.int64),
            }

            noise_rng = named_rng(cfg.seed, "noise", epoch, step)
            noise_pose, noise_shape = (noise_rng.standard_normal((len(idx), cfg.reproj_samples, d))
                                       for d in (net.pose_dim, net.shape_dim))

            tape = ad.Tape()
            leaves = {k: tape.variable(v) for k, v in net.params.items()}
            heads = net.heads(pooled, leaves)
            total, parts = loss_total_batch(heads, targets, model, cfg, noise_pose, noise_shape)
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
    check_int("epoch", epoch, 0)
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
    """Returns (net, optimizer or None, meta). The version, the layout, the
    epoch and every array's name and shape are checked before the network is
    built from the file's arrays; layout values reach the checks unconverted,
    so a float size fails.
    An old encoder `kernel` key is ignored; another kernel fails the shape check."""
    arrays, meta = read_container(path, expected_kind="weights")
    if meta.get("weights_version") != WEIGHTS_VERSION:
        raise ContainerError(f"{path}: unsupported weights version")
    try:
        enc = meta["encoder"]
        layout = (meta["pose_dim"], meta["shape_dim"], meta["in_channels"],
                  EncoderConfig(enc["pool_to"], tuple(enc["channels"])), meta["hidden"])
        shapes = _param_shapes(*layout)
        for key in ("adam_t", "epoch"):
            check_int(key, meta[key], 0)
    except (KeyError, TypeError, ValueError) as exc:
        raise ContainerError(f"{path}: malformed network layout ({exc!r})") from exc
    # any array besides the parameters means a saved optimizer: both moments of each
    optimized = not all(k.startswith("param/") for k in arrays)
    groups = ("param", "adam_m", "adam_v") if optimized else ("param",)
    expected = {f"{g}/{k}": shape for g in groups for k, shape in shapes.items()}
    unexpected = sorted(set(arrays) - set(expected))
    if unexpected:
        raise ContainerError(f"{path}: unexpected arrays {unexpected}")
    for key, shape in expected.items():
        if key not in arrays or arrays[key].shape != shape or arrays[key].dtype != np.float64:
            raise ContainerError(f"{path}: {key} missing or misshapen (want float64 {shape})")
    net = PredictorNet(*layout, {k: arrays[f"param/{k}"] for k in shapes})
    optimizer = None
    if optimized:
        optimizer = AdamState({})  # no zero moments: the file's replace them
        optimizer.m, optimizer.v = ({k: arrays[f"{g}/{k}"] for k in shapes} for g in groups[1:])
        optimizer.t = meta["adam_t"]
    return net, optimizer, meta
