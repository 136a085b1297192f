"""Embedding heads over precomputed features, trained with plain SGD.

Two architectures:

* ``linear``  — logits = W x + b; the downstream embedding is x itself.
* ``mlp1``    — one ReLU hidden layer; the hidden activation is the
  downstream embedding and a linear readout produces the logits.

Weights are initialized zero-mean with standard deviation 1/sqrt(fan_in);
biases start at zero.  The learning rate follows a step decay:
``initial_lr * decay_factor ** (epoch // decay_every)``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import (
    Dataset,
    Split,
    _container_header,
    build_pair_constraints,
    dense_relabel,
    draw_pairs,
    pair_batch_counts,
)
from .loss import (LossConfig, LossReport, _PairLayout, _adjacent_loss_and_grad,
                   _loss_and_grad, _pair_layout, _report)

CHECKPOINT_MAGIC = b"MFHD"
CHECKPOINT_VERSION = 1

ARCHITECTURES = ("linear", "mlp1")

OBJECTIVES = ("mfid", "cross_entropy")


@dataclass
class EmbeddingHead:
    """Parameter container for one head; treat instances as immutable."""

    architecture: str
    input_dim: int
    embed_dim: int
    n_classes: int
    params: dict[str, np.ndarray]


def _param_shapes(architecture: str, input_dim: int, embed_dim: int,
                  n_classes: int) -> dict[str, tuple[int, ...]]:
    """Each parameter's shape, in init and checkpoint order: linear (w, b),
    mlp1 (w1, b1, w2, b2).  A matrix is (fan_out, fan_in)."""
    if architecture not in ARCHITECTURES:
        raise ValueError(f"unknown architecture {architecture!r}")
    if input_dim < 1 or n_classes < 2:
        raise ValueError("need input_dim >= 1 and n_classes >= 2")
    if architecture == "linear":
        return {"w": (n_classes, input_dim), "b": (n_classes,)}
    if embed_dim < 1:
        raise ValueError("mlp1 needs embed_dim >= 1")
    return {"w1": (embed_dim, input_dim), "b1": (embed_dim,),
            "w2": (n_classes, embed_dim), "b2": (n_classes,)}


def init_head(architecture: str, input_dim: int, embed_dim: int, n_classes: int,
              seed) -> EmbeddingHead:
    """Deterministically initialize a head (fan-in scaled weights, zero biases)."""
    shapes = _param_shapes(architecture, input_dim, embed_dim, n_classes)
    rng = np.random.default_rng(seed)
    params = {name: rng.normal(0.0, 1.0 / math.sqrt(shape[1]), size=shape)
              if len(shape) == 2 else np.zeros(shape) for name, shape in shapes.items()}
    if architecture == "linear":
        embed_dim = input_dim  # the linear head passes features through untouched
    return EmbeddingHead(architecture, input_dim, embed_dim, n_classes, params)


def _forward_batch(head: EmbeddingHead, x: np.ndarray):
    """Returns (embedding, pre-activation or None, logits) for a (B, d) batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != head.input_dim:
        raise ValueError(
            f"input dim {x.shape[-1] if x.ndim else '?'} does not match head input dim "
            f"{head.input_dim}")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite feature value")
    return _forward_rows(head, x)


def _forward_rows(head: EmbeddingHead, x: np.ndarray):
    """:func:`_forward_batch` on a float64 batch that is already checked."""
    p = head.params
    if head.architecture == "linear":
        return x, None, x @ p["w"].T + p["b"]
    pre = x @ p["w1"].T + p["b1"]
    hidden = np.maximum(pre, 0.0)
    return hidden, pre, hidden @ p["w2"].T + p["b2"]


def embed(head: EmbeddingHead, x) -> np.ndarray:
    """Downstream embeddings for a (B, d) batch (raw input for linear heads)."""
    emb, _, _ = _forward_batch(head, x)
    return emb


def logits(head: EmbeddingHead, x) -> np.ndarray:
    """Class logits for a (B, d) batch."""
    _, _, z = _forward_batch(head, x)
    return z


def backprop(head: EmbeddingHead, x, labels, pairs,
             loss_cfg: LossConfig) -> tuple[LossReport, dict[str, np.ndarray]]:
    """Loss report plus d(total)/d(parameter) for one batch.

    ``pairs`` are ``(a, b, similar)`` triples over the batch rows, as for
    :func:`~mfid.loss.total_loss`.
    """
    x = np.asarray(x, dtype=np.float64)
    hidden, pre, z = _forward_batch(head, x)
    report, g = _loss_and_grad(z, labels, pairs, loss_cfg)
    return report, _param_grads(head, x, hidden, pre, g)


def _adjacent_backprop(head: EmbeddingHead, x: np.ndarray, labels: np.ndarray,
                       layout: _PairLayout,
                       loss_cfg: LossConfig) -> tuple[LossReport, dict[str, np.ndarray]]:
    """:func:`backprop` on the batch layout ``train`` gathers, bit for bit.

    Pair k is rows 2k and 2k + 1, similar pairs first: ``layout.n_similar``
    similar pairs, then ``layout.n_dissimilar`` dissimilar ones.  A layout of
    no pairs is a plain cross-entropy batch.  ``x`` must be a float64 array
    already checked for finite values.
    """
    hidden, pre, z = _forward_rows(head, x)
    report, g = _adjacent_loss_and_grad(z, labels, layout, loss_cfg)
    return report, _param_grads(head, x, hidden, pre, g)


def _param_grads(head: EmbeddingHead, x: np.ndarray, hidden: np.ndarray,
                 pre: np.ndarray | None, g: np.ndarray) -> dict[str, np.ndarray]:
    """Chain the logit gradient ``g`` back to every parameter."""
    p = head.params
    if head.architecture == "linear":
        return {"w": g.T @ x, "b": g.sum(axis=0)}
    d_hidden = g @ p["w2"]
    d_pre = d_hidden * (pre > 0.0)  # ReLU subgradient 0 at the kink
    return {
        "w1": d_pre.T @ x,
        "b1": d_pre.sum(axis=0),
        "w2": g.T @ hidden,
        "b2": g.sum(axis=0),
    }


def _check_step_gradients(grads: dict[str, np.ndarray]) -> None:
    """Reject a training step's gradients if one is not finite, naming the
    first such parameter.

    A finite sum means finite gradients; only a sum that is not finite (a
    non-finite entry, or finite entries that overflow when added) checks
    each array.
    """
    if not math.isfinite(sum(g.sum() for g in grads.values())):
        for name, g in grads.items():
            if not np.isfinite(g).all():
                raise ValueError(f"non-finite gradient for {name!r}")


@dataclass(frozen=True)
class TrainConfig:
    """Everything the training loop needs besides the data itself."""

    epochs: int = 50
    batch_pairs: int = 16
    initial_lr: float = 1e-3
    decay_factor: float = 0.1
    decay_every: int = 20
    objective: str = "mfid"
    loss: LossConfig = field(default_factory=LossConfig)
    seed: int = 0
    architecture: str = "mlp1"
    embed_dim: int = 32
    similar_fraction: float = 0.5
    momentum: float = 0.0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_pairs < 1:
            raise ValueError("batch_pairs must be at least 1")
        if not math.isfinite(self.initial_lr):
            raise ValueError(f"initial_lr must be finite, got {self.initial_lr}")
        if self.initial_lr <= 0:
            raise ValueError("initial_lr must be positive")
        if not 0.0 < self.decay_factor <= 1.0:
            raise ValueError("decay_factor must be in (0, 1]")
        if self.decay_every < 1:
            raise ValueError("decay_every must be at least 1")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if not 0.0 <= self.similar_fraction <= 1.0:
            raise ValueError("similar_fraction must be in [0, 1]")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")


@dataclass(frozen=True)
class TrainedModel:
    head: EmbeddingHead
    loss_history: tuple[LossReport, ...]


def lr_schedule(epoch: int, cfg: TrainConfig) -> float:
    """Step decay: initial_lr * decay_factor ** (epoch // decay_every)."""
    if epoch < 0:
        raise ValueError("epoch must be non-negative")
    return cfg.initial_lr * cfg.decay_factor ** (epoch // cfg.decay_every)


def train(ds: Dataset, split: Split, cfg: TrainConfig) -> TrainedModel:
    """Train a head on the split's training side.

    Train-side labels are relabeled densely, so identity-disjoint training
    works out of the box (the head's class count equals the number of
    training identities).  Each epoch runs ceil(n_train / (2 * batch_pairs))
    steps; every step takes a full-size batch — pair batches for the "mfid"
    objective, plain uniform sample batches for "cross_entropy" — so batch
    composition and term normalization stay exact.  An epoch draws all its
    batches before its first step, in the order its steps use them.  Batches
    are gathered from ``ds.features`` through the split: the train side, checked
    when the Dataset was built, is neither copied nor checked again.

    Determinism: a fixed (dataset, split, config) always yields bit-identical
    parameters and loss history.
    """
    y, class_ids = dense_relabel(ds.labels[split.train_indices])
    if class_ids.size < 2:
        raise ValueError("training requires at least two identities on the train side")
    init_stream, batch_stream = np.random.SeedSequence(cfg.seed).spawn(2)
    head = init_head(cfg.architecture, ds.dim, cfg.embed_dim, class_ids.size, init_stream)
    rng = np.random.default_rng(batch_stream)

    n_train = y.size
    batch_images = 2 * cfg.batch_pairs
    steps = max(1, math.ceil(n_train / batch_images))
    use_pairs = cfg.objective == "mfid"
    if use_pairs:
        constraints = build_pair_constraints(y)
        n_similar, n_dissimilar = pair_batch_counts(constraints, cfg.batch_pairs,
                                                    cfg.similar_fraction)
    else:
        n_similar = n_dissimilar = 0
    # Rows 2k and 2k + 1 of the gathered batch are the k-th pair's images.
    layout = _pair_layout(n_similar, n_dissimilar, cfg.loss)
    # The head is private to this call until it returns, so its parameters
    # (and the velocity) are updated in place.
    params = head.params
    velocity = ({name: np.zeros_like(p) for name, p in params.items()}
                if cfg.momentum > 0 else None)

    history = []
    for epoch in range(cfg.epochs):
        lr = lr_schedule(epoch, cfg)
        if use_pairs:
            batches = draw_pairs(constraints, n_similar, n_dissimilar, rng,
                                 batches=steps).reshape(steps, -1)
        else:
            batches = np.stack([rng.choice(n_train, size=min(batch_images, n_train),
                                           replace=False) for _ in range(steps)])
        ce_sum = sim_sum = dissim_sum = 0.0
        for step, (batch, rows) in enumerate(zip(batches, split.train_indices[batches])):
            report, grads = _adjacent_backprop(head, ds.features[rows], y[batch], layout,
                                               cfg.loss)
            if not math.isfinite(report.total):
                raise RuntimeError(f"non-finite loss at epoch {epoch}, step {step}")
            if velocity is not None:
                for name, v in velocity.items():
                    v *= cfg.momentum
                    v += grads[name]
                grads = velocity
            _check_step_gradients(grads)
            for name, value in params.items():
                value -= lr * grads[name]
            ce_sum += report.ce_term
            sim_sum += report.sim_term
            dissim_sum += report.dissim_term
        history.append(_report(cfg.loss, ce_sum / steps, sim_sum / steps, dissim_sum / steps,
                               steps * n_similar, steps * n_dissimilar))
    return TrainedModel(head, tuple(history))


# ---------------------------------------------------------------------------
# checkpoints


def save_head(head: EmbeddingHead, path) -> None:
    """Binary checkpoint: magic, version, architecture tag, dims, parameters.

    The tag is the architecture's position in :data:`ARCHITECTURES` plus one.
    Parameters are written as little-endian float64 in
    :func:`_param_shapes`' order, matrices row-major.
    """
    dims = head.input_dim, head.embed_dim, head.n_classes
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<IIII", ARCHITECTURES.index(head.architecture) + 1, *dims))
        for name in _param_shapes(head.architecture, *dims):
            fh.write(np.ascontiguousarray(head.params[name], dtype="<f8").tobytes())


def load_head(path) -> EmbeddingHead:
    blob = Path(path).read_bytes()
    header, (tag, input_dim, embed_dim, n_classes) = _container_header(
        path, blob, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "IIII")
    if not 1 <= tag <= len(ARCHITECTURES):
        raise ValueError(f"{path}: unknown architecture tag {tag}")
    architecture = ARCHITECTURES[tag - 1]
    try:
        shapes = _param_shapes(architecture, input_dim, embed_dim, n_classes)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if architecture == "linear" and embed_dim != input_dim:
        raise ValueError(f"{path}: linear head with embed_dim {embed_dim} "
                         f"!= input_dim {input_dim}")
    expected = header + sum(math.prod(s) for s in shapes.values()) * 8
    if len(blob) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, found {len(blob)}")
    params = {}
    offset = header
    for name, shape in shapes.items():
        count = math.prod(shape)
        params[name] = np.frombuffer(blob, dtype="<f8", count=count,
                                     offset=offset).reshape(shape).astype(np.float64)
        if not np.isfinite(params[name]).all():
            raise ValueError(f"{path}: non-finite value in parameter {name!r}")
        offset += count * 8
    return EmbeddingHead(architecture, input_dim, embed_dim, n_classes, params)
