"""Training objective: cross-entropy plus symmetric pairwise KL terms.

Similar pairs are pulled toward matching class-probability vectors by a
symmetrized KL divergence; dissimilar pairs are pushed apart by hinges that
demand at least ``margin`` nats of divergence in each direction:

    total = ce + sim_weight * mean_similar[ KL(p||q) + KL(q||p) ]
               + dissim_weight * mean_dissimilar[ max(0, margin - KL(p||q))
                                                + max(0, margin - KL(q||p)) ]

All logarithms are natural; probabilities inside logs are clamped at a
fixed ``EPSILON`` of 1e-12, and zero-probability terms of KL contribute
exactly zero.
Gradients are analytic, with hinge and clamp kinks assigned subgradient 0.

Pair batches have one layout: the similar pairs first, then the dissimilar
ones, with the two counts (a :class:`_PairLayout`).  The pair terms work on
the slices ``[:n_similar]`` and ``[n_similar:]``; the ``(a, b, similar)``
triples of :func:`total_loss` are stable-sorted into that order, which keeps
each kind's pairs in their given order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import _finite

EPSILON = 1e-12

LOSS_CSV_HEADER = "epoch,total,ce,sim,dissim,n_similar,n_dissimilar"


@dataclass(frozen=True)
class LossConfig:
    """Objective hyperparameters (margin in nats, weights on the pair terms)."""

    margin: float = 1.0
    sim_weight: float = 1.0
    dissim_weight: float = 1.0

    def __post_init__(self) -> None:
        for name in ("margin", "sim_weight", "dissim_weight"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.margin < 0:
            raise ValueError(f"margin must be non-negative, got {self.margin}")
        if self.sim_weight < 0 or self.dissim_weight < 0:
            raise ValueError("pair-term weights must be non-negative")


@dataclass(frozen=True)
class LossReport:
    """One batch (or epoch) of loss terms plus the pair counts behind them."""

    total: float
    ce_term: float
    sim_term: float
    dissim_term: float
    n_similar: int
    n_dissimilar: int

    def csv_row(self, epoch: int) -> str:
        return (f"{epoch},{self.total!r},{self.ce_term!r},{self.sim_term!r},"
                f"{self.dissim_term!r},{self.n_similar},{self.n_dissimilar}")


# ---------------------------------------------------------------------------
# elementary operations (single vectors)


def kl_div(p, q) -> float:
    """KL(p || q) in nats; zero-probability terms of p contribute exactly 0."""
    p = _finite(p, "p")
    q = _finite(q, "q")
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError(f"dimension mismatch: {p.shape} vs {q.shape}")
    log_ratio = np.log(np.maximum(p, EPSILON)) - np.log(np.maximum(q, EPSILON))
    return float(np.where(p > 0.0, p * log_ratio, 0.0).sum())


def sim_pair_loss(p, q) -> float:
    """Symmetrized divergence KL(p||q) + KL(q||p)."""
    return kl_div(p, q) + kl_div(q, p)


def dissim_pair_loss(p, q, margin: float = 1.0) -> float:
    """Two-sided hinge: max(0, margin - KL(p||q)) + max(0, margin - KL(q||p))."""
    if margin < 0:
        raise ValueError(f"margin must be non-negative, got {margin}")
    return max(0.0, margin - kl_div(p, q)) + max(0.0, margin - kl_div(q, p))


# ---------------------------------------------------------------------------
# batched objective


def total_loss(logits, labels, pairs, cfg: LossConfig) -> LossReport:
    """Evaluate the full objective on a batch of logits.

    Args:
        logits: (B, K) array of raw scores.
        labels: (B,) integer class ids in [0, K).
        pairs: an iterable of ``(a, b, similar)`` triples whose indices
            address batch rows.  An empty batch skips the pair terms.
        cfg: objective hyperparameters.

    The cross-entropy term averages over all B rows; each pair term averages
    over its own pair count and is zero when that count is zero.
    """
    report, _ = _loss_and_grad(logits, labels, pairs, cfg)
    return report


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    e /= e.sum(axis=1, keepdims=True)
    return e


def _pair_arrays(pairs) -> tuple[np.ndarray, int]:
    """The (P, 2) row indices of (a, b, similar) triples, stable-sorted so the
    similar pairs come first, and the similar count."""
    triples = list(pairs)
    similar = np.array([t[2] for t in triples], dtype=bool)
    rows = np.array([t[:2] for t in triples], dtype=np.int64).reshape(-1, 2)
    return rows[np.argsort(~similar, kind="stable")], int(similar.sum())


def _loss_and_grad(logits, labels, pairs, cfg: LossConfig) -> tuple[LossReport, np.ndarray]:
    """Loss report and d(total)/d(logits) for the batch layout of
    :func:`total_loss`."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] < 2:
        raise ValueError("logits must be a (B, K) array with K >= 2")
    batch, n_classes = z.shape
    y = np.asarray(labels)
    if y.shape != (batch,):
        raise ValueError(f"expected {batch} labels, got shape {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise ValueError("label out of range for logit width")
    rows, n_similar = _pair_arrays(pairs)
    if rows.size and (rows.min() < 0 or rows.max() >= batch):
        raise ValueError("pair index out of range for batch")

    probs, ce_term, grad = _ce_terms(z, y)
    layout = _pair_layout(n_similar, len(rows) - n_similar, cfg)
    sim_term = dissim_term = 0.0
    if rows.size:
        sim_term, dissim_term, pair_grad = _pair_terms(probs[rows], layout, cfg)
        # Indices may repeat, so contributions are accumulated unbuffered,
        # similar pairs before dissimilar ones.
        for kind in (slice(None, n_similar), slice(n_similar, None)):
            np.add.at(grad, rows[kind, 0], pair_grad[kind, 0])
            np.add.at(grad, rows[kind, 1], pair_grad[kind, 1])
    return _report(cfg, ce_term, sim_term, dissim_term, *layout[:2]), grad


def _adjacent_loss_and_grad(z: np.ndarray, y: np.ndarray, layout: _PairLayout,
                            cfg: LossConfig) -> tuple[LossReport, np.ndarray]:
    """Loss report and d(total)/d(logits) for the batch layout ``train`` draws.

    Pair k is rows 2k and 2k + 1; the first ``layout.n_similar`` pairs are
    similar and the next ``layout.n_dissimilar`` dissimilar.  A layout of no
    pairs leaves cross-entropy alone.  Every row belongs to at most one
    pair, so the pair gradient is added to the rows directly, with the same
    bits as :func:`_loss_and_grad` on the triples ``(2k, 2k + 1, k <
    n_similar)``.  Inputs are not validated.
    """
    probs, ce_term, grad = _ce_terms(z, y)
    n_pairs = layout.n_similar + layout.n_dissimilar
    sim_term = dissim_term = 0.0
    if n_pairs:
        sim_term, dissim_term, pair_grad = _pair_terms(
            probs.reshape(n_pairs, 2, -1), layout, cfg)
        grad += pair_grad.reshape(grad.shape)
    return _report(cfg, ce_term, sim_term, dissim_term, *layout[:2]), grad


def _ce_terms(z: np.ndarray, y: np.ndarray):
    """(softmax rows, mean cross-entropy, its logit gradient)."""
    batch = z.shape[0]
    probs = _softmax_rows(z)
    rows = np.arange(batch)
    # np.mean of -log is its reduction and division; the sum of the negated
    # logs is exactly the negated sum.
    ce_term = -float(np.log(np.maximum(probs[rows, y], EPSILON)).sum()) / batch
    grad = probs.copy()
    grad[rows, y] -= 1.0
    grad /= batch
    return probs, ce_term, grad


class _PairLayout(NamedTuple):
    """A pair batch's kinds and weights: its first ``n_similar`` pairs are
    similar and the other ``n_dissimilar`` dissimilar; each kind's gradient
    is scaled by its term weight over its count."""

    n_similar: int
    n_dissimilar: int
    sim_scale: float
    dissim_scale: float


def _pair_layout(n_similar: int, n_dissimilar: int, cfg: LossConfig) -> _PairLayout:
    return _PairLayout(n_similar, n_dissimilar, cfg.sim_weight / max(n_similar, 1),
                       cfg.dissim_weight / max(n_dissimilar, 1))


def _pair_terms(probs: np.ndarray, layout: _PairLayout, cfg: LossConfig):
    """Both pair terms in one pass over the pairs.

    ``probs[k]`` holds pair k's two softmax rows (pa, pb), shape (P, 2, K),
    the similar pairs first as ``layout`` counts them.  Similar pairs are
    scored by the symmetric KL, the others by the two-sided hinge.  Returns
    the mean similar term, the mean dissimilar term, and the weighted
    gradient of those terms with respect to every row's logits, shaped like
    ``probs``.
    """
    similar, dissimilar = slice(None, layout.n_similar), slice(layout.n_similar, None)
    log_probs = np.log(np.maximum(probs, EPSILON))
    # ratio[k] holds log(pa / pb) and then log(pb / pa), so one masked pass
    # gives kl[k] = (KL(pa || pb), KL(pb || pa)), each row summed on its own.
    ratio = np.empty_like(log_probs)
    np.subtract(log_probs[:, 0], log_probs[:, 1], out=ratio[:, 0])
    np.negative(ratio[:, 0], out=ratio[:, 1])
    kl = np.where(probs > 0.0, probs * ratio, 0.0).sum(axis=2)
    # Means as sum / count: np.mean's own reduction and division, without its
    # per-call overhead.
    sim_term = (float((kl[similar, 0] + kl[similar, 1]).sum()) / layout.n_similar
                if layout.n_similar else 0.0)
    hinges = np.maximum(0.0, cfg.margin - kl[dissimilar])
    dissim_term = (float((hinges[:, 0] + hinges[:, 1]).sum()) / layout.n_dissimilar
                   if layout.n_dissimilar else 0.0)
    # Similar pairs pull both divergences down.  A dissimilar hinge pushes its
    # divergence up only below the margin; exactly at the margin the
    # subgradient is taken as zero.  The factors +1, -1 and -0.0 give exactly
    # the bits of d_klab + d_klba (similar) and of
    # -(active_ab * d_klab) - (active_ba * d_klba) (dissimilar).
    signs = np.ones_like(kl)
    np.multiply(-1.0, kl[dissimilar] < cfg.margin, out=signs[dissimilar])
    signs = signs[:, :, None]
    # A row's own divergence, KL(p || partner), has d/dz = p * (log(p /
    # partner) - KL); its partner's, KL(partner || p), has d/dz = p - partner.
    grad = ratio
    grad -= kl[:, :, None]
    grad *= probs
    grad *= signs
    cross = probs - probs[:, ::-1]
    cross *= signs[:, ::-1]
    grad += cross
    grad[similar] *= layout.sim_scale
    grad[dissimilar] *= layout.dissim_scale
    return sim_term, dissim_term, grad


def _report(cfg: LossConfig, ce_term: float, sim_term: float, dissim_term: float,
            n_similar: int, n_dissimilar: int) -> LossReport:
    """The terms and pair counts of a batch or an epoch, with their weighted total."""
    total = ce_term + cfg.sim_weight * sim_term + cfg.dissim_weight * dissim_term
    return LossReport(total, ce_term, sim_term, dissim_term, n_similar, n_dissimilar)
