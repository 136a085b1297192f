"""Biometric evaluation protocols over embedding vectors.

All protocols work on cosine similarity between L2-normalized embeddings.

* classification — argmax over logits on seen identities.
* closed set — per trial, draw a small gallery per identity; every probe's
  identity score is the max similarity over that identity's gallery images;
  report CMC / Rank-k over many trials.
* open set — some identities appear only as probes (distractors); a
  threshold is calibrated so the false positive identification rate (FPIR:
  the fraction of distractor probes whose best gallery score is accepted)
  stays at or below ``far_target``, and DIR, the detection and
  identification rate (the true positive identification rate, TPIR, at
  rank 1), counts mated probes that are both accepted and rank-1 correct.
* verification — per sample, one positive score (best same-identity match,
  self excluded) and one negative score per other identity; report TAR, the
  true accept rate, at a false accept rate (FAR) of ``far_target`` over the
  negative scores, with TAR on a 100-point FAR grid as the curve.

Each protocol scores one prepared test split, ``_TestIndex``, into one
``EvalReport``; ``_score_split`` returns a split's reports by protocol.

The names follow IARPA Janus Benchmark-C (Maze et al., ICB 2018): TAR at
FAR for verification, DIR (TPIR) at FPIR for open-set search; the
``far_target`` field and the ``*_at_far`` functions serve both.
Thresholds are always the smallest observed non-mated score value whose
accept rate over the non-mated scores (the FAR, or the FPIR in open-set
search) is within target (accepting ties at >= threshold, no
interpolation); if no observed value qualifies, the threshold moves just
above the largest non-mated score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, LabelGroups, _finite, _unit_rows
from .model import embed, logits


@dataclass(frozen=True)
class TrialConfig:
    """Shared knobs for the trial-based protocols.

    ``far_target`` is the FAR target of verification and the FPIR target of
    the open set.  It may be 1.0, which degenerates to a threshold that
    accepts everything.  ``distractor_mode`` is "fixed" (one distractor
    identity set per evaluation, matching a fixed probe-only identity list)
    or "per_trial" (re-drawn each trial).
    """

    trials: int = 100
    gallery_images_per_identity: int = 1
    distractor_identities: int = 6
    far_target: float = 0.01
    seed: int = 0
    distractor_mode: str = "fixed"

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.gallery_images_per_identity < 1:
            raise ValueError("gallery_images_per_identity must be at least 1")
        if self.distractor_identities < 1:
            raise ValueError("distractor_identities must be at least 1")
        if not 0.0 < self.far_target <= 1.0:
            raise ValueError(f"far_target must be in (0, 1], got {self.far_target}")
        if self.distractor_mode not in ("fixed", "per_trial"):
            raise ValueError(f"unknown distractor_mode {self.distractor_mode!r}")


@dataclass(frozen=True)
class EvalReport:
    """Per-trial metric values with their mean/std and any curve points."""

    values: tuple[float, ...]
    mean: float
    std: float
    curve: tuple[tuple[float, float], ...] = ()
    thresholds: tuple[float, ...] = ()

    @classmethod
    def from_values(cls, values, curve=(), thresholds=()) -> "EvalReport":
        v = np.asarray(list(values), dtype=np.float64)
        if v.size == 0:
            raise ValueError("report needs at least one metric value")
        return cls(tuple(float(x) for x in v), float(v.mean()),
                   float(v.std()), tuple((float(a), float(b)) for a, b in curve),
                   tuple(float(t) for t in thresholds))


def classification_accuracy(head, features, labels) -> float:
    """Fraction of argmax-correct logits (ties resolve to the lowest class id)."""
    y = np.asarray(labels)
    if y.size and (y.min() < 0 or y.max() >= head.n_classes):
        raise ValueError("label outside the model's class range")
    z = logits(head, features)
    return float(np.mean(np.argmax(z, axis=1) == y))


# ---------------------------------------------------------------------------
# ranking


def probe_ranks(id_scores: np.ndarray, gallery_ids: np.ndarray,
                probe_labels) -> np.ndarray:
    """1-based rank of each probe's true identity (score ties -> lowest id).

    The rank counts identities scoring strictly higher, plus equal-scoring
    identities with a lower id, plus one.  Ties with another identity are
    rare, so the ties are counted only on the rows that hold one.
    """
    id_scores = np.asarray(id_scores, dtype=np.float64)
    gallery_ids = np.asarray(gallery_ids)
    probe_labels = np.asarray(probe_labels)
    cols = np.searchsorted(gallery_ids, probe_labels)
    if np.any(cols >= gallery_ids.size) or np.any(gallery_ids[cols] != probe_labels):
        raise ValueError("probe identity missing from the gallery")
    true_scores = id_scores[np.arange(id_scores.shape[0]), cols][:, None]
    ranks = 1 + (id_scores > true_scores).sum(axis=1, dtype=np.int64)
    # The ">=" count holds the true identity too, so it passes the rank
    # only on a row where another identity ties the true score.
    tied = np.flatnonzero((id_scores >= true_scores).sum(axis=1) > ranks)
    ranks[tied] += ((id_scores[tied] == true_scores[tied])
                    & (gallery_ids < probe_labels[tied, None])).sum(axis=1)
    return ranks


# ---------------------------------------------------------------------------
# thresholds


def _ascending(scores) -> np.ndarray:
    """``scores`` as float64 in ascending order: the array itself when it
    already is, else a sorted copy."""
    scores = np.asarray(scores, dtype=np.float64)
    return scores if bool(np.all(scores[:-1] <= scores[1:])) else np.sort(scores)


def far_thresholds(nonmated_scores, far_targets) -> np.ndarray:
    """:func:`far_threshold` for each target, from one sort of the scores
    (none when they are already in ascending order)."""
    ordered = _ascending(_finite(nonmated_scores, "nonmated_scores"))
    if ordered.size == 0:
        raise ValueError("no non-mated scores to calibrate a threshold")
    targets = np.asarray(far_targets, dtype=np.float64)
    bad = targets[~((targets > 0.0) & (targets <= 1.0))]
    if bad.size:
        raise ValueError(f"far_target must be in (0, 1], got {float(bad[0])}")
    # ``allowed`` is the largest k with k / n <= target.  The 1e-9 absorbs a
    # product that rounds below an integer (0.29 * 100 = 28.999999999999996),
    # and the correction takes back a k it lifts past the target.
    allowed = np.floor(targets * ordered.size + 1e-9).astype(np.int64)
    allowed -= allowed / ordered.size > targets
    # A value v qualifies when at most ``allowed`` scores are >= v, i.e. when
    # v lies above the score at ascending rank n - allowed - 1.
    rank = ordered.size - 1 - allowed
    above = np.searchsorted(ordered, ordered[np.maximum(rank, 0)], side="right")
    thresholds = np.where(above < ordered.size,
                          ordered[np.minimum(above, ordered.size - 1)],
                          np.nextafter(ordered[-1], np.inf))
    thresholds[targets == 1.0] = -np.inf
    return thresholds


def far_threshold(nonmated_scores, far_target: float) -> float:
    """Smallest observed score value whose accept rate over the non-mated
    scores (FAR, or FPIR for open-set search) is <= target.

    Acceptance is ``score >= threshold``.  Of n scores the threshold accepts
    at most k, the largest k with ``k / n <= target`` in float64, so a target
    a hair below k / n allows k - 1.  If even the largest observed value
    over-accepts, the threshold moves one float ulp above it; a target of 1.0
    returns -inf (accept everything).
    """
    return float(far_thresholds(nonmated_scores, [far_target])[0])


def _accept_rates(scores, thresholds) -> np.ndarray:
    """Fraction of ``scores`` at or above each threshold: one sort, one search."""
    ordered = _ascending(scores)
    return (ordered.size - np.searchsorted(ordered, thresholds, side="left")) / ordered.size


def tar_at_far(positive_scores, negative_scores, far_target: float) -> tuple[float, float]:
    """(true accept rate, threshold) with the threshold set on the negatives."""
    pos = _finite(positive_scores, "positive_scores")
    if pos.size == 0:
        raise ValueError("no positive scores")
    tau = far_threshold(_finite(negative_scores, "negative_scores"), far_target)
    return float(_accept_rates(pos, tau)), tau


def dir_at_far(mated_scores, mated_rank1_correct, nonmated_scores,
               far_target: float) -> tuple[float, float]:
    """(detection and identification rate, threshold) at an FPIR of ``far_target``.

    The threshold is set on ``nonmated_scores``, the top gallery score of
    each non-mated probe, so ``far_target`` is a false positive
    identification rate.  A mated probe counts only if its top identity
    score passes the threshold AND its rank-1 identity is correct.
    """
    mated = _finite(mated_scores, "mated_scores")
    correct = np.asarray(mated_rank1_correct, dtype=bool)
    if mated.shape != correct.shape:
        raise ValueError("mated scores and correctness flags must align")
    if mated.size == 0:
        raise ValueError("no mated probes")
    tau = far_threshold(nonmated_scores, far_target)
    return float(np.mean((mated >= tau) & correct)), tau


# ---------------------------------------------------------------------------
# protocols


class _TestIndex(LabelGroups):
    """One test split, prepared once for every protocol and trial that scores
    it: its rows grouped by identity, and its unit rows."""

    def __init__(self, embeddings, labels):
        super().__init__(labels)
        self.unit = _unit_rows(embeddings, "test embedding")

    def scores(self, probe_rows, gallery_rows) -> np.ndarray:
        scores = self.unit[probe_rows] @ self.unit[gallery_rows].T
        np.clip(scores, -1.0, 1.0, out=scores)
        return scores

    def identity_scores(self, probe_rows, gallery_rows, per_identity: int) -> np.ndarray:
        """Each probe's best score per gallery identity, for a gallery that
        :func:`_draw_gallery` laid out as ``per_identity`` rows per group.
        With one row per group the scores are the identity scores already."""
        scores = self.scores(probe_rows, gallery_rows)
        if per_identity == 1:
            return scores
        return scores.reshape(scores.shape[0], -1, per_identity).max(axis=2)


def _draw_gallery(index: _TestIndex, groups, per_identity: int,
                  rng: np.random.Generator):
    """Per identity group, draw gallery rows; the group's other rows become
    probes, in label order and ascending row within an identity.  The
    gallery holds ``per_identity`` rows of each group, group by group."""
    short = groups[index.counts[groups] <= per_identity]
    if short.size:
        g = short[0]
        raise ValueError(
            f"identity {int(index.ids[g])} has {int(index.counts[g])} samples; needs "
            f"more than {per_identity} to field both gallery and probes")
    sizes = np.zeros(index.ids.size, dtype=np.int64)
    sizes[groups] = per_identity
    positions = index.draw(sizes, rng)
    probe = np.repeat(sizes > 0, index.counts)
    probe[positions] = False
    return index.order[positions], index.order[probe]


def _closed_set(index: _TestIndex, cfg: TrialConfig) -> EvalReport:
    groups = np.arange(index.ids.size)
    per_identity = cfg.gallery_images_per_identity
    rank1 = []
    cmc_sum = np.zeros(index.ids.size)
    for stream in np.random.SeedSequence(cfg.seed).spawn(cfg.trials):
        gallery_rows, probe_rows = _draw_gallery(index, groups, per_identity,
                                                 np.random.default_rng(stream))
        ranks = probe_ranks(index.identity_scores(probe_rows, gallery_rows, per_identity),
                            index.ids, index.labels[probe_rows])
        counts = np.bincount(ranks, minlength=index.ids.size + 1)[1:]
        cmc = np.cumsum(counts) / probe_rows.size
        rank1.append(cmc[0])
        cmc_sum += cmc
    curve = tuple((r + 1, cmc_sum[r] / cfg.trials) for r in range(index.ids.size))
    return EvalReport.from_values(rank1, curve=curve)


def closed_set_eval(embeddings, labels, cfg: TrialConfig) -> EvalReport:
    """Rank-1 rate over trials, with the trial-averaged CMC as the curve."""
    return _closed_set(_TestIndex(embeddings, labels), cfg)


def _open_set(index: _TestIndex, cfg: TrialConfig) -> EvalReport:
    identities = index.ids
    if identities.size <= cfg.distractor_identities:
        raise ValueError(
            f"need more than {cfg.distractor_identities} identities for an "
            f"open-set evaluation, got {identities.size}")
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.trials + 1)
    per_identity = cfg.gallery_images_per_identity

    def split_off(distractors):
        """(mated identity groups, distractor rows in row order)."""
        return (np.flatnonzero(~np.isin(identities, distractors)),
                np.flatnonzero(np.isin(index.labels, distractors)))

    if cfg.distractor_mode == "fixed":
        fixed = split_off(np.random.default_rng(streams[0]).choice(
            identities, size=cfg.distractor_identities, replace=False))
    rates, thresholds = [], []
    for stream in streams[1:]:
        rng = np.random.default_rng(stream)
        if cfg.distractor_mode == "fixed":
            mated_groups, distractor_rows = fixed
        else:
            mated_groups, distractor_rows = split_off(rng.choice(
                identities, size=cfg.distractor_identities, replace=False))
        gallery_rows, probe_rows = _draw_gallery(index, mated_groups, per_identity, rng)
        pooled = index.identity_scores(np.concatenate([probe_rows, distractor_rows]),
                                       gallery_rows, per_identity)
        n_mated = probe_rows.size
        mated_max = pooled[:n_mated].max(axis=1)
        ranks = probe_ranks(pooled[:n_mated], identities[mated_groups],
                            index.labels[probe_rows])
        nonmated_max = pooled[n_mated:].max(axis=1)
        rate, tau = dir_at_far(mated_max, ranks == 1, nonmated_max, cfg.far_target)
        rates.append(rate)
        thresholds.append(tau)
    return EvalReport.from_values(rates, thresholds=thresholds)


def open_set_eval(embeddings, labels, cfg: TrialConfig) -> EvalReport:
    """DIR at an FPIR of ``far_target`` over trials with probe-only
    distractor identities."""
    return _open_set(_TestIndex(embeddings, labels), cfg)


# Cells of one row block of verification's product, and of the block's
# label-ordered copy (2 MB each).
_POOL_BLOCK_CELLS = 1 << 18


def _verification_scores(index: _TestIndex) -> tuple[np.ndarray, np.ndarray]:
    lonely = index.ids[index.counts < 2]
    if lonely.size:
        raise ValueError(f"identity {int(lonely[0])} has a single sample; "
                         "verification needs at least two per identity")
    n, n_ids = index.labels.size, index.ids.size
    own_col = np.searchsorted(index.ids, index.labels)
    positives = np.empty(n)
    negatives = np.empty((n, max(n_ids - 1, 0)))
    block = max(1, _POOL_BLOCK_CELLS // max(1, n))
    for lo in range(0, n, block):
        # With every row in one block, this is the one SYRK call of unit @ unit.T.
        sims = index.unit[lo:lo + block] @ index.unit.T
        rows = np.arange(sims.shape[0])
        sims[rows, lo + rows] = -2.0  # below any product of unit rows, so self never wins
        pooled = np.maximum.reduceat(sims[:, index.order], index.starts, axis=1)
        # Clipped after pooling: clip is monotone and no identity pools only the -2.
        np.clip(pooled, -1.0, 1.0, out=pooled)
        own = own_col[lo:lo + block]
        positives[lo:lo + block] = pooled[rows, own]
        negatives[lo:lo + block] = pooled[np.arange(n_ids) != own[:, None]].reshape(
            rows.size, -1)
    return positives, negatives.ravel()


def verification_scores(embeddings, labels) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample verification scores.

    Every sample yields one positive (max similarity to its own identity,
    self excluded) and one negative per other identity (max similarity into
    that identity), i.e. K-1 negatives per sample.
    """
    return _verification_scores(_TestIndex(embeddings, labels))


# The FAR targets of verification's curve: 0.01, 0.02, ..., 1.0.
_ROC_GRID = tuple(np.round(np.linspace(0.01, 1.0, 100), 10))


def _verification(index: _TestIndex, cfg: TrialConfig) -> EvalReport:
    positives, negatives = _verification_scores(index)
    # Sorted in place once, so the one threshold search finds them in order
    # and copies nothing.
    negatives.sort()
    thresholds = far_thresholds(negatives, (cfg.far_target, *_ROC_GRID))
    tars = _accept_rates(positives, thresholds)
    return EvalReport.from_values(tars[:1], curve=zip(_ROC_GRID, tars[1:]),
                                  thresholds=thresholds[:1])


def verification_eval(embeddings, labels, cfg: TrialConfig) -> EvalReport:
    """TAR at a FAR of ``far_target``; the curve is TAR at FAR 0.01, ..., 1.0."""
    return _verification(_TestIndex(embeddings, labels), cfg)


_PROTOCOLS = {"closed_set": _closed_set, "open_set": _open_set,
              "verification": _verification}


def _score_split(head, ds: Dataset, split, protocols, cfg: TrialConfig) -> dict:
    """Embed a split's test side, index it once, and score it under each of
    ``protocols`` ("closed_set", "open_set", "verification") it names.

    Returns ``{protocol: EvalReport}``, in the order closed set, open set,
    verification, whatever the order of ``protocols``.
    """
    index = _TestIndex(embed(head, ds.features[split.test_indices]),
                       ds.labels[split.test_indices])
    return {name: score(index, cfg) for name, score in _PROTOCOLS.items()
            if name in protocols}
