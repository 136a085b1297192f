"""Evaluation protocols: scores, ranks, thresholds, CMC/DIR/TAR."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfid import (
    EvalReport,
    TrialConfig,
    classification_accuracy,
    closed_set_eval,
    dir_at_far,
    far_threshold,
    far_thresholds,
    open_set_eval,
    probe_ranks,
    tar_at_far,
    verification_eval,
    verification_scores,
)
import mfid.evaluation
from mfid.dataset import STRATIFIED, Dataset, Split
from mfid.evaluation import _closed_set, _open_set, _score_split, _TestIndex
from mfid.model import init_head


def cluster_embeddings(rng, k=5, per_id=8, dim=6, spread=0.05):
    """Well-separated unit-ish clusters: one random direction per identity."""
    centers = rng.normal(size=(k, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    labels = np.repeat(np.arange(k), per_id)
    emb = centers[labels] + spread * rng.normal(size=(labels.size, dim))
    return emb, labels


# ---------------------------------------------------------------------------
# score matrix


def test_score_matrix_self_diagonal():
    rng = np.random.default_rng(0)
    emb = rng.normal(size=(6, 4))
    scores = _TestIndex(emb, np.arange(6)).scores(np.arange(6), np.arange(6))
    np.testing.assert_allclose(np.diag(scores), 1.0, atol=1e-12)


def test_score_matrix_matches_nested_loops():
    rng = np.random.default_rng(1)
    probes = rng.normal(size=(5, 3))
    gallery = rng.normal(size=(7, 3))
    scores = _TestIndex(np.vstack([probes, gallery]), np.zeros(12)).scores(
        np.arange(5), np.arange(5, 12))
    for i in range(5):
        for j in range(7):
            cosine = probes[i] @ gallery[j] / (np.linalg.norm(probes[i])
                                               * np.linalg.norm(gallery[j]))
            assert scores[i, j] == pytest.approx(cosine, abs=1e-12)


def test_score_matrix_reports_zero_norm_index():
    emb = np.ones((4, 2))
    emb[1] = 0.0
    labels = np.array([0, 0, 1, 1])
    with pytest.raises(ValueError, match="zero-norm test embedding at index 1"):
        closed_set_eval(emb, labels, TrialConfig())
    with pytest.raises(ValueError, match="zero-norm test embedding at index 1"):
        verification_scores(emb, labels)


def test_score_matrix_single_pair():
    scores = _TestIndex([[1.0, 0.0], [1.0, 1.0]], [0, 0]).scores([0], [1])
    assert scores.shape == (1, 1)
    assert scores[0, 0] == pytest.approx(1 / math.sqrt(2))


def duplicated_rows_over_one(copies, k=24, dim=32):
    """``k`` identities of ``copies`` equal rows each, picked among rows whose
    unit vector times itself rounds above 1.0 (about one in four at d = 32)."""
    x = np.random.default_rng(44).normal(size=(400, dim))
    unit = mfid.evaluation._unit_rows(x, "test embedding")
    picked = x[np.diag(unit @ unit.T) > 1.0][:k]
    return np.repeat(picked, copies, axis=0), np.repeat(np.arange(k), copies)


@pytest.mark.parametrize("per_identity", [1, 2])
def test_scores_of_equal_rows_are_clipped_to_one(monkeypatch, per_identity):
    emb, labels = duplicated_rows_over_one(per_identity + 1)
    raw, pooled = [], []
    identity_scores = _TestIndex.identity_scores

    def recorded(index, probe_rows, gallery_rows, per_identity):
        raw.append((index.unit[probe_rows] @ index.unit[gallery_rows].T).max())
        scores = identity_scores(index, probe_rows, gallery_rows, per_identity)
        pooled.append(scores.max())
        return scores

    monkeypatch.setattr(_TestIndex, "identity_scores", recorded)
    cfg = TrialConfig(trials=4, gallery_images_per_identity=per_identity,
                      distractor_identities=3)
    closed_set_eval(emb, labels, cfg)
    open_set_eval(emb, labels, cfg)
    assert max(raw) > 1.0  # a trial's product rounds past the clip
    assert max(pooled) <= 1.0

    unit = mfid.evaluation._unit_rows(emb, "test embedding")
    products = unit @ unit.T
    np.fill_diagonal(products, -2.0)
    assert products.max() > 1.0  # so does verification's, self excluded
    positives, negatives = verification_scores(emb, labels)
    assert max(positives.max(), negatives.max()) <= 1.0


# ---------------------------------------------------------------------------
# classification


def test_classification_perfect_model():
    head = init_head("linear", 3, 0, 3, seed=0)
    head.params["w"] = np.eye(3) * 10
    head.params["b"] = np.zeros(3)
    x = np.eye(3)
    assert classification_accuracy(head, x, np.arange(3)) == 1.0


def test_classification_constant_logits_tie_break():
    # all-equal logits: argmax picks class 0, so only class-0 rows count
    head = init_head("linear", 2, 0, 4, seed=0)
    head.params["w"] = np.zeros((4, 2))
    head.params["b"] = np.zeros(4)
    x = np.ones((8, 2))
    labels = np.repeat(np.arange(4), 2)
    assert classification_accuracy(head, x, labels) == pytest.approx(1 / 4)


def test_classification_rejects_out_of_range_label():
    head = init_head("linear", 2, 0, 3, seed=0)
    with pytest.raises(ValueError, match="class range"):
        classification_accuracy(head, np.ones((2, 2)), np.array([0, 3]))


# ---------------------------------------------------------------------------
# ranks


def brute_force_ranks(id_scores, gallery_ids, probe_labels):
    ranks = []
    for row, label in zip(id_scores, probe_labels):
        # sort identities by (-score, id): stable deterministic ordering
        order = sorted(range(len(gallery_ids)), key=lambda c: (-row[c], gallery_ids[c]))
        ranked_ids = [gallery_ids[c] for c in order]
        ranks.append(ranked_ids.index(label) + 1)
    return np.array(ranks)


def test_probe_ranks_match_brute_force_oracle():
    rng = np.random.default_rng(2)
    for _ in range(100):
        p = rng.integers(1, 31)
        g = rng.integers(1, 31)
        gallery_ids = np.arange(g)
        # quantized scores force plenty of ties
        scores = np.round(rng.uniform(size=(p, g)), 1)
        probe_labels = rng.integers(0, g, size=p)
        expected = brute_force_ranks(scores, gallery_ids, probe_labels)
        got = probe_ranks(scores, gallery_ids, probe_labels)
        np.testing.assert_array_equal(got, expected)


def test_probe_ranks_hand_case():
    # identity score matrix with one swapped pair: probe 0 ranks 2nd
    scores = np.array([
        [0.5, 0.9, 0.1],   # true id 0 loses to id 1
        [0.2, 0.8, 0.3],   # true id 1 wins
        [0.1, 0.2, 0.9],   # true id 2 wins
    ])
    ranks = probe_ranks(scores, np.arange(3), np.arange(3))
    assert ranks.tolist() == [2, 1, 1]


def test_probe_ranks_missing_identity():
    with pytest.raises(ValueError, match="missing"):
        probe_ranks(np.ones((1, 2)), np.array([0, 1]), np.array([5]))


def test_verification_scores_pool_max():
    # rows (1, 0), (0, 1) of identity 9 and (1, 1), (-1, 0) of identity 7
    emb = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.0]])
    positives, negatives = verification_scores(emb, [9, 9, 7, 7])
    half = 1 / math.sqrt(2)
    np.testing.assert_allclose(positives, [0.0, 0.0, -half, -half], atol=1e-12)
    # each row's best score into the other identity
    np.testing.assert_allclose(negatives, [half, half, half, 0.0], atol=1e-12)


# ---------------------------------------------------------------------------
# thresholds


def test_far_threshold_worked_dir_case():
    nonmated = np.array([0.5, 0.3, 0.2, 0.1])
    tau = far_threshold(nonmated, 0.25)
    assert tau == 0.5
    assert np.mean(nonmated >= tau) == 0.25


def test_far_threshold_moves_above_max_when_needed():
    negatives = np.array([0.1, 0.2, 0.3])
    tau = far_threshold(negatives, 0.01)
    assert tau > 0.3
    assert np.mean(negatives >= tau) == 0.0


def test_far_threshold_target_one_accepts_everything():
    assert far_threshold(np.array([0.5, 0.9]), 1.0) == -np.inf


def test_far_threshold_respects_target_on_random_scores():
    rng = np.random.default_rng(3)
    for _ in range(50):
        scores = rng.normal(size=rng.integers(5, 200))
        target = rng.uniform(0.01, 0.9)
        tau = far_threshold(scores, target)
        assert np.mean(scores >= tau) <= target + 1e-12


def test_far_threshold_is_least_qualifying_value():
    # any smaller observed value would over-accept
    rng = np.random.default_rng(4)
    for _ in range(50):
        scores = np.round(rng.normal(size=60), 1)
        tau = far_threshold(scores, 0.1)
        below = np.unique(scores)[np.unique(scores) < tau]
        if below.size:
            assert np.mean(scores >= below[-1]) > 0.1


def test_tar_worked_case():
    tar, tau = tar_at_far(np.array([0.9, 0.8]), np.array([0.1, 0.2, 0.3]), 0.01)
    assert tar == 1.0
    assert tau > 0.3


def test_dir_worked_case():
    mated = np.array([0.9, 0.8, 0.4])
    correct = np.array([True, True, True])
    nonmated = np.array([0.5, 0.3, 0.2, 0.1])
    rate, tau = dir_at_far(mated, correct, nonmated, 0.25)
    assert rate == pytest.approx(2 / 3)
    assert np.mean(nonmated >= tau) <= 0.25


def test_dir_counts_only_correct_mated():
    mated = np.array([0.9, 0.8])
    correct = np.array([True, False])
    rate, _ = dir_at_far(mated, correct, np.array([0.1]), 1.0)
    assert rate == 0.5


def test_tar_dir_monotone_in_far_target():
    rng = np.random.default_rng(5)
    pos = rng.normal(1.0, 0.5, size=200)
    neg = rng.normal(0.0, 0.5, size=400)
    correct = rng.uniform(size=200) < 0.9
    targets = [0.5, 0.25, 0.1, 0.01]
    tars = [tar_at_far(pos, neg, t)[0] for t in targets]
    dirs = [dir_at_far(pos, correct, neg, t)[0] for t in targets]
    assert tars == sorted(tars, reverse=True)
    assert dirs == sorted(dirs, reverse=True)


def test_threshold_metrics_invariant_to_monotone_transform():
    rng = np.random.default_rng(6)
    pos = rng.normal(0.7, 0.3, size=100)
    neg = rng.normal(0.0, 0.3, size=300)
    f = lambda s: np.tanh(2.0 * s) + 0.1 * s  # strictly increasing
    assert tar_at_far(pos, neg, 0.05)[0] == tar_at_far(f(pos), f(neg), 0.05)[0]
    correct = rng.uniform(size=100) < 0.8
    assert (dir_at_far(pos, correct, neg, 0.05)[0]
            == dir_at_far(f(pos), correct, f(neg), 0.05)[0])


NAN, INF = float("nan"), float("inf")


# Unchecked, a NaN score gives a NaN threshold or counts as a rejected
# score, and the result looks valid.
@pytest.mark.parametrize("call, message", [
    (lambda: far_thresholds([0.1, NAN, 0.3], [0.5]), "nonmated_scores at index 1"),
    (lambda: far_threshold([0.1, 0.2, -INF], 0.5), "nonmated_scores at index 2"),
    (lambda: tar_at_far([0.5, 0.9], [0.1, NAN, 0.3], 0.5), "negative_scores at index 1"),
    (lambda: tar_at_far([INF, 0.9], [0.1, 0.3], 0.5), "positive_scores at index 0"),
    (lambda: dir_at_far([0.5, NAN], [True, True], [0.1, 0.3], 0.5),
     "mated_scores at index 1"),
    (lambda: dir_at_far([0.5, 0.9], [True, True], [NAN, NAN], 0.5),
     "nonmated_scores at index 0"),
], ids=["far_thresholds", "far_threshold", "tar negatives", "tar positives",
        "dir mated", "dir nonmated"])
def test_threshold_and_roc_entry_points_reject_non_finite_scores(call, message):
    with pytest.raises(ValueError) as error:
        call()
    assert str(error.value) == f"non-finite {message}"


ROWS = np.array([[1.0, 2.0, 0.5], [2.0, 0.0, 1.0], [0.0, 1.0, 3.0], [3.0, 3.0, 2.0]])
BAD_ROWS = [[1.0, 1.0, 1.0], [NAN, 1.0, 1.0]]
TWO_CLASSES = mfid.LogRegModel(weights=np.eye(2, 3), bias=np.zeros(2), c_value=1.0)


# Unchecked, a NaN probability counts as zero, a NaN feature row is
# predicted as class 0, a NaN confidence sorts last, and a NaN row normalizes
# to a NaN row: no call raises.
@pytest.mark.parametrize("call, message", [
    (lambda: mfid.kl_div([0.5, NAN], [0.5, 0.5]), "p at index 1"),
    (lambda: mfid.kl_div([0.5, 0.5], [INF, 0.5]), "q at index 0"),
    (lambda: mfid.sim_pair_loss([0.5, 0.5], [0.5, NAN]), "q at index 1"),
    (lambda: mfid.dissim_pair_loss([NAN, 1.0], [0.5, 0.5]), "p at index 0"),
    (lambda: mfid.pca_transform(mfid.pca_fit(ROWS, 0.9), BAD_ROWS), "x at index 1"),
    (lambda: mfid.logreg_predict(TWO_CLASSES, BAD_ROWS), "x at index 1"),
    (lambda: mfid.baseline_pipeline(np.vstack([ROWS, ROWS + 0.1]), [0, 0, 1, 1] * 2,
                                    BAD_ROWS, [0, 1]), "x at index 1"),
    (lambda: mfid.average_precision([0.5, NAN], [True, False], 1),
     "confidences at index 1"),
    (lambda: mfid.l2_normalize([[NAN, 1.0]]), "row at index 0"),
], ids=["kl_div p", "kl_div q", "sim_pair_loss", "dissim_pair_loss", "pca_transform",
        "logreg_predict", "baseline_pipeline", "average_precision", "l2_normalize"])
def test_library_entry_points_reject_non_finite_input(call, message):
    with pytest.raises(ValueError) as error:
        call()
    assert str(error.value) == f"non-finite {message}"


# ---------------------------------------------------------------------------
# closed set


def test_closed_set_perfect_embeddings():
    rng = np.random.default_rng(7)
    emb, labels = cluster_embeddings(rng, spread=0.001)
    report = closed_set_eval(emb, labels, TrialConfig(trials=10))
    assert report.mean == 1.0
    assert all(rate == 1.0 for _, rate in report.curve)


def test_closed_set_cmc_monotone_terminal_one():
    rng = np.random.default_rng(8)
    emb = rng.normal(size=(40, 6))  # unstructured: ranks all over the place
    labels = np.repeat(np.arange(5), 8)
    report = closed_set_eval(emb, labels, TrialConfig(trials=20))
    rates = [rate for _, rate in report.curve]
    assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))
    assert rates[-1] == pytest.approx(1.0)


def test_closed_set_chance_level():
    # random embeddings, K=20: Rank-1 within 1/K +- 0.03 over 100 trials
    rng = np.random.default_rng(9)
    emb = rng.normal(size=(200, 32))
    labels = np.repeat(np.arange(20), 10)
    report = closed_set_eval(emb, labels, TrialConfig(trials=100))
    assert abs(report.mean - 1 / 20) <= 0.03


def test_closed_set_deterministic():
    rng = np.random.default_rng(10)
    emb, labels = cluster_embeddings(rng, spread=0.5)
    a = closed_set_eval(emb, labels, TrialConfig(trials=5, seed=3))
    b = closed_set_eval(emb, labels, TrialConfig(trials=5, seed=3))
    assert a == b


def test_closed_set_trial_rejects_small_identity():
    emb = np.ones((3, 2)) + np.arange(3)[:, None]
    labels = np.array([0, 0, 1])
    with pytest.raises(ValueError, match="identity 1"):
        _closed_set(_TestIndex(emb, labels), TrialConfig(trials=1))


def test_closed_set_std_zero_for_single_trial():
    rng = np.random.default_rng(11)
    emb, labels = cluster_embeddings(rng)
    report = closed_set_eval(emb, labels, TrialConfig(trials=1))
    assert report.std == 0.0


# ---------------------------------------------------------------------------
# open set


def test_open_set_perfect_separation():
    # distractor cluster directions are near-orthogonal to gallery identities,
    # so every mated probe outscores every distractor probe
    rng = np.random.default_rng(12)
    emb, labels = cluster_embeddings(rng, k=10, per_id=6, dim=32, spread=0.01)
    report = open_set_eval(emb, labels, TrialConfig(trials=10, distractor_identities=3))
    assert report.mean == 1.0


def test_open_set_far_target_one_equals_rank1():
    rng = np.random.default_rng(13)
    emb, labels = cluster_embeddings(rng, k=8, per_id=5, dim=8, spread=0.6)
    cfg = TrialConfig(trials=8, distractor_identities=2, far_target=1.0, seed=5)
    report = open_set_eval(emb, labels, cfg)
    assert all(t == -np.inf for t in report.thresholds)
    # DIR at FAR 1.0 is just the rank-1 rate of mated probes; sanity bounds
    assert 0.0 <= report.mean <= 1.0


def test_open_set_needs_enough_identities():
    rng = np.random.default_rng(14)
    emb, labels = cluster_embeddings(rng, k=4)
    with pytest.raises(ValueError, match="identities"):
        open_set_eval(emb, labels, TrialConfig(distractor_identities=6))


def test_open_set_fixed_vs_per_trial_distractors():
    rng = np.random.default_rng(15)
    emb, labels = cluster_embeddings(rng, k=10, per_id=5, dim=6, spread=0.4)
    fixed = open_set_eval(emb, labels,
                          TrialConfig(trials=6, distractor_identities=3, seed=1))
    drawn = open_set_eval(emb, labels,
                          TrialConfig(trials=6, distractor_identities=3, seed=1,
                                      distractor_mode="per_trial"))
    assert fixed.values != drawn.values  # different trial composition


def test_open_set_deterministic():
    rng = np.random.default_rng(16)
    emb, labels = cluster_embeddings(rng, k=10, per_id=5, dim=6, spread=0.4)
    cfg = TrialConfig(trials=5, distractor_identities=3, seed=9)
    assert open_set_eval(emb, labels, cfg) == open_set_eval(emb, labels, cfg)


# ---------------------------------------------------------------------------
# verification


def test_verification_negative_count():
    rng = np.random.default_rng(17)
    emb, labels = cluster_embeddings(rng, k=18, per_id=3, dim=24)
    positives, negatives = verification_scores(emb, labels)
    assert positives.size == labels.size
    assert negatives.size == labels.size * 17  # 17 negatives per sample


def test_verification_excludes_self_match():
    # two identical rows per identity: positive score is the partner (1.0),
    # never the self-match; make one identity's rows unique to check
    emb = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.0, 2.0]])
    labels = np.array([0, 0, 1, 1])
    positives, _ = verification_scores(emb, labels)
    assert positives[2] == pytest.approx(1.0)  # [0,1] vs [0,2]: same direction
    assert positives[0] == pytest.approx(0.9 / math.hypot(0.9, 0.1))


def test_verification_chance_when_scores_uninformative():
    rng = np.random.default_rng(18)
    emb = rng.normal(size=(120, 50))
    labels = np.repeat(np.arange(4), 30)
    positives, negatives = verification_scores(emb, labels)
    for target in (0.5, 0.25):
        tar, _ = tar_at_far(positives, negatives, target)
        assert abs(tar - target) < 0.2  # indistinguishable pools -> TAR tracks FAR


def test_verification_eval_reports_single_value():
    rng = np.random.default_rng(19)
    emb, labels = cluster_embeddings(rng)
    report = verification_eval(emb, labels, TrialConfig())
    assert len(report.values) == 1
    assert report.std == 0.0
    assert len(report.curve) >= 2


def test_verification_rejects_singleton_identity():
    emb = np.ones((3, 2)) + np.arange(3)[:, None]
    with pytest.raises(ValueError, match="single sample"):
        verification_scores(emb, np.array([0, 0, 1]))


# ---------------------------------------------------------------------------
# report container


def test_eval_report_mean_std():
    r = EvalReport.from_values([0.5, 0.7])
    assert r.mean == pytest.approx(0.6)
    assert r.std == pytest.approx(0.1)  # population std


def test_eval_report_rejects_empty():
    with pytest.raises(ValueError):
        EvalReport.from_values([])


def test_trial_config_validation():
    with pytest.raises(ValueError):
        TrialConfig(trials=0)
    with pytest.raises(ValueError):
        TrialConfig(far_target=0.0)
    with pytest.raises(ValueError):
        TrialConfig(far_target=1.5)
    with pytest.raises(ValueError):
        TrialConfig(distractor_mode="sometimes")


# ---------------------------------------------------------------------------
# sorted scoring core against the loops it replaced
#
# The reference implementations below are the earlier per-score and
# per-identity loops.  The sorted core must reproduce them bit for bit.


def reference_far_threshold(nonmated_scores, far_target):
    """One searchsorted per distinct score value."""
    scores = np.asarray(nonmated_scores, dtype=np.float64)
    if far_target == 1.0:
        return float("-inf")
    allowed = max(k for k in range(scores.size + 1) if k / scores.size <= far_target)
    values = np.unique(scores)
    ordered = np.sort(scores)
    count_at_or_above = scores.size - np.searchsorted(ordered, values, side="left")
    qualifying = values[count_at_or_above <= allowed]
    if qualifying.size:
        return float(qualifying[0])
    return float(np.nextafter(values[-1], np.inf))


def reference_identity_max_scores(scores, gallery_labels):
    """One masked column max per identity."""
    ids = np.unique(gallery_labels)
    pooled = np.empty((scores.shape[0], ids.size))
    for col, ident in enumerate(ids):
        pooled[:, col] = scores[:, gallery_labels == ident].max(axis=1)
    return pooled, ids


def reference_verification_scores(embeddings, labels, block_rows=None):
    """Self-excluded similarity matrix pooled by the per-identity loop.

    With ``block_rows``, the matrix is stacked from ``e[lo:hi] @ e.T``
    products of that many rows, the products the scoring code forms.
    """
    e = embeddings / np.linalg.norm(embeddings, axis=1)[:, None]
    if block_rows is None:
        sims = e @ e.T
    else:
        sims = np.vstack([e[lo:lo + block_rows] @ e.T
                          for lo in range(0, labels.size, block_rows)])
    sims = np.clip(sims, -1.0, 1.0)
    np.fill_diagonal(sims, -2.0)
    per_identity, identities = reference_identity_max_scores(sims, labels)
    own_col = np.searchsorted(identities, labels)
    positives = per_identity[np.arange(labels.size), own_col]
    negatives = per_identity[np.arange(identities.size)[None, :] != own_col[:, None]]
    return positives, negatives


def draw_scores(rng, size, tied):
    """Continuous normal scores, or scores rounded to one decimal (heavy ties)."""
    scores = rng.normal(size=size)
    return np.round(scores, 1) if tied else scores


def draw_labelled_embeddings(rng, tied):
    k = int(rng.integers(2, 7))
    labels = rng.permutation(np.repeat(rng.choice(50, size=k, replace=False),
                                       int(rng.integers(2, 6))))
    emb = draw_scores(rng, (labels.size, 4), tied)
    emb[np.linalg.norm(emb, axis=1) == 0.0, 0] = 1.0
    return emb, labels


SCORE_CASES = [(seed, tied) for seed in range(3) for tied in (True, False)]


@pytest.mark.parametrize("seed,tied", SCORE_CASES)
def test_far_threshold_matches_reference(seed, tied):
    rng = np.random.default_rng(100 + seed)
    for _ in range(100):
        scores = draw_scores(rng, int(rng.integers(1, 80)), tied)
        target = float(rng.uniform(1e-3, 1.0))
        assert far_threshold(scores, target) == reference_far_threshold(scores, target)


@pytest.mark.parametrize("seed,tied", SCORE_CASES)
def test_far_threshold_edge_targets_match_reference(seed, tied):
    rng = np.random.default_rng(110 + seed)
    for n in (1, 2, 7, 40):
        scores = draw_scores(rng, n, tied)
        # allowed = 0, allowed = 1, allowed = n - 1 (none when n = 1), everything
        for target in [t for t in (0.5 / n, 1.0 / n, (n - 1) / n, 1.0) if t > 0.0]:
            assert far_threshold(scores, target) == reference_far_threshold(scores, target)
    # allowed = 0 puts the threshold just above the maximum
    assert far_threshold(scores, 0.5 / scores.size) == np.nextafter(scores.max(), np.inf)
    assert far_threshold(scores, 1.0) == -np.inf


def test_far_threshold_single_score():
    assert far_threshold([0.4], 0.5) == np.nextafter(0.4, np.inf)
    assert far_threshold([0.4], 1.0) == -np.inf


def test_far_threshold_guard_decides_the_floor():
    # 0.29 * 100 evaluates to 28.999999999999996; the 1e-9 guard lets 29
    # of the 100 distinct scores through instead of 28.
    assert math.floor(0.29 * 100) == 28
    scores = np.random.default_rng(120).permutation(np.arange(100.0))
    assert far_threshold(scores, 0.29) == 71.0
    assert reference_far_threshold(scores, 0.29) == 71.0
    assert np.sum(scores >= 71.0) == 29
    # Just below 1.0 the guard does not allow all n scores: 100 / 100 > target.
    assert far_threshold(scores, 1.0 - 1e-12) == 1.0
    assert reference_far_threshold(scores, 1.0 - 1e-12) == 1.0


def test_far_threshold_never_accepts_beyond_its_target():
    # floor(target * n + 1e-9) is 1 here, and accepting the one score is FAR 1.0.
    below_one = np.nextafter(1.0, 0.0)
    assert far_threshold([-1.0], below_one) == np.nextafter(-1.0, np.inf)
    assert far_thresholds([0.0, 1.0, 2.0], [2 / 3, np.nextafter(2 / 3, 0.0)]).tolist() == [
        1.0, 2.0]


@pytest.mark.parametrize("seed,tied", SCORE_CASES)
def test_tar_at_far_matches_mean_over_positives(seed, tied):
    rng = np.random.default_rng(130 + seed)
    for _ in range(50):
        pos = draw_scores(rng, int(rng.integers(1, 60)), tied) + 0.5
        neg = draw_scores(rng, int(rng.integers(1, 60)), tied)
        target = float(rng.uniform(1e-3, 1.0))
        tau = reference_far_threshold(neg, target)
        assert tar_at_far(pos, neg, target) == (float(np.mean(pos >= tau)), tau)


# 1-row blocks; 2-row blocks over 7 rows (a ragged last block); one block
# for everything.
@pytest.mark.parametrize("block_cells", [1, 15, 10**6])
@pytest.mark.parametrize("tied", [True, False])
def test_verification_scores_blocks_match_reference(monkeypatch, block_cells, tied):
    monkeypatch.setattr(mfid.evaluation, "_POOL_BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(200 + block_cells)
    cases = [draw_labelled_embeddings(rng, tied) for _ in range(5)]
    # sparse unsorted ids over 7 rows; one identity, so no negatives; an odd width
    cases += [(draw_scores(rng, (7, 4), tied) + 0.05, np.array([3, 0, 3, 0, 8, 8, 0])),
              (draw_scores(rng, (3, 4), tied) + 0.05, np.array([5, 5, 5])),
              (rng.normal(size=(40, 33)), rng.permutation(np.arange(40) % 8))]
    for emb, labels in cases:
        block_rows = max(1, block_cells // labels.size)
        positives, negatives = verification_scores(emb, labels)
        ref_pos, ref_neg = reference_verification_scores(emb, labels, block_rows)
        assert positives.tolist() == ref_pos.tolist()
        assert negatives.tolist() == ref_neg.tolist()
        # against the dense product: a block's dot products of unit rows may
        # round differently, by a few ulps per term
        dense_pos, dense_neg = reference_verification_scores(emb, labels)
        tolerance = 4 * emb.shape[1] * np.finfo(np.float64).eps
        np.testing.assert_allclose(positives, dense_pos, rtol=0, atol=tolerance)
        np.testing.assert_allclose(negatives, dense_neg, rtol=0, atol=tolerance)
    positives, negatives = verification_scores(np.empty((0, 4)), np.empty(0, dtype=np.int64))
    assert positives.shape == negatives.shape == (0,)
    assert positives.dtype == negatives.dtype == np.float64


def test_verification_scores_hold_one_square_matrix():
    """Verification holds one row block of the product and its label-ordered
    copy, never the whole n x n matrix (72 MB here)."""
    rng = np.random.default_rng(205)
    n, n_ids = 3000, 100
    emb = rng.normal(size=(n, 16))
    labels = np.repeat(np.arange(n_ids), n // n_ids)
    tracemalloc.start()
    try:
        verification_scores(emb, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block_bytes = 2 * 8 * mfid.evaluation._POOL_BLOCK_CELLS
    output_bytes = 8 * n * n_ids
    assert peak < 2 * (block_bytes + output_bytes)


@pytest.mark.parametrize("seed,tied", SCORE_CASES)
def test_far_thresholds_match_one_target_at_a_time(seed, tied):
    rng = np.random.default_rng(210 + seed)
    for _ in range(50):
        scores = draw_scores(rng, int(rng.integers(1, 80)), tied)
        n = scores.size
        targets = [*rng.uniform(1e-3, 1.0, size=5).tolist(),
                   0.5 / n, 1.0 / n, (n - 1) / n, 1.0 - 1e-12, 1.0]
        targets = [t for t in targets if t > 0.0]
        thresholds = far_thresholds(scores, targets).tolist()
        assert thresholds == [far_threshold(scores, t) for t in targets]
        assert thresholds == [reference_far_threshold(scores, t) for t in targets]


def test_ascending_scores_are_thresholded_without_a_copy():
    # eval sorts each split's negatives once, in place; tar_at_far and the
    # ROC grid's far_thresholds then search them as they are.
    rng = np.random.default_rng(230)
    scores = rng.uniform(-1.0, 1.0, size=1 << 20)
    positives = rng.uniform(-1.0, 1.0, size=1000)
    grid = np.round(np.linspace(0.01, 1.0, 100), 10)
    want = far_thresholds(scores, grid)
    want_tar = tar_at_far(positives, scores, 0.01)
    scores.sort()
    tracemalloc.start()
    try:
        got = far_thresholds(scores, grid)
        got_tar = tar_at_far(positives, scores, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert got_tar == want_tar
    # the order check's boolean temporary is an eighth of the scores
    assert peak < scores.nbytes / 4


def test_score_split_hands_over_the_negatives_sorted(monkeypatch):
    # One in-place sort per split; the one threshold search, for the FAR
    # target and the ROC grid, then finds the negatives in order.
    rng = np.random.default_rng(231)
    ds = Dataset(rng.normal(size=(60, 5)), np.repeat(np.arange(6), 10))
    head = init_head("linear", 5, 0, 6, seed=0)
    split = Split(np.arange(0, 60, 2), np.arange(1, 60, 2), STRATIFIED, 0)
    searched = []

    def far_thresholds_spy(scores, targets):
        searched.append((scores, mfid.evaluation._ascending(scores) is scores, targets))
        return far_thresholds(scores, targets)

    monkeypatch.setattr(mfid.evaluation, "far_thresholds", far_thresholds_spy)
    reports = _score_split(head, ds, split, ("verification",), TrialConfig(far_target=0.05))
    positives, negatives = verification_scores(
        mfid.evaluation.embed(head, ds.features[split.test_indices]),
        ds.labels[split.test_indices])
    grid = np.round(np.linspace(0.01, 1.0, 100), 10).tolist()
    ((scores, in_order, targets),) = searched
    assert scores.tobytes() == np.sort(negatives).tobytes() and in_order
    assert targets == (0.05, *grid)
    tar, tau = tar_at_far(positives, negatives, 0.05)
    assert reports == {"verification": EvalReport(
        (tar,), tar, 0.0, tuple((far, tar_at_far(positives, negatives, far)[0])
                                for far in grid), (tau,))}


def test_score_split_reports_in_protocol_order():
    rng = np.random.default_rng(232)
    ds = Dataset(rng.normal(size=(80, 5)), np.repeat(np.arange(8), 10))
    head = init_head("linear", 5, 0, 8, seed=0)
    split = Split(np.arange(0, 80, 2), np.arange(1, 80, 2), STRATIFIED, 0)
    cfg = TrialConfig(trials=3, distractor_identities=2)
    reports = _score_split(head, ds, split, ("verification", "open_set", "closed_set"), cfg)
    z = mfid.evaluation.embed(head, ds.features[split.test_indices])
    labels = ds.labels[split.test_indices]
    assert reports == {"closed_set": closed_set_eval(z, labels, cfg),
                       "open_set": open_set_eval(z, labels, cfg),
                       "verification": verification_eval(z, labels, cfg)}
    assert list(reports) == ["closed_set", "open_set", "verification"]


def test_far_thresholds_reject_bad_input():
    with pytest.raises(ValueError, match="no non-mated scores"):
        far_thresholds([], [0.5])
    for targets in ([0.5, 0.0], [1.5], [float("nan")], [-0.1, 0.5]):
        with pytest.raises(ValueError, match="far_target must be in"):
            far_thresholds([0.1, 0.2], targets)


@pytest.mark.parametrize("seed,tied", SCORE_CASES)
def test_verification_scores_match_reference(seed, tied):
    rng = np.random.default_rng(160 + seed)
    for _ in range(20):
        emb, labels = draw_labelled_embeddings(rng, tied)
        positives, negatives = verification_scores(emb, labels)
        ref_pos, ref_neg = reference_verification_scores(emb, labels)
        assert positives.tolist() == ref_pos.tolist()
        assert negatives.tolist() == ref_neg.tolist()


# ---------------------------------------------------------------------------
# properties of the scoring core


@pytest.mark.parametrize("seed,tied", SCORE_CASES)
def test_roc_monotone_from_origin_to_one(seed, tied):
    # Verification's curve, read as measured (FAR, TAR) pairs: a target below
    # one negative's share accepts none of them, and the grid climbs to (1, 1).
    grid = np.round(np.linspace(0.01, 1.0, 100), 10)
    rng = np.random.default_rng(170 + seed)
    for _ in range(30):
        emb, labels = draw_labelled_embeddings(rng, tied)
        pos, neg = verification_scores(emb, labels)
        targets = np.append(0.5 / neg.size, grid)
        thresholds = far_thresholds(neg, targets)
        fars = np.array([np.mean(neg >= tau) for tau in thresholds])
        tars = np.array([np.mean(pos >= tau) for tau in thresholds])
        report = verification_eval(emb, labels, TrialConfig())
        assert report.curve == tuple(zip(grid.tolist(), tars[1:].tolist()))
        assert np.all(fars <= targets)
        assert np.all(np.diff(fars) >= 0.0)
        assert np.all(np.diff(tars) >= 0.0)
        assert fars[0] == 0.0
        assert (fars[-1], tars[-1]) == (1.0, 1.0)


@pytest.mark.parametrize("seed,tied", SCORE_CASES)
def test_far_at_threshold_within_target(seed, tied):
    rng = np.random.default_rng(180 + seed)
    for _ in range(100):
        neg = draw_scores(rng, int(rng.integers(1, 80)), tied)
        n = neg.size
        for target in [t for t in (float(rng.uniform(1e-3, 1.0)), 1.0 / n,
                                   (n - 1) / n, 1.0) if t > 0.0]:
            assert np.mean(neg >= far_threshold(neg, target)) <= target


@pytest.mark.parametrize("seed,tied", SCORE_CASES)
def test_scoring_invariant_to_row_permutation(seed, tied):
    rng = np.random.default_rng(190 + seed)
    for _ in range(20):
        pos = draw_scores(rng, int(rng.integers(1, 60)), tied) + 0.5
        neg = draw_scores(rng, int(rng.integers(1, 60)), tied)
        target = float(rng.uniform(1e-3, 1.0))
        shuffled_pos, shuffled_neg = rng.permutation(pos), rng.permutation(neg)
        assert (tar_at_far(shuffled_pos, shuffled_neg, target)
                == tar_at_far(pos, neg, target))

        emb, labels = draw_labelled_embeddings(rng, tied)
        perm = rng.permutation(labels.size)
        positives, negatives = verification_scores(emb, labels)
        perm_pos, perm_neg = verification_scores(emb[perm], labels[perm])
        # Sample i's K-1 negatives are row i of the negatives, in identity order.
        # BLAS may round a dot product differently at another matrix position.
        np.testing.assert_allclose(perm_pos, positives[perm], rtol=0, atol=1e-12)
        np.testing.assert_allclose(perm_neg.reshape(labels.size, -1),
                                   negatives.reshape(labels.size, -1)[perm],
                                   rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# order invariance, as hypothesis properties

# A handful of repeated values gives heavy ties; the floats give the rest.
SCORE_VALUES = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0]) | st.floats(-1.0, 1.0)
PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                             database=None)


@st.composite
def pooled_gallery_cases(draw):
    """Gallery labels (unsorted, sparse ids), probe labels, scores, a column order."""
    n_ids = draw(st.integers(1, 5))
    gallery_labels = 3 * np.asarray(draw(st.permutations(
        list(range(n_ids)) * draw(st.integers(1, 3)))))
    probe_labels = 3 * np.asarray(draw(st.lists(st.integers(0, n_ids - 1),
                                                min_size=1, max_size=6)))
    scores = np.asarray(draw(st.lists(SCORE_VALUES,
                                      min_size=probe_labels.size * gallery_labels.size,
                                      max_size=probe_labels.size * gallery_labels.size)))
    columns = np.asarray(draw(st.permutations(range(gallery_labels.size))))
    return (scores.reshape(probe_labels.size, -1), probe_labels, gallery_labels,
            columns)


def closed_set_ranks(scores, probe_labels, gallery_labels):
    pooled, ids = reference_pool(scores, gallery_labels)
    ranks = probe_ranks(pooled, ids, probe_labels)
    return ranks, np.bincount(ranks, minlength=ids.size + 1)[1:]


@PROPERTY_SETTINGS
@given(pooled_gallery_cases())
def test_ranks_invariant_to_gallery_column_order(case):
    scores, probe_labels, gallery_labels, columns = case
    ranks, counts = closed_set_ranks(scores, probe_labels, gallery_labels)
    shuffled_ranks, shuffled_counts = closed_set_ranks(
        scores[:, columns], probe_labels, gallery_labels[columns])
    np.testing.assert_array_equal(shuffled_ranks, ranks)
    np.testing.assert_array_equal(shuffled_counts, counts)


@st.composite
def permuted_scores(draw):
    scores = draw(st.lists(SCORE_VALUES, min_size=1, max_size=40))
    order = draw(st.permutations(range(len(scores))))
    return np.asarray(scores), np.asarray(scores)[list(order)]


@PROPERTY_SETTINGS
@given(permuted_scores(), permuted_scores(),
       st.floats(0.0, 1.0, exclude_min=True) | st.sampled_from([0.01, 0.5, 1.0]))
def test_tar_at_far_invariant_to_score_order(positives, negatives, far):
    assert (tar_at_far(positives[1], negatives[1], far)
            == tar_at_far(positives[0], negatives[0], far))


# ---------------------------------------------------------------------------
# brute-force oracles on tied scores, as hypothesis properties

FAR_TARGETS = st.floats(0.0, 1.0, exclude_min=True) | st.sampled_from([0.01, 0.5, 1.0])


@PROPERTY_SETTINGS
@given(st.lists(st.tuples(SCORE_VALUES, st.booleans()), min_size=1, max_size=30),
       st.lists(SCORE_VALUES, min_size=1, max_size=30), FAR_TARGETS)
def test_dir_at_far_counts_accepted_rank1_probes(mated, nonmated, far):
    scores, correct = (np.asarray(column) for column in zip(*mated))
    rate, tau = dir_at_far(scores, correct, nonmated, far)
    assert tau == reference_far_threshold(nonmated, far)
    assert np.mean(np.asarray(nonmated) >= tau) <= far
    assert rate == sum(flag and score >= tau for score, flag in mated) / len(mated)


@PROPERTY_SETTINGS
@given(st.lists(SCORE_VALUES, min_size=1, max_size=40),
       st.lists(FAR_TARGETS, min_size=1, max_size=6))
def test_far_thresholds_fall_as_the_target_grows(scores, targets):
    targets = sorted(targets)
    thresholds = far_thresholds(scores, targets)
    assert np.all(thresholds[1:] <= thresholds[:-1])
    assert all(np.mean(np.asarray(scores) >= tau) <= far
               for tau, far in zip(thresholds, targets))


@st.composite
def tied_embeddings(draw):
    """Labelled embeddings whose entries are -1, 0 or 1, so scores tie often."""
    n_ids = draw(st.integers(1, 4))
    labels = np.asarray(draw(st.permutations(list(range(n_ids)) * draw(st.integers(2, 4)))))
    rows = draw(st.lists(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=3,
                                  max_size=3).filter(any),
                         min_size=labels.size, max_size=labels.size))
    return np.asarray(rows), labels


@PROPERTY_SETTINGS
@given(tied_embeddings(), FAR_TARGETS)
def test_verification_grid_tar_rises_to_one(case, far):
    emb, labels = case
    if np.unique(labels).size < 2:
        with pytest.raises(ValueError, match="no non-mated scores"):
            verification_eval(emb, labels, TrialConfig(far_target=far))
        return
    report = verification_eval(emb, labels, TrialConfig(far_target=far))
    fars, tars = (np.asarray(axis) for axis in zip(*report.curve))
    assert fars.tolist() == np.round(np.linspace(0.01, 1.0, 100), 10).tolist()
    assert np.all(tars[1:] >= tars[:-1])
    assert tars[-1] == 1.0


# ---------------------------------------------------------------------------
# non-finite embeddings


def test_score_matrix_reports_non_finite_index():
    emb = np.ones((4, 2))
    emb[2, 1] = np.nan
    labels = np.array([0, 0, 1, 1])
    with pytest.raises(ValueError, match="non-finite test embedding at index 2"):
        closed_set_eval(emb, labels, TrialConfig())
    with pytest.raises(ValueError, match="non-finite test embedding at index 2"):
        verification_scores(emb, labels)


def test_verification_scores_reject_infinite_embedding():
    emb = np.ones((4, 2)) + np.arange(4)[:, None]
    emb[1, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite test embedding at index 1"):
        verification_scores(emb, np.array([0, 0, 1, 1]))


# ---------------------------------------------------------------------------
# indexed trials against the per-identity loops they replaced
#
# The references below are the earlier trial code: per trial and identity a
# flatnonzero / setdiff1d gallery draw, the rows normalised per trial, and
# pooling by reduceat only.


def reference_scores(probes, gallery):
    """Clipped cosines of probe and gallery rows, each normalised on its own."""
    p = probes / np.linalg.norm(probes, axis=1)[:, None]
    g = gallery / np.linalg.norm(gallery, axis=1)[:, None]
    return np.clip(p @ g.T, -1.0, 1.0)


def reference_pool(scores, gallery_labels):
    """Label-ordered reduceat pooling, whatever the gallery labels."""
    order = np.argsort(gallery_labels, kind="stable")
    ids, starts = np.unique(gallery_labels[order], return_index=True)
    return np.maximum.reduceat(scores[:, order], starts, axis=1), ids


def reference_draw_gallery(labels, identities, per_identity, rng):
    gallery_parts, probe_parts = [], []
    for ident in identities:
        idx = np.flatnonzero(labels == ident)
        if idx.size <= per_identity:
            raise ValueError(
                f"identity {int(ident)} has {idx.size} samples; needs more than "
                f"{per_identity} to field both gallery and probes")
        chosen = rng.choice(idx, size=per_identity, replace=False)
        gallery_parts.append(chosen)
        probe_parts.append(np.setdiff1d(idx, chosen))
    return np.concatenate(gallery_parts), np.concatenate(probe_parts)


def reference_closed_set_trial(embeddings, labels, cfg, rng):
    identities = np.unique(labels)
    gallery_idx, probe_idx = reference_draw_gallery(
        labels, identities, cfg.gallery_images_per_identity, rng)
    pooled, ids = reference_pool(
        reference_scores(embeddings[probe_idx], embeddings[gallery_idx]),
        labels[gallery_idx])
    ranks = probe_ranks(pooled, ids, labels[probe_idx])
    return np.bincount(ranks, minlength=identities.size + 1)[1:], int(probe_idx.size)


def reference_closed_set_eval(embeddings, labels, cfg):
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    n_ids = np.unique(labels).size
    rank1, cmc_sum = [], np.zeros(n_ids)
    for stream in streams:
        counts, n_probes = reference_closed_set_trial(embeddings, labels, cfg,
                                                      np.random.default_rng(stream))
        cmc = np.cumsum(counts) / n_probes
        rank1.append(cmc[0])
        cmc_sum += cmc
    curve = tuple((r + 1, cmc_sum[r] / cfg.trials) for r in range(n_ids))
    return EvalReport.from_values(rank1, curve=curve)


def reference_open_set_eval(embeddings, labels, cfg):
    identities = np.unique(labels)
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.trials + 1)
    fixed = None
    if cfg.distractor_mode == "fixed":
        fixed = np.sort(np.random.default_rng(streams[0]).choice(
            identities, size=cfg.distractor_identities, replace=False))
    rates, thresholds = [], []
    for stream in streams[1:]:
        rng = np.random.default_rng(stream)
        distractors = fixed if fixed is not None else np.sort(rng.choice(
            identities, size=cfg.distractor_identities, replace=False))
        mated_ids = np.setdiff1d(identities, distractors)
        gallery_idx, probe_idx = reference_draw_gallery(
            labels, mated_ids, cfg.gallery_images_per_identity, rng)
        distractor_idx = np.flatnonzero(np.isin(labels, distractors))
        rows = np.concatenate([probe_idx, distractor_idx])
        pooled, ids = reference_pool(
            reference_scores(embeddings[rows], embeddings[gallery_idx]),
            labels[gallery_idx])
        n_mated = probe_idx.size
        ranks = probe_ranks(pooled[:n_mated], ids, labels[probe_idx])
        rate, tau = dir_at_far(pooled[:n_mated].max(axis=1), ranks == 1,
                               pooled[n_mated:].max(axis=1), cfg.far_target)
        rates.append(rate)
        thresholds.append(tau)
    return EvalReport.from_values(rates, thresholds=thresholds)


def shuffled_uneven_embeddings(rng, k=9, low=4, high=9, dim=5, tied=False):
    """Sparse identity ids with uneven counts, in shuffled row order."""
    ids = rng.choice(100, size=k, replace=False)
    labels = rng.permutation(np.repeat(ids, rng.integers(low, high, size=k)))
    emb = draw_scores(rng, (labels.size, dim), tied)
    emb[np.linalg.norm(emb, axis=1) == 0.0, 0] = 1.0
    return emb, labels


@pytest.mark.parametrize("per_identity", [1, 2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_draw_gallery_matches_per_identity_loop(seed, per_identity):
    rng = np.random.default_rng(300 + seed)
    emb, labels = shuffled_uneven_embeddings(rng)
    index = mfid.evaluation._TestIndex(emb, labels)
    for groups in (np.arange(index.ids.size), np.array([0, 2, 3, 7])):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        gallery, probes = mfid.evaluation._draw_gallery(index, groups, per_identity, ours)
        ref_gallery, ref_probes = reference_draw_gallery(
            labels, index.ids[groups], per_identity, theirs)
        np.testing.assert_array_equal(gallery, ref_gallery)
        np.testing.assert_array_equal(probes, ref_probes)
        assert ours.random() == theirs.random()  # the same stream was used


# Three gallery rows per identity check that pooling a trial's gallery by
# reshape reads each identity's rows, whatever their count.
@pytest.mark.parametrize("per_identity", [1, 2, 3])
@pytest.mark.parametrize("tied", [True, False])
def test_trials_match_per_identity_loop(per_identity, tied):
    rng = np.random.default_rng(310 + per_identity)
    for _ in range(3):
        emb, labels = shuffled_uneven_embeddings(rng, low=per_identity + 1, tied=tied)
        for mode in ("fixed", "per_trial"):
            cfg = TrialConfig(trials=12, gallery_images_per_identity=per_identity,
                              distractor_identities=3, far_target=0.2,
                              seed=int(rng.integers(1000)), distractor_mode=mode)
            assert open_set_eval(emb, labels, cfg) == reference_open_set_eval(
                emb, labels, cfg)
        assert closed_set_eval(emb, labels, cfg) == reference_closed_set_eval(
            emb, labels, cfg)
        # one index scores both protocols, as a split of the CLI does
        index = _TestIndex(emb, labels)
        assert _open_set(index, cfg) == reference_open_set_eval(emb, labels, cfg)
        assert _closed_set(index, cfg) == reference_closed_set_eval(emb, labels, cfg)


def test_trials_reject_small_identity_as_before():
    rng = np.random.default_rng(320)
    emb, labels = shuffled_uneven_embeddings(rng, low=2, high=4)
    cfg = TrialConfig(trials=3, gallery_images_per_identity=3, distractor_identities=2)
    for ours, theirs in ((closed_set_eval, reference_closed_set_eval),
                         (open_set_eval, reference_open_set_eval)):
        with pytest.raises(ValueError) as expected:
            theirs(emb, labels, cfg)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            ours(emb, labels, cfg)
