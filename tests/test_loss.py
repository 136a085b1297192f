"""Objective terms: softmax rows, CE, directed KL, pair losses, and their gradients.

The frozen constants in here were computed by hand / with a few lines of
high-precision arithmetic, independent of the implementation:

    kl([.5,.5] || [.25,.75]) = .5*ln(2) + .5*ln(2/3)   = 0.14384103622589045
    kl([.25,.75] || [.5,.5]) = .25*ln(.5) + .75*ln(1.5) = 0.13081203594113697
"""

import math

import numpy as np
import pytest

from mfid import (
    LossConfig,
    LossReport,
    backprop,
    dissim_pair_loss,
    init_head,
    kl_div,
    sim_pair_loss,
    total_loss,
)
from mfid.loss import EPSILON, _loss_and_grad, _softmax_rows

KL_PQ = 0.14384103622589045
KL_QP = 0.13081203594113697
P = np.array([0.5, 0.5])
Q = np.array([0.25, 0.75])


def random_simplex(rng, k):
    v = rng.exponential(size=k)
    return v / v.sum()


# ---------------------------------------------------------------------------
# softmax / cross-entropy


def test_softmax_uniform_on_zeros():
    np.testing.assert_allclose(_softmax_rows(np.zeros((1, 3))), [np.full(3, 1 / 3)],
                               rtol=0, atol=1e-15)


def test_softmax_ln2_case():
    np.testing.assert_allclose(_softmax_rows(np.array([[math.log(2), 0.0]])),
                               [[2 / 3, 1 / 3]], rtol=1e-15)


def test_softmax_large_logits_stable():
    (p,) = _softmax_rows(np.array([[1000.0, 0.0]]))
    assert np.isfinite(p).all()
    assert p[0] == pytest.approx(1.0)
    assert p.sum() == pytest.approx(1.0)


def test_softmax_sums_to_one():
    rng = np.random.default_rng(0)
    for _ in range(100):
        z = rng.normal(scale=10, size=(1, rng.integers(2, 9)))
        assert _softmax_rows(z).sum() == pytest.approx(1.0, abs=1e-12)


def ce_term(logits, label):
    return total_loss(np.array([logits]), np.array([label]), [], LossConfig()).ce_term


def test_cross_entropy_one_hot_is_zero():
    # exp(-1000) underflows, so the softmax row is exactly (0, 1, 0)
    assert ce_term([-1000.0, 0.0, -1000.0], 1) == 0.0


def test_cross_entropy_half_half():
    assert ce_term([0.0, 0.0], 0) == pytest.approx(math.log(2), rel=1e-12)


def test_cross_entropy_zero_prob_clamps():
    value = ce_term([-1000.0, 0.0], 0)
    assert value == pytest.approx(-math.log(1e-12))
    assert math.isfinite(value)


# ---------------------------------------------------------------------------
# KL and pair terms


def test_kl_self_is_zero():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = random_simplex(rng, rng.integers(2, 8))
        assert kl_div(p, p) <= 1e-12


def test_kl_worked_value():
    assert kl_div(P, Q) == pytest.approx(KL_PQ, rel=1e-12)
    assert kl_div(Q, P) == pytest.approx(KL_QP, rel=1e-12)


def test_kl_non_negative_property():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        k = rng.integers(2, 10)
        p, q = random_simplex(rng, k), random_simplex(rng, k)
        assert kl_div(p, q) >= 0.0


def test_kl_zero_p_terms_drop_out():
    # 0 * log(0/q) contributes exactly 0, so the value is finite and exact
    p = np.array([0.0, 1.0])
    q = np.array([0.5, 0.5])
    assert kl_div(p, q) == pytest.approx(math.log(2), rel=1e-12)


def test_kl_shape_mismatch():
    with pytest.raises(ValueError):
        kl_div(np.array([0.5, 0.5]), np.array([0.2, 0.3, 0.5]))


def test_sim_pair_worked_value():
    assert sim_pair_loss(P, Q) == pytest.approx(KL_PQ + KL_QP, rel=1e-12)


def test_sim_pair_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(200):
        k = rng.integers(2, 8)
        p, q = random_simplex(rng, k), random_simplex(rng, k)
        assert sim_pair_loss(p, q) == pytest.approx(sim_pair_loss(q, p), abs=1e-12)


def test_sim_pair_self_is_zero():
    assert sim_pair_loss(P, P) == 0.0


def test_dissim_pair_worked_value():
    expected = (1 - KL_PQ) + (1 - KL_QP)
    assert dissim_pair_loss(P, Q, margin=1.0) == pytest.approx(expected, rel=1e-12)


def test_dissim_pair_saturates_past_margin():
    p = np.array([0.999, 0.001])
    q = np.array([0.001, 0.999])
    assert kl_div(p, q) > 0.5 and kl_div(q, p) > 0.5
    assert dissim_pair_loss(p, q, margin=0.5) == 0.0


def test_dissim_pair_identical_is_twice_margin():
    assert dissim_pair_loss(P, P, margin=1.0) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# batch objective


def scalar_total_loss(logits, labels, pairs, cfg):
    """Straight-line scalar re-implementation used as the oracle."""
    eps = EPSILON
    probs = []
    for z in logits:
        e = np.exp(z - max(z))
        probs.append(e / e.sum())

    def kl(p, q):
        total = 0.0
        for pi, qi in zip(p, q):
            if pi > 0.0:
                total += pi * (math.log(max(pi, eps)) - math.log(max(qi, eps)))
        return total

    ce = sum(-math.log(max(probs[i][labels[i]], eps)) for i in range(len(labels)))
    ce /= len(labels)
    sims, dissims = [], []
    for a, b, similar in pairs:
        fwd, bwd = kl(probs[a], probs[b]), kl(probs[b], probs[a])
        if similar:
            sims.append(fwd + bwd)
        else:
            dissims.append(max(0.0, cfg.margin - fwd) + max(0.0, cfg.margin - bwd))
    sim_term = sum(sims) / len(sims) if sims else 0.0
    dissim_term = sum(dissims) / len(dissims) if dissims else 0.0
    return ce + cfg.sim_weight * sim_term + cfg.dissim_weight * dissim_term


def random_batch(rng, n=16, k=5, n_pairs=8):
    logits = rng.normal(scale=2.0, size=(n, k))
    labels = rng.integers(0, k, size=n)
    pairs = []
    for _ in range(n_pairs):
        a, b = rng.choice(n, size=2, replace=False)
        pairs.append((int(a), int(b), bool(labels[a] == labels[b])))
    return logits, labels, pairs


def test_total_loss_matches_scalar_oracle():
    rng = np.random.default_rng(4)
    cfg = LossConfig()
    for _ in range(25):
        logits, labels, pairs = random_batch(rng)
        report = total_loss(logits, labels, pairs, cfg)
        assert report.total == pytest.approx(scalar_total_loss(logits, labels, pairs, cfg),
                                             abs=1e-12)


def test_total_loss_decomposition_identity():
    rng = np.random.default_rng(5)
    cfg = LossConfig(sim_weight=0.7, dissim_weight=1.3, margin=2.0)
    for _ in range(25):
        logits, labels, pairs = random_batch(rng)
        r = total_loss(logits, labels, pairs, cfg)
        recombined = r.ce_term + cfg.sim_weight * r.sim_term + cfg.dissim_weight * r.dissim_term
        assert r.total == pytest.approx(recombined, abs=1e-12)


def test_total_loss_perfect_pair_is_zero_pair_terms():
    # one similar pair, both one-hot correct and equal -> only CE's clamp floor remains
    logits = np.array([[40.0, 0.0], [40.0, 0.0]])
    labels = np.array([0, 0])
    report = total_loss(logits, labels, [(0, 1, True)], LossConfig())
    assert report.sim_term == pytest.approx(0.0, abs=1e-15)
    assert report.dissim_term == 0.0
    assert report.total == pytest.approx(0.0, abs=1e-12)


def test_total_loss_no_dissimilar_pairs():
    rng = np.random.default_rng(6)
    logits = rng.normal(size=(4, 3))
    labels = np.array([1, 1, 2, 2])
    pairs = [(0, 1, True), (2, 3, True)]
    cfg = LossConfig(sim_weight=0.5)
    r = total_loss(logits, labels, pairs, cfg)
    assert r.dissim_term == 0.0
    assert r.n_dissimilar == 0
    assert r.total == pytest.approx(r.ce_term + 0.5 * r.sim_term, abs=1e-13)


def test_loss_report_csv_row():
    r = LossReport(total=1.5, ce_term=1.0, sim_term=0.25, dissim_term=0.25,
                   n_similar=3, n_dissimilar=2)
    row = r.csv_row(epoch=7)
    assert row.startswith("7,")
    assert row.split(",")[5:] == ["3", "2"]


# ---------------------------------------------------------------------------
# gradient


def finite_difference(logits, labels, pairs, cfg, step=1e-6):
    grad = np.zeros_like(logits)
    for i in range(logits.shape[0]):
        for j in range(logits.shape[1]):
            up = logits.copy()
            up[i, j] += step
            down = logits.copy()
            down[i, j] -= step
            hi = total_loss(up, labels, pairs, cfg).total
            lo = total_loss(down, labels, pairs, cfg).total
            grad[i, j] = (hi - lo) / (2 * step)
    return grad


def logit_gradient(logits, labels, pairs, cfg):
    _, grad = _loss_and_grad(logits, labels, pairs, cfg)
    return grad


def relative_error(a, b):
    return np.linalg.norm(a - b) / (np.linalg.norm(a) + np.linalg.norm(b) + 1e-300)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    cfg = LossConfig()
    for _ in range(10):
        logits, labels, pairs = random_batch(rng, n=8, k=5, n_pairs=6)
        analytic = logit_gradient(logits, labels, pairs, cfg)
        numeric = finite_difference(logits, labels, pairs, cfg)
        assert relative_error(analytic, numeric) < 1e-5


def test_gradient_zero_at_perfect_configuration():
    logits = np.array([[40.0, 0.0], [40.0, 0.0]])
    labels = np.array([0, 0])
    grad = logit_gradient(logits, labels, [(0, 1, True)], LossConfig())
    assert np.abs(grad).max() < 1e-12


def test_gradient_accumulates_over_duplicate_pairs():
    # a sample appearing in two pairs gets the sum of per-pair contributions
    rng = np.random.default_rng(8)
    logits = rng.normal(size=(3, 4))
    labels = np.array([0, 0, 1])
    cfg = LossConfig(sim_weight=1.0, dissim_weight=1.0)

    both = logit_gradient(logits, labels, [(0, 1, True), (0, 2, False)], cfg)
    only_sim = logit_gradient(logits, labels, [(0, 1, True)], cfg)
    only_dis = logit_gradient(logits, labels, [(0, 2, False)], cfg)

    # remove the shared CE part once: grads are CE + pair contributions
    ce_part = logit_gradient(logits, labels, [],
                             LossConfig(sim_weight=0.0, dissim_weight=0.0))
    np.testing.assert_allclose(both - ce_part,
                               (only_sim - ce_part) + (only_dis - ce_part),
                               atol=1e-12)


def test_pair_kinds_in_any_order_give_the_bits_of_similar_first():
    # Interleaved kinds, a row in several pairs and a repeated pair: the
    # objective, its logit gradient and the parameter gradients keep the bits
    # of the same triples listed similar-first.  One dissimilar pair's hinge
    # is active in one direction only, so both -1 and -0.0 factors occur.
    rng = np.random.default_rng(12)
    x = rng.normal(scale=3.0, size=(6, 3))
    labels = np.array([0, 1, 0, 2, 1, 2])
    head = init_head("mlp1", 3, 4, 3, seed=5)
    interleaved = [(0, 1, False), (0, 2, True), (3, 0, False), (1, 4, True),
                   (2, 0, True), (5, 3, True), (4, 0, False), (1, 4, True)]
    similar_first = ([t for t in interleaved if t[2]]
                     + [t for t in interleaved if not t[2]])
    cfg = LossConfig(margin=1.0, sim_weight=0.7, dissim_weight=1.3)
    z = x @ rng.normal(size=(3, 3))
    reports, grads = [], []
    for pairs in (interleaved, similar_first):
        report, grad = _loss_and_grad(z, labels, pairs, cfg)
        assert total_loss(z, labels, pairs, cfg) == report
        head_report, head_grads = backprop(head, x, labels, pairs, cfg)
        reports.append((report, head_report))
        grads.append([grad.tobytes()] + [head_grads[name].tobytes()
                                         for name in sorted(head_grads)])
    assert reports[0] == reports[1]
    assert (reports[0][0].n_similar, reports[0][0].n_dissimilar) == (5, 3)
    assert grads[0] == grads[1]


def test_gradient_hinge_inactive_pairs_contribute_nothing():
    p_sharp = np.array([[60.0, 0.0], [0.0, 60.0]])
    labels = np.array([0, 1])
    with_pair = logit_gradient(p_sharp, labels, [(0, 1, False)], LossConfig(margin=1.0))
    without = logit_gradient(p_sharp, labels, [], LossConfig(margin=1.0))
    np.testing.assert_allclose(with_pair, without, atol=1e-15)


@pytest.mark.parametrize("pair", [(-1, 0, True), (0, -1, False)])
def test_negative_pair_index_is_rejected(pair):
    # -1 would otherwise address the last row of the batch
    rng = np.random.default_rng(14)
    z = rng.normal(size=(4, 3))
    labels = np.array([0, 1, 2, 0])
    with pytest.raises(ValueError, match="pair index out of range for batch"):
        total_loss(z, labels, [pair], LossConfig())
    with pytest.raises(ValueError, match="pair index out of range for batch"):
        logit_gradient(z, labels, [pair], LossConfig())
    head = init_head("linear", 5, 0, 3, seed=0)
    with pytest.raises(ValueError, match="pair index out of range for batch"):
        backprop(head, rng.normal(size=(4, 5)), labels, [pair], LossConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        LossConfig(margin=-1.0)
    with pytest.raises(ValueError):
        LossConfig(sim_weight=-0.5)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["margin", "sim_weight", "dissim_weight"])
def test_config_rejects_non_finite_value(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
        LossConfig(**{name: value})
