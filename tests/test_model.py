"""Embedding heads: init, forward, backprop vs finite differences, SGD, training."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mfid.model
from mfid import (
    LossConfig,
    TrainConfig,
    backprop,
    embed,
    init_head,
    load_head,
    lr_schedule,
    save_head,
    synth_gaussian,
    total_loss,
    train,
)
from mfid.dataset import (
    STRATIFIED,
    Dataset,
    PairConstraints,
    Split,
    dense_relabel,
    draw_pairs,
    identity_disjoint_split,
    pair_batch_counts,
    stratified_splits,
)
from mfid.evaluation import classification_accuracy
from mfid.loss import LossReport
from mfid.model import EmbeddingHead, TrainedModel, _check_step_gradients
from mfid.model import logits as head_logits


def make_batch(rng, n=8, k=3, n_pairs=4):
    x = rng.normal(size=(n, 6))
    labels = rng.integers(0, k, size=n)
    pairs = []
    for _ in range(n_pairs):
        a, b = rng.choice(n, size=2, replace=False)
        pairs.append((int(a), int(b), bool(labels[a] == labels[b])))
    return x, labels, tuple(pairs)


# ---------------------------------------------------------------------------
# init


def test_init_deterministic():
    a = init_head("mlp1", 8, 4, 3, seed=0)
    b = init_head("mlp1", 8, 4, 3, seed=0)
    for name in a.params:
        np.testing.assert_array_equal(a.params[name], b.params[name])


def test_init_parameter_counts():
    def n_parameters(head):
        return sum(p.size for p in head.params.values())

    assert n_parameters(init_head("linear", 4, 0, 3, seed=1)) == 4 * 3 + 3
    assert n_parameters(init_head("mlp1", 8, 4, 3, seed=1)) == 8 * 4 + 4 + 4 * 3 + 3


def test_init_biases_zero_weights_scaled():
    head = init_head("mlp1", 100, 50, 10, seed=2)
    assert not head.params["b1"].any()
    assert not head.params["b2"].any()
    # empirical std close to 1/sqrt(fan_in)
    assert head.params["w1"].std() == pytest.approx(0.1, rel=0.15)


def test_linear_head_embed_dim_is_input_dim():
    head = init_head("linear", 7, 3, 4, seed=0)
    assert head.embed_dim == 7


def test_init_rejects_unknown_architecture():
    with pytest.raises(ValueError, match="architecture"):
        init_head("transformer", 4, 4, 3, seed=0)


# ---------------------------------------------------------------------------
# forward


def test_linear_identity_weights_pass_through():
    head = init_head("linear", 3, 0, 3, seed=0)
    head.params["w"] = np.eye(3)
    head.params["b"] = np.zeros(3)
    x = np.array([[1.0, -2.0, 3.0]])
    np.testing.assert_array_equal(head_logits(head, x), x)
    np.testing.assert_array_equal(embed(head, x), x)


def test_mlp_all_negative_preactivations_zero_embedding():
    head = init_head("mlp1", 2, 3, 2, seed=0)
    head.params["w1"] = -np.ones((3, 2))
    head.params["b1"] = np.full(3, -1.0)
    np.testing.assert_array_equal(embed(head, np.array([[1.0, 1.0]])), np.zeros((1, 3)))


def test_forward_matches_manual_matrix_product():
    rng = np.random.default_rng(3)
    head = init_head("mlp1", 5, 4, 3, seed=7)
    x = rng.normal(size=5)
    (emb,), (z,) = embed(head, x[None, :]), head_logits(head, x[None, :])
    hidden = np.maximum(head.params["w1"] @ x + head.params["b1"], 0.0)
    np.testing.assert_allclose(emb, hidden, atol=1e-12)
    np.testing.assert_allclose(z, head.params["w2"] @ hidden + head.params["b2"],
                               atol=1e-12)


def test_forward_rejects_non_finite():
    head = init_head("linear", 2, 0, 2, seed=0)
    with pytest.raises(ValueError, match="finite"):
        head_logits(head, np.array([[1.0, np.inf]]))


def test_embed_rejects_non_finite_batch():
    head = init_head("mlp1", 3, 4, 2, seed=0)
    x = np.ones((5, 3))
    x[3, 1] = np.nan
    with pytest.raises(ValueError, match="^non-finite feature value at index 3$"):
        embed(head, x)


def test_logits_rejects_non_finite_batch():
    head = init_head("linear", 3, 0, 2, seed=0)
    x = np.ones((5, 3))
    x[0, 2] = -np.inf
    with pytest.raises(ValueError, match="^non-finite feature value at index 0$"):
        head_logits(head, x)


def test_embed_dimension_mismatch():
    head = init_head("linear", 4, 0, 2, seed=0)
    with pytest.raises(ValueError, match="dim"):
        embed(head, np.zeros((3, 5)))


# ---------------------------------------------------------------------------
# lr schedule


def test_lr_schedule_default_preset():
    cfg = TrainConfig()
    assert lr_schedule(0, cfg) == 1e-3
    assert lr_schedule(19, cfg) == 1e-3
    assert lr_schedule(20, cfg) == pytest.approx(1e-4)
    assert lr_schedule(45, cfg) == pytest.approx(1e-5)


def test_lr_schedule_rejects_negative_epoch():
    with pytest.raises(ValueError):
        lr_schedule(-1, TrainConfig())


# ---------------------------------------------------------------------------
# sgd: the step the reference loop below takes


def sgd_step(head: EmbeddingHead, grads: dict[str, np.ndarray], lr: float) -> EmbeddingHead:
    """One plain gradient step; returns a new head, inputs untouched."""
    if lr < 0:
        raise ValueError(f"learning rate must be non-negative, got {lr}")
    _check_step_gradients(grads)
    new_params = {name: value - lr * grads[name] for name, value in head.params.items()}
    return EmbeddingHead(head.architecture, head.input_dim, head.embed_dim,
                         head.n_classes, new_params)


def test_sgd_zero_gradient_is_identity():
    head = init_head("linear", 3, 0, 2, seed=4)
    zeros = {name: np.zeros_like(p) for name, p in head.params.items()}
    stepped = sgd_step(head, zeros, lr=0.5)
    for name in head.params:
        np.testing.assert_array_equal(stepped.params[name], head.params[name])


def test_sgd_scalar_arithmetic():
    head = init_head("linear", 1, 0, 2, seed=0)
    head.params["w"] = np.array([[1.0], [1.0]])
    grads = {"w": np.array([[2.0], [0.0]]), "b": np.zeros(2)}
    stepped = sgd_step(head, grads, lr=0.1)
    assert stepped.params["w"][0, 0] == pytest.approx(0.8)
    assert stepped.params["w"][1, 0] == 1.0


def test_sgd_rejects_non_finite_gradient():
    head = init_head("linear", 2, 0, 2, seed=0)
    bad = {"w": np.full((2, 2), np.nan), "b": np.zeros(2)}
    with pytest.raises(ValueError, match="finite"):
        sgd_step(head, bad, lr=0.1)


def test_sgd_does_not_mutate_input():
    head = init_head("linear", 2, 0, 2, seed=0)
    before = {k: v.copy() for k, v in head.params.items()}
    sgd_step(head, {k: np.ones_like(v) for k, v in head.params.items()}, lr=1.0)
    for name in before:
        np.testing.assert_array_equal(head.params[name], before[name])


# ---------------------------------------------------------------------------
# backprop


def param_finite_difference(head, x, labels, pairs, cfg, step=1e-6):
    grads = {}
    for name, value in head.params.items():
        g = np.zeros_like(value)
        flat = value.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = total_loss(head_logits(head, x), labels, pairs, cfg).total
            flat[i] = orig - step
            lo = total_loss(head_logits(head, x), labels, pairs, cfg).total
            flat[i] = orig
            g.reshape(-1)[i] = (hi - lo) / (2 * step)
        grads[name] = g
    return grads


def relative_error(a, b):
    return np.linalg.norm(a - b) / (np.linalg.norm(a) + np.linalg.norm(b) + 1e-300)


@pytest.mark.parametrize("architecture", ["linear", "mlp1"])
def test_backprop_matches_finite_differences(architecture):
    rng = np.random.default_rng(11)
    cfg = LossConfig()
    for trial in range(5):
        x, labels, pairs = make_batch(rng, n=8, k=3, n_pairs=4)
        head = init_head(architecture, 6, 4, 3, seed=trial)
        _, analytic = backprop(head, x, labels, pairs, cfg)
        numeric = param_finite_difference(head, x, labels, pairs, cfg)
        for name in analytic:
            assert relative_error(analytic[name], numeric[name]) < 1e-5, name


def test_backprop_zero_at_minimum():
    # one similar pair, identical sharp correct logits -> every gradient ~ 0
    head = init_head("linear", 2, 0, 2, seed=0)
    head.params["w"] = np.array([[30.0, 0.0], [-30.0, 0.0]])
    head.params["b"] = np.zeros(2)
    x = np.array([[1.0, 0.0], [1.0, 0.0]])
    labels = np.array([0, 0])
    pairs = ((0, 1, True),)
    _, grads = backprop(head, x, labels, pairs, LossConfig())
    for g in grads.values():
        assert np.abs(g).max() < 1e-10


def test_backprop_linear_weight_grad_is_outer_product():
    rng = np.random.default_rng(12)
    x, labels, pairs = make_batch(rng, n=6, k=3, n_pairs=3)
    head = init_head("linear", 6, 0, 3, seed=5)
    from mfid.loss import _loss_and_grad

    _, g_logits = _loss_and_grad(head_logits(head, x), labels, pairs, LossConfig())
    _, grads = backprop(head, x, labels, pairs, LossConfig())
    np.testing.assert_allclose(grads["w"], g_logits.T @ x, atol=1e-12)
    np.testing.assert_allclose(grads["b"], g_logits.sum(axis=0), atol=1e-12)


# ---------------------------------------------------------------------------
# training loop


def test_train_epoch_count_and_history():
    ds = synth_gaussian(3, 4, 5, 1.0, 0.05, seed=1)
    (split,) = stratified_splits(ds, 1, 0.25, seed=0)
    model = train(ds, split, TrainConfig(epochs=1, batch_pairs=2))
    assert len(model.loss_history) == 1
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


@pytest.mark.parametrize("lr", [math.nan, math.inf])
def test_train_config_rejects_non_finite_lr(lr):
    with pytest.raises(ValueError, match=f"^initial_lr must be finite, got {lr}$"):
        TrainConfig(initial_lr=lr)


def test_train_deterministic_bit_identical():
    ds = synth_gaussian(5, 6, 4, 1.0, 0.2, seed=2)
    (split,) = stratified_splits(ds, 1, 0.2, seed=1)
    cfg = TrainConfig(epochs=3, batch_pairs=4, seed=9)
    a = train(ds, split, cfg)
    b = train(ds, split, cfg)
    for name in a.head.params:
        np.testing.assert_array_equal(a.head.params[name], b.head.params[name])
    assert a.loss_history == b.loss_history


def test_train_seed_changes_history():
    ds = synth_gaussian(5, 6, 4, 1.0, 0.2, seed=2)
    (split,) = stratified_splits(ds, 1, 0.2, seed=1)
    a = train(ds, split, TrainConfig(epochs=2, batch_pairs=4, seed=0))
    b = train(ds, split, TrainConfig(epochs=2, batch_pairs=4, seed=1))
    assert a.loss_history != b.loss_history


def test_train_separable_reaches_full_accuracy():
    # near-zero noise: easily separable; generous lr beats the tiny default
    ds = synth_gaussian(20, 10, 16, 1.0, 0.01, seed=3)
    (split,) = stratified_splits(ds, 1, 0.2, seed=0)
    cfg = TrainConfig(epochs=50, initial_lr=0.5, seed=0)
    model = train(ds, split, cfg)
    acc = classification_accuracy(model.head, ds.features[split.test_indices],
                                  ds.labels[split.test_indices])
    assert acc == 1.0


def test_train_cross_entropy_objective_has_no_pair_terms():
    ds = synth_gaussian(4, 6, 4, 1.0, 0.2, seed=4)
    (split,) = stratified_splits(ds, 1, 0.25, seed=0)
    model = train(ds, split, TrainConfig(epochs=2, objective="cross_entropy"))
    for report in model.loss_history:
        assert report.sim_term == 0.0
        assert report.dissim_term == 0.0
        assert report.n_similar == 0


def test_train_identity_disjoint_relabels():
    ds = synth_gaussian(6, 5, 4, 1.0, 0.2, seed=5)
    split = identity_disjoint_split(ds, 0.3, seed=0)  # ceil(1.8) = 2 ids held out
    model = train(ds, split, TrainConfig(epochs=1, batch_pairs=2))
    assert model.head.n_classes == 4


def test_train_momentum_changes_trajectory():
    ds = synth_gaussian(4, 6, 4, 1.0, 0.2, seed=6)
    (split,) = stratified_splits(ds, 1, 0.25, seed=0)
    plain = train(ds, split, TrainConfig(epochs=3, seed=2))
    heavy = train(ds, split, TrainConfig(epochs=3, seed=2, momentum=0.9))
    assert any(not np.array_equal(plain.head.params[k], heavy.head.params[k])
               for k in plain.head.params)


# ---------------------------------------------------------------------------
# train against the per-step loop it replaced


def reference_train(ds: Dataset, split: Split, cfg: TrainConfig) -> TrainedModel:
    """The per-step training loop ``train`` replaced, kept as its oracle."""
    x = ds.features[split.train_indices]
    y, class_ids = dense_relabel(ds.labels[split.train_indices])
    if class_ids.size < 2:
        raise ValueError("training requires at least two identities on the train side")
    root = np.random.SeedSequence(cfg.seed)
    init_stream, batch_stream = root.spawn(2)
    head = init_head(cfg.architecture, x.shape[1], cfg.embed_dim, class_ids.size,
                     init_stream)
    rng = np.random.default_rng(batch_stream)

    n_train = x.shape[0]
    batch_images = 2 * cfg.batch_pairs
    steps = max(1, math.ceil(n_train / batch_images))
    use_pairs = cfg.objective == "mfid"
    if use_pairs:
        constraints = PairConstraints(y)
        n_similar, n_dissimilar = pair_batch_counts(cfg.batch_pairs, cfg.similar_fraction)
        # Row 2k and 2k + 1 of the gathered batch are the k-th pair's images.
        similar = [k < n_similar for k in range(cfg.batch_pairs)]
        local = tuple(zip(range(0, batch_images, 2), range(1, batch_images, 2), similar))
    else:
        local = ()
    velocity = ({name: np.zeros_like(p) for name, p in head.params.items()}
                if cfg.momentum > 0 else None)

    history = []
    for epoch in range(cfg.epochs):
        lr = lr_schedule(epoch, cfg)
        sums = np.zeros(3)
        counts = np.zeros(2, dtype=np.int64)
        for step in range(steps):
            if use_pairs:
                rows = draw_pairs(constraints, n_similar, n_dissimilar, rng).ravel()
            else:
                rows = rng.choice(n_train, size=min(batch_images, n_train), replace=False)
            report, grads = backprop(head, x[rows], y[rows], local, cfg.loss)
            if not math.isfinite(report.total):
                raise RuntimeError(f"non-finite loss at epoch {epoch}, step {step}")
            if velocity is not None:
                for name in grads:
                    velocity[name] = cfg.momentum * velocity[name] + grads[name]
                head = sgd_step(head, velocity, lr)
            else:
                head = sgd_step(head, grads, lr)
            sums += (report.ce_term, report.sim_term, report.dissim_term)
            counts += (report.n_similar, report.n_dissimilar)
        ce, sim, dissim = sums / steps
        total = ce + cfg.loss.sim_weight * sim + cfg.loss.dissim_weight * dissim
        history.append(LossReport(total=float(total), ce_term=float(ce),
                                  sim_term=float(sim), dissim_term=float(dissim),
                                  n_similar=int(counts[0]), n_dissimilar=int(counts[1])))
    return TrainedModel(head, tuple(history))


def assert_same_training(ours, theirs):
    assert ours.loss_history == theirs.loss_history
    assert ours.head.params.keys() == theirs.head.params.keys()
    for name in ours.head.params:
        assert ours.head.params[name].tobytes() == theirs.head.params[name].tobytes()


def oracle_settings():
    """(dataset, split, loss, batch_pairs): stratified with the default loss,
    and identity-disjoint (15 training rows, fewer than a CE batch) with a
    non-default margin and weights."""
    ds = synth_gaussian(6, 7, 5, 1.0, 0.6, seed=3)
    (stratified,) = stratified_splits(ds, 1, 0.3, seed=2)
    small = synth_gaussian(8, 3, 5, 1.0, 0.6, seed=4)
    disjoint = identity_disjoint_split(small, 0.3, seed=1)
    assert disjoint.train_indices.size == 15
    return [(ds, stratified, LossConfig(), 5),
            (small, disjoint, LossConfig(margin=2.5, sim_weight=0.3, dissim_weight=1.7), 8)]


ORACLE_CASES = [
    (architecture, objective, momentum, similar_fraction)
    for architecture in ("linear", "mlp1")
    for objective in ("mfid", "cross_entropy")
    for momentum in (0.0, 0.9)
    for similar_fraction in (0.0, 0.4, 1.0)
    if objective == "mfid" or similar_fraction == 0.4
]


@pytest.mark.parametrize("architecture,objective,momentum,similar_fraction", ORACLE_CASES)
def test_train_bit_identical_to_reference_loop(architecture, objective, momentum,
                                               similar_fraction):
    for ds, split, loss_cfg, batch_pairs in oracle_settings():
        cfg = TrainConfig(epochs=3, batch_pairs=batch_pairs, initial_lr=0.2,
                          decay_factor=0.5, decay_every=2, objective=objective,
                          loss=loss_cfg, seed=7, architecture=architecture, embed_dim=4,
                          similar_fraction=similar_fraction, momentum=momentum)
        assert_same_training(train(ds, split, cfg), reference_train(ds, split, cfg))


@pytest.mark.parametrize("architecture", ["linear", "mlp1"])
@pytest.mark.parametrize("objective", ["mfid", "cross_entropy"])
def test_train_non_finite_loss_matches_reference_loop(architecture, objective):
    ds = synth_gaussian(6, 7, 5, 1.0, 0.6, seed=3)
    (split,) = stratified_splits(ds, 1, 0.3, seed=2)
    cfg = TrainConfig(epochs=3, batch_pairs=5, initial_lr=1e308, objective=objective,
                      seed=1, architecture=architecture, embed_dim=4)
    with np.errstate(all="ignore"):
        with pytest.raises(RuntimeError, match="non-finite loss at epoch") as ours:
            train(ds, split, cfg)
        with pytest.raises(RuntimeError, match="non-finite loss at epoch") as theirs:
            reference_train(ds, split, cfg)
    assert str(ours.value) == str(theirs.value)


def test_train_stops_on_a_nan_planted_after_construction():
    # train does not check the features again, since the Dataset checked them
    # when it was built; a NaN planted since then shows as a non-finite loss.
    ds = synth_gaussian(6, 7, 5, 1.0, 0.6, seed=3)
    (split,) = stratified_splits(ds, 1, 0.3, seed=2)
    ds.features.flags.writeable = True
    ds.features[:, 2] = np.nan
    for objective in ("mfid", "cross_entropy"):
        cfg = TrainConfig(epochs=2, batch_pairs=5, objective=objective, seed=1)
        with np.errstate(all="ignore"):
            with pytest.raises(RuntimeError, match="^non-finite loss at epoch 0, step 0$"):
                train(ds, split, cfg)


def test_train_holds_no_copy_of_its_side():
    # Batches are gathered through the split, so an epoch's traced peak stays
    # under half the features; a copy of the train side alone is 0.8 of them.
    ds = synth_gaussian(50, 128, 128, 1.0, 0.5, seed=4)
    (split,) = stratified_splits(ds, 1, 0.2, seed=5)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        train(ds, split, TrainConfig(epochs=1, seed=6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.features.shape == (6400, 128)
    assert peak - before < 0.5 * ds.features.nbytes


def test_train_rejects_too_few_pairs_like_sample_pair_batch():
    ds = synth_gaussian(3, 2, 4, 1.0, 0.3, seed=1)
    split = Split(np.arange(ds.n_samples), np.empty(0, dtype=np.int64), STRATIFIED, 0)
    cfg = TrainConfig(epochs=1, batch_pairs=8)
    with pytest.raises(ValueError) as ours:
        train(ds, split, cfg)
    with pytest.raises(ValueError) as theirs:
        reference_train(ds, split, cfg)
    assert str(ours.value) == str(theirs.value) == "cannot draw 4 similar pairs: only 3 exist"


@pytest.mark.parametrize("objective,similar_fraction", [
    ("mfid", 0.0), ("mfid", 0.4), ("mfid", 1.0), ("cross_entropy", 0.5)])
def test_train_steps_on_the_rows_single_draws_give(monkeypatch, objective,
                                                   similar_fraction):
    # Column 0 holds each row's index, so every step's rows can be read back.
    ds = synth_gaussian(6, 7, 3, 1.0, 0.6, seed=3)
    ds = Dataset(np.column_stack([np.arange(ds.n_samples), ds.features]), ds.labels)
    split = Split(np.arange(ds.n_samples), np.empty(0, dtype=np.int64), STRATIFIED, 0)
    cfg = TrainConfig(epochs=3, batch_pairs=5, initial_lr=0.01, objective=objective,
                      seed=11, embed_dim=4, similar_fraction=similar_fraction)
    seen = []
    real_step = mfid.model._adjacent_backprop

    def recording_step(head, x, labels, layout, loss_cfg):
        seen.append((x[:, 0].astype(np.int64), labels, layout.n_similar,
                     layout.n_dissimilar))
        return real_step(head, x, labels, layout, loss_cfg)

    monkeypatch.setattr(mfid.model, "_adjacent_backprop", recording_step)
    train(ds, split, cfg)

    # The rows the per-step draws of the same stream give, step by step.
    steps = math.ceil(ds.n_samples / 10)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(2)[1])
    pc = PairConstraints(ds.labels)
    n_similar, n_dissimilar = pair_batch_counts(5, similar_fraction)
    expected = []
    for _ in range(cfg.epochs * steps):
        if objective == "mfid":
            expected.append(draw_pairs(pc, n_similar, n_dissimilar, rng).ravel())
        else:
            expected.append(rng.choice(ds.n_samples, size=10, replace=False))
    assert len(seen) == len(expected) == 3 * 5
    for (rows, labels, layout_similar, layout_dissimilar), want in zip(seen, expected):
        np.testing.assert_array_equal(rows, want)
        np.testing.assert_array_equal(labels, ds.labels[want])
        similar = np.arange(layout_similar + layout_dissimilar) < layout_similar
        if objective == "mfid":
            # pair k is rows 2k and 2k + 1, the similar pairs first
            np.testing.assert_array_equal(similar, np.arange(5) < n_similar)
            np.testing.assert_array_equal(labels[0::2] == labels[1::2], similar)
        else:
            assert similar.size == 0


def test_step_gradient_check_passes_finite_gradients_whose_sum_overflows():
    head = init_head("mlp1", 3, 2, 2, seed=0)
    grads = {name: np.full_like(p, 1e308) for name, p in head.params.items()}
    with np.errstate(over="ignore"):
        _check_step_gradients(grads)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["w1", "b1", "w2", "b2"])
def test_step_gradient_check_names_a_non_finite_array(name, bad):
    head = init_head("mlp1", 3, 2, 2, seed=0)
    grads = {n: np.ones_like(p) for n, p in head.params.items()}
    grads[name].flat[-1] = bad
    with pytest.raises(ValueError, match=f"^non-finite gradient for '{name}'$"):
        _check_step_gradients(grads)


def test_step_gradient_check_names_the_first_of_opposite_infinities():
    head = init_head("linear", 3, 0, 2, seed=0)
    grads = {"w": np.full((2, 3), np.inf), "b": np.full(2, -np.inf)}
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="^non-finite gradient for 'w'$"):
            _check_step_gradients(grads)


# ---------------------------------------------------------------------------
# checkpoints


@pytest.mark.parametrize("architecture", ["linear", "mlp1"])
def test_checkpoint_round_trip(tmp_path, architecture):
    head = init_head(architecture, 6, 4, 3, seed=8)
    path = tmp_path / "head.mfhd"
    save_head(head, path)
    back = load_head(path)
    assert back.architecture == head.architecture
    assert back.embed_dim == head.embed_dim
    for name in head.params:
        np.testing.assert_array_equal(back.params[name], head.params[name])


@pytest.mark.parametrize("architecture,tag", [("linear", 1), ("mlp1", 2)])
def test_checkpoint_architecture_tags(tmp_path, architecture, tag):
    path = tmp_path / "head.mfhd"
    save_head(init_head(architecture, 4, 3, 2, seed=0), path)
    assert path.read_bytes()[8:12] == tag.to_bytes(4, "little")


@pytest.mark.parametrize("architecture,input_dim,embed_dim,n_classes", [
    ("linear", 0, 0, 3),
    ("linear", 4, 4, 1),
    ("linear", 4, 4, 0),
    ("mlp1", 0, 3, 3),
    ("mlp1", 4, 0, 3),
    ("mlp1", 4, 3, 1),
    ("mlp1", 4, 3, 0),
])
def test_load_head_rejects_each_dimension_init_head_rejects(tmp_path, architecture,
                                                            input_dim, embed_dim, n_classes):
    with pytest.raises(ValueError) as rejected:
        init_head(architecture, input_dim, embed_dim, n_classes, seed=0)
    # A self-consistent checkpoint of those dimensions, zero parameters.
    if architecture == "linear":
        n_params = n_classes * input_dim + n_classes
    else:
        n_params = embed_dim * input_dim + embed_dim + n_classes * embed_dim + n_classes
    tag = 1 if architecture == "linear" else 2
    fields = (1, tag, input_dim, embed_dim, n_classes)  # version, tag, dims
    path = tmp_path / "head.mfhd"
    path.write_bytes(b"MFHD" + b"".join(v.to_bytes(4, "little") for v in fields)
                     + bytes(8 * n_params))
    with pytest.raises(ValueError) as raised:
        load_head(path)
    assert str(raised.value) == f"{path}: {rejected.value}"


def test_checkpoint_load_closes_its_file(tmp_path):
    path = tmp_path / "head.mfhd"
    save_head(init_head("linear", 6, 4, 3, seed=8), path)
    package_root = str(Path(mfid.model.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c",
         f"from mfid import load_head; load_head({str(path)!r})"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "ResourceWarning" not in proc.stderr


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_checkpoint_rejects_non_finite_parameter(tmp_path, value):
    head = init_head("mlp1", 4, 3, 2, seed=0)
    head.params["w2"][1, 2] = value
    path = tmp_path / "head.mfhd"
    save_head(head, path)
    with pytest.raises(ValueError) as raised:
        load_head(path)
    assert str(raised.value) == f"{path}: non-finite value in parameter 'w2'"


def test_checkpoint_rejects_corruption(tmp_path):
    head = init_head("linear", 3, 0, 2, seed=0)
    path = tmp_path / "head.mfhd"
    save_head(head, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="magic"):
        load_head(path)


def test_checkpoint_rejects_truncation(tmp_path):
    head = init_head("mlp1", 4, 3, 2, seed=0)
    path = tmp_path / "head.mfhd"
    save_head(head, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="bytes"):
        load_head(path)


@pytest.mark.parametrize("architecture", ["linear", "mlp1"])
def test_checkpoint_rejects_every_truncation_and_padding(tmp_path, architecture):
    path = tmp_path / "head.mfhd"
    save_head(init_head(architecture, 4, 3, 2, seed=0), path)
    blob = path.read_bytes()
    for damaged in [blob[:cut] for cut in range(len(blob))] + [blob + b"\0"]:
        path.write_bytes(damaged)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_head(path)


@pytest.mark.parametrize("architecture", ["linear", "mlp1"])
def test_checkpoint_rejects_every_header_field_bit_flip(tmp_path, architecture):
    path = tmp_path / "head.mfhd"
    save_head(init_head(architecture, 4, 3, 2, seed=0), path)
    blob = path.read_bytes()
    # version, architecture tag, input_dim, embed_dim, n_classes: bytes 4-23
    for byte in range(4, 24):
        for bit in range(8):
            damaged = bytearray(blob)
            damaged[byte] ^= 1 << bit
            path.write_bytes(bytes(damaged))
            with pytest.raises(ValueError, match=re.escape(str(path))):
                load_head(path)
