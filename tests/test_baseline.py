"""PCA energy truncation, L2 normalization, and logistic-regression baseline."""

import math
import re

import numpy as np
import pytest

from mfid import (
    baseline_pipeline,
    l2_normalize,
    load_baseline_model,
    logreg_fit,
    logreg_predict,
    pca_fit,
    pca_transform,
    save_baseline_model,
    synth_gaussian,
)
from mfid.baseline import DEFAULT_C_GRID, _logreg_solve
from mfid.dataset import stratified_splits


# ---------------------------------------------------------------------------
# PCA


def eig_pca_oracle(x):
    """Independent eigendecomposition of the sample covariance."""
    x = np.asarray(x, dtype=np.float64)
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (x.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    return eigvals[order], eigvecs[:, order]


def test_pca_collinear_data_single_component():
    t = np.linspace(-3, 3, 40)
    x = np.column_stack([2 * t + 1, -t + 4, 0.5 * t])
    for threshold in (0.5, 0.9, 1.0):
        assert pca_fit(x, threshold).n_components == 1


def test_pca_variance_ratio_arithmetic():
    # axis variances 9 and 1: one component explains only 90% < 99%
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4000, 2)) * [3.0, 1.0]
    x -= x.mean(axis=0)
    # rescale the sampled columns to exact 9/1 sample variances
    x /= x.std(axis=0, ddof=1)
    x *= [3.0, 1.0]
    model = pca_fit(x, 0.99)
    assert model.n_components == 2
    assert pca_fit(x, 0.89).n_components == 1


def test_pca_threshold_one_keeps_full_rank():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(30, 6))
    model = pca_fit(x, 1.0)
    assert model.n_components == np.linalg.matrix_rank(x - x.mean(axis=0))


def test_pca_matches_eigendecomposition_oracle():
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.normal(size=(50, 8)) @ rng.normal(size=(8, 8))
        eigvals, eigvecs = eig_pca_oracle(x)
        model = pca_fit(x, 0.9)
        np.testing.assert_allclose(model.explained_variance,
                                   eigvals[:model.n_components], atol=1e-8)
        for j in range(model.n_components):
            # eigenvectors match up to sign
            dot = abs(model.components[:, j] @ eigvecs[:, j])
            assert dot == pytest.approx(1.0, abs=1e-8)


def test_pca_minimal_component_count():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(60, 10)) * 10.0 ** -np.arange(10)
    eigvals, _ = eig_pca_oracle(x)
    ratios = np.cumsum(eigvals) / eigvals.sum()
    for threshold in (0.5, 0.9, 0.99, 0.999):
        r = pca_fit(x, threshold).n_components
        assert ratios[r - 1] >= threshold - 1e-12
        if r > 1:
            assert ratios[r - 2] < threshold  # one fewer would miss the target


def test_pca_transform_of_mean_is_zero():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(25, 5))
    model = pca_fit(x, 0.95)
    z = pca_transform(model, x.mean(axis=0, keepdims=True))
    np.testing.assert_allclose(z, 0.0, atol=1e-12)


def test_pca_reconstruction_captures_energy():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(80, 12)) @ rng.normal(size=(12, 12))
    threshold = 0.9
    model = pca_fit(x, threshold)
    z = pca_transform(model, x)
    recon = z @ model.components.T + model.mean
    captured = 1.0 - ((x - recon) ** 2).sum() / ((x - x.mean(axis=0)) ** 2).sum()
    assert captured >= threshold - 1e-12


def test_pca_transformed_features_uncorrelated():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(100, 7)) @ rng.normal(size=(7, 7))
    z = pca_transform(pca_fit(x, 1.0), x)
    cov = np.cov(z, rowvar=False)
    off_diag = cov - np.diag(np.diag(cov))
    assert np.abs(off_diag).max() < 1e-8


def test_pca_rejects_rank_zero():
    with pytest.raises(ValueError, match="identical"):
        pca_fit(np.ones((5, 3)), 0.9)


# ---------------------------------------------------------------------------
# L2 normalize


def test_l2_normalize_three_four_five():
    np.testing.assert_allclose(l2_normalize(np.array([[3.0, 4.0]])), [[0.6, 0.8]])


def test_l2_normalize_unit_rows_unchanged():
    x = np.array([[1.0, 0.0], [0.0, -1.0]])
    np.testing.assert_allclose(l2_normalize(x), x)


def test_l2_normalize_all_norms_one():
    rng = np.random.default_rng(7)
    z = l2_normalize(rng.normal(size=(40, 6)))
    np.testing.assert_allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-12)


def test_l2_normalize_rejects_zero_row():
    x = np.ones((3, 2))
    x[2] = 0.0
    with pytest.raises(ValueError, match="index 2"):
        l2_normalize(x)


# ---------------------------------------------------------------------------
# logistic regression


def test_logreg_separable_1d():
    x = np.array([[-1.0], [1.0]])
    y = np.array([0, 1])
    model = logreg_fit(x, y, c_grid=[1e4], validation_fraction=0.5)
    assert logreg_predict(model, x).tolist() == [0, 1]


def test_logreg_heavy_regularization_shrinks_weights():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(40, 3))
    y = rng.integers(0, 2, size=40)
    tiny_c = logreg_fit(x, y, c_grid=[1e-8], validation_fraction=0.25)
    assert np.abs(tiny_c.weights).max() < 1e-4
    # near-zero weights: prediction collapses to the bias-favored class
    assert np.unique(logreg_predict(tiny_c, x)).size == 1


def test_logreg_converges_across_default_grid():
    # every decade of the default grid must be solvable on ordinary data
    rng = np.random.default_rng(80)
    x = rng.normal(size=(60, 4))
    y = rng.integers(0, 3, size=60)
    model = logreg_fit(x, y)
    assert set(model.validation_accuracy) == set(DEFAULT_C_GRID)


def test_logreg_skips_non_converging_c():
    rng = np.random.default_rng(90)
    x = rng.normal(size=(40, 3))
    y = (x[:, 0] > 0).astype(int)
    # separable rows: C = 1e5 is still far from converged after 30 iterations
    model = logreg_fit(x, y, c_grid=[1e-5, 1e5], max_iter=30)
    assert model.c_value == 1e-5
    assert list(model.validation_accuracy) == [1e-5]
    with pytest.raises(RuntimeError, match="did not converge for any C"):
        logreg_fit(x, y, c_grid=[1e5], max_iter=30)


def reference_logreg_ce_grad(w, b, x, y):
    """Cross-entropy and its gradient, formed at every trial point."""
    z = x @ w.T + b
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    rows = np.arange(x.shape[0])
    ce = float(-np.log(np.maximum(probs[rows, y], 1e-300)).sum())
    residual = probs
    residual[rows, y] -= 1.0
    return ce, residual.T @ x, residual.sum(axis=0)


def reference_logreg_solve(x, y, n_classes, c_value, max_iter, tol):
    """The solver as it was before the gradient moved to accepted points."""
    w = np.zeros((n_classes, x.shape[1]))
    b = np.zeros(n_classes)
    step = 1.0
    history = []
    ce, gw, gb = reference_logreg_ce_grad(w, b, x, y)
    value = ce + 0.5 / c_value * float((w * w).sum())
    for _ in range(max_iter):
        history.append(value)
        full_gw = gw + w / c_value
        grad_norm = math.sqrt(float((full_gw * full_gw).sum() + (gb * gb).sum()))
        if grad_norm / x.shape[0] <= tol:
            return w, b, history, grad_norm / x.shape[0]
        step = min(step * 2.0, 1e8)
        while True:
            new_w = (w - step * gw) / (1.0 + step / c_value)
            new_b = b - step * gb
            new_ce, new_gw, new_gb = reference_logreg_ce_grad(new_w, new_b, x, y)
            dw, db = new_w - w, new_b - b
            move_sq = float((dw * dw).sum() + (db * db).sum())
            bound = ce + float((gw * dw).sum() + (gb * db).sum()) + move_sq / (2.0 * step)
            if new_ce <= bound + 1e-12 * abs(ce) or step < 1e-18:
                break
            step *= 0.5
        w, b, ce, gw, gb = new_w, new_b, new_ce, new_gw, new_gb
        value = ce + 0.5 / c_value * float((w * w).sum())
    history.append(value)
    full_gw = gw + w / c_value
    grad_norm = math.sqrt(float((full_gw * full_gw).sum() + (gb * gb).sum()))
    return w, b, history, grad_norm / x.shape[0]


@pytest.mark.parametrize("seed", range(4))
def test_logreg_solve_matches_reference(seed):
    rng = np.random.default_rng(300 + seed)
    capped = converged = 0
    for _ in range(15):
        n, d, k = int(rng.integers(4, 40)), int(rng.integers(1, 6)), int(rng.integers(2, 5))
        x = rng.normal(size=(n, d))
        y = rng.integers(0, k, size=n)
        c_value = float(10.0 ** rng.integers(-4, 5))
        max_iter = int(rng.choice([2, 20, 300]))
        w, b, history, residual = _logreg_solve(x, y, k, c_value, max_iter, 1e-6)
        ref_w, ref_b, ref_history, ref_residual = reference_logreg_solve(
            x, y, k, c_value, max_iter, 1e-6)
        assert w.tolist() == ref_w.tolist()
        assert b.tolist() == ref_b.tolist()
        assert history == ref_history
        assert residual == ref_residual
        capped += len(history) - 1 == max_iter and residual > 1e-6
        converged += residual <= 1e-6
    assert capped and converged


def test_pipeline_row_permutation_invariant():
    ds = synth_gaussian(5, 20, 8, 2.0, 0.05, seed=81)
    (split,) = stratified_splits(ds, 1, 0.25, seed=0)
    xtr = ds.features[split.train_indices]
    ytr = ds.labels[split.train_indices]
    xte = ds.features[split.test_indices]
    yte = ds.labels[split.test_indices]
    perm = np.random.default_rng(82).permutation(xtr.shape[0])
    assert (baseline_pipeline(xtr, ytr, xte, yte)
            == baseline_pipeline(xtr[perm], ytr[perm], xte, yte))


def test_logreg_default_grid_is_eleven_decades():
    assert len(DEFAULT_C_GRID) == 11
    assert DEFAULT_C_GRID[0] == pytest.approx(1e-5)
    assert DEFAULT_C_GRID[-1] == pytest.approx(1e5)
    ratios = [DEFAULT_C_GRID[i + 1] / DEFAULT_C_GRID[i] for i in range(10)]
    assert all(r == pytest.approx(10.0) for r in ratios)


def test_logreg_objective_non_increasing():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(60, 4))
    y = rng.integers(0, 3, size=60)
    model = logreg_fit(x, y, c_grid=[1.0], validation_fraction=0.2)
    history = model.objective_history
    assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))


def test_logreg_ties_prefer_smaller_c():
    # perfectly separable: all large-enough C values reach the same accuracy
    ds = synth_gaussian(3, 20, 4, 2.0, 0.01, seed=10)
    model = logreg_fit(ds.features, ds.labels)
    winners = [c for c, acc in model.validation_accuracy.items()
               if acc == max(model.validation_accuracy.values())]
    assert model.c_value == min(winners)


def test_logreg_deterministic():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(50, 3))
    y = rng.integers(0, 2, size=50)
    a = logreg_fit(x, y, c_grid=[0.1, 1.0], seed=3)
    b = logreg_fit(x, y, c_grid=[0.1, 1.0], seed=3)
    np.testing.assert_array_equal(a.weights, b.weights)
    assert a.c_value == b.c_value


def test_logreg_rejects_sparse_labels():
    with pytest.raises(ValueError, match="dense"):
        logreg_fit(np.ones((4, 2)), np.array([0, 0, 2, 2]))


def test_logreg_resubstitution_perfect():
    ds = synth_gaussian(4, 10, 3, 2.0, 0.05, seed=12)
    model = logreg_fit(ds.features, ds.labels, c_grid=[1e3],
                       validation_fraction=0.2)
    assert np.mean(logreg_predict(model, ds.features) == ds.labels) == 1.0


# ---------------------------------------------------------------------------
# pipeline


def test_pipeline_separable_high_accuracy():
    ds = synth_gaussian(8, 25, 32, 1.0, 0.05, seed=13)
    (split,) = stratified_splits(ds, 1, 0.2, seed=0)
    acc = baseline_pipeline(ds.features[split.train_indices],
                            ds.labels[split.train_indices],
                            ds.features[split.test_indices],
                            ds.labels[split.test_indices])
    assert acc >= 0.99


def test_pipeline_accepts_both_energy_presets():
    ds = synth_gaussian(4, 12, 10, 1.0, 0.1, seed=14)
    (split,) = stratified_splits(ds, 1, 0.25, seed=0)
    args = (ds.features[split.train_indices], ds.labels[split.train_indices],
            ds.features[split.test_indices], ds.labels[split.test_indices])
    for energy in (0.99, 0.95):
        acc = baseline_pipeline(*args, energy_threshold=energy)
        assert 0.0 <= acc <= 1.0


# ---------------------------------------------------------------------------
# serialization


def test_pca_model_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    model = pca_fit(rng.normal(size=(30, 5)), 0.9)
    path = tmp_path / "pca.mfbl"
    save_baseline_model(model, path)
    back = load_baseline_model(path)
    np.testing.assert_array_equal(back.mean, model.mean)
    np.testing.assert_array_equal(back.components, model.components)
    assert back.energy_threshold == model.energy_threshold
    assert back.total_variance == model.total_variance


def test_logreg_model_round_trip(tmp_path):
    rng = np.random.default_rng(16)
    x = rng.normal(size=(30, 3))
    y = rng.integers(0, 2, size=30)
    model = logreg_fit(x, y, c_grid=[1.0])
    path = tmp_path / "logreg.mfbl"
    save_baseline_model(model, path)
    back = load_baseline_model(path)
    np.testing.assert_array_equal(back.weights, model.weights)
    np.testing.assert_array_equal(back.bias, model.bias)
    assert back.c_value == model.c_value


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.mfbl"
    path.write_bytes(b"WHAT" + bytes(16))
    with pytest.raises(ValueError, match="magic"):
        load_baseline_model(path)


@pytest.mark.parametrize("kind", ["pca", "logreg"])
def test_load_rejects_every_truncation_and_padding(tmp_path, kind):
    rng = np.random.default_rng(17)
    x = rng.normal(size=(30, 5))
    if kind == "pca":
        model = pca_fit(x, 0.9)
    else:
        model = logreg_fit(x, rng.integers(0, 3, size=30), c_grid=[1.0])
    path = tmp_path / "model.mfbl"
    save_baseline_model(model, path)
    blob = path.read_bytes()
    for damaged in [blob[:cut] for cut in range(len(blob))] + [blob + b"\0"]:
        path.write_bytes(damaged)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_baseline_model(path)


def baseline_model(kind):
    rng = np.random.default_rng(17)
    x = rng.normal(size=(30, 5))
    if kind == "pca":
        return pca_fit(x, 0.9)
    return logreg_fit(x, rng.integers(0, 3, size=30), c_grid=[1.0])


# magic, version, kind, then energy_threshold and total_variance (PCA) or C
HEADER_END = {"pca": 28, "logreg": 20}


@pytest.mark.parametrize("kind", ["pca", "logreg"])
def test_load_rejects_or_keeps_in_range_every_header_bit_flip(tmp_path, kind):
    path = tmp_path / "model.mfbl"
    save_baseline_model(baseline_model(kind), path)
    blob = path.read_bytes()
    for byte in range(4, HEADER_END[kind]):
        for bit in range(8):
            damaged = bytearray(blob)
            damaged[byte] ^= 1 << bit
            path.write_bytes(bytes(damaged))
            try:
                model = load_baseline_model(path)
            except ValueError as exc:
                assert str(path) in str(exc) and "\n" not in str(exc)
                continue
            if kind == "pca":
                assert 0.0 < model.energy_threshold <= 1.0
                assert math.isfinite(model.total_variance) and model.total_variance > 0.0
            else:
                assert math.isfinite(model.c_value) and model.c_value > 0.0


@pytest.mark.parametrize("kind", ["pca", "logreg"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_load_rejects_non_finite_array_value(tmp_path, kind, value):
    path = tmp_path / "model.mfbl"
    save_baseline_model(baseline_model(kind), path)
    blob = path.read_bytes()
    # the last 8 bytes are the last element of the last array
    path.write_bytes(blob[:-8] + np.float64(value).astype("<f8").tobytes())
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*non-finite"):
        load_baseline_model(path)
