"""PCA energy truncation, L2 normalization, and logistic-regression baseline."""

import itertools
import math

import numpy as np
import pytest

import mfid.baseline
from mfid import (
    baseline_pipeline,
    l2_normalize,
    logreg_fit,
    logreg_predict,
    pca_fit,
    pca_transform,
    synth_gaussian,
)
from mfid.baseline import DEFAULT_C_GRID, _logreg_ce_grad, _logreg_solve
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


def test_pca_rejects_non_finite_rows():
    x = np.random.default_rng(4).normal(size=(60, 5))
    x[17, 2] = np.nan
    x[40, 0] = np.inf
    with pytest.raises(ValueError, match="^non-finite feature value at index 17$"):
        pca_fit(x, 0.99)


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


def test_logreg_fit_starts_each_c_from_the_previous_solution(monkeypatch):
    rng = np.random.default_rng(91)
    x = rng.normal(size=(60, 4))
    y = rng.integers(0, 3, size=60)
    solve, calls = mfid.baseline._logreg_solve, []

    def recorded(x, y, n_classes, c_value, max_iter, tol, start=None):
        result = solve(x, y, n_classes, c_value, max_iter, tol, start)
        calls.append((c_value, x.shape[0], start, result[:2]))
        return result

    monkeypatch.setattr(mfid.baseline, "_logreg_solve", recorded)
    model = logreg_fit(x, y, c_grid=[10.0, 0.01, 1.0])
    assert [(c, n) for c, n, _, _ in calls] == [(0.01, 48), (1.0, 48), (10.0, 48),
                                                (model.c_value, 60)]
    assert calls[0][2] is None
    for (_, _, _, previous), (_, _, start, _) in zip(calls, calls[1:3]):
        assert start[0] is previous[0] and start[1] is previous[1]
    chosen = next(fit for c, _, _, fit in calls[:3] if c == model.c_value)
    assert calls[3][2][0] is chosen[0] and calls[3][2][1] is chosen[1]


def reference_holdout(y, validation_fraction, seed):
    """logreg_fit's per-class holdout loop before the label-group index."""
    rng = np.random.default_rng(seed)
    holdout_parts = []
    for cls in range(y.max() + 1):
        idx = np.flatnonzero(y == cls)
        k = min(int(math.floor(idx.size * validation_fraction + 0.5)), idx.size - 1)
        if k > 0:
            holdout_parts.append(rng.choice(idx, size=k, replace=False))
    return (np.sort(np.concatenate(holdout_parts))
            if holdout_parts else np.empty(0, dtype=np.int64))


@pytest.mark.parametrize("validation_fraction", [0.05, 0.2, 0.5])
def test_logreg_holdout_matches_per_class_loop(monkeypatch, validation_fraction):
    # Shuffled rows, 1 to 6 per class: at 0.2 and 0.5 some classes' holdouts
    # round to 0 and draw nothing, and at 0.05 all of them do.
    rng = np.random.default_rng(23)
    y = rng.permutation(np.repeat(np.arange(8), rng.integers(1, 7, size=8)))
    x = rng.normal(size=(y.size, 3))
    solve, fit_rows = mfid.baseline._logreg_solve, []

    def recorded(x_fit, y_fit, *args, **kwargs):
        fit_rows.append(x_fit)
        return solve(x_fit, y_fit, *args, **kwargs)

    monkeypatch.setattr(mfid.baseline, "_logreg_solve", recorded)
    logreg_fit(x, y, c_grid=[1.0], validation_fraction=validation_fraction, seed=9)
    holdout = reference_holdout(y, validation_fraction, 9)
    assert (holdout.size == 0) == (validation_fraction == 0.05)
    np.testing.assert_array_equal(fit_rows[0],
                                  x[np.setdiff1d(np.arange(y.size), holdout)])


def test_logreg_rejects_non_finite_rows():
    # Before the check, a NaN made every fit's residual NaN, and a NaN
    # residual passed as converged: all 11 C values were recorded at 1/3.
    rng = np.random.default_rng(5)
    x = rng.normal(size=(60, 5))
    y = np.repeat(np.arange(3), 20)
    x[33, 4] = np.nan
    with pytest.raises(ValueError, match="^non-finite feature value at index 33$"):
        logreg_fit(x, y)
    x[33, 4] = -np.inf
    with pytest.raises(ValueError, match="^non-finite feature value at index 33$"):
        logreg_fit(x, y)


def test_logreg_non_finite_residual_is_not_converged(monkeypatch):
    rng = np.random.default_rng(6)
    x = rng.normal(size=(30, 2))
    y = np.repeat(np.arange(3), 10)

    def diverged(x, y, n_classes, c_value, max_iter, tol, start=None):
        return np.zeros((n_classes, x.shape[1])), np.zeros(n_classes), [0.0], math.nan

    monkeypatch.setattr(mfid.baseline, "_logreg_solve", diverged)
    with pytest.raises(RuntimeError, match="did not converge for any C"):
        logreg_fit(x, y)


def test_logreg_skips_non_converging_c():
    rng = np.random.default_rng(90)
    x = rng.normal(size=(40, 3))
    y = (x[:, 0] > 0).astype(int)
    # separable rows: C = 1e-5 converges in 4 iterations, while C = 1e5 needs
    # about 25, warm-started from C = 1e-5 or not, so 10 stops it short
    model = logreg_fit(x, y, c_grid=[1e-5, 1e5], max_iter=10)
    assert model.c_value == 1e-5
    assert list(model.validation_accuracy) == [1e-5]
    with pytest.raises(RuntimeError, match="did not converge for any C"):
        logreg_fit(x, y, c_grid=[1e5], max_iter=10)


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
    """Gradient descent with a backtracking line search, the solver L-BFGS replaced."""
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


def reference_objective(w, b, x, y, c_value):
    ce, _, _ = reference_logreg_ce_grad(w, b, x, y)
    return ce + 0.5 / c_value * float((w * w).sum())


@pytest.mark.parametrize("seed", range(4))
def test_logreg_solve_matches_reference(seed):
    # Both solvers stop within tol of one optimum, so they agree on it, not on
    # the bits: wherever the oracle converges L-BFGS does too, and a converged
    # L-BFGS objective is never above the oracle's beyond rounding.
    rng = np.random.default_rng(300 + seed)
    capped = converged = 0
    for _ in range(15):
        n, d, k = int(rng.integers(4, 40)), int(rng.integers(1, 6)), int(rng.integers(2, 5))
        x = rng.normal(size=(n, d))
        y = rng.integers(0, k, size=n)
        c_value = float(10.0 ** rng.integers(-4, 5))
        max_iter = int(rng.choice([2, 20, 300]))
        w, b, history, residual = _logreg_solve(x, y, k, c_value, max_iter, 1e-6)
        _, _, ref_history, ref_residual = reference_logreg_solve(
            x, y, k, c_value, max_iter, 1e-6)
        assert all(later <= earlier for earlier, later in zip(history, history[1:]))
        assert history[-1] == pytest.approx(reference_objective(w, b, x, y, c_value),
                                            rel=1e-12)
        if ref_residual <= 1e-6:
            assert residual <= 1e-6
        if residual <= 1e-6:
            assert history[-1] <= ref_history[-1] + 1e-9 * abs(ref_history[-1])
            converged += 1
        else:
            assert len(history) == max_iter + 1
            capped += 1
    assert capped and converged


def dense_logreg_ce_grad(theta, x1, y, ridge):
    """_logreg_ce_grad before it took rows in blocks: n × K arrays throughout."""
    onehot = y[:, None] == np.arange(theta.shape[0])
    z = x1 @ theta.T
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    sums = e.sum(axis=1, keepdims=True)
    penalized = theta * ridge
    value = float(np.log(sums).sum() - z[onehot].sum() + 0.5 * np.vdot(penalized, theta))
    return value, (e / sums - onehot).T @ x1 + penalized


def ce_grad_inputs(rng, n, d, k, scale=1.0):
    """(theta, x1, y, ridge) for one objective evaluation at a random point."""
    x1 = np.hstack([rng.normal(size=(n, d)), np.ones((n, 1))])
    theta = scale * rng.normal(size=(k, d + 1))
    ridge = np.append(np.full(d, float(10.0 ** rng.integers(-3, 4))), 0.0)
    return theta, x1, rng.integers(0, k, size=n), ridge


@pytest.mark.parametrize("n, d, k", [(1, 1, 2), (37, 3, 4), (500, 8, 50), (1600, 16, 50),
                                     (2048, 3, 2100)])
def test_logreg_ce_grad_in_one_block_is_the_dense_form(n, d, k):
    # K = 2100 puts 2^22 // K below the 2,048-row floor, so 2,048 rows are
    # still one block; the benchmark's fits are at most 1,600 × 50.
    rows = mfid.baseline._block_rows(k)
    assert n <= rows and (k < 2100 or rows == 2048)
    rng = np.random.default_rng(n + k)
    for scale in (0.0, 1.0, 30.0):
        args = ce_grad_inputs(rng, n, d, k, scale)
        value, grad = _logreg_ce_grad(*args)
        dense_value, dense_grad = dense_logreg_ce_grad(*args)
        assert value == dense_value
        assert grad.tobytes() == dense_grad.tobytes()


@pytest.mark.parametrize("block_cells, min_rows", [(24, 1), (100, 7), (400, 64)])
def test_logreg_ce_grad_in_many_blocks(monkeypatch, block_cells, min_rows):
    # Across blocks the sums are regrouped, so the bits may move: the value and
    # each gradient entry stay within a few ulps of the scale of their terms.
    monkeypatch.setattr(mfid.baseline, "_BLOCK_CELLS", block_cells)
    monkeypatch.setattr(mfid.baseline, "_MIN_BLOCK_ROWS", min_rows)
    rng = np.random.default_rng(block_cells)
    eps = np.finfo(np.float64).eps
    for n, d, k in [(300, 4, 3), (257, 6, 5), (1000, 2, 12)]:
        assert mfid.baseline._block_rows(k) < n
        theta, x1, y, ridge = ce_grad_inputs(rng, n, d, k)
        value, grad = _logreg_ce_grad(theta, x1, y, ridge)
        dense_value, dense_grad = dense_logreg_ce_grad(theta, x1, y, ridge)
        # Every term of either sum is at most |z| + log K in size, or
        # |p - onehot| · |x| <= |x|.
        z = x1 @ theta.T
        value_scale = float(np.abs(z).sum() + n * math.log(k))
        grad_scale = np.abs(theta * ridge) + np.abs(x1).sum(axis=0)
        assert abs(value - dense_value) <= 4 * (d + 1) * eps * value_scale
        assert np.all(np.abs(grad - dense_grad) <= 4 * (d + 1) * eps * grad_scale)


def test_logreg_ce_grad_in_blocks_matches_finite_differences(monkeypatch):
    monkeypatch.setattr(mfid.baseline, "_BLOCK_CELLS", 40)
    monkeypatch.setattr(mfid.baseline, "_MIN_BLOCK_ROWS", 3)
    rng = np.random.default_rng(12)
    theta, x1, y, ridge = ce_grad_inputs(rng, 90, 3, 4)
    _, grad = _logreg_ce_grad(theta, x1, y, ridge)
    h = 1e-6
    numeric = np.zeros_like(theta)
    for index in np.ndindex(theta.shape):
        step = np.zeros_like(theta)
        step[index] = h
        numeric[index] = (_logreg_ce_grad(theta + step, x1, y, ridge)[0]
                          - _logreg_ce_grad(theta - step, x1, y, ridge)[0]) / (2 * h)
    np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-6)


def test_logreg_fit_and_predict_in_blocks(monkeypatch):
    # Many blocks in the fits, the holdout probe and the prediction: the same
    # choice of C and the same predictions as in one block, and weights that
    # agree to the solver's tolerance.
    rng = np.random.default_rng(13)
    centres = 2.0 * rng.normal(size=(6, 5))
    y = np.repeat(np.arange(6), 40)
    x = centres[y] + rng.normal(size=(y.size, 5))
    one_block = logreg_fit(x, y)
    monkeypatch.setattr(mfid.baseline, "_BLOCK_CELLS", 60)
    monkeypatch.setattr(mfid.baseline, "_MIN_BLOCK_ROWS", 1)
    blocks = logreg_fit(x, y)
    assert blocks.c_value == one_block.c_value
    assert blocks.validation_accuracy == one_block.validation_accuracy
    np.testing.assert_allclose(blocks.weights, one_block.weights, rtol=1e-4, atol=1e-6)
    predictions = logreg_predict(blocks, x)
    np.testing.assert_array_equal(predictions,
                                  np.argmax(x @ blocks.weights.T + blocks.bias, axis=1))


def logreg_hessian(w, b, x, c_value):
    """Hessian of the penalized cross-entropy in [W | b], one block per class."""
    x1 = np.hstack([x, np.ones((x.shape[0], 1))])
    z = x1 @ np.column_stack([w, b]).T
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    k, d1 = p.shape[1], x1.shape[1]
    cov = np.einsum("na,ab->nab", p, np.eye(k)) - np.einsum("na,nb->nab", p, p)
    hessian = np.einsum("nab,ni,nj->aibj", cov, x1, x1)
    ridge = np.append(np.full(d1 - 1, 1.0 / c_value), 0.0)
    hessian += np.einsum("ab,ij->aibj", np.eye(k), np.diag(ridge))
    return hessian.reshape(k * d1, k * d1)


@pytest.mark.parametrize("c_value", [1e-3, 1.0])
def test_logreg_warm_start_reaches_the_cold_optimum(c_value):
    rng = np.random.default_rng(310)
    x = rng.normal(size=(60, 4))
    y = rng.integers(0, 3, size=60)
    tol = 1e-6
    cold_w, cold_b, _, cold_residual = _logreg_solve(x, y, 3, c_value, 4000, tol)
    start = _logreg_solve(x, y, 3, c_value / 10.0, 4000, tol)[:2]
    warm_w, warm_b, warm_history, warm_residual = _logreg_solve(
        x, y, 3, c_value, 4000, tol, start=start)
    assert cold_residual <= tol and warm_residual <= tol
    assert warm_history[0] == pytest.approx(
        reference_objective(*start, x, y, c_value), rel=1e-12)  # it did start there
    # Shifting every bias by one constant leaves the objective unchanged; both
    # solves keep sum(b) = 0, so on the other directions the objective is
    # mu-strongly convex and two points with |grad| <= n * tol lie within
    # 2 * n * tol / mu of each other.  Lifting the null direction's zero
    # eigenvalue to the trace leaves mu as the smallest one.
    null = np.zeros((3, 5))
    null[:, -1] = 1.0 / math.sqrt(3.0)
    null = null.ravel()
    hessian = logreg_hessian(cold_w, cold_b, x, c_value)
    mu = np.linalg.eigvalsh(hessian + np.trace(hessian) * np.outer(null, null))[0]
    assert abs(warm_b.sum()) < 1e-9 and abs(cold_b.sum()) < 1e-9
    radius = 2.0 * x.shape[0] * tol / mu
    cold = np.column_stack([cold_w, cold_b])
    assert np.linalg.norm(np.column_stack(start) - cold) > 100.0 * radius
    assert np.linalg.norm(np.column_stack([warm_w, warm_b]) - cold) <= radius


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
    # perfectly separable: the smallest C already scores 1.0, so it wins
    # and no larger C, which could only tie it, is fit
    ds = synth_gaussian(3, 20, 4, 2.0, 0.01, seed=10)
    model = logreg_fit(ds.features, ds.labels)
    assert model.validation_accuracy == {DEFAULT_C_GRID[0]: 1.0}
    assert model.c_value == DEFAULT_C_GRID[0]


def test_logreg_ties_below_one_prefer_smaller_c():
    # random labels: the best holdout accuracy is below 1 and shared by
    # several C values, and every C on the grid is fit
    rng = np.random.default_rng(80)
    x = rng.normal(size=(60, 4))
    y = rng.integers(0, 3, size=60)
    model = logreg_fit(x, y)
    best = max(model.validation_accuracy.values())
    winners = [c for c, acc in model.validation_accuracy.items() if acc == best]
    assert best < 1.0 and len(winners) >= 2
    assert list(model.validation_accuracy) == sorted(DEFAULT_C_GRID)
    assert model.c_value == min(winners)


def reference_logreg_fit(x, y, c_grid=DEFAULT_C_GRID, validation_fraction=0.2, seed=0,
                         max_iter=4000, tol=1e-6):
    """logreg_fit's sweep before it stopped at a perfect holdout score: every
    C is fit.  Returns (chosen C, weights, bias, validation record)."""
    n_classes = int(y.max()) + 1
    holdout = reference_holdout(y, validation_fraction, seed)
    fit_idx = np.setdiff1d(np.arange(y.size), holdout)
    probe = holdout if holdout.size else fit_idx
    record, best, fit = {}, None, None
    for c_value in sorted(c_grid):
        w, b, _, residual = _logreg_solve(x[fit_idx], y[fit_idx], n_classes, c_value,
                                          max_iter, tol, start=fit)
        fit = (w, b)
        if residual > tol:
            continue
        acc = float(np.mean(np.argmax(x[probe] @ w.T + b, axis=1) == y[probe]))
        record[c_value] = acc
        if best is None or acc > best[1]:
            best = (c_value, acc, fit)
    w, b, _, residual = _logreg_solve(x, y, n_classes, best[0], max_iter, tol,
                                      start=best[2])
    assert residual <= tol
    return best[0], w, b, record


def test_logreg_fit_matches_the_unstopped_sweep():
    # Stopping at the first perfect holdout score changes nothing but the
    # record, which ends at that C.  Class spreads from 0.3 to 10 give inputs
    # that saturate at some C and inputs that never do.
    rng = np.random.default_rng(400)
    saturated = unsaturated = 0
    for _ in range(48):
        k, d = int(rng.integers(2, 6)), int(rng.integers(2, 7))
        centres = float(rng.choice([0.3, 1.0, 3.0, 10.0])) * rng.normal(size=(k, d))
        y = rng.permutation(np.repeat(np.arange(k), rng.integers(6, 16, size=k)))
        x = centres[y] + rng.normal(size=(y.size, d))
        test_y = rng.integers(0, k, size=40)
        test_x = centres[test_y] + rng.normal(size=(40, d))

        seed = int(rng.integers(100))
        model = logreg_fit(x, y, seed=seed)
        c_value, w, b, record = reference_logreg_fit(x, y, seed=seed)
        assert model.c_value == c_value
        assert model.weights.tobytes() == w.tobytes()
        assert model.bias.tobytes() == b.tobytes()
        assert (np.mean(logreg_predict(model, test_x) == test_y)
                == np.mean(np.argmax(test_x @ w.T + b, axis=1) == test_y))
        cut = list(itertools.takewhile(lambda item: item[1] < 1.0, record.items()))
        cut += [item for item in record.items() if item[1] == 1.0][:1]
        assert model.validation_accuracy == dict(cut)
        if len(model.validation_accuracy) < len(record):
            saturated += 1
        elif 1.0 not in record.values():
            unsaturated += 1
    assert saturated >= 10 and unsaturated >= 10


def test_logreg_deterministic():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(50, 3))
    y = rng.integers(0, 2, size=50)
    a = logreg_fit(x, y, c_grid=[0.1, 1.0], seed=3)
    b = logreg_fit(x, y, c_grid=[0.1, 1.0], seed=3)
    np.testing.assert_array_equal(a.weights, b.weights)
    assert a.c_value == b.c_value


@pytest.mark.parametrize("c_value", [0.0, -1.0, float("nan"), 1e-320])
def test_logreg_rejects_c_without_a_finite_penalty(c_value):
    # 1/C is the ridge weight: at 1e-320 it overflows to inf
    with pytest.raises(ValueError, match="finite 1/C"):
        logreg_fit(np.eye(4), np.array([0, 0, 1, 1]), c_grid=[1.0, c_value])


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

