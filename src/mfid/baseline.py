"""Classic baseline: PCA energy truncation, L2 normalization, logistic regression.

The pipeline fits PCA on training features keeping the smallest component
count whose cumulative explained variance reaches ``energy_threshold``,
L2-normalizes the projected rows, then fits a multinomial logistic
regression with L2 penalty ``(1/C) * 0.5 * ||W||^2`` (bias unregularized).
The regression is solved by L-BFGS (Liu & Nocedal, 1989) with a
backtracking (Armijo) line search, so repeat runs are bit-identical.
``C`` is chosen on a held-out validation slice from a decade grid spanning
1e-5 .. 1e+5, ties resolved toward the smaller (more regularized) value,
then the model is refit on all training data.  The grid is walked upward
and each C starts from the previous C's solution; the refit starts from the
chosen C's.  Grid values whose fit does not converge are skipped, and the
walk stops at the first C that scores the holdout perfectly, since no
larger C can then win.  The objective, its gradient and every prediction
are computed in row blocks of about 2^22 cells, so the memory beyond the
inputs is O(block × classes) rather than O(rows × classes).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .dataset import LabelGroups, _finite

DEFAULT_C_GRID = tuple(10.0 ** k for k in range(-5, 6))


@dataclass(frozen=True)
class PCAModel:
    """Mean vector, orthonormal components (d, r), per-component variance."""

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray
    total_variance: float

    @property
    def n_components(self) -> int:
        return self.components.shape[1]


@dataclass(frozen=True)
class LogRegModel:
    """Multinomial logistic regression weights plus the C-selection record."""

    weights: np.ndarray
    bias: np.ndarray
    c_value: float
    validation_accuracy: dict[float, float] = field(default_factory=dict)
    objective_history: tuple[float, ...] = ()

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]


def _check_finite(x) -> None:
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise ValueError(f"non-finite feature value in row {int(bad[0])}")


def pca_fit(x, energy_threshold: float) -> PCAModel:
    """Fit PCA keeping the minimal component count reaching the energy target.

    Components are the right singular vectors of the centered data; the kept
    count r is the smallest k whose cumulative explained-variance ratio is
    >= energy_threshold (zero-variance directions are never kept).  A
    non-finite feature is an error naming its row.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("PCA needs a 2-D array with at least two rows")
    if not 0.0 < energy_threshold <= 1.0:
        raise ValueError(f"energy_threshold must be in (0, 1], got {energy_threshold}")
    _check_finite(x)
    mean = x.mean(axis=0)
    centered = x - mean
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    variances = singular ** 2 / (x.shape[0] - 1)
    total = float(variances.sum())
    if total <= 0.0:
        raise ValueError("all rows are identical; PCA is undefined on rank-0 data")
    # Tolerate float error at the threshold boundary and drop null directions.
    ratios = np.cumsum(variances) / total
    nonzero = int(np.sum(variances > total * 1e-12))
    r = int(np.argmax(ratios >= energy_threshold - 1e-12)) + 1
    r = min(max(r, 1), nonzero)
    return PCAModel(mean=mean, components=vt[:r].T.copy(),
                    explained_variance=variances[:r].copy(), total_variance=total)


def pca_transform(model: PCAModel, x) -> np.ndarray:
    """Project rows onto the kept components (centering first)."""
    x = _finite(x, "x")
    if x.ndim != 2 or x.shape[1] != model.mean.size:
        raise ValueError(f"expected rows of dim {model.mean.size}, "
                         f"got shape {x.shape}")
    return (x - model.mean) @ model.components


def l2_normalize(x) -> np.ndarray:
    """Scale every row to unit Euclidean norm; errors on zero-norm rows."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("l2_normalize expects a 2-D array")
    norms = np.linalg.norm(x, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"zero-norm row at index {int(zero[0])}")
    return x / norms[:, None]


# ---------------------------------------------------------------------------
# logistic regression


# Curvature pairs the two-loop recursion keeps; Armijo's sufficient-decrease
# constant; step halvings before a line search gives up at float precision.
_LBFGS_MEMORY = 10
_ARMIJO = 1e-4
_MAX_HALVINGS = 60


# Rows per block hold about _BLOCK_CELLS class scores (32 MB of float64), and
# never fewer than _MIN_BLOCK_ROWS rows, so a block's GEMM stays large.
_BLOCK_CELLS = 1 << 22
_MIN_BLOCK_ROWS = 2048


def _block_rows(n_classes: int) -> int:
    return max(_MIN_BLOCK_ROWS, _BLOCK_CELLS // n_classes)


def _logreg_ce_grad(theta, x1, y, ridge):
    """Objective and gradient at ``theta``, the weights with the bias as last column.

    ``x1`` is the rows with a constant 1 appended, ``y`` their integer labels
    and ``ridge`` the per-column penalty (1/C, and 0 for the bias).  The
    cross-entropy is summed as ``Σ log Σ e^z − Σ z[y]``, one block of rows at
    a time; with a single block the arithmetic is that of the dense form.
    """
    step = _block_rows(theta.shape[0])
    penalized = theta * ridge
    grad = penalized.copy()
    log_sums = picked = 0.0
    for start in range(0, x1.shape[0], step):
        rows, labels = x1[start:start + step], y[start:start + step]
        at_label = (np.arange(labels.size), labels)
        z = rows @ theta.T
        z -= z.max(axis=1, keepdims=True)
        picked += z[at_label].sum()
        e = np.exp(z, out=z)
        sums = e.sum(axis=1, keepdims=True)
        log_sums += np.log(sums).sum()
        e /= sums
        e[at_label] -= 1.0
        grad += e.T @ rows
    value = float(log_sums - picked + 0.5 * np.vdot(penalized, theta))
    return value, grad


def _predict(x, weights, bias) -> np.ndarray:
    """Argmax of ``x @ weights.T + bias`` per row, one block of rows at a time."""
    step = _block_rows(bias.size)
    out = np.empty(x.shape[0], dtype=np.intp)
    for start in range(0, x.shape[0], step):
        out[start:start + step] = np.argmax(x[start:start + step] @ weights.T + bias, axis=1)
    return out


def _lbfgs_direction(grad, pairs, ridge):
    """``-H·grad`` by the two-loop recursion over the (s, y, 1/s·y) pairs.

    The initial inverse Hessian is diagonal: the ridge's exact curvature plus
    one estimate of the cross-entropy's, taken from the newest pair, or
    ``‖grad‖`` without one (a first step is at most unit length).  The ridge
    term keeps a tiny C from throttling the unpenalized bias.
    """
    q = -grad
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * float(np.vdot(s, q)))
        q = q - alphas[-1] * y
    curvature = math.sqrt(float(np.vdot(grad, grad)))
    if pairs:
        s, y, _ = pairs[-1]
        y_ce = y - ridge * s
        s_y_ce = float(np.vdot(s, y_ce))
        if s_y_ce > 0.0:
            curvature = float(np.vdot(y_ce, y_ce)) / s_y_ce
    q = q / (ridge + curvature)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q = q + (alpha - rho * float(np.vdot(y, q))) * s
    return q


def _logreg_solve(x, y, n_classes, c_value, max_iter, tol, start=None):
    """L-BFGS with a backtracking line search, from ``start`` or from zero.

    ``start`` is a (weights, bias) pair, typically the solution at the
    previous C.  A curvature pair is kept only when s·y > 0.  A direction
    that is not a descent direction is replaced by the negative gradient
    under the initial diagonal scaling, and the stored pairs are dropped.
    Steps must decrease the full objective (cross-entropy plus ridge) by
    Armijo's rule.  The solve stops when the gradient norm divided by the
    row count is at most ``tol``, after ``max_iter`` iterations, or when no
    step along a descent direction decreases the objective any more.
    Returns (weights, bias, objective history with one entry per iteration
    plus the final one, final gradient norm / n).
    """
    n, d = x.shape
    x1 = np.hstack([x, np.ones((n, 1))])
    ridge = np.full(d + 1, 1.0 / c_value)
    ridge[-1] = 0.0
    theta = np.zeros((n_classes, d + 1)) if start is None else np.column_stack(start)
    value, grad = _logreg_ce_grad(theta, x1, y, ridge)
    pairs = deque(maxlen=_LBFGS_MEMORY)
    history = []
    for iteration in range(max_iter + 1):
        history.append(value)
        residual = math.sqrt(float(np.vdot(grad, grad))) / n
        if residual <= tol or iteration == max_iter:
            break
        direction = _lbfgs_direction(grad, pairs, ridge)
        slope = float(np.vdot(grad, direction))
        if not slope < 0.0:
            pairs.clear()
            direction = _lbfgs_direction(grad, pairs, ridge)
            slope = float(np.vdot(grad, direction))
        step = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = theta + step * direction
            trial_value, trial_grad = _logreg_ce_grad(trial, x1, y, ridge)
            if trial_value <= value + _ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            break
        s, g_change = trial - theta, trial_grad - grad
        curvature = float(np.vdot(s, g_change))
        if curvature > 0.0:
            pairs.append((s, g_change, 1.0 / curvature))
        theta, value, grad = trial, trial_value, trial_grad
    return theta[:, :-1].copy(), theta[:, -1].copy(), history, residual


def logreg_predict(model: LogRegModel, x) -> np.ndarray:
    """Argmax class per row (ties resolve to the lowest class id)."""
    x = _finite(x, "x")
    return _predict(x, model.weights, model.bias)


def logreg_fit(x, labels, c_grid=DEFAULT_C_GRID, validation_fraction: float = 0.2,
               seed: int = 0, max_iter: int = 4000, tol: float = 1e-6) -> LogRegModel:
    """Fit multinomial logistic regression with validation-based C selection.

    A per-class slice of ``validation_fraction`` is held out (deterministic
    given ``seed``); the C values are fit on the remainder in ascending
    order, each starting from the previous C's solution, and scored on the
    holdout; accuracy ties go to the smaller C.  The walk stops at the first
    C with holdout accuracy 1.0: a later C could only tie it.  A C whose fit
    does not converge within ``max_iter`` iterations is left out of the
    selection.  ``validation_accuracy`` records every C that was fit and
    converged.  The winner is refit on all rows, starting from its solution
    on the fit rows.
    Raises on a non-finite feature, if no C converges, or if the refit does
    not.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValueError("features must be (n, d) with one label per row")
    _check_finite(x)
    groups = LabelGroups(y)
    n_classes = groups.ids.size
    if n_classes < 2:
        raise ValueError("logistic regression needs at least two classes")
    if not np.array_equal(groups.ids, np.arange(n_classes)):
        raise ValueError("labels must be dense integers in [0, K)")
    y = y.astype(np.intp, copy=False)
    grid = sorted(float(c) for c in c_grid)
    if not grid or not all(c > 0.0 and 1.0 / c < math.inf for c in grid):
        raise ValueError("C grid must be nonempty and positive, with a finite 1/C")
    if not 0.0 < validation_fraction < 1.0:
        raise ValueError("validation_fraction must be in (0, 1)")

    sizes = np.minimum(np.floor(groups.counts * validation_fraction + 0.5).astype(np.int64),
                       groups.counts - 1)
    holdout = np.sort(groups.order[groups.draw(sizes, np.random.default_rng(seed))])
    fit_idx = np.setdiff1d(np.arange(x.shape[0]), holdout, assume_unique=True)

    record: dict[float, float] = {}
    best_c, best_acc, best_fit = None, -1.0, None
    fit_x, fit_y = x[fit_idx], y[fit_idx]
    probe = holdout if holdout.size else fit_idx
    probe_x, probe_y = x[probe], y[probe]
    fit = None
    for c_value in grid:
        w, b, _, residual = _logreg_solve(fit_x, fit_y, n_classes, c_value,
                                          max_iter, tol, start=fit)
        fit = (w, b)
        if not residual <= tol:  # a NaN residual has not converged either
            continue
        acc = float(np.mean(_predict(probe_x, w, b) == probe_y))
        record[c_value] = acc
        if acc > best_acc:  # strict: ties keep the earlier (smaller) C
            best_c, best_acc, best_fit = c_value, acc, fit
        if acc == 1.0:
            break
    if best_c is None:
        raise RuntimeError(f"logistic regression did not converge for any C in "
                           f"{grid} within {max_iter} iterations")

    w, b, history, residual = _logreg_solve(x, y, n_classes, best_c, max_iter, tol,
                                            start=best_fit)
    if not residual <= tol:
        raise RuntimeError(
            f"logistic regression did not converge for C={best_c:g} "
            f"within {max_iter} iterations (gradient norm {residual:.3e})")
    return LogRegModel(weights=w, bias=b, c_value=best_c,
                       validation_accuracy=record,
                       objective_history=tuple(history))


def baseline_pipeline(train_features, train_labels, test_features, test_labels,
                      energy_threshold: float = 0.99, c_grid=DEFAULT_C_GRID,
                      validation_fraction: float = 0.2, seed: int = 0) -> float:
    """PCA -> L2 normalize -> logistic regression; returns test accuracy."""
    pca = pca_fit(train_features, energy_threshold)
    train_z = l2_normalize(pca_transform(pca, train_features))
    test_z = l2_normalize(pca_transform(pca, test_features))
    model = logreg_fit(train_z, train_labels, c_grid=c_grid,
                       validation_fraction=validation_fraction, seed=seed)
    predictions = logreg_predict(model, test_z)
    return float(np.mean(predictions == np.asarray(test_labels)))

