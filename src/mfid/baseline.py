"""Classic baseline: PCA energy truncation, L2 normalization, logistic regression.

The pipeline fits PCA on training features keeping the smallest component
count whose cumulative explained variance reaches ``energy_threshold``,
L2-normalizes the projected rows, then fits a multinomial logistic
regression with L2 penalty ``(1/C) * 0.5 * ||W||^2`` (bias unregularized).
The regression is solved by deterministic full-batch gradient descent with
a backtracking (Armijo) line search, so repeat runs are bit-identical.
``C`` is chosen on a held-out validation slice from a decade grid spanning
1e-5 .. 1e+5, ties resolved toward the smaller (more regularized) value,
then the model is refit on all training data.  Grid values whose fit does
not converge are skipped.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

BASELINE_MAGIC = b"MFBL"
BASELINE_VERSION = 1
_KIND_PCA = 1
_KIND_LOGREG = 2

DEFAULT_C_GRID = tuple(10.0 ** k for k in range(-5, 6))


@dataclass(frozen=True)
class PCAModel:
    """Mean vector, orthonormal components (d, r), per-component variance."""

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray
    energy_threshold: float
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


def pca_fit(x, energy_threshold: float) -> PCAModel:
    """Fit PCA keeping the minimal component count reaching the energy target.

    Components are the right singular vectors of the centered data; the kept
    count r is the smallest k whose cumulative explained-variance ratio is
    >= energy_threshold (zero-variance directions are never kept).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("PCA needs a 2-D array with at least two rows")
    if not 0.0 < energy_threshold <= 1.0:
        raise ValueError(f"energy_threshold must be in (0, 1], got {energy_threshold}")
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
                    explained_variance=variances[:r].copy(),
                    energy_threshold=energy_threshold, total_variance=total)


def pca_transform(model: PCAModel, x) -> np.ndarray:
    """Project rows onto the kept components (centering first)."""
    x = np.asarray(x, dtype=np.float64)
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


def _logreg_ce_grad(w, b, x, y):
    """Cross-entropy at (w, b), and a function that returns its gradient there.

    The line search rejects about half of its trial points, so the gradient
    product is formed only when the solver accepts the point.
    """
    z = x @ w.T + b
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    sums = e.sum(axis=1, keepdims=True)
    rows = np.arange(x.shape[0])
    ce = float(-np.log(np.maximum(e[rows, y] / sums[:, 0], 1e-300)).sum())

    def gradient():
        residual = e / sums
        residual[rows, y] -= 1.0
        return residual.T @ x, residual.sum(axis=0)

    return ce, gradient


def _logreg_solve(x, y, n_classes, c_value, max_iter, tol):
    """Full-batch gradient descent with backtracking line search.

    The cross-entropy part takes an explicit gradient step; the quadratic
    ridge term is folded into the update exactly (division by 1 + step/C)
    so a tiny C cannot throttle the step for the unregularized bias.
    Returns (weights, bias, objective history, final gradient norm).
    """
    w = np.zeros((n_classes, x.shape[1]))
    b = np.zeros(n_classes)
    step = 1.0
    history = []
    ce, gradient = _logreg_ce_grad(w, b, x, y)
    gw, gb = gradient()
    value = ce + 0.5 / c_value * float((w * w).sum())
    for _ in range(max_iter):
        history.append(value)
        full_gw = gw + w / c_value
        grad_norm = math.sqrt(float((full_gw * full_gw).sum() + (gb * gb).sum()))
        if grad_norm / x.shape[0] <= tol:
            return w, b, history, grad_norm / x.shape[0]
        step = min(step * 2.0, 1e8)  # let the step recover between iterations
        while True:
            new_w = (w - step * gw) / (1.0 + step / c_value)
            new_b = b - step * gb
            new_ce, gradient = _logreg_ce_grad(new_w, new_b, x, y)
            dw, db = new_w - w, new_b - b
            move_sq = float((dw * dw).sum() + (db * db).sum())
            # sufficient decrease on the smooth part (quadratic upper bound)
            bound = ce + float((gw * dw).sum() + (gb * db).sum()) + move_sq / (2.0 * step)
            if new_ce <= bound + 1e-12 * abs(ce) or step < 1e-18:
                break
            step *= 0.5
        w, b, ce = new_w, new_b, new_ce
        gw, gb = gradient()
        value = ce + 0.5 / c_value * float((w * w).sum())
    history.append(value)
    full_gw = gw + w / c_value
    grad_norm = math.sqrt(float((full_gw * full_gw).sum() + (gb * gb).sum()))
    return w, b, history, grad_norm / x.shape[0]


def logreg_predict(model: LogRegModel, x) -> np.ndarray:
    """Argmax class per row (ties resolve to the lowest class id)."""
    x = np.asarray(x, dtype=np.float64)
    return np.argmax(x @ model.weights.T + model.bias, axis=1)


def logreg_fit(x, labels, c_grid=DEFAULT_C_GRID, validation_fraction: float = 0.2,
               seed: int = 0, max_iter: int = 4000, tol: float = 1e-6) -> LogRegModel:
    """Fit multinomial logistic regression with validation-based C selection.

    A per-class slice of ``validation_fraction`` is held out (deterministic
    given ``seed``); every C on the grid is fit on the remainder and scored
    on the holdout; accuracy ties go to the smaller C.  A C whose fit does
    not converge within ``max_iter`` iterations is left out of the selection
    and of ``validation_accuracy``.  The winner is refit on all rows.
    Raises if no C converges, or if the refit does not.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValueError("features must be (n, d) with one label per row")
    classes = np.unique(y)
    n_classes = classes.size
    if n_classes < 2:
        raise ValueError("logistic regression needs at least two classes")
    if not np.array_equal(classes, np.arange(n_classes)):
        raise ValueError("labels must be dense integers in [0, K)")
    grid = sorted(float(c) for c in c_grid)
    if not grid or grid[0] <= 0:
        raise ValueError("C grid must be nonempty and positive")
    if not 0.0 < validation_fraction < 1.0:
        raise ValueError("validation_fraction must be in (0, 1)")

    rng = np.random.default_rng(seed)
    holdout_parts = []
    for cls in range(n_classes):
        idx = np.flatnonzero(y == cls)
        k = min(int(math.floor(idx.size * validation_fraction + 0.5)), idx.size - 1)
        if k > 0:
            holdout_parts.append(rng.choice(idx, size=k, replace=False))
    holdout = (np.sort(np.concatenate(holdout_parts))
               if holdout_parts else np.empty(0, dtype=np.int64))
    fit_idx = np.setdiff1d(np.arange(x.shape[0]), holdout)

    record: dict[float, float] = {}
    best_c, best_acc = None, -1.0
    for c_value in grid:
        w, b, _, residual = _logreg_solve(x[fit_idx], y[fit_idx], n_classes,
                                          c_value, max_iter, tol)
        if residual > tol:
            continue
        probe = holdout if holdout.size else fit_idx
        pred = np.argmax(x[probe] @ w.T + b, axis=1)
        acc = float(np.mean(pred == y[probe]))
        record[c_value] = acc
        if acc > best_acc:  # strict: ties keep the earlier (smaller) C
            best_c, best_acc = c_value, acc
    if best_c is None:
        raise RuntimeError(f"logistic regression did not converge for any C in "
                           f"{grid} within {max_iter} iterations")

    w, b, history, residual = _logreg_solve(x, y, n_classes, best_c, max_iter, tol)
    if residual > tol:
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


# ---------------------------------------------------------------------------
# serialization


def _write_array(fh, array: np.ndarray) -> None:
    fh.write(struct.pack("<I", array.ndim))
    for extent in array.shape:
        fh.write(struct.pack("<Q", extent))
    fh.write(np.ascontiguousarray(array, dtype="<f8").tobytes())


def _within(blob: bytes, end: int, path) -> int:
    """``end`` if the blob reaches it; a read past its length raises."""
    if end > len(blob):
        raise ValueError(f"{path}: truncated: needs at least {end} bytes, "
                         f"found {len(blob)}")
    return end


def _unpack(fmt: str, blob: bytes, offset: int, path) -> tuple[tuple, int]:
    end = _within(blob, offset + struct.calcsize(fmt), path)
    return struct.unpack_from(fmt, blob, offset), end


def _read_array(blob: bytes, offset: int, path) -> tuple[np.ndarray, int]:
    (ndim,), offset = _unpack("<I", blob, offset, path)
    shape, offset = _unpack(f"<{ndim}Q", blob, offset, path)
    count = math.prod(shape)
    end = _within(blob, offset + count * 8, path)
    array = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
    if not np.isfinite(array).all():
        raise ValueError(f"{path}: non-finite value in the array at byte {offset}")
    return array.reshape(shape).astype(np.float64), end


def save_baseline_model(model, path) -> None:
    """Serialize a PCAModel or LogRegModel to the MFBL container format."""
    with open(path, "wb") as fh:
        fh.write(BASELINE_MAGIC)
        fh.write(struct.pack("<I", BASELINE_VERSION))
        if isinstance(model, PCAModel):
            fh.write(struct.pack("<I", _KIND_PCA))
            fh.write(struct.pack("<dd", model.energy_threshold, model.total_variance))
            for array in (model.mean, model.components, model.explained_variance):
                _write_array(fh, array)
        elif isinstance(model, LogRegModel):
            fh.write(struct.pack("<I", _KIND_LOGREG))
            fh.write(struct.pack("<d", model.c_value))
            for array in (model.weights, model.bias):
                _write_array(fh, array)
        else:
            raise ValueError(f"cannot serialize {type(model).__name__}")


def _check_positive(name: str, value: float, path) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{path}: {name} must be finite and positive, got {value!r}")


def load_baseline_model(path):
    """Read a PCAModel or LogRegModel from an MFBL file.

    Raises ValueError naming ``path`` for a damaged container, a scalar field
    out of range, or a non-finite array value.
    """
    blob = open(path, "rb").read()
    if blob[:4] != BASELINE_MAGIC:
        raise ValueError(f"{path}: bad magic {blob[:4]!r}")
    (version,), offset = _unpack("<I", blob, 4, path)
    if version != BASELINE_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    (kind,), offset = _unpack("<I", blob, offset, path)
    if kind == _KIND_PCA:
        (threshold, total), offset = _unpack("<dd", blob, offset, path)
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"{path}: energy_threshold must be in (0, 1], "
                             f"got {threshold!r}")
        _check_positive("total_variance", total, path)
        mean, offset = _read_array(blob, offset, path)
        components, offset = _read_array(blob, offset, path)
        explained, offset = _read_array(blob, offset, path)
        model = PCAModel(mean, components, explained, float(threshold), float(total))
    elif kind == _KIND_LOGREG:
        (c_value,), offset = _unpack("<d", blob, offset, path)
        _check_positive("c_value", c_value, path)
        weights, offset = _read_array(blob, offset, path)
        bias, offset = _read_array(blob, offset, path)
        model = LogRegModel(weights, bias, float(c_value))
    else:
        raise ValueError(f"{path}: unknown model kind {kind}")
    if offset != len(blob):
        raise ValueError(f"{path}: {len(blob) - offset} trailing bytes")
    return model
