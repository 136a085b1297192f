"""Checks on the files each mfid command writes.

:func:`check_outputs` returns a list of problems (empty when the outputs are
sound); :func:`digests` gives the sha256 of every file under a directory so
repetitions can be compared byte for byte.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

# Files each command must write, relative to its --out directory.
OUTPUTS = {
    "synth": ("dataset.csv", "dataset.bin", "manifest.txt"),
    "train": ("model.mfhd", "loss_history.csv"),
    "eval": ("metrics.csv", "cmc.csv", "roc.csv"),
    "ablate": ("ablation.csv",),
    "baseline": ("baseline.csv",),
    "detmetrics": ("detection_metrics.csv", "matches.csv"),
}


def digests(directory) -> dict[str, str]:
    """sha256 of every file under ``directory``, keyed by relative path."""
    root = Path(directory)
    return {path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def _table(path: Path) -> list[list[str]]:
    """Data rows of a report: comment lines and the column line dropped."""
    lines = [line for line in path.read_text(encoding="utf-8").splitlines()
             if line and not line.startswith("#")]
    return [line.split(",") for line in lines[1:]]


def _rate_problems(what: str, values) -> list[str]:
    bad = [v for v in values if not (math.isfinite(v) and 0.0 <= v <= 1.0)]
    return [f"{what}: rate {bad[0]!r} outside [0, 1]"] if bad else []


def _check_train(out: Path, expect: dict) -> list[str]:
    rows = _table(out / "loss_history.csv")
    totals = [float(row[1]) for row in rows]
    values = [float(v) for row in rows for v in row[1:]]
    if not totals:
        return ["loss_history.csv: no epochs"]
    if not all(math.isfinite(v) for v in values):
        return ["loss_history.csv: non-finite value"]
    if not totals[-1] < totals[0]:
        return [f"loss_history.csv: last total {totals[-1]!r} is not below "
                f"the first {totals[0]!r}"]
    return []


def _check_eval(out: Path, expect: dict) -> list[str]:
    problems = _rate_problems("metrics.csv",
                              [float(row[2]) for row in _table(out / "metrics.csv")])
    cmc = [float(row[1]) for row in _table(out / "cmc.csv")]
    problems += _rate_problems("cmc.csv", cmc)
    if any(b < a for a, b in zip(cmc, cmc[1:])):
        problems.append("cmc.csv: CMC decreases with rank")
    if not cmc or cmc[-1] != 1.0:
        problems.append(f"cmc.csv: CMC ends at {cmc[-1] if cmc else None!r}, not 1.0")
    roc = sorted((float(row[0]), float(row[1])) for row in _table(out / "roc.csv"))
    problems += _rate_problems("roc.csv", [v for point in roc for v in point])
    if any(b[1] < a[1] for a, b in zip(roc, roc[1:])):
        problems.append("roc.csv: TAR decreases as FAR grows")
    return problems


def _check_ablate(out: Path, expect: dict) -> list[str]:
    rows = _table(out / "ablation.csv")
    values = [float(v) for row in rows if row[0] != "summary" for v in row[1:5]]
    if len(rows) != expect["seeds"] + 1:
        return [f"ablation.csv: {len(rows)} rows, expected {expect['seeds'] + 1}"]
    return _rate_problems("ablation.csv", values)


def _check_baseline(out: Path, expect: dict) -> list[str]:
    rows = _table(out / "baseline.csv")
    return _rate_problems("baseline.csv",
                          [float(row[1]) for row in rows if row[0] != "std"])


def _check_detmetrics(out: Path, expect: dict) -> list[str]:
    (row,) = _table(out / "detection_metrics.csv")
    mean_ap, tpr, fpr = (float(v) for v in row[:3])
    problems = _rate_problems("detection_metrics.csv", [mean_ap, tpr])
    if tpr != expect["tpr"]:
        problems.append(f"detection_metrics.csv: TPR {tpr!r}, planted {expect['tpr']!r}")
    if fpr != expect["fpr_per_image"]:
        problems.append(f"detection_metrics.csv: FPR per image {fpr!r}, "
                        f"planted {expect['fpr_per_image']!r}")
    return problems


def _check_synth(out: Path, expect: dict) -> list[str]:
    manifest = (out / "manifest.txt").read_text(encoding="utf-8")
    if f"n_samples={expect['n_samples']}" not in manifest.splitlines():
        return [f"manifest.txt: n_samples is not {expect['n_samples']}"]
    return []


_CHECKS = {
    "synth": _check_synth, "train": _check_train, "eval": _check_eval,
    "ablate": _check_ablate, "baseline": _check_baseline,
    "detmetrics": _check_detmetrics,
}


def check_outputs(command: str, out_dir, expect: dict | None = None) -> list[str]:
    """Problems with the files ``command`` wrote to ``out_dir``."""
    out = Path(out_dir)
    missing = [name for name in OUTPUTS[command] if not (out / name).is_file()]
    if missing:
        return [f"{command}: missing output {missing[0]}"]
    try:
        return _CHECKS[command](out, expect or {})
    except (ValueError, IndexError) as exc:
        return [f"{command}: unreadable output ({exc})"]
