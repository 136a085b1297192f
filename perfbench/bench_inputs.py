"""Seeded input files for the benchmark, written without the program's code.

The feature data is the same model as ``mfid synth`` (uniform identity
centres plus isotropic Gaussian noise), stored in the ``MFID`` binary
container.  The box files give every image ground-truth boxes in a grid,
one jittered true detection per box at IoU >= 0.8, and false detections in
a band below the grid that overlaps no ground-truth box, so the detection
rates are known before the program runs.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

MIN_TRUE_IOU = 0.8
GT_PER_IMAGE = 10
FALSE_PER_IMAGE = 5
_GRID_COLUMNS = 5
_CELL = 100.0
_FALSE_BAND_Y = 300.0  # below the two grid rows, which end at y = 200


def seeds(seed: int, count: int) -> list[int]:
    """``count`` independent seeds for command flags, derived from ``seed``."""
    return [int(child.generate_state(1)[0])
            for child in np.random.SeedSequence(seed).spawn(count)]


def write_mfid_binary(path, identities: int, per_id: int, dim: int,
                      sigma: float, seed: int) -> None:
    """Gaussian identity clusters in the ``MFID`` container, version 1."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-1.0, 1.0, size=(identities, dim))
    n = identities * per_id
    features = np.repeat(centers, per_id, axis=0) + rng.normal(0.0, sigma, size=(n, dim))
    labels = np.repeat(np.arange(identities), per_id)
    with open(path, "wb") as fh:
        fh.write(b"MFID" + struct.pack("<IQQ", 1, n, dim))
        fh.write(features.astype("<f8").tobytes())
        fh.write(labels.astype("<u4").tobytes())


def box_iou(a, b) -> float:
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    area = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area - inter)


def _rounded(box) -> tuple[float, ...]:
    return tuple(round(float(v), 2) for v in box)


def planted_boxes(directory) -> dict:
    """Paths of the box files under ``directory`` and the rates they plant."""
    directory = Path(directory)
    return {"ground_truth": directory / "gt.csv", "detections": directory / "det.csv",
            "tpr": 1.0, "fpr_per_image": float(FALSE_PER_IMAGE)}


def write_boxes(directory, images: int, seed: int) -> dict:
    """Write ``gt.csv`` and ``det.csv``; return :func:`planted_boxes`."""
    rng = np.random.default_rng(seed)
    planted = planted_boxes(directory)
    gt_lines = ["image_id,x_min,y_min,x_max,y_max"]
    det_lines = ["image_id,x_min,y_min,x_max,y_max,confidence"]
    for image in range(images):
        image_id = f"img{image:05d}"
        dets = []
        for cell in range(GT_PER_IMAGE):
            x0 = (cell % _GRID_COLUMNS) * _CELL
            y0 = (cell // _GRID_COLUMNS) * _CELL
            w, h = rng.uniform(40.0, 80.0, size=2)
            x, y = x0 + rng.uniform(5.0, 95.0 - w), y0 + rng.uniform(5.0, 95.0 - h)
            gt = _rounded((x, y, x + w, y + h))
            # Moving each edge by at most 2% of the short side keeps
            # IoU >= (0.96 / 1.04)^2 > 0.85 before rounding.
            jitter = rng.uniform(-1.0, 1.0, size=4) * 0.02 * min(w, h)
            det = _rounded(np.asarray(gt) + jitter)
            if box_iou(det, gt) < MIN_TRUE_IOU:
                raise RuntimeError(f"{image_id}: true detection below IoU {MIN_TRUE_IOU}")
            gt_lines.append(f"{image_id},{gt[0]},{gt[1]},{gt[2]},{gt[3]}")
            dets.append((det, round(float(rng.uniform(0.3, 1.0)), 4)))
        for _ in range(FALSE_PER_IMAGE):
            w, h = rng.uniform(20.0, 60.0, size=2)
            x = rng.uniform(0.0, _GRID_COLUMNS * _CELL - w)
            y = _FALSE_BAND_Y + rng.uniform(0.0, 100.0 - h)
            dets.append((_rounded((x, y, x + w, y + h)),
                         round(float(rng.uniform(0.0, 0.9)), 4)))
        for k in rng.permutation(len(dets)):
            box, confidence = dets[k]
            det_lines.append(f"{image_id},{box[0]},{box[1]},{box[2]},{box[3]},"
                             f"{confidence}")
    planted["ground_truth"].write_text("\n".join(gt_lines) + "\n", encoding="utf-8")
    planted["detections"].write_text("\n".join(det_lines) + "\n", encoding="utf-8")
    return planted
