"""Detection quality metrics: IoU, greedy matching, AP, TPR, per-image FPR.

Matching is greedy per image: detections in descending confidence order each
claim the unclaimed ground-truth box of highest IoU at or above the
threshold.  Confidence ties are broken by the box corner coordinates
(lexicographic), IoU ties by the lower ground-truth index, so results do not
depend on input order.  Average precision uses all-point interpolation (the
area under the precision envelope as a function of recall).

Box files hold ``image_id,x_min,y_min,x_max,y_max[,confidence]`` rows and are
read by the range parser of dataset CSVs, with their rules; a line whose first
field is ``image_id`` is a header and is skipped.  The parser checks the boxes
of each range as one array, by the rule :class:`BoundingBox` applies to one.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import _finite, _read_rows


def _box_problem(image_ids: list, values: np.ndarray) -> tuple[int, str] | None:
    """The first bad row of boxes ``values`` (corners, then any confidence) in
    images ``image_ids`` and its error: degenerate, else an infinite corner,
    else a confidence outside [0, 1]; None if every box is good."""
    numbers = np.asarray(values, dtype=np.float64)
    degenerate = ~((numbers[:, 2] > numbers[:, 0]) & (numbers[:, 3] > numbers[:, 1]))
    infinite = ~np.isfinite(numbers[:, :4]).all(axis=1)
    unscored = ~((0.0 <= numbers[:, 4:]) & (numbers[:, 4:] <= 1.0)).all(axis=1)
    bad = np.flatnonzero(degenerate | infinite | unscored)
    if not bad.size:
        return None
    row = int(bad[0])
    shown = values[row].tolist()  # the caller's values from an object array
    box = f"box {tuple(shown[:4])} in image {image_ids[row]!r}"
    if degenerate[row]:
        return row, f"degenerate {box}"
    if infinite[row]:
        return row, f"infinite corner in {box}"
    return row, f"confidence must be in [0, 1], got {shown[4]}"


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box; finite corners must satisfy x_max > x_min, y_max > y_min."""

    image_id: str
    x_min: float
    y_min: float
    x_max: float
    y_max: float
    confidence: float | None = None

    def __post_init__(self) -> None:
        confidence = () if self.confidence is None else (self.confidence,)
        row = np.array([(*self.corners(), *confidence)], dtype=object)
        problem = _box_problem([self.image_id], row)
        if problem is not None:
            raise ValueError(problem[1])

    def corners(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)


@dataclass(frozen=True)
class DetectionReport:
    """Aggregate metrics plus per-image (detection, matched) lists."""

    mean_ap: float
    tpr: float
    fpr_per_image: float
    per_image: dict


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection-over-union of two boxes, in [0, 1]."""
    corners = np.array([a.corners(), b.corners()], dtype=np.float64)
    return float(_pair_iou(corners[:1], corners[1:])[0])


def _pair_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of each row pair of two corner arrays; 0 where they do not overlap."""
    ix = np.minimum(a[:, 2], b[:, 2]) - np.maximum(a[:, 0], b[:, 0])
    iy = np.minimum(a[:, 3], b[:, 3]) - np.maximum(a[:, 1], b[:, 1])
    inter = ix * iy
    union = ((a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
             + (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1]) - inter)
    out = np.zeros(ix.size)
    return np.divide(inter, union, out=out, where=~((ix <= 0.0) | (iy <= 0.0)))


def _match(det_ids: list, dets: np.ndarray, gt_ids: list, gts: np.ndarray,
           iou_threshold: float) -> np.ndarray:
    """TP flags of detections ``(x_min, y_min, x_max, y_max, confidence)``
    against ground-truth corners, by the greedy rule of the module docstring.

    Every image's k-th detection in matching order is matched in one array
    step k, so a step never has two detections that compete for a box.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    flags = np.zeros(len(det_ids), dtype=bool)
    codes: dict = {}
    gt_image = np.fromiter((codes.setdefault(i, len(codes)) for i in gt_ids),
                           np.int64, len(gt_ids))
    det_image = np.fromiter((codes.get(i, -1) for i in det_ids), np.int64, len(det_ids))
    # Per image: descending confidence, ties by corners, then input order.
    order = np.lexsort((dets[:, 3], dets[:, 2], dets[:, 1], dets[:, 0], -dets[:, 4],
                        det_image))
    order = order[det_image[order] >= 0]  # no ground truth in the image
    if order.size == 0:
        return flags
    image = det_image[order]
    first = np.flatnonzero(np.concatenate([[True], image[1:] != image[:-1]]))
    rank = np.arange(order.size) - np.repeat(first, np.diff(first, append=order.size))
    by_rank = order[np.argsort(rank, kind="stable")]
    gt_order = np.argsort(gt_image, kind="stable")
    gt_count = np.bincount(gt_image)
    gt_start = np.cumsum(gt_count) - gt_count
    claimed = np.zeros(len(gt_ids), dtype=bool)
    lo = 0
    for hi in np.cumsum(np.bincount(rank)).tolist():
        step, lo = by_rank[lo:hi], hi
        count = gt_count[det_image[step]]
        offset = np.cumsum(count) - count
        pair = np.arange(offset[-1] + count[-1])
        cand = gt_order[pair + np.repeat(gt_start[det_image[step]] - offset, count)]
        overlap = _pair_iou(np.repeat(dets[step], count, axis=0), gts[cand])
        overlap[claimed[cand] | ~(overlap >= iou_threshold)] = -1.0
        best = np.maximum.reduceat(overlap, offset)
        # The first maximum wins: ties go to the earlier ground-truth box.
        at = np.minimum.reduceat(np.where(overlap == np.repeat(best, count), pair,
                                          pair.size), offset)
        hit = best >= iou_threshold
        claimed[cand[at[hit]]] = True
        flags[step[hit]] = True
    return flags


def _arrays(boxes: list[BoundingBox]) -> tuple[list[str], np.ndarray]:
    """Image ids and ``(n, 5)`` corners and confidence (None as 0.0)."""
    return [b.image_id for b in boxes], np.array(
        [(*b.corners(), b.confidence or 0.0) for b in boxes],
        dtype=np.float64).reshape(-1, 5)


def match_detections(detections: list[BoundingBox], ground_truths: list[BoundingBox],
                     iou_threshold: float = 0.5) -> list[bool]:
    """Greedy per-image matching; returns TP flags aligned with ``detections``."""
    return _match(*_arrays(detections), *_arrays(ground_truths), iou_threshold).tolist()


def average_precision(confidences, tp_flags, n_ground_truth: int) -> float:
    """All-point interpolated AP from per-detection confidences and TP flags."""
    if n_ground_truth < 1:
        raise ValueError("average precision needs at least one ground-truth box")
    conf = _finite(confidences, "confidences")
    flags = np.asarray(tp_flags, dtype=bool)
    if conf.shape != flags.shape:
        raise ValueError("confidences and flags must align")
    if conf.size == 0:
        return 0.0
    order = np.argsort(-conf, kind="stable")
    tp = flags[order].astype(np.float64)
    cum_tp = np.cumsum(tp)
    recall = cum_tp / n_ground_truth
    precision = cum_tp / np.arange(1, conf.size + 1)
    # Precision envelope: best precision at any recall >= r.
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev_recall) * envelope))


def _score_boxes(det_ids: list, dets: np.ndarray, gt_ids: list, gts: np.ndarray,
                 iou_threshold: float) -> tuple[np.ndarray, float, float, float]:
    """(TP flags, mAP, TPR, false positives per image) of box arrays as
    :func:`_read_boxes` gives them."""
    if not gt_ids:
        raise ValueError("detection report needs a nonempty ground-truth set")
    flags = _match(det_ids, dets, gt_ids, gts, iou_threshold)
    mean_ap = average_precision(dets[:, 4], flags, len(gt_ids))
    n_tp = int(flags.sum())
    n_images = len(set(gt_ids).union(det_ids))
    return flags, mean_ap, n_tp / len(gt_ids), (len(det_ids) - n_tp) / n_images


def detection_report(detections: list[BoundingBox], ground_truths: list[BoundingBox],
                     iou_threshold: float = 0.5) -> DetectionReport:
    """Match detections and report mAP, TPR, and false positives per image."""
    flags, mean_ap, tpr, fpr = _score_boxes(*_arrays(detections), *_arrays(ground_truths),
                                            iou_threshold)
    images = {gt.image_id for gt in ground_truths} | {d.image_id for d in detections}
    per_image: dict[str, list] = {image_id: [] for image_id in sorted(images)}
    for det, flag in zip(detections, flags.tolist()):
        per_image[det.image_id].append((det, flag))
    return DetectionReport(mean_ap=mean_ap, tpr=tpr, fpr_per_image=fpr, per_image=per_image)


def _read_boxes(path, with_confidence: bool) -> tuple[list[str], np.ndarray]:
    """Image ids and one float64 array of the rows of a box file: ``(n, 5)``
    corners and confidence, or ``(n, 4)`` corners.  The first bad line is
    reported by number, a box that :class:`BoundingBox` would reject too."""
    return _read_rows(Path(path), 0, 0, n_fields=6 if with_confidence else 5, name_at=0,
                      values_at=1, malformed="malformed number", check=_box_problem,
                      header="image_id")
