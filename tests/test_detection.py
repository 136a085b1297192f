"""Detection scoring: IoU, greedy matching, AP, and report arithmetic."""

import itertools
import math
import multiprocessing
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfid.dataset
from mfid import (
    BoundingBox,
    average_precision,
    detection_report,
    iou,
    load_dataset,
    match_detections,
)
from mfid.detection import _read_boxes


def box(x0, y0, x1, y1, conf=None, image="img0"):
    return BoundingBox(image, x0, y0, x1, y1, confidence=conf)


# ---------------------------------------------------------------------------
# IoU


def test_iou_identical_boxes():
    a = box(0, 0, 2, 3)
    assert iou(a, a) == 1.0


def test_iou_disjoint_boxes():
    assert iou(box(0, 0, 1, 1), box(5, 5, 6, 6)) == 0.0


def test_iou_touching_edges_is_zero():
    assert iou(box(0, 0, 1, 1), box(1, 0, 2, 1)) == 0.0


def test_iou_unit_overlap_case():
    # intersection 1, union 4 + 4 - 1 = 7
    assert iou(box(0, 0, 2, 2), box(1, 1, 3, 3)) == pytest.approx(1.0 / 7.0)


def test_iou_symmetric_and_bounded():
    rng = np.random.default_rng(0)
    for _ in range(200):
        x0, y0 = rng.uniform(-5, 5, size=2)
        a = box(x0, y0, x0 + rng.uniform(0.1, 4), y0 + rng.uniform(0.1, 4))
        u0, v0 = rng.uniform(-5, 5, size=2)
        b = box(u0, v0, u0 + rng.uniform(0.1, 4), v0 + rng.uniform(0.1, 4))
        ab = iou(a, b)
        assert ab == iou(b, a)
        areas = [(x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in (a.corners(), b.corners())]
        assert 0.0 <= ab <= min(areas) / max(areas) + 1e-12


def reference_iou(a, b):
    """The earlier scalar IoU, from the two boxes' fields."""
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    area_a = (a.x_max - a.x_min) * (a.y_max - a.y_min)
    area_b = (b.x_max - b.x_min) * (b.y_max - b.y_min)
    return inter / (area_a + area_b - inter)


def test_iou_matches_scalar_reference_bit_for_bit():
    rng = np.random.default_rng(3)
    pairs = [(box(0, 0, 1, 1), box(1, 0, 2, 1)),        # touching edges
             (box(0, 0, 1, 1), box(1, 1, 2, 2)),        # touching corners
             (box(0, 0, 4, 4), box(1, 1, 2, 3)),        # nested
             (box(-0.0, 0, 0.3, 0.7), box(0.0, 0, 0.3, 0.7)),  # identical
             (box(0.1, 0.2, 0.7, 0.9), box(0.1, 0.2, 0.7, 0.9))]
    for _ in range(500):
        corners = rng.uniform(-5, 5, size=(2, 2))
        sizes = rng.uniform(0.01, 4, size=(2, 2))
        pairs.append(tuple(box(*c, *(c + s)) for c, s in zip(corners, sizes)))
    pairs += [(a, a) for a, _ in pairs[-100:]]
    pairs += [(box(a.x_min, a.y_min, a.x_max + 1.0, a.y_max + 0.5), a)
              for a, _ in pairs[-100:]]
    for a, b in pairs:
        for first, second in ((a, b), (b, a)):
            got, want = iou(first, second), reference_iou(first, second)
            assert type(got) is float
            assert struct.pack("<d", got) == struct.pack("<d", want)


def test_box_rejects_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        box(0, 0, 0, 1)
    with pytest.raises(ValueError, match="degenerate"):
        box(0, 2, 1, 1)


def test_box_rejects_infinite_corner():
    with pytest.raises(ValueError) as raised:
        box(-math.inf, 0, math.inf, 2, image="im1")
    assert str(raised.value) == "infinite corner in box (-inf, 0, inf, 2) in image 'im1'"


def test_box_rejects_out_of_range_confidence():
    with pytest.raises(ValueError, match="confidence"):
        box(0, 0, 1, 1, conf=1.5)


# ---------------------------------------------------------------------------
# matching


def test_match_single_overlap_above_threshold():
    gt = [box(0, 0, 10, 10)]
    det = [box(0, 0, 10, 6, conf=0.9)]  # IoU 0.6
    assert match_detections(det, gt, iou_threshold=0.5) == [True]


def test_match_single_overlap_below_threshold():
    gt = [box(0, 0, 10, 10)]
    det = [box(0, 0, 10, 4, conf=0.9)]  # IoU 0.4
    assert match_detections(det, gt, iou_threshold=0.5) == [False]


def test_match_duplicate_detections_single_claim():
    gt = [box(0, 0, 4, 4)]
    det = [box(0, 0, 4, 4, conf=0.3), box(0, 0, 4, 4, conf=0.8)]
    # higher confidence claims the only ground truth
    assert match_detections(det, gt) == [False, True]


def exhaustive_match_count(det, gt, threshold):
    """Best total TP count over every detection->GT assignment (2x2 oracle)."""
    best = 0
    for perm in itertools.permutations(range(len(gt))):
        for picks in itertools.product([False, True], repeat=len(det)):
            used = set()
            count = 0
            ok = True
            for i, take in enumerate(picks):
                if not take:
                    continue
                j = perm[i % len(perm)]
                if j in used or iou(det[i], gt[j]) < threshold:
                    ok = False
                    break
                used.add(j)
                count += 1
            if ok:
                best = max(best, count)
    return best


def test_match_crossed_case_equals_exhaustive():
    # each detection overlaps both ground truths; greedy must still find the
    # assignment with the maximum number of matches on 2x2 instances
    rng = np.random.default_rng(1)
    for _ in range(50):
        base = rng.uniform(0, 2, size=2)
        gt = [box(base[0], base[1], base[0] + 4, base[1] + 4),
              box(base[0] + 1, base[1], base[0] + 5, base[1] + 4)]
        det = [box(base[0] + rng.uniform(-0.5, 0.5), base[1] + rng.uniform(-0.5, 0.5),
                   base[0] + 4 + rng.uniform(-0.5, 0.5), base[1] + 4, conf=0.9),
               box(base[0] + 1 + rng.uniform(-0.5, 0.5), base[1] + rng.uniform(-0.5, 0.5),
                   base[0] + 5 + rng.uniform(-0.5, 0.5), base[1] + 4, conf=0.6)]
        flags = match_detections(det, gt, iou_threshold=0.3)
        assert sum(flags) == exhaustive_match_count(det, gt, 0.3)


def test_match_shuffled_input_same_flags():
    rng = np.random.default_rng(2)
    gt = [box(i * 10, 0, i * 10 + 5, 5) for i in range(4)]
    det = [box(i * 10 + rng.uniform(-1, 1), rng.uniform(-1, 1),
               i * 10 + 5, 5, conf=float(c))
           for i, c in zip(range(6), [0.9, 0.8, 0.8, 0.5, 0.4, 0.2])]
    baseline_flags = match_detections(det, gt)
    for _ in range(10):
        order = rng.permutation(len(det))
        shuffled = [det[i] for i in order]
        flags = match_detections(shuffled, gt)
        assert [flags[list(order).index(i)] for i in range(len(det))] == baseline_flags


def test_match_respects_image_boundaries():
    gt = [BoundingBox("a", 0, 0, 4, 4)]
    det = [BoundingBox("b", 0, 0, 4, 4, confidence=0.9)]  # same coords, other image
    assert match_detections(det, gt) == [False]


def test_match_tp_count_bounded():
    rng = np.random.default_rng(3)
    for _ in range(20):
        gt = [box(rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(11, 20),
                  rng.uniform(11, 20)) for _ in range(rng.integers(1, 5))]
        det = [box(rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(11, 20),
                   rng.uniform(11, 20), conf=float(rng.uniform()))
               for _ in range(rng.integers(0, 6))]
        flags = match_detections(det, gt)
        assert sum(flags) <= min(len(det), len(gt))


def test_match_rejects_bad_threshold():
    with pytest.raises(ValueError, match="iou_threshold"):
        match_detections([], [], iou_threshold=0.0)


# ---------------------------------------------------------------------------
# average precision


def test_ap_single_true_positive():
    assert average_precision([0.9], [True], 1) == 1.0


def test_ap_false_positive_first():
    # prefix precisions: 0/1 then 1/2; envelope at recall 1 is 0.5
    assert average_precision([0.9, 0.8], [False, True], 1) == pytest.approx(0.5)


def test_ap_true_positive_first():
    assert average_precision([0.9, 0.8], [True, False], 1) == pytest.approx(1.0)


def test_ap_no_detections():
    assert average_precision([], [], 3) == 0.0


def test_ap_missed_ground_truth_caps_recall():
    # one TP over two GT: recall tops out at 0.5 with precision 1
    assert average_precision([0.9], [True], 2) == pytest.approx(0.5)


def test_ap_prefix_enumeration_oracle():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        conf = rng.uniform(size=n)
        flags = rng.uniform(size=n) < 0.5
        n_gt = max(int(flags.sum()), 1) + int(rng.integers(0, 3))
        # straight-line re-derivation: sort, prefix P/R, envelope, rectangle sum
        order = np.argsort(-conf, kind="stable")
        f = flags[order]
        ap = 0.0
        best_after = {}
        cum = np.cumsum(f)
        prec = [cum[i] / (i + 1) for i in range(n)]
        rec = [cum[i] / n_gt for i in range(n)]
        for i in range(n - 1, -1, -1):
            best_after[i] = max(prec[i], best_after.get(i + 1, 0.0))
        prev = 0.0
        for i in range(n):
            ap += (rec[i] - prev) * best_after[i]
            prev = rec[i]
        assert average_precision(conf, flags, n_gt) == pytest.approx(ap, abs=1e-12)


def test_ap_invariant_to_monotone_confidence_transform():
    rng = np.random.default_rng(5)
    conf = rng.uniform(0.05, 0.95, size=20)
    flags = rng.uniform(size=20) < 0.4
    base = average_precision(conf, flags, 10)
    squashed = conf ** 3  # strictly increasing on (0, 1)
    assert average_precision(squashed, flags, 10) == pytest.approx(base, abs=1e-12)


def test_ap_counts_a_tied_group_as_one_point():
    # A TP in image a and an FP in b, both at 0.5, with 2 ground-truth boxes:
    # one point at recall 1/2 and precision 1/2, in either row order.
    gts = [box(0, 0, 2, 2, image="a"), box(0, 0, 2, 2, image="c")]
    tp, fp = box(0, 0, 2, 2, conf=0.5, image="a"), box(0, 0, 2, 2, conf=0.5, image="b")
    assert detection_report([tp, fp], gts).mean_ap == 0.25
    assert detection_report([fp, tp], gts).mean_ap == 0.25


# A few confidence values make ties common; the floats give the rest.
@st.composite
def scored_detections(draw):
    """Confidences, TP flags, a ground-truth count and a row order."""
    n = draw(st.integers(1, 20))
    conf = draw(st.lists(st.sampled_from([0.0, 0.3, 0.5, 1.0]) | st.floats(0.0, 1.0),
                         min_size=n, max_size=n))
    flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    n_gt = max(sum(flags), 1) + draw(st.integers(0, 3))
    return conf, flags, n_gt, draw(st.permutations(range(n)))


AP_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@AP_SETTINGS
@given(scored_detections())
def test_ap_invariant_to_row_order(case):
    conf, flags, n_gt, order = case
    assert (average_precision([conf[i] for i in order], [flags[i] for i in order], n_gt)
            == average_precision(conf, flags, n_gt))


def threshold_sweep_ap(conf, flags, n_gt):
    """At each distinct confidence t, high to low, the recall and precision of
    the detections at or above t; each rise in recall is weighted by the best
    precision at that recall or beyond."""
    points = []
    for t in sorted(set(conf), reverse=True):
        kept = [flag for c, flag in zip(conf, flags) if c >= t]
        points.append((sum(kept) / n_gt, sum(kept) / len(kept)))
    ap, prev = 0.0, 0.0
    for i, (recall, _) in enumerate(points):
        ap += (recall - prev) * max(precision for _, precision in points[i:])
        prev = recall
    return ap


@AP_SETTINGS
@given(scored_detections())
def test_ap_matches_threshold_sweep(case):
    conf, flags, n_gt, _ = case
    assert average_precision(conf, flags, n_gt) == pytest.approx(
        threshold_sweep_ap(conf, flags, n_gt), abs=1e-12)


def test_ap_requires_ground_truth():
    with pytest.raises(ValueError, match="ground-truth"):
        average_precision([0.5], [True], 0)


# ---------------------------------------------------------------------------
# report


def test_report_perfect_detections():
    gt = [box(0, 0, 4, 4), BoundingBox("img1", 0, 0, 4, 4)]
    det = [box(0, 0, 4, 4, conf=0.9), BoundingBox("img1", 0, 0, 4, 4, confidence=0.8)]
    report = detection_report(det, gt)
    assert report.mean_ap == 1.0
    assert report.tpr == 1.0
    assert report.fpr_per_image == 0.0


def test_report_count_arithmetic():
    # 2 GT in one image, 1 matched + 1 false positive: tpr 0.5, fpr 1.0
    gt = [box(0, 0, 4, 4), box(10, 10, 14, 14)]
    det = [box(0, 0, 4, 4, conf=0.9), box(100, 100, 104, 104, conf=0.8)]
    report = detection_report(det, gt)
    assert report.tpr == pytest.approx(0.5)
    assert report.fpr_per_image == pytest.approx(1.0)


def test_report_empty_detection_set():
    gt = [box(0, 0, 4, 4)]
    report = detection_report([], gt)
    assert report.tpr == 0.0
    assert report.mean_ap == 0.0
    assert report.fpr_per_image == 0.0


def test_report_requires_ground_truth():
    with pytest.raises(ValueError, match="ground-truth"):
        detection_report([box(0, 0, 1, 1, conf=0.5)], [])


def test_report_per_image_lists():
    gt = [box(0, 0, 4, 4), BoundingBox("img1", 0, 0, 4, 4)]
    det = [box(0, 0, 4, 4, conf=0.9), box(9, 9, 12, 12, conf=0.4)]
    report = detection_report(det, gt)
    assert set(report.per_image) == {"img0", "img1"}
    assert [flag for _, flag in report.per_image["img0"]] == [True, False]
    assert report.per_image["img1"] == []


def test_report_metrics_in_range():
    rng = np.random.default_rng(6)
    for _ in range(20):
        gt = [box(rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(6, 10),
                  rng.uniform(6, 10), image=f"i{rng.integers(3)}")
              for _ in range(int(rng.integers(1, 6)))]
        det = [box(rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(6, 10),
                   rng.uniform(6, 10), conf=float(rng.uniform()),
                   image=f"i{rng.integers(3)}")
               for _ in range(int(rng.integers(0, 8)))]
        report = detection_report(det, gt)
        assert 0.0 <= report.mean_ap <= 1.0
        assert 0.0 <= report.tpr <= 1.0
        assert report.fpr_per_image >= 0.0


# ---------------------------------------------------------------------------
# box files


def test_load_boxes_with_confidence(tmp_path):
    path = tmp_path / "dets.csv"
    path.write_text("# detections\n"
                    "image_id,x_min,y_min,x_max,y_max,confidence\n"
                    "frame0,0,0,4,4,0.9\n"
                    "frame1,1.5,2.5,3.5,4.5,0.25\n")
    ids, boxes = _read_boxes(path, with_confidence=True)
    assert ids == ["frame0", "frame1"]
    assert boxes.tolist() == [[0.0, 0.0, 4.0, 4.0, 0.9], [1.5, 2.5, 3.5, 4.5, 0.25]]


def test_load_boxes_without_confidence(tmp_path):
    path = tmp_path / "gt.csv"
    path.write_text("frame0,0,0,4,4\n")
    ids, boxes = _read_boxes(path, with_confidence=False)
    assert ids == ["frame0"]
    assert boxes.tolist() == [[0.0, 0.0, 4.0, 4.0]]


def test_load_boxes_wrong_width(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("frame0,0,0,4,4,0.9\nframe0,0,0,4\n")
    with pytest.raises(ValueError, match="line 2"):
        _read_boxes(path, with_confidence=True)


def test_load_boxes_malformed_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("frame0,0,zero,4,4\n")
    with pytest.raises(ValueError, match="line 1"):
        _read_boxes(path, with_confidence=False)


def test_load_boxes_degenerate_box_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("frame0,0,0,4,4\nframe0,5,5,5,9\n")
    with pytest.raises(ValueError, match="line 2"):
        _read_boxes(path, with_confidence=False)


def test_load_boxes_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# nothing here\n")
    ids, boxes = _read_boxes(path, with_confidence=True)
    assert ids == [] and boxes.shape == (0, 5)


def test_load_boxes_skips_only_an_exact_image_id_header(tmp_path):
    path = tmp_path / "gt.csv"
    path.write_text("image_id,x_min,y_min,x_max,y_max\nimage_id7,0,0,4,4\nimg8,0,0,4,4\n"
                    " image_id ,1,1,2,2\n")
    ids, boxes = _read_boxes(path, with_confidence=False)
    # the line is stripped, so the last id is "image_id " and is not a header
    assert ids == ["image_id7", "img8", "image_id "]
    assert boxes.tolist() == [[0.0, 0.0, 4.0, 4.0], [0.0, 0.0, 4.0, 4.0],
                              [1.0, 1.0, 2.0, 2.0]]


def test_box_id_and_dataset_label_keep_a_form_feed(tmp_path):
    # Only LF, CRLF and a lone CR end a line, in box files as in datasets.
    boxes = tmp_path / "gt.csv"
    boxes.write_text("a\x0cb,0,0,4,4\nc,1,1,2,2\n")
    ids, rows = _read_boxes(boxes, with_confidence=False)
    assert ids == ["a\x0cb", "c"] and rows.shape == (2, 4)
    data = tmp_path / "d.csv"
    data.write_text("id,label,f0\n0,a\x0cb,1.5\n1,c,2.5\n")
    assert load_dataset(data).identity_names == {0: "a\x0cb", 1: "c"}


# ---------------------------------------------------------------------------
# array matcher and loader against the loops they replaced


def reference_match_detections(detections, ground_truths, iou_threshold=0.5):
    """The earlier greedy loop: one scalar iou call per (detection, free box)."""
    gt_by_image = {}
    for j, gt in enumerate(ground_truths):
        gt_by_image.setdefault(gt.image_id, []).append(j)
    claimed = [False] * len(ground_truths)
    flags = [False] * len(detections)
    det_by_image = {}
    order = sorted(range(len(detections)),
                   key=lambda i: (-(detections[i].confidence or 0.0),
                                  detections[i].corners()))
    for i in order:
        det_by_image.setdefault(detections[i].image_id, []).append(i)
    for image_id, det_indices in det_by_image.items():
        candidates = gt_by_image.get(image_id, [])
        for i in det_indices:
            best_j, best_iou = -1, 0.0
            for j in candidates:
                if claimed[j]:
                    continue
                overlap = iou(detections[i], ground_truths[j])
                if overlap >= iou_threshold and overlap > best_iou:
                    best_j, best_iou = j, overlap
            if best_j >= 0:
                claimed[best_j] = True
                flags[i] = True
    return flags


def reference_load_boxes(path, with_confidence):
    """The earlier loader: one BoundingBox per row, checked as it is built."""
    expected = 6 if with_confidence else 5
    boxes = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(),
                                 start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("image_id"):
            continue
        fields = line.split(",")
        if len(fields) != expected:
            raise ValueError(f"{path}: line {lineno}: expected {expected} fields, "
                             f"got {len(fields)}")
        try:
            coords = [float(v) for v in fields[1:5]]
            confidence = float(fields[5]) if with_confidence else None
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: malformed number") from None
        try:
            boxes.append(BoundingBox(fields[0], *coords, confidence=confidence))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return boxes


# Integer corners on a small grid make IoU ties common; a few confidence
# values make confidence ties common.
@st.composite
def box_lists(draw, with_confidence):
    n = draw(st.integers(0, 14))
    boxes = []
    for _ in range(n):
        x, y = draw(st.integers(0, 6)), draw(st.integers(0, 6))
        w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        conf = (draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]) | st.floats(0.0, 1.0))
                if with_confidence else None)
        boxes.append(BoundingBox(draw(st.sampled_from(["a", "b", "c", "d"])),
                                 x, y, x + w, y + h, confidence=conf))
    return boxes


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(box_lists(True), box_lists(False), st.sampled_from([0.1, 0.25, 0.5, 1.0]),
       st.randoms(use_true_random=False))
def test_array_matcher_matches_greedy_loop(detections, ground_truths, threshold, random):
    expected = reference_match_detections(detections, ground_truths, threshold)
    assert match_detections(detections, ground_truths, threshold) == expected
    order = list(range(len(detections)))
    random.shuffle(order)
    shuffled = match_detections([detections[i] for i in order], ground_truths, threshold)
    assert shuffled == [expected[i] for i in order]
    if ground_truths:
        report = detection_report(detections, ground_truths, threshold)
        n_tp = sum(expected)
        images = {b.image_id for b in detections + ground_truths}
        assert report.tpr == n_tp / len(ground_truths)
        assert report.fpr_per_image == (len(detections) - n_tp) / len(images)
        assert report.mean_ap == average_precision(
            [d.confidence for d in detections], expected, len(ground_truths))
        assert [flag for rows in report.per_image.values() for _, flag in rows] == [
            expected[i] for i in sorted(range(len(detections)),
                                        key=lambda i: detections[i].image_id)]


def test_array_matcher_breaks_iou_ties_by_box_order():
    # both boxes overlap the detection by IoU 1/3; the first listed wins
    gt = [box(0, 0, 2, 2), box(1, 0, 3, 2), box(-1, 0, 1, 2)]
    det = [box(0, 0, 2, 2, conf=0.9), box(1, 0, 3, 2, conf=0.9)]
    assert iou(det[0], gt[1]) == iou(det[0], gt[2])
    assert match_detections(det, gt) == reference_match_detections(det, gt) == [True, True]
    assert match_detections(det[:1], gt[1:], 0.3) == [True]
    assert match_detections(det[1:], gt[2:], 0.3) == [False]


BAD_BOX_FILES = [
    ("wrong field count", True, "a,0,0,4,4,0.9\na,0,0,4\n",
     "line 2: expected 6 fields, got 4"),
    ("malformed number", False, "a,0,0,4,4\na,0,zero,4,4\n", "line 2: malformed number"),
    ("degenerate box", False, "# boxes\na,0,0,4,4\na,5,5,5,9\n",
     "line 3: degenerate box (5.0, 5.0, 5.0, 9.0) in image 'a'"),
    ("confidence above one", True, "a,0,0,4,4,1.5\n",
     "line 1: confidence must be in [0, 1], got 1.5"),
    ("negative confidence", True, "image_id,x\na,0,0,4,4,-0.25\n",
     "line 2: confidence must be in [0, 1], got -0.25"),
    ("NaN corner", False, "a,0,0,4,4\nb,nan,0,4,4\n",
     "line 2: degenerate box (nan, 0.0, 4.0, 4.0) in image 'b'"),
    ("infinite corners", True, "im1,-inf,0,inf,2,0.5\n",
     "line 1: infinite corner in box (-inf, 0.0, inf, 2.0) in image 'im1'"),
    ("infinite corner", False, "a,0,0,4,4\nb,0,0,4,inf\n",
     "line 2: infinite corner in box (0.0, 0.0, 4.0, inf) in image 'b'"),
    ("NaN confidence", True, "a,0,0,4,4,nan\n",
     "line 1: confidence must be in [0, 1], got nan"),
    ("bad box before a bad number", True, "a,0,0,4,4,0.5\na,4,0,4,4,2\na,x,0,4,4,0.5\n",
     "line 2: degenerate box (4.0, 0.0, 4.0, 4.0) in image 'a'"),
    ("short row before a bad box", False, "a,0,0,4\na,4,0,4,4\n",
     "line 1: expected 5 fields, got 4"),
]


@pytest.mark.parametrize("with_confidence,text,message",
                         [case[1:] for case in BAD_BOX_FILES],
                         ids=[case[0] for case in BAD_BOX_FILES])
def test_load_boxes_errors_match_earlier_loader(tmp_path, with_confidence, text, message):
    path = tmp_path / "boxes.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as expected:
        reference_load_boxes(path, with_confidence)
    assert str(expected.value) == f"{path}: {message}"
    with pytest.raises(ValueError) as ours:
        _read_boxes(path, with_confidence)
    assert str(ours.value) == str(expected.value)


def test_box_file_undecodable_byte_names_its_line(tmp_path):
    path = tmp_path / "boxes.csv"
    path.write_bytes(b"image_id,x_min,y_min,x_max,y_max\na,0,0,4,4\n"
                     b"b\xff,0,0,4,4\na,0,0,4\n")
    with pytest.raises(ValueError) as info:
        _read_boxes(path, with_confidence=False)
    assert str(info.value) == f"{path}: line 3: not UTF-8 text"


@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_box_file_in_chunks_matches_earlier_loader(tmp_path, monkeypatch, blocks):
    # blocks and batches of 85, 170 or 255 bytes, so the file spans many of them
    monkeypatch.setattr(mfid.dataset, "_READ_BYTES", 85 * blocks)
    rng = np.random.default_rng(5)
    lines = ["image_id,x_min,y_min,x_max,y_max,confidence"]
    for i in range(150):
        x, y, conf = rng.uniform(0, 50), rng.uniform(0, 50), rng.uniform()
        lines.append(f"img{i % 7},{x!r},{y!r},{x + 5!r},{y + 3!r},{conf!r}")
        if i % 13 == 0:
            lines.append("# a comment among the rows")
    path = tmp_path / "dets.csv"
    path.write_text("\r\n".join(lines) + "\r\n")
    assert path.stat().st_size > 8 * 256
    ids, rows = _read_boxes(path, with_confidence=True)
    theirs = reference_load_boxes(path, with_confidence=True)
    assert ids == [b.image_id for b in theirs]
    assert rows.tolist() == [[*b.corners(), b.confidence] for b in theirs]
    # a bad box late in the file is named by its line, as the earlier loader named it
    lines[-3] = "img1,5,5,5,9,0.5"
    path.write_text("\r\n".join(lines) + "\r\n")
    with pytest.raises(ValueError) as expected:
        reference_load_boxes(path, with_confidence=True)
    with pytest.raises(ValueError) as ours:
        _read_boxes(path, with_confidence=True)
    assert str(ours.value) == str(expected.value)
    assert f"line {len(lines) - 2}: degenerate box" in str(ours.value)
    assert multiprocessing.active_children() == []


def test_load_boxes_matches_earlier_loader(tmp_path):
    path = tmp_path / "boxes.csv"
    path.write_text("# c\nimage_id,x\n a b ,1,2.5,3,4e0,0.5\n\nb, 1 ,2,3,4,1\nc,0,0,1,1,-0\n")
    for with_confidence in (True, False):
        if not with_confidence:
            path.write_text(path.read_text().replace(",0.5\n", "\n").replace(",1\n", "\n")
                            .replace(",-0\n", "\n"))
        ids, rows = _read_boxes(path, with_confidence)
        theirs = reference_load_boxes(path, with_confidence)
        assert ids == [b.image_id for b in theirs]
        # repr tells -0.0 from 0.0
        assert [repr(tuple(row)) for row in rows.tolist()] == [
            repr(b.corners() + ((b.confidence,) if with_confidence else ()))
            for b in theirs]
