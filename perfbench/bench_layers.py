"""Which functions the traced run wraps, and the per-layer metrics it reports.

Every target is the dotted name under which the caller looks the function
up, so the wrapper is the one that gets called: ``mfid.cli.embed`` for the
CLI's forward passes, ``mfid.model._loss_and_grad`` for the loss inside
``backprop``.  The layers are the modules of ``src/mfid``.
"""

from __future__ import annotations


def _pair_bytes(args, kwargs, result):
    # The exhaustive pair set holds two int64 indices per pair.
    return {"pair_bytes": (result.n_similar + result.n_dissimilar) * 16}


def _batch_pairs(args, kwargs, result):
    report = result[0]
    return {"pairs": report.n_similar + report.n_dissimilar}


def _roc_size(args, kwargs, result):
    return {"points": len(result)}


def _score_cells(args, kwargs, result):
    return {"cells": int(result.scores.size)}


def _gd_iterations(args, kwargs, result):
    # _logreg_solve appends one objective value per iteration plus the final one.
    return {"iterations": len(result[2]) - 1}


def _true_positives(args, kwargs, result):
    return {"true_positives": int(sum(result))}


# (span name, targets, hook)
SPANS = (
    ("cli.write", ("mfid.cli._write_report",), None),
    ("dataset.load_csv", ("mfid.dataset._load_csv",), None),
    ("dataset.load_bin", ("mfid.dataset._load_binary",), None),
    ("dataset.save", ("mfid.cli.save_dataset",), None),
    ("dataset.pair_build", ("mfid.model.build_pair_constraints",), _pair_bytes),
    ("dataset.pair_sample", ("mfid.model.sample_pair_batch",), None),
    ("model.train", ("mfid.cli.train",), None),
    ("model.backprop", ("mfid.model.backprop",), None),
    ("model.sgd_step", ("mfid.model.sgd_step",), None),
    ("model.embed", ("mfid.cli.embed", "mfid.evaluation.logits"), None),
    ("loss.grad", ("mfid.model._loss_and_grad",), _batch_pairs),
    ("evaluation.verification_scores",
     ("mfid.cli.verification_scores", "mfid.evaluation.verification_scores"), None),
    ("evaluation.roc_points", ("mfid.evaluation.roc_points",), _roc_size),
    ("evaluation.tar_at_far", ("mfid.cli.tar_at_far", "mfid.evaluation.tar_at_far"), None),
    ("evaluation.threshold", ("mfid.evaluation.far_threshold",), None),
    ("evaluation.score_matrix", ("mfid.evaluation.score_matrix",), _score_cells),
    ("evaluation.pool", ("mfid.evaluation.identity_max_scores",), None),
    ("evaluation.ranks", ("mfid.evaluation.probe_ranks",), None),
    ("evaluation.trial", ("mfid.cli.closed_set_eval", "mfid.cli.open_set_eval",
                          "mfid.cli.verification_eval",
                          "mfid.evaluation.closed_set_trial"), None),
    ("baseline.pca", ("mfid.baseline.pca_fit",), None),
    ("baseline.solve", ("mfid.baseline._logreg_solve",), _gd_iterations),
    ("baseline.ce_grad", ("mfid.baseline._logreg_ce_grad",), None),
    ("detection.load", ("mfid.cli.load_boxes",), None),
    ("detection.match", ("mfid.detection.match_detections",), _true_positives),
    ("detection.ap", ("mfid.detection.average_precision",), None),
)

# (count name, target): calls too cheap and too many to record as spans.
COUNTERS = (
    ("detection.iou_calls", "mfid.detection.iou"),
)

ROOT_SPAN = "cli.main"


def _self(name):
    return lambda t, c: t[name].self_s if name in t else 0.0


def _calls(name):
    return lambda t, c: t[name].calls if name in t else 0


def _count(name, key):
    return lambda t, c: t[name].counts.get(key, 0) if name in t else 0


def _sum(*parts):
    return lambda t, c: sum(part(t, c) for part in parts)


def _ratio(numerator, denominator):
    def ratio(t, c):
        below = denominator(t, c)
        return numerator(t, c) / below if below else 0.0
    return ratio


# (metric, unit, formula over (per-name totals, counter totals)) for one round.
LAYER_METRICS = (
    ("dataset.pair_build_s", "s", _self("dataset.pair_build")),
    ("dataset.pair_build_bytes", "bytes", _count("dataset.pair_build", "pair_bytes")),
    ("dataset.load_s", "s", _sum(_self("dataset.load_csv"), _self("dataset.load_bin"))),
    ("dataset.load_csv_s", "s", _self("dataset.load_csv")),
    ("dataset.save_s", "s", _self("dataset.save")),
    ("dataset.pair_sample_s", "s", _self("dataset.pair_sample")),
    ("dataset.pair_sample_calls", "count", _calls("dataset.pair_sample")),
    ("model.train_self_s", "s", _self("model.train")),
    ("model.steps", "count", _calls("model.sgd_step")),
    ("model.backprop_self_s", "s", _self("model.backprop")),
    ("model.sgd_step_s", "s", _self("model.sgd_step")),
    ("model.embed_s", "s", _self("model.embed")),
    ("loss.grad_s", "s", _self("loss.grad")),
    ("loss.grad_calls", "count", _calls("loss.grad")),
    ("loss.pairs", "count", _count("loss.grad", "pairs")),
    ("evaluation.roc_points_s", "s", _self("evaluation.roc_points")),
    ("evaluation.roc_points_n", "count", _count("evaluation.roc_points", "points")),
    ("evaluation.verification_scores_s", "s", _self("evaluation.verification_scores")),
    ("evaluation.verification_scores_calls", "count",
     _calls("evaluation.verification_scores")),
    ("evaluation.tar_at_far_calls", "count", _calls("evaluation.tar_at_far")),
    ("evaluation.score_matrix_s", "s", _self("evaluation.score_matrix")),
    ("evaluation.score_cells", "count", _count("evaluation.score_matrix", "cells")),
    ("evaluation.pool_s", "s", _self("evaluation.pool")),
    ("evaluation.ranks_s", "s", _self("evaluation.ranks")),
    ("evaluation.threshold_s", "s", _self("evaluation.threshold")),
    ("evaluation.trial_self_s", "s", _self("evaluation.trial")),
    ("baseline.pca_s", "s", _self("baseline.pca")),
    ("baseline.ce_grad_s", "s", _self("baseline.ce_grad")),
    ("baseline.gd_iters", "count", _count("baseline.solve", "iterations")),
    ("baseline.ce_grad_calls", "count", _calls("baseline.ce_grad")),
    ("baseline.line_search_accept_frac", "ratio",
     _ratio(_count("baseline.solve", "iterations"), _calls("baseline.ce_grad"))),
    ("detection.load_s", "s", _self("detection.load")),
    ("detection.match_s", "s", _self("detection.match")),
    ("detection.iou_calls", "count", lambda t, c: c.get("detection.iou_calls", 0)),
    ("detection.match_frac", "ratio",
     _ratio(_count("detection.match", "true_positives"),
            lambda t, c: c.get("detection.iou_calls", 0))),
    ("detection.ap_s", "s", _self("detection.ap")),
    ("cli.self_s", "s", _self(ROOT_SPAN)),
    ("cli.write_s", "s", _self("cli.write")),
)
