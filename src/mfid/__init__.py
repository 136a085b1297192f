"""Metric-learning and open-set biometric identification over precomputed feature vectors.

The toolkit ingests fixed-length feature vectors with identity labels and
provides: a pairwise-divergence training objective with analytic gradients,
small embedding heads trained by SGD, closed-set / open-set / verification
evaluation protocols, a PCA + logistic-regression baseline, and detection
quality metrics.  Everything is seeded and reproducible.

``import mfid`` loads no module of the package and not numpy.  Each exported
name, and each submodule (``mfid.dataset``, ...), loads its module the first
time it is read (PEP 562), so a command pays only for what it uses.
"""

__version__ = "0.1.0"


def _one_blas_thread_unless_chosen() -> None:
    # OpenBLAS reads its thread count once, when numpy first loads it, so
    # this runs before the first numpy import.  The commands are small GEMMs,
    # and `ablate --jobs` forks its own workers; a helper thread per process
    # only oversubscribes the cores.
    import os

    if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"


_one_blas_thread_unless_chosen()

# The exported names, by the module that defines them.
_EXPORTS = {
    "dataset": (
        "Dataset", "PairConstraints", "Split", "draw_pairs", "identity_disjoint_split",
        "load_dataset", "load_split", "save_dataset", "save_split", "stratified_splits",
        "synth_gaussian"),
    "loss": ("LossConfig", "LossReport", "dissim_pair_loss", "kl_div", "sim_pair_loss",
             "total_loss"),
    "model": ("EmbeddingHead", "TrainConfig", "TrainedModel", "backprop", "embed",
              "init_head", "load_head", "logits", "lr_schedule", "save_head", "train"),
    "evaluation": (
        "EvalReport", "TrialConfig", "classification_accuracy", "closed_set_eval",
        "dir_at_far", "far_threshold", "far_thresholds", "open_set_eval", "probe_ranks",
        "tar_at_far", "verification_eval", "verification_scores"),
    "baseline": ("LogRegModel", "PCAModel", "baseline_pipeline", "l2_normalize",
                 "logreg_fit", "logreg_predict", "pca_fit", "pca_transform"),
    "detection": ("BoundingBox", "DetectionReport", "average_precision",
                  "detection_report", "iou", "match_detections"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    loaded = importlib.import_module(f"{__name__}.{module or name}")
    return loaded if module is None else getattr(loaded, name)


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
