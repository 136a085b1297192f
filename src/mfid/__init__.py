"""Metric-learning and open-set biometric identification over precomputed feature vectors.

The toolkit ingests fixed-length feature vectors with identity labels and
provides: a pairwise-divergence training objective with analytic gradients,
small embedding heads trained by SGD, closed-set / open-set / verification
evaluation protocols, a PCA + logistic-regression baseline, and detection
quality metrics.  Everything is seeded and reproducible.
"""

from __future__ import annotations

__version__ = "0.1.0"


def _one_blas_thread_unless_chosen() -> None:
    # OpenBLAS reads its thread count once, when numpy first loads it, so
    # this runs before the first numpy import.  The commands are small GEMMs,
    # and `ablate --jobs` forks its own workers; a helper thread per process
    # only oversubscribes the cores.  The import is local so that the module's
    # imports stay the package's exports.
    import os

    if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"


_one_blas_thread_unless_chosen()

from .dataset import (
    Dataset,
    PairConstraints,
    Split,
    build_pair_constraints,
    draw_pairs,
    identity_disjoint_split,
    load_dataset,
    load_split,
    save_dataset,
    save_split,
    stratified_splits,
    synth_gaussian,
)
from .loss import (
    LossConfig,
    LossReport,
    dissim_pair_loss,
    kl_div,
    sim_pair_loss,
    total_loss,
)
from .model import (
    EmbeddingHead,
    TrainConfig,
    TrainedModel,
    backprop,
    embed,
    init_head,
    load_head,
    logits,
    lr_schedule,
    save_head,
    train,
)
from .evaluation import (
    EvalReport,
    TrialConfig,
    classification_accuracy,
    closed_set_eval,
    dir_at_far,
    far_threshold,
    far_thresholds,
    open_set_eval,
    probe_ranks,
    tar_at_far,
    verification_eval,
    verification_scores,
)
from .baseline import (
    LogRegModel,
    PCAModel,
    baseline_pipeline,
    l2_normalize,
    logreg_fit,
    logreg_predict,
    pca_fit,
    pca_transform,
)
from .detection import (
    BoundingBox,
    DetectionReport,
    average_precision,
    detection_report,
    iou,
    match_detections,
)
