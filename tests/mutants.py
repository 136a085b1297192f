"""Hand-written mutation checks: each row breaks one guarded line of the
package and names the tests that must then fail.

    python tests/mutants.py             # every row
    python tests/mutants.py NAME ...    # the named rows only

``src/``, ``tests/``, ``pyproject.toml`` and ``README.md`` are copied to a
temporary directory.  The rows' tests first run on the unmutated copy, where
they must pass.  Then each row is applied alone, and each of its tests runs
against the copy.  A row survives when one of its tests still passes: the
line it breaks is not held by that test.  The script lists the survivors
and exits 1 if there is any.  ``tests/test_source.py`` checks that each
row's snippet occurs exactly once in its module, so a refactor that moves a
guarded line has to move its row too.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # module under src/mfid
    snippet: str
    replacement: str
    tests: tuple  # pytest node ids, relative to the repository root
    reason: str


NON_FINITE_INPUT = ("tests/test_evaluation.py::"
                    "test_library_entry_points_reject_non_finite_input")
BAD_BOX = "tests/test_detection.py::test_load_boxes_errors_match_earlier_loader"
CSV_BEFORE_LATER = ("tests/test_dataset.py::"
                    "test_csv_reports_a_non_finite_row_before_a_later_bad_line")
LATE_CHUNK = "tests/test_dataset.py::test_chunked_csv_error_names_the_line_in_a_late_chunk"

MUTANTS = (
    Mutant("finite-scores", "dataset.py",
           "    if not finite.all():", "    if False:",
           ("tests/test_evaluation.py::"
            "test_threshold_and_roc_entry_points_reject_non_finite_scores",),
           "a NaN score made a NaN threshold or counted as a rejected score"),
    Mutant("eval-dim-check", "cli.py",
           "    if ds.dim != head.input_dim:", "    if False:",
           ("tests/test_cli.py::test_eval_rejects_a_model_of_another_dim",),
           "a model of another input dim fails inside a product, naming neither dim"),
    Mutant("trial-score-clip", "evaluation.py",
           "np.clip(scores, -1.0, 1.0, out=scores)", "pass",
           ("tests/test_evaluation.py::test_scores_of_equal_rows_are_clipped_to_one",),
           "a trial score of equal unit rows can round past 1.0"),
    Mutant("verification-score-clip", "evaluation.py",
           "np.clip(pooled, -1.0, 1.0, out=pooled)", "pass",
           ("tests/test_evaluation.py::test_scores_of_equal_rows_are_clipped_to_one",),
           "a verification score of equal unit rows can round past 1.0"),
    Mutant("bin-magic", "dataset.py",
           "    if found_magic != magic:", "    if False:",
           ("tests/test_dataset.py::test_binary_rejects_bad_magic",),
           "a file of another format is read as a dataset or checkpoint"),
    Mutant("finite-row-mask", "dataset.py",
           "finite = np.isfinite(values)", "finite = np.ones_like(values, dtype=bool)",
           ("tests/test_dataset.py::test_dataset_rejects_non_finite_naming_row",
            "tests/test_dataset.py::test_csv_non_finite_names_its_line",
            "tests/test_baseline.py::test_pca_rejects_non_finite_rows",
            "tests/test_baseline.py::test_logreg_rejects_non_finite_rows",
            "tests/test_model.py::test_embed_rejects_non_finite_batch",
            "tests/test_evaluation.py::"
            "test_threshold_and_roc_entry_points_reject_non_finite_scores",
            NON_FINITE_INPUT),
           "the one finite-row rule passes every NaN, at every entry point"),
    Mutant("dataset-finite", "dataset.py",
           '_finite(self.features, "feature value")',
           "np.asarray(self.features, dtype=np.float64)",
           ("tests/test_dataset.py::test_dataset_rejects_non_finite_naming_row",),
           "a NaN feature reaches training, which does not check its rows again"),
    Mutant("csv-non-finite", "dataset.py",
           "~_finite_rows(values)", "np.zeros(len(values), dtype=bool)",
           ("tests/test_dataset.py::test_csv_non_finite_names_its_line",),
           "a NaN in a dataset CSV is reported without its line"),
    Mutant("pca-fit-finite", "baseline.py",
           'checked before the shape.\n    """\n    x = _finite(x, "feature value")',
           'checked before the shape.\n    """\n    x = np.asarray(x, dtype=float)',
           ("tests/test_baseline.py::test_pca_rejects_non_finite_rows",),
           "a NaN feature row makes the SVD fail without naming the row"),
    Mutant("logreg-fit-finite", "baseline.py",
           'or if the refit does not.\n    """\n    x = _finite(x, "feature value")',
           'or if the refit does not.\n    """\n    x = np.asarray(x, dtype=float)',
           ("tests/test_baseline.py::test_logreg_rejects_non_finite_rows",),
           "a NaN residual passes as converged, and every C is recorded"),
    Mutant("forward-finite", "model.py",
           'x = _finite(x, "feature value")', "x = np.asarray(x, dtype=float)",
           ("tests/test_model.py::test_embed_rejects_non_finite_batch",
            "tests/test_model.py::test_logits_rejects_non_finite_batch"),
           "a NaN feature row is embedded as a NaN row"),
    Mutant("unit-rows-zero-norm", "dataset.py",
           "    if zero.size:", "    if False:",
           ("tests/test_evaluation.py::test_score_matrix_reports_zero_norm_index",
            "tests/test_baseline.py::test_l2_normalize_rejects_zero_row"),
           "a zero-norm row divides to NaN, which scores as no match"),
    Mutant("draw-pairs-supply", "dataset.py",
           "        if count > total:", "        if False:",
           ("tests/test_dataset.py::test_draw_pairs_names_the_kind_and_counts",
            "tests/test_model.py::test_train_rejects_too_few_pairs_like_sample_pair_batch"),
           "a batch of more pairs than exist fails inside rng.choice, naming no kind"),
    Mutant("range-check-before-parse-error", "dataset.py",
           "for row in range(lo, hi):", "for row in reversed(range(lo, hi)):",
           (f"{BAD_BOX}[bad box before a bad number]",
            "tests/test_dataset.py::test_csv_reports_non_finite_before_later_malformed_line"),
           "a bad row before a line that fails to parse is not the one reported"),
    Mutant("pending-rows-before-line-error", "dataset.py",
           "        finally:\n            # Also after",
           "        except ValueError:\n            raise\n"
           "        else:\n            # Also after",
           (f"{CSV_BEFORE_LATER}[bad byte]", f"{CSV_BEFORE_LATER}[short row]"),
           "a bad row still waiting for its batch is passed over for a later line's error"),
    Mutant("malformed-line-locator", "dataset.py",
           "            if hi - lo == 1:", "            if True:",
           ("tests/test_dataset.py::test_csv_malformed_value_names_line",
            f"{BAD_BOX}[malformed number]"),
           "a malformed number is reported on the first line of its batch"),
    Mutant("batch-line-numbers", "dataset.py",
           "                    batch, numbers, batch_names, size = [], [], [], 0",
           "                    batch, batch_names, size = [], [], 0",
           (LATE_CHUNK,
            "tests/test_detection.py::test_box_file_in_chunks_matches_earlier_loader"),
           "a row in a later batch is reported with the line number of an earlier one"),
    Mutant("block-boundary-line", "dataset.py",
           'tail = lines.pop() if block and lines else b""',
           'tail = lines[-1] if block and lines else b""',
           ("tests/test_dataset.py::test_chunked_csv_reads_universal_newlines",
            "tests/test_detection.py::test_box_file_in_chunks_matches_earlier_loader"),
           "the line a read block ends in is read again at the head of the next block"),
    Mutant("decode-error-line", "dataset.py",
           '(f"{path}: line {lineno}: not UTF-8 text")', '(f"{path}: not UTF-8 text")',
           ("tests/test_dataset.py::test_csv_undecodable_byte_names_its_line",
            "tests/test_dataset.py::test_split_file_undecodable_byte_names_its_line",
            "tests/test_detection.py::test_box_file_undecodable_byte_names_its_line"),
           "a byte that is not UTF-8 is reported without its line"),
    Mutant("box-degenerate", "detection.py",
           "degenerate = ~((numbers[:, 2] > numbers[:, 0]) & (numbers[:, 3] > numbers[:, 1]))",
           "degenerate = np.zeros(len(numbers), dtype=bool)",
           (f"{BAD_BOX}[degenerate box]", f"{BAD_BOX}[NaN corner]",
            f"{BAD_BOX}[bad box before a bad number]"),
           "a box of zero or negative extent or a NaN corner is read"),
    Mutant("box-infinite", "detection.py",
           "infinite = ~_finite_rows(numbers[:, :4])",
           "infinite = np.zeros(len(numbers), dtype=bool)",
           (f"{BAD_BOX}[infinite corners]", f"{BAD_BOX}[infinite corner]"),
           "a box with an infinite corner is read"),
    Mutant("box-confidence", "detection.py",
           "unscored = ~((0.0 <= numbers[:, 4:]) & (numbers[:, 4:] <= 1.0)).all(axis=1)",
           "unscored = np.zeros(len(numbers), dtype=bool)",
           (f"{BAD_BOX}[confidence above one]", f"{BAD_BOX}[negative confidence]",
            f"{BAD_BOX}[NaN confidence]"),
           "a confidence outside [0, 1] or NaN is read"),
    Mutant("kl-div-finite", "loss.py",
           '    p = _finite(p, "p")\n    q = _finite(q, "q")',
           "    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)",
           (NON_FINITE_INPUT,), "a NaN probability counts as zero"),
    Mutant("pca-transform-finite", "baseline.py",
           '(centering first)."""\n    x = _finite(x, "x")',
           '(centering first)."""\n    x = np.asarray(x, dtype=float)',
           (NON_FINITE_INPUT,), "a NaN feature row projects to NaN"),
    Mutant("logreg-predict-finite", "baseline.py",
           'lowest class id)."""\n    x = _finite(x, "x")',
           'lowest class id)."""\n    x = np.asarray(x, dtype=float)',
           (NON_FINITE_INPUT,), "a NaN feature row is predicted as class 0"),
    Mutant("average-precision-finite", "detection.py",
           'conf = _finite(confidences, "confidences")',
           "conf = np.asarray(confidences, dtype=float)",
           (NON_FINITE_INPUT,), "a NaN confidence sorts last and AP reads 1.0"),
    Mutant("ap-tied-groups", "detection.py",
           "ends = np.flatnonzero(np.append(ordered[1:] != ordered[:-1], True))",
           "ends = np.arange(conf.size)",
           ("tests/test_detection.py::test_ap_counts_a_tied_group_as_one_point",
            "tests/test_detection.py::test_ap_invariant_to_row_order",
            "tests/test_detection.py::test_ap_matches_threshold_sweep"),
           "tied detections enter the curve one at a time, so mAP depends on row order"),
    Mutant("ap-envelope", "detection.py",
           "envelope = np.maximum.accumulate(precision[::-1])[::-1]",
           "envelope = precision",
           ("tests/test_detection.py::test_ap_matches_threshold_sweep",),
           "a recall step is weighted by its own precision, not the best beyond it"),
    Mutant("dir-at-threshold", "evaluation.py",
           "np.mean((mated >= tau) & correct)", "np.mean((mated > tau) & correct)",
           ("tests/test_evaluation.py::test_dir_at_far_counts_accepted_rank1_probes",),
           "a mated probe whose score ties the threshold is not counted"),
    Mutant("far-none-qualifies", "evaluation.py",
           "np.nextafter(ordered[-1], np.inf)", "ordered[0]",
           ("tests/test_evaluation.py::test_far_thresholds_fall_as_the_target_grows",),
           "when the largest score over-accepts, the threshold drops to the smallest"),
    Mutant("roc-grid-end", "evaluation.py",
           "thresholds[targets == 1.0] = -np.inf", "pass",
           ("tests/test_evaluation.py::test_verification_grid_tar_rises_to_one",),
           "a FAR of 1.0 accepts only the scores at or above the lowest negative"),
    Mutant("far-target-correction", "evaluation.py",
           "allowed -= allowed / ordered.size > targets", "pass",
           ("tests/test_evaluation.py::test_far_threshold_never_accepts_beyond_its_target",),
           "a target a hair below k / n accepts k scores, a FAR above the target"),
    Mutant("cli-eager-numpy", "cli.py",
           "from . import __version__", "import numpy as np\n\nfrom . import __version__",
           ("tests/test_cli.py::test_help_version_and_usage_errors_load_no_numpy",),
           "--help, --version and a usage error load numpy before reading the arguments"),
    Mutant("init-eager-exports", "__init__.py",
           "_one_blas_thread_unless_chosen()\n",
           "_one_blas_thread_unless_chosen()\nfrom .dataset import Dataset\n",
           ("tests/test_cli.py::test_import_loads_a_module_when_a_name_is_first_read",
            "tests/test_cli.py::test_help_version_and_usage_errors_load_no_numpy"),
           "import mfid loads numpy and a library module that nothing asked for"),
)


def _run_tests(copy: Path, tests) -> int:
    """pytest's exit status for ``tests`` run in ``copy``: 0 all passed, 1 some
    failed.  No bytecode is written, so a restored module is never read from
    a stale cache."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x",
                           "-p", "no:cacheprovider", *tests],
                          cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main(names) -> int:
    rows = [row for row in MUTANTS if not names or row.name in names]
    unknown = sorted(set(names) - {row.name for row in MUTANTS})
    if unknown:
        print(f"error: unknown row {unknown[0]!r}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="mfid-mutants-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("pyproject.toml", "README.md"):
            shutil.copy2(ROOT / name, copy / name)
        status = _run_tests(copy, sorted({test for row in rows for test in row.tests}))
        if status != 0:
            print(f"error: the rows' tests do not pass unmutated (pytest status {status})",
                  file=sys.stderr)
            return 2
        survivors = []
        for row in rows:
            module = copy / "src" / "mfid" / row.path
            original = module.read_text(encoding="utf-8")
            if original.count(row.snippet) != 1:
                print(f"error: {row.name}: snippet does not occur once in {row.path}",
                      file=sys.stderr)
                return 2
            module.write_text(original.replace(row.snippet, row.replacement),
                              encoding="utf-8")
            try:
                statuses = {test: _run_tests(copy, [test]) for test in row.tests}
            finally:
                module.write_text(original, encoding="utf-8")
            broken = {test: s for test, s in statuses.items() if s not in (0, 1)}
            if broken:
                test, s = next(iter(broken.items()))
                print(f"error: {row.name}: {test} ended with pytest status {s}",
                      file=sys.stderr)
                return 2
            passed = [test for test, s in statuses.items() if s == 0]
            print(f"{row.name}: {'SURVIVED' if passed else 'killed'}")
            if passed:
                survivors.append((row, passed))
    for row, passed in survivors:
        print(f"survivor {row.name} ({row.path}: {row.reason}); still passing: "
              + ", ".join(passed))
    print(f"{len(rows) - len(survivors)} of {len(rows)} rows killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
