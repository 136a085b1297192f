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
    Mutant("dataset-finite", "dataset.py",
           "~np.isfinite(features).all(axis=1)", "np.zeros(n, dtype=bool)",
           ("tests/test_dataset.py::test_dataset_rejects_non_finite_naming_row",),
           "a NaN feature reaches training, which no longer checks its rows"),
    Mutant("csv-non-finite", "dataset.py",
           "~np.isfinite(values).all(axis=1)", "np.zeros(len(values), dtype=bool)",
           ("tests/test_dataset.py::test_csv_non_finite_names_its_line",),
           "a NaN in a dataset CSV is reported without its line"),
    Mutant("range-check-before-parse-error", "dataset.py",
           "    bad = check(names, ", "    bad = None if error else check(names, ",
           ("tests/test_detection.py::test_load_boxes_errors_match_earlier_loader",
            "tests/test_dataset.py::test_csv_reports_non_finite_before_later_malformed_line"),
           "a bad row before a line that fails to parse is not the one reported "
           "(the 'bad box before a bad number' case)"),
    Mutant("box-degenerate", "detection.py",
           "degenerate = ~((numbers[:, 2] > numbers[:, 0]) & (numbers[:, 3] > numbers[:, 1]))",
           "degenerate = np.zeros(len(numbers), dtype=bool)",
           ("tests/test_detection.py::test_load_boxes_errors_match_earlier_loader",),
           "a box of zero or negative extent or a NaN corner is read (the 'degenerate box', "
           "'NaN corner' and 'bad box before a bad number' cases)"),
    Mutant("box-infinite", "detection.py",
           "infinite = ~np.isfinite(numbers[:, :4]).all(axis=1)",
           "infinite = np.zeros(len(numbers), dtype=bool)",
           ("tests/test_detection.py::test_load_boxes_errors_match_earlier_loader",),
           "a box with an infinite corner is read (the two 'infinite corner' cases)"),
    Mutant("box-confidence", "detection.py",
           "unscored = ~((0.0 <= numbers[:, 4:]) & (numbers[:, 4:] <= 1.0)).all(axis=1)",
           "unscored = np.zeros(len(numbers), dtype=bool)",
           ("tests/test_detection.py::test_load_boxes_errors_match_earlier_loader",),
           "a confidence outside [0, 1] or NaN is read (the three confidence cases)"),
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
