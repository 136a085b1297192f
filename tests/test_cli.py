"""End-to-end command-line tests: every command, determinism, exit codes."""

import hashlib
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mfid
from mfid import (
    TrialConfig,
    closed_set_eval,
    embed,
    identity_disjoint_split,
    load_dataset,
    load_head,
    load_split,
    open_set_eval,
    save_split,
    tar_at_far,
    train,
    verification_eval,
    verification_scores,
)
from mfid.cli import _COMMANDS, _DEFAULTS, _config_hash, _resolve_options, build_parser, main


def run_cli(*argv):
    return main(list(argv))


def child_env():
    """The environment for a child interpreter that must import this mfid."""
    paths = [str(Path(mfid.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def read_rows(path):
    """Data rows of a report CSV: skip the header comment and column line."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# mfid ")
    return lines[2:]


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert run_cli("synth", "--identities", "6", "--per-id", "10", "--dim", "8",
                   "--sigma", "0.05", "--seed", "3", "--out", str(out)) == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("trained")
    assert run_cli("train", "--data", str(synth_dir / "dataset.csv"),
                   "--epochs", "50", "--lr", "0.1", "--seed", "5",
                   "--out", str(out)) == 0
    return out


# ---------------------------------------------------------------------------
# synth


def test_synth_row_count(tmp_path):
    out = tmp_path / "d"
    assert run_cli("synth", "--identities", "20", "--per-id", "50", "--dim", "64",
                   "--sigma", "0.3", "--seed", "7", "--out", str(out)) == 0
    lines = (out / "dataset.csv").read_text().splitlines()
    data_rows = [ln for ln in lines if ln and not ln.startswith(("#", "id,"))]
    assert len(data_rows) == 1000
    manifest = (out / "manifest.txt").read_text()
    assert "seed=7" in manifest
    assert "n_samples=1000" in manifest


def test_synth_reruns_byte_identical(tmp_path):
    args = ("synth", "--identities", "4", "--per-id", "5", "--dim", "6",
            "--sigma", "0.2", "--seed", "11")
    assert run_cli(*args, "--out", str(tmp_path / "a")) == 0
    assert run_cli(*args, "--out", str(tmp_path / "b")) == 0
    for name in ("dataset.csv", "dataset.bin", "manifest.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_synth_negative_sigma_rejected(tmp_path, capsys):
    code = run_cli("synth", "--sigma", "-1", "--out", str(tmp_path))
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv,message", [
    (("synth", "--sigma", "nan"), "noise_sigma must be finite, got nan"),
    (("synth", "--center-scale", "nan"), "center_scale must be finite, got nan"),
    (("train", "--lr", "nan"), "initial_lr must be finite, got nan"),
    (("train", "--lr", "inf"), "initial_lr must be finite, got inf"),
    (("train", "--margin", "nan"), "margin must be finite, got nan"),
    (("train", "--sim-weight", "inf"), "sim_weight must be finite, got inf"),
    (("train", "--dissim-weight", "nan"), "dissim_weight must be finite, got nan"),
], ids=["sigma nan", "center-scale nan", "lr nan", "lr inf", "margin nan", "sim-weight inf",
        "dissim-weight nan"])
def test_non_finite_option_rejected(synth_dir, tmp_path, capsys, argv, message):
    command, *flags = argv
    data = (("--data", str(synth_dir / "dataset.bin"), "--epochs", "1")
            if command == "train" else ())
    assert run_cli(command, *data, *flags, "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "out").exists()


def test_synth_csv_loads_back(synth_dir):
    ds = load_dataset(synth_dir / "dataset.csv")
    assert ds.n_samples == 60 and ds.dim == 8 and ds.n_identities == 6


# ---------------------------------------------------------------------------
# train


def test_train_outputs(trained_dir):
    head = load_head(trained_dir / "model.mfhd")
    assert head.input_dim == 8
    rows = read_rows(trained_dir / "loss_history.csv")
    assert len(rows) == 50  # one row per epoch under the 50-epoch preset


def test_train_rerun_identical_loss_csv(synth_dir, tmp_path):
    args = ("train", "--data", str(synth_dir / "dataset.csv"),
            "--epochs", "4", "--seed", "9")
    assert run_cli(*args, "--out", str(tmp_path / "a")) == 0
    assert run_cli(*args, "--out", str(tmp_path / "b")) == 0
    assert ((tmp_path / "a" / "loss_history.csv").read_bytes()
            == (tmp_path / "b" / "loss_history.csv").read_bytes())
    assert ((tmp_path / "a" / "model.mfhd").read_bytes()
            == (tmp_path / "b" / "model.mfhd").read_bytes())


def test_train_cross_entropy_zeroes_pair_columns(synth_dir, tmp_path):
    assert run_cli("train", "--data", str(synth_dir / "dataset.csv"),
                   "--objective", "cross_entropy", "--epochs", "3",
                   "--out", str(tmp_path)) == 0
    for row in read_rows(tmp_path / "loss_history.csv"):
        epoch, total, ce, sim, dissim, n_sim, n_dis = row.split(",")
        assert float(sim) == 0.0 and float(dissim) == 0.0
        assert int(n_sim) == 0 and int(n_dis) == 0
        assert float(total) == float(ce)


def test_train_header_ignores_input_directory(synth_dir, tmp_path):
    # byte-identical inputs read from two directories give identical bytes
    outputs = []
    for where in ("one", "two"):
        copy = tmp_path / where / "dataset.csv"
        copy.parent.mkdir()
        shutil.copyfile(synth_dir / "dataset.csv", copy)
        out = tmp_path / where / "run"
        assert run_cli("train", "--data", str(copy), "--epochs", "2",
                       "--seed", "4", "--out", str(out)) == 0
        outputs.append((out / "loss_history.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_config_hash_uses_final_path_components():
    def hash_of(**options):
        return _config_hash("eval", {**_DEFAULTS["eval"], **options})

    assert (hash_of(data="a/d.bin", model="a/m.mfhd", split_file="a/s1, a/s2")
            == hash_of(data="b/d.bin", model="c/m.mfhd", split_file="b/s1,c/s2"))
    assert hash_of(data="a/d.bin") != hash_of(data="a/e.bin")
    assert hash_of(split_file="a/s1,a/s2") != hash_of(split_file="a/s1,a/s3")


def test_train_missing_data_flag(capsys):
    assert run_cli("train", "--epochs", "1") == 1
    assert "--data" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval


def test_eval_three_protocols(synth_dir, trained_dir, tmp_path):
    assert run_cli("eval", "--data", str(synth_dir / "dataset.csv"),
                   "--model", str(trained_dir / "model.mfhd"),
                   "--protocols", "closed,open,verif",
                   "--splits", "2", "--test-fraction", "0.5",
                   "--trials", "25", "--distractors", "1", "--far", "0.1",
                   "--seed", "4", "--out", str(tmp_path)) == 0
    rows = read_rows(tmp_path / "metrics.csv")
    per_split = [r for r in rows if r.split(",")[1] != "mean"]
    # three metric rows per split
    assert len(per_split) == 6
    protocols = {r.split(",")[0] for r in per_split}
    assert protocols == {"closed_set", "open_set", "verification"}
    mean_rows = [r for r in rows if r.split(",")[1] == "mean"]
    assert len(mean_rows) == 3
    # two curve files alongside the metrics
    assert (tmp_path / "cmc.csv").is_file()
    assert (tmp_path / "roc.csv").is_file()
    cmc = [row.split(",") for row in read_rows(tmp_path / "cmc.csv")]
    rates = [float(rate) for _, rate in cmc]
    assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))
    assert rates[-1] == 1.0


def test_eval_classification_single_row(synth_dir, trained_dir, tmp_path):
    assert run_cli("eval", "--data", str(synth_dir / "dataset.csv"),
                   "--model", str(trained_dir / "model.mfhd"),
                   "--protocols", "classification", "--splits", "1",
                   "--out", str(tmp_path)) == 0
    rows = read_rows(tmp_path / "metrics.csv")
    per_split = [r for r in rows if r.split(",")[1] != "mean"]
    assert len(per_split) == 1
    assert per_split[0].startswith("classification,0,")
    assert not (tmp_path / "cmc.csv").exists()
    assert not (tmp_path / "roc.csv").exists()


def test_eval_deterministic_rerun(synth_dir, trained_dir, tmp_path):
    args = ("eval", "--data", str(synth_dir / "dataset.csv"),
            "--model", str(trained_dir / "model.mfhd"),
            "--splits", "2", "--test-fraction", "0.5", "--trials", "10",
            "--distractors", "1", "--seed", "21")
    assert run_cli(*args, "--out", str(tmp_path / "a")) == 0
    assert run_cli(*args, "--out", str(tmp_path / "b")) == 0
    for name in ("metrics.csv", "cmc.csv", "roc.csv"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_eval_unknown_protocol(synth_dir, trained_dir, tmp_path, capsys):
    assert run_cli("eval", "--data", str(synth_dir / "dataset.csv"),
                   "--model", str(trained_dir / "model.mfhd"),
                   "--protocols", "nonsense", "--out", str(tmp_path)) == 1
    assert "nonsense" in capsys.readouterr().err


@pytest.mark.parametrize("flags,message", [
    (("--splits", "0"), "splits must be at least 1"),
    (("--split-file", ","), "splits must be at least 1"),
    (("--protocols", ","), "no protocol given"),
], ids=["zero splits", "no split file", "no protocol"])
def test_eval_rejects_a_run_that_scores_nothing(synth_dir, trained_dir, tmp_path, capsys,
                                                flags, message):
    assert run_cli("eval", "--data", str(synth_dir / "dataset.csv"),
                   "--model", str(trained_dir / "model.mfhd"), *flags,
                   "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "out").exists()


def test_eval_rejects_an_empty_test_side(synth_dir, trained_dir, tmp_path, capsys):
    stem = tmp_path / "no_test"
    save_split(identity_disjoint_split(load_dataset(synth_dir / "dataset.csv"), 0.5, seed=1),
               stem)
    test_side = tmp_path / "no_test.test.txt"
    test_side.write_text(test_side.read_text().splitlines()[0] + "\n")  # header only
    for protocols in ("closed", "open", "verif"):
        assert run_cli("eval", "--data", str(synth_dir / "dataset.csv"),
                       "--model", str(trained_dir / "model.mfhd"),
                       "--protocols", protocols, "--split-file", str(stem),
                       "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {stem}: split has an empty test side"]
    assert not (tmp_path / "out").exists()


def test_eval_rejects_non_finite_checkpoint(synth_dir, tmp_path, capsys):
    head = mfid.init_head("mlp1", 8, 4, 6, seed=0)
    head.params["b1"][:] = np.nan
    model = tmp_path / "nan.mfhd"
    mfid.save_head(head, model)
    assert run_cli("eval", "--data", str(synth_dir / "dataset.csv"), "--model", str(model),
                   "--splits", "1", "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {model}: non-finite value in parameter 'b1'"]


def test_eval_rejects_dead_relu_head(synth_dir, tmp_path, capsys):
    # every hidden unit is off for every input: all embeddings are zero
    head = mfid.init_head("mlp1", 8, 4, 6, seed=0)
    head.params["b1"][:] = -1e6
    model = tmp_path / "dead.mfhd"
    mfid.save_head(head, model)
    common = ("--data", str(synth_dir / "dataset.csv"), "--model", str(model),
              "--splits", "1", "--trials", "3")
    for protocol in ("verif", "closed"):
        capsys.readouterr()
        assert run_cli("eval", *common, "--protocols", protocol,
                       "--out", str(tmp_path / protocol)) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert re.fullmatch(r"error: zero-norm \w+ embedding at index \d+", err[0]), err
    assert run_cli("eval", *common, "--protocols", "classification",
                   "--out", str(tmp_path / "classification")) == 0


def test_eval_indexes_each_split_once(synth_dir, trained_dir, tmp_path, monkeypatch):
    # every protocol and trial of a split reads one normalized, grouped index
    grouped, normalized = [], []
    group_labels, unit_rows = mfid.dataset.LabelGroups.__init__, mfid.evaluation._unit_rows

    def counting_groups(self, labels):
        grouped.append(len(labels))
        group_labels(self, labels)

    def counting_unit_rows(x):
        normalized.append(len(x))
        return unit_rows(x)

    monkeypatch.setattr(mfid.dataset.LabelGroups, "__init__", counting_groups)
    monkeypatch.setattr(mfid.evaluation, "_unit_rows", counting_unit_rows)
    assert run_cli("eval", "--data", str(synth_dir / "dataset.csv"),
                   "--model", str(trained_dir / "model.mfhd"),
                   "--protocols", "closed,open,verif", "--splits", "2",
                   "--test-fraction", "0.5", "--trials", "5", "--distractors", "1",
                   "--out", str(tmp_path)) == 0
    assert len(grouped) == 2
    assert normalized == grouped


def test_eval_verification_rows_match_library(trained_dir, tmp_path):
    # noisy clusters, so TAR varies along the FAR grid
    data = tmp_path / "noisy" / "dataset.csv"
    assert run_cli("synth", "--identities", "6", "--per-id", "10", "--dim", "8",
                   "--sigma", "0.8", "--seed", "3", "--out", str(data.parent)) == 0
    ds = load_dataset(data)
    head = load_head(trained_dir / "model.mfhd")
    stems = []
    for i, seed in enumerate((11, 12)):
        stems.append(str(tmp_path / f"split{i}"))
        save_split(identity_disjoint_split(ds, 0.5, seed=seed), stems[-1])
    assert run_cli("eval", "--data", str(data),
                   "--model", str(trained_dir / "model.mfhd"),
                   "--protocols", "verif", "--far", "0.1",
                   "--split-file", ",".join(stems), "--out", str(tmp_path / "out")) == 0

    # the CSV values must equal a direct library-call derivation per split
    grid = np.round(np.linspace(0.01, 1.0, 100), 10)
    reports, grid_tars = [], []
    for stem in stems:
        split = load_split(stem)
        z = embed(head, ds.features[split.test_indices])
        labels = ds.labels[split.test_indices]
        reports.append(verification_eval(z, labels, TrialConfig(far_target=0.1)))
        positives, negatives = verification_scores(z, labels)
        grid_tars.append([tar_at_far(positives, negatives, far)[0] for far in grid])
    rows = [row.split(",") for row in read_rows(tmp_path / "out" / "metrics.csv")]
    assert [row[:2] for row in rows] == [["verification", "0"], ["verification", "1"],
                                         ["verification", "mean"]]
    for (_, _, mean, std, tau), report in zip(rows, reports):
        assert (float(mean), float(std)) == (report.mean, report.std)
        assert float(tau) == report.thresholds[0]
    means = np.array([report.mean for report in reports])
    assert (float(rows[2][2]), float(rows[2][3])) == (means.mean(), means.std())

    roc = [row.split(",") for row in read_rows(tmp_path / "out" / "roc.csv")]
    assert [float(far) for far, _ in roc] == grid.tolist()
    tars = [float(tar) for _, tar in roc]
    assert tars == np.mean(grid_tars, axis=0).tolist()
    assert 0.0 < tars[0] < tars[-1] == 1.0


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("case", ["negative", "repeated", "past-the-end"])
def test_split_file_bad_index_names_the_stem(synth_dir, trained_dir, tmp_path, capsys,
                                             command, case):
    data = synth_dir / "dataset.csv"
    ds = load_dataset(data)
    split = identity_disjoint_split(ds, 0.5, seed=1)
    stem = tmp_path / "bad"
    save_split(split, stem)
    train_side, n = split.train_indices.tolist(), ds.n_samples
    first = train_side[0]
    bad, message = {
        "negative": ([-1, *train_side], "negative train index -1"),
        "repeated": ([first, *train_side], f"train index {first} appears more than once"),
        "past-the-end": ([*train_side, n], f"index {n} out of range for {n} samples"),
    }[case]
    header = (tmp_path / "bad.train.txt").read_text().splitlines()[0]
    (tmp_path / "bad.train.txt").write_text("\n".join([header, *map(str, bad)]) + "\n")
    argv = {"train": ("train", "--data", str(data), "--split", str(stem), "--epochs", "1"),
            "eval": ("eval", "--data", str(data), "--model", str(trained_dir / "model.mfhd"),
                     "--protocols", "verif", "--split-file", str(stem))}[command]
    capsys.readouterr()
    assert run_cli(*argv, "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {stem}: {message}"]


def eval_seeds(seed, splits):
    """(split seed, trial seed) of each split that ``eval --seed seed`` draws."""
    def child_seed(stream):
        return int(stream.generate_state(1, dtype=np.uint64)[0] % (2 ** 63))
    return [tuple(child_seed(stream) for stream in split.spawn(2))
            for split in np.random.SeedSequence(seed).spawn(splits)]


def test_eval_on_another_dataset_matches_library(trained_dir, tmp_path):
    # a head trained on one dataset, scored on another from the same dim
    data = tmp_path / "other" / "dataset.bin"
    assert run_cli("synth", "--identities", "10", "--per-id", "8", "--dim", "8",
                   "--sigma", "0.3", "--seed", "8", "--out", str(data.parent)) == 0
    assert run_cli("eval", "--data", str(data), "--model", str(trained_dir / "model.mfhd"),
                   "--protocols", "closed,open,verif", "--splits", "1",
                   "--test-fraction", "0.5", "--trials", "20", "--distractors", "1",
                   "--far", "0.1", "--seed", "6", "--out", str(tmp_path / "out")) == 0
    rows = [row.split(",") for row in read_rows(tmp_path / "out" / "metrics.csv")]
    assert [row[:2] for row in rows[:3]] == [["closed_set", "0"], ["open_set", "0"],
                                             ["verification", "0"]]

    # the CSV values must equal a direct library-call derivation
    ds = load_dataset(data)
    (split_seed, trial_seed), = eval_seeds(6, 1)
    split = identity_disjoint_split(ds, 0.5, seed=split_seed)
    z = embed(load_head(trained_dir / "model.mfhd"), ds.features[split.test_indices])
    labels = ds.labels[split.test_indices]
    cfg = TrialConfig(trials=20, distractor_identities=1, far_target=0.1, seed=trial_seed)
    expected = {"closed_set": closed_set_eval(z, labels, cfg).mean,
                "open_set": open_set_eval(z, labels, cfg).mean,
                "verification": verification_eval(z, labels, cfg).mean}
    means = {protocol: float(mean) for protocol, split_id, mean, _, _ in rows
             if split_id == "mean"}
    assert means == expected


def test_eval_fresh_draw_same_generator(tmp_path):
    # A head trained on one draw scores two fresh draws of the same generator
    # alike: their closed-set Rank-1 means over five splits differ by at most
    # twice the sum of eval's own across-split stds.  Rank-1 stays below 0.95,
    # short of the saturation at which every draw reads 1.0.
    gen = ("--identities", "32", "--per-id", "12", "--dim", "24", "--sigma", "0.4")
    for seed in ("30", "31", "32"):
        assert run_cli("synth", *gen, "--seed", seed, "--out", str(tmp_path / seed)) == 0
    assert run_cli("train", "--data", str(tmp_path / "30" / "dataset.bin"), "--epochs", "30",
                   "--lr", "0.5", "--seed", "0", "--out", str(tmp_path / "model")) == 0
    rank1 = []
    for seed in ("31", "32"):
        assert run_cli("eval", "--model", str(tmp_path / "model" / "model.mfhd"),
                       "--data", str(tmp_path / seed / "dataset.bin"), "--splits", "5",
                       "--protocols", "closed", "--test-fraction", "0.5",
                       "--trials", "10", "--seed", "0", "--out", str(tmp_path / f"to{seed}")) == 0
        rows = [row.split(",") for row in read_rows(tmp_path / f"to{seed}" / "metrics.csv")]
        assert [row[:2] for row in rows] == [["closed_set", split] for split in
                                             ("0", "1", "2", "3", "4", "mean")]
        mean, std = float(rows[-1][2]), float(rows[-1][3])
        assert mean < 0.95
        rank1.append((mean, std))
    (mean31, std31), (mean32, std32) = rank1
    assert abs(mean31 - mean32) <= 2 * (std31 + std32)


def test_eval_rejects_a_model_of_another_dim(trained_dir, tmp_path, capsys):
    out = tmp_path / "wide"
    assert run_cli("synth", "--identities", "4", "--per-id", "6", "--dim", "12",
                   "--sigma", "0.1", "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli("eval", "--model", str(trained_dir / "model.mfhd"),
                   "--data", str(out / "dataset.csv"), "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: dataset dim 12 does not match model input dim 8"]
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# detmetrics


def test_detmetrics_perfect(tmp_path):
    (tmp_path / "gt.csv").write_text("img0,0,0,4,4\nimg1,1,1,5,5\n")
    (tmp_path / "det.csv").write_text("img0,0,0,4,4,0.9\nimg1,1,1,5,5,0.8\n")
    out = tmp_path / "out"
    assert run_cli("detmetrics", "--detections", str(tmp_path / "det.csv"),
                   "--ground-truth", str(tmp_path / "gt.csv"),
                   "--out", str(out)) == 0
    (row,) = read_rows(out / "detection_metrics.csv")
    map_v, tpr, fpr, threshold = (float(v) for v in row.split(","))
    assert (map_v, tpr, fpr, threshold) == (1.0, 1.0, 0.0, 0.5)
    matches = read_rows(out / "matches.csv")
    assert len(matches) == 2
    assert all(r.endswith(",1") for r in matches)


def test_detmetrics_empty_detections(tmp_path):
    (tmp_path / "gt.csv").write_text("img0,0,0,4,4\n")
    (tmp_path / "det.csv").write_text("# no detections\n")
    out = tmp_path / "out"
    assert run_cli("detmetrics", "--detections", str(tmp_path / "det.csv"),
                   "--ground-truth", str(tmp_path / "gt.csv"),
                   "--out", str(out)) == 0
    (row,) = read_rows(out / "detection_metrics.csv")
    assert float(row.split(",")[0]) == 0.0  # map
    assert float(row.split(",")[1]) == 0.0  # tpr


def test_detmetrics_malformed_file(tmp_path, capsys):
    (tmp_path / "gt.csv").write_text("img0,0,0,4\n")
    (tmp_path / "det.csv").write_text("img0,0,0,4,4,0.9\n")
    assert run_cli("detmetrics", "--detections", str(tmp_path / "det.csv"),
                   "--ground-truth", str(tmp_path / "gt.csv"),
                   "--out", str(tmp_path)) == 1
    assert "line 1" in capsys.readouterr().err


def test_detmetrics_rejects_infinite_corner(tmp_path, capsys):
    (tmp_path / "gt.csv").write_text("im1,0,0,4,4\n")
    (tmp_path / "det.csv").write_text("im1,0,0,4,4,0.9\nim1,-inf,0,inf,2,0.5\n")
    assert run_cli("detmetrics", "--detections", str(tmp_path / "det.csv"),
                   "--ground-truth", str(tmp_path / "gt.csv"),
                   "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {tmp_path / 'det.csv'}: line 2: infinite corner in box "
        "(-inf, 0.0, inf, 2.0) in image 'im1'"]
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# ablate


def test_ablate_paired_rows_and_summary(tmp_path):
    assert run_cli("ablate", "--seeds", "10", "--identities", "8",
                   "--per-id", "8", "--dim", "8", "--sigma", "0.05",
                   "--epochs", "3", "--lr", "0.2", "--test-fraction", "0.5",
                   "--trials", "10", "--seed", "2",
                   "--out", str(tmp_path)) == 0
    rows = read_rows(tmp_path / "ablation.csv")
    paired = [r for r in rows if not r.startswith("summary")]
    assert len(paired) == 10
    (summary,) = [r for r in rows if r.startswith("summary")]
    assert "mfid:" in summary and "cross_entropy:" in summary


def test_ablate_identical_objectives_tie(tmp_path):
    assert run_cli("ablate", "--objectives", "mfid,mfid", "--seeds", "4",
                   "--identities", "6", "--per-id", "6", "--dim", "6",
                   "--sigma", "0.1", "--epochs", "2", "--test-fraction", "0.5",
                   "--trials", "5", "--seed", "3",
                   "--out", str(tmp_path)) == 0
    rows = read_rows(tmp_path / "ablation.csv")
    for row in rows:
        if row.startswith("summary"):
            assert row.rsplit(",", 1)[1].endswith("tie:4")
            continue
        _, tar_a, tar_b, rank_a, rank_b, winner = row.split(",")
        assert tar_a == tar_b and rank_a == rank_b and winner == "tie"


def test_ablate_separable_mfid_at_least_ce(tmp_path):
    # near-zero noise: both arms verify perfectly, so with ties counted the
    # MFID arm reaches TAR >= CE TAR in at least 8 of 10 seeds
    assert run_cli("ablate", "--seeds", "10", "--identities", "8",
                   "--per-id", "8", "--dim", "16", "--sigma", "0.01",
                   "--epochs", "5", "--lr", "0.2", "--test-fraction", "0.5",
                   "--trials", "10", "--seed", "12",
                   "--out", str(tmp_path)) == 0
    at_least = 0
    for row in read_rows(tmp_path / "ablation.csv"):
        if row.startswith("summary"):
            continue
        _, tar_mfid, tar_ce, _, _, _ = row.split(",")
        if float(tar_mfid) >= float(tar_ce):
            at_least += 1
    assert at_least >= 8


_SMALL_ABLATE = ("ablate", "--seeds", "3", "--identities", "6", "--per-id", "6",
                 "--dim", "6", "--sigma", "0.1", "--epochs", "2",
                 "--test-fraction", "0.5", "--trials", "5", "--seed", "5")


def test_ablate_jobs_matches_sequential(tmp_path):
    assert run_cli(*_SMALL_ABLATE, "--jobs", "1", "--out", str(tmp_path / "seq")) == 0
    assert run_cli(*_SMALL_ABLATE, "--jobs", "2", "--out", str(tmp_path / "par")) == 0
    assert ((tmp_path / "seq" / "ablation.csv").read_bytes()
            == (tmp_path / "par" / "ablation.csv").read_bytes())


def test_ablate_trains_with_every_training_option(tmp_path, monkeypatch):
    configs = []

    def recording_train(ds, split, cfg):
        configs.append(cfg)
        return train(ds, split, cfg)

    monkeypatch.setattr("mfid.cli.train", recording_train)
    assert run_cli(*_SMALL_ABLATE, "--sim-weight", "0.5", "--dissim-weight", "2.0",
                   "--similar-fraction", "0.25", "--momentum", "0.9",
                   "--out", str(tmp_path)) == 0
    assert [cfg.objective for cfg in configs] == ["mfid", "cross_entropy"] * 3
    for cfg in configs:
        assert (cfg.loss.sim_weight, cfg.loss.dissim_weight) == (0.5, 2.0)
        assert (cfg.similar_fraction, cfg.momentum) == (0.25, 0.9)


def test_ablate_worker_error_reaches_main(tmp_path, capsys):
    # two images per identity leave too few similar pairs for a batch
    assert run_cli("ablate", "--jobs", "2", "--seeds", "2", "--identities", "3",
                   "--per-id", "2", "--out", str(tmp_path)) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and "similar pairs" in err[0]


def test_ablate_rejects_zero_seeds(tmp_path, capsys):
    assert run_cli("ablate", "--seeds", "0", "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err.splitlines() == ["error: seeds must be at least 1"]
    assert not (tmp_path / "out").exists()


def test_ablate_requires_two_objectives(tmp_path, capsys):
    assert run_cli("ablate", "--objectives", "mfid", "--out", str(tmp_path)) == 1
    assert "two" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# baseline


def test_baseline_rejects_zero_splits(tmp_path, capsys):
    # the split count is checked before the data file is read
    assert run_cli("baseline", "--splits", "0", "--data", str(tmp_path / "missing.bin"),
                   "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err.splitlines() == ["error: splits must be at least 1"]
    assert not (tmp_path / "out").exists()


def test_baseline_command(synth_dir, tmp_path):
    assert run_cli("baseline", "--data", str(synth_dir / "dataset.csv"),
                   "--splits", "2", "--c-grid", "100.0,1000.0",
                   "--out", str(tmp_path)) == 0
    rows = read_rows(tmp_path / "baseline.csv")
    assert len(rows) == 4  # two split rows + mean + std
    split_accs = [float(r.split(",")[1]) for r in rows[:2]]
    assert all(acc >= 0.9 for acc in split_accs)  # near-separable data
    assert rows[2].startswith("mean,")
    assert rows[3].startswith("std,")


def test_baseline_survives_a_non_converging_c(tmp_path, monkeypatch):
    # These few noisy rows in 8 dimensions are separable, so at C = 1e7 the
    # solve in each split is still far from tol at the iteration cap; C = 1
    # converges and is chosen.
    solve, solves = mfid.baseline._logreg_solve, []

    def recorded(x, y, n_classes, c_value, max_iter, tol, start=None):
        result = solve(x, y, n_classes, c_value, max_iter, tol, start)
        solves.append((c_value, len(result[2]) - 1 == max_iter and result[3] > tol))
        return result

    monkeypatch.setattr(mfid.baseline, "_logreg_solve", recorded)
    assert run_cli("synth", "--identities", "7", "--per-id", "10", "--dim", "8",
                   "--sigma", "2.0", "--seed", "1", "--out", str(tmp_path / "X")) == 0
    assert run_cli("baseline", "--data", str(tmp_path / "X" / "dataset.bin"),
                   "--splits", "2", "--seed", "4", "--c-grid", "1.0,10000000.0",
                   "--out", str(tmp_path / "B")) == 0
    rows = read_rows(tmp_path / "B" / "baseline.csv")
    assert [row.split(",")[0] for row in rows] == ["0", "1", "mean", "std"]
    # per split: C = 1, C = 1e7 at the cap, then the refit at C = 1
    assert solves == [(1.0, False), (1e7, True), (1.0, False)] * 2


@pytest.mark.parametrize("command", ["synth", "train", "eval", "detmetrics",
                                     "baseline"])
def test_jobs_only_on_commands_that_fan_out(command):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(command, "--jobs", "2")
    assert exit_info.value.code == 2


def test_single_process_commands_import_no_pool(tmp_path):
    # Nor numpy.ma: in numpy >= 2.3 a plain np.unique imports it (a few ms
    # and over 1 MB per process).  verification_eval also runs roc_points.
    out = str(tmp_path)
    data, model = str(tmp_path / "dataset.csv"), str(tmp_path / "model.mfhd")
    script = (
        "import sys\n"
        "from mfid.cli import main\n"
        f"assert main(['synth', '--identities', '8', '--per-id', '6', '--dim', '3',"
        f" '--out', {out!r}]) == 0\n"
        f"assert main(['train', '--data', {data!r}, '--epochs', '1', '--out', {out!r}]) == 0\n"
        f"assert main(['eval', '--data', {data!r}, '--model', {model!r},"
        f" '--protocols', 'classification,closed,open,verif', '--splits', '1',"
        f" '--trials', '2', '--distractors', '2', '--test-fraction', '0.5',"
        f" '--out', {out!r}]) == 0\n"
        f"assert main(['baseline', '--data', {data!r}, '--splits', '1',"
        f" '--c-grid', '1.0', '--out', {out!r}]) == 0\n"
        f"assert main(['ablate', '--jobs', '1', '--seeds', '1', '--identities', '6',"
        f" '--per-id', '6', '--dim', '3', '--epochs', '1', '--test-fraction', '0.5',"
        f" '--trials', '2', '--out', {out!r}]) == 0\n"
        "import numpy as np, mfid\n"
        "assert mfid.verification_eval(np.eye(4), [0, 0, 1, 1], mfid.TrialConfig()).curve\n"
        "print(sorted(m for m in sys.modules"
        " if m.startswith(('multiprocessing', 'concurrent'))))\n"
        "print('numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "False"]


# ---------------------------------------------------------------------------
# option schema and config file layering

# Each command's options in declaration order, with defaults (and so types),
# and the config hash of those defaults.  Output headers depend on them.
PINNED_OPTIONS = {
    "synth": ("72673f3f2b238fa8", {
        "identities": 20, "per_id": 50, "dim": 64, "center_scale": 1.0,
        "sigma": 0.3, "seed": 0, "out": "out"}),
    "train": ("19ef3027a3fc8663", {
        "data": None, "split": None, "objective": "mfid", "architecture": "mlp1",
        "embed_dim": 32, "epochs": 50, "batch_pairs": 16, "lr": 0.001,
        "decay_factor": 0.1, "decay_every": 20, "margin": 1.0, "sim_weight": 1.0,
        "dissim_weight": 1.0, "similar_fraction": 0.5, "momentum": 0.0,
        "seed": 0, "out": "out"}),
    "eval": ("d9c335c23854e0ac", {
        "data": None, "model": None, "protocols": "closed,open,verif", "splits": 5,
        "test_fraction": 0.2, "trials": 100, "gallery_per_identity": 1,
        "far": 0.01, "distractors": 6, "distractor_mode": "fixed",
        "split_file": None, "seed": 0, "out": "out"}),
    "detmetrics": ("13a05c2c3349c307", {
        "detections": None, "ground_truth": None, "iou_threshold": 0.5,
        "seed": 0, "out": "out"}),
    "ablate": ("25d89e21fb497452", {
        "data": None, "seeds": 10, "objectives": "mfid,cross_entropy",
        "identities": 20, "per_id": 50, "dim": 64, "center_scale": 1.0,
        "sigma": 0.3, "architecture": "mlp1", "embed_dim": 32, "epochs": 50,
        "batch_pairs": 16, "lr": 0.001, "decay_factor": 0.1, "decay_every": 20,
        "margin": 1.0, "sim_weight": 1.0, "dissim_weight": 1.0,
        "similar_fraction": 0.5, "momentum": 0.0, "test_fraction": 0.2,
        "trials": 100, "gallery_per_identity": 1, "far": 0.01,
        "seed": 0, "out": "out", "jobs": 1}),
    "baseline": ("87c3e88f3a48c5e2", {
        "data": None, "splits": 5, "test_fraction": 0.2, "energy": 0.99,
        "c_grid": "1e-05,0.0001,0.001,0.01,0.1,1.0,10.0,100.0,1000.0,10000.0,"
                  "100000.0",
        "validation_fraction": 0.2, "seed": 0, "out": "out"}),
}


def typed_items(options):
    return [(key, type(value), value) for key, value in options.items()]


@pytest.mark.parametrize("command", sorted(PINNED_OPTIONS))
def test_option_schema_is_pinned(command, tmp_path):
    config_hash, pinned = PINNED_OPTIONS[command]
    assert typed_items(_DEFAULTS[command]) == typed_items(pinned)
    assert _config_hash(command, _DEFAULTS[command]) == config_hash
    # Every option spelled out as text, from an INI file or as flags, parses
    # back to the pinned value and type.
    given = {key: str(value) for key, value in pinned.items() if value is not None}
    ini = tmp_path / "pinned.ini"
    ini.write_text(f"[{command}]\n" + "".join(f"{key} = {text}\n"
                                              for key, text in given.items()))
    flags = [part for key, text in given.items()
             for part in ("--" + key.replace("_", "-"), text)]
    for argv in ([command, "--config", str(ini)], [command, *flags]):
        options = _resolve_options(build_parser().parse_args(argv))
        assert typed_items(options) == typed_items(pinned)


def test_subcommand_set_is_pinned():
    assert sorted(PINNED_OPTIONS) == sorted(_DEFAULTS) == sorted(_COMMANDS) == [
        "ablate", "baseline", "detmetrics", "eval", "synth", "train"]
    with pytest.raises(SystemExit) as exit_info:  # an invalid choice
        run_cli("transfer", "--data", "d.bin", "--model", "m.mfhd")
    assert exit_info.value.code == 2


def test_config_file_supplies_defaults(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[synth]\nidentities = 3\nper-id = 4\ndim = 5\nsigma = 0.15\n")
    out = tmp_path / "out"
    assert run_cli("synth", "--config", str(ini), "--out", str(out)) == 0
    manifest = (out / "manifest.txt").read_text()
    assert "identities=3" in manifest
    assert "sigma=0.15" in manifest
    ds = load_dataset(out / "dataset.csv")
    assert ds.n_samples == 12 and ds.dim == 5


def test_flag_overrides_config_file(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[synth]\nsigma = 0.15\nidentities = 3\nper-id = 4\ndim = 5\n")
    out = tmp_path / "out"
    assert run_cli("synth", "--config", str(ini), "--sigma", "0.6",
                   "--out", str(out)) == 0
    assert "sigma=0.6" in (out / "manifest.txt").read_text()


def test_config_unknown_key_rejected(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[synth]\nbogus = 1\n")
    assert run_cli("synth", "--config", str(ini), "--out", str(tmp_path)) == 1
    assert "bogus" in capsys.readouterr().err


def test_config_missing_file(tmp_path, capsys):
    assert run_cli("synth", "--config", str(tmp_path / "nope.ini"),
                   "--out", str(tmp_path)) == 1
    assert "not found" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# headers and entry point


def test_output_headers_carry_seed_and_hash(synth_dir, trained_dir):
    first = (trained_dir / "loss_history.csv").read_text().splitlines()[0]
    assert first.startswith("# mfid ")
    assert "cmd=train" in first
    assert "seed=5" in first
    assert "config=" in first


def test_console_entry_point(tmp_path):
    exe = shutil.which("mfid")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "synth", "--identities", "2", "--per-id", "3",
                           "--dim", "4", "--out", str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "dataset.csv").is_file()


def test_readme_typical_session_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    session = next(block for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
                   if "mfid synth" in block)
    commands = [shlex.split(line) for line in session.replace("\\\n", " ").splitlines()
                if line.startswith("mfid ")]
    assert [argv[1] for argv in commands] == ["synth", "train", "eval"]
    for argv in commands:
        assert not Path(argv[argv.index("--out") + 1]).is_absolute()
    monkeypatch.chdir(tmp_path)  # so the session's relative paths land here
    for argv in commands:
        assert main(argv[1:]) == 0, " ".join(argv)


def test_module_invocation():
    proc = subprocess.run([sys.executable, "-m", "mfid.cli", "--version"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("mfid ")


# ---------------------------------------------------------------------------
# byte identity of the scoring commands

# sha256 of every file the runs below write, recorded before the trials and
# the detection matcher became array programs (numpy 2.4, OpenBLAS 0.3.31,
# x86-64; another BLAS may round the score products differently).  The
# first line of each file carries the version, so a version bump changes
# every digest; any other change needs its reason written down.
SCORING_DIGESTS = {
    "det/detection_metrics.csv":
        "90295990801570a970afd475993f7fd1c4b7c65ceea398410567430fcf8e9b61",
    "det/matches.csv":
        "1f7ea64b2549cf07942000d4ea52dc6fa06e6eaa69b1e4b04bb93324037f0237",
    "eval/cmc.csv":
        "7707c7c603afad800e55d101a90b7439efdfa7995973ddd5b3ec372d8d5f9c3e",
    "eval/metrics.csv":
        "7a4c767103db66e5a730a05092f7d62a1e5d9f851714444361b21cb02622079f",
    "eval/roc.csv":
        "4938ce5b6f941673f69df83759f89d1ac8bcf737191909cecc9da0b945dbda34",
    "eval_g2/cmc.csv":
        "1f88265c7841e127077080ba05758d83ff15135908ed4d86c9fc2a5690bf2133",
    "eval_g2/metrics.csv":
        "dd44152e5f007afbf01ee4cad238246c74af13af059dcb83bfd5fcf3ae8a355b",
    "eval_g2/roc.csv":
        "3dc5840752f08a87b18844ec9e1668d8c3bf1fe2a4b4d79d03caaee0ee7919e0",
}


# sha256 of baseline.csv with default options on the README session's
# dataset and on a noisier one whose accuracy is below 1, recorded with the
# gradient-descent solver L-BFGS replaced (same platform as above).  Each fit
# stops within tol of the optimum, so a new solver may move an accuracy that
# sits on a near-tie; these two do not move.
BASELINE_DIGESTS = {
    ("--identities", "20", "--per-id", "50", "--dim", "64", "--sigma", "0.3", "--seed", "7"):
        ("dataset.csv", (),
         "92c718339b71c746ef6d44fbd9199a6d615379da9a8d7b8e1d4dc69ccb43a713"),
    ("--identities", "30", "--per-id", "20", "--dim", "32", "--sigma", "0.9", "--seed", "3"):
        ("dataset.bin", ("--splits", "3"),
         "cee2a39a8a544bab8749bd01fb561a6e570479e26d92ff4a177f2b09194c986a"),
}


@pytest.mark.parametrize("synth", sorted(BASELINE_DIGESTS))
def test_baseline_output_is_pinned(tmp_path, synth):
    data, flags, digest = BASELINE_DIGESTS[synth]
    assert run_cli("synth", *synth, "--out", str(tmp_path / "data")) == 0
    assert run_cli("baseline", "--data", str(tmp_path / "data" / data), *flags,
                   "--out", str(tmp_path / "base")) == 0
    assert hashlib.sha256((tmp_path / "base" / "baseline.csv").read_bytes()).hexdigest() == digest


# sha256 of model.mfhd and loss_history.csv from two train runs on the
# README session's dataset, and of ablation.csv from a small ablate,
# recorded before train drew each epoch's pairs at once (same platform as
# above).  The pair-KL run is the README's; the linear run adds momentum and
# a batch of similar pairs only; ablate trains both objectives.  The
# ablation.csv digest was re-recorded when ablate lost --distractors, which
# changed only its header's config hash.
TRAINING_DIGESTS = {
    "ablate/ablation.csv":
        "5aeb54db0f6edc39d685bf57f54f5b05d70c3c2a06edbd126cfd3dd6a4225a43",
    "linear/loss_history.csv":
        "e2da302775453e529da6950e72efb0b99a26e9183ab3156bd32acdbd7f896e31",
    "linear/model.mfhd":
        "05667ef2b0a07a41e3dc3d753a9876419f97a6730447be99fd20cae65fb021a3",
    "mfid/loss_history.csv":
        "836a6af8106ef505240b4c210deb06e1125bfeabe5dacd786fd78d1387356943",
    "mfid/model.mfhd":
        "e06e213828d53f91f989b5abc86806b294499b61c71800945bcbd9c17d722abb",
}


def test_training_outputs_are_pinned(tmp_path):
    assert run_cli("synth", "--identities", "20", "--per-id", "50", "--dim", "64",
                   "--sigma", "0.3", "--seed", "7", "--out", str(tmp_path / "data")) == 0
    data = str(tmp_path / "data" / "dataset.csv")
    assert run_cli("train", "--data", data, "--objective", "mfid", "--epochs", "50",
                   "--embed-dim", "32", "--lr", "0.001", "--seed", "5",
                   "--out", str(tmp_path / "mfid")) == 0
    assert run_cli("train", "--data", data, "--architecture", "linear",
                   "--momentum", "0.9", "--similar-fraction", "1.0", "--epochs", "4",
                   "--lr", "0.01", "--seed", "6", "--out", str(tmp_path / "linear")) == 0
    assert run_cli(*_SMALL_ABLATE, "--jobs", "1", "--out", str(tmp_path / "ablate")) == 0
    digests = {path.relative_to(tmp_path).as_posix():
               hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(tmp_path.glob("*/*"))
               if path.parent.name != "data"}
    assert digests == TRAINING_DIGESTS


def write_scoring_inputs(directory):
    """A feature file, a pass-through head and two box files, all seeded."""
    rng = np.random.default_rng(2024)
    counts = rng.integers(4, 10, size=30)  # uneven identities
    labels = rng.permutation(np.repeat(np.arange(30), counts))  # not grouped
    centres = rng.normal(size=(30, 6))
    features = centres[labels] + 0.6 * rng.normal(size=(labels.size, 6))
    mfid.save_dataset(mfid.Dataset(features, labels), directory / "scoring.bin")
    head = mfid.EmbeddingHead("linear", 6, 6, 30, {"w": centres + rng.normal(size=(30, 6)),
                                                   "b": rng.normal(size=30)})
    mfid.save_head(head, directory / "scoring.mfhd")
    gt, det = ["image_id,x_min,y_min,x_max,y_max"], []
    for image in range(40):
        for _ in range(int(rng.integers(0, 6))):
            x, y = rng.integers(0, 12, size=2)
            if image < 35:  # the last five images have no ground truth
                gt.append(f"im{image},{x},{y},{x + 3},{y + 3}")
            # integer corners and a few confidences: IoU and confidence ties
            for _ in range(int(rng.integers(0, 3))):
                x0, y0, x1, y1 = np.array([x, y, x + 3, y + 3]) + rng.integers(-1, 2, 4)
                conf = rng.choice(["0.5", "0.9", "0.25", "1", "0", "-0.0"])
                det.append(f"im{image},{x0},{y0},{max(x1, x0 + 1)},{max(y1, y0 + 1)},{conf}")
    (directory / "gt.csv").write_text("\n".join(gt) + "\n")
    (directory / "det.csv").write_text("\n".join(rng.permutation(det)) + "\n")


def test_scoring_outputs_are_pinned(tmp_path):
    inputs = tmp_path / "in"
    inputs.mkdir()
    write_scoring_inputs(inputs)
    data = ("--data", str(inputs / "scoring.bin"), "--model", str(inputs / "scoring.mfhd"),
            "--protocols", "closed,open,verif,classification", "--splits", "2",
            "--trials", "15", "--test-fraction", "0.5", "--seed", "31")
    assert run_cli("eval", *data, "--out", str(tmp_path / "eval")) == 0
    assert run_cli("eval", *data, "--gallery-per-identity", "2", "--distractors", "4",
                   "--distractor-mode", "per_trial", "--far", "0.1",
                   "--out", str(tmp_path / "eval_g2")) == 0
    assert run_cli("detmetrics", "--detections", str(inputs / "det.csv"),
                   "--ground-truth", str(inputs / "gt.csv"), "--iou-threshold", "0.3",
                   "--out", str(tmp_path / "det")) == 0
    digests = {path.relative_to(tmp_path).as_posix():
               hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(tmp_path.glob("*/*.csv"))
               if not path.is_relative_to(inputs)}
    assert digests == SCORING_DIGESTS


def test_scoring_outputs_do_not_depend_on_blas_threads(tmp_path):
    # The determinism contract holds whatever thread count OpenBLAS uses for
    # the score products, the verification SYRK and the logistic-regression
    # solves, and in ablate's forked workers, which inherit the count.
    assert run_cli("synth", "--identities", "40", "--per-id", "30", "--dim", "32",
                   "--sigma", "0.5", "--seed", "9", "--out", str(tmp_path / "data")) == 0
    # baseline gets noisier rows, on which no C scores the holdout perfectly
    assert run_cli("synth", "--identities", "30", "--per-id", "20", "--dim", "32",
                   "--sigma", "0.9", "--seed", "3", "--out", str(tmp_path / "noisy")) == 0
    mfid.save_head(mfid.init_head("mlp1", 32, 16, 40, seed=0), tmp_path / "head.mfhd")
    data = ("--data", str(tmp_path / "data" / "dataset.bin"),
            "--model", str(tmp_path / "head.mfhd"), "--test-fraction", "0.5",
            "--trials", "5", "--seed", "3")
    runs = {"eval": ("eval", *data, "--splits", "1",
                     "--protocols", "closed,open,verif,classification"),
            "baseline": ("baseline", "--data", str(tmp_path / "noisy" / "dataset.bin"),
                         "--splits", "2"),
            "ablate": (*_SMALL_ABLATE, "--jobs", "2")}
    outputs = {}
    for threads in ("1", "2"):
        for name, argv in runs.items():
            out = tmp_path / f"{name}{threads}"
            proc = subprocess.run([sys.executable, "-m", "mfid.cli", *argv,
                                   "--out", str(out)], capture_output=True, text=True,
                                  env={**child_env(), "OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            outputs[name, threads] = {path.name: path.read_bytes()
                                      for path in sorted(out.iterdir())}
    for name in runs:
        assert len(outputs[name, "1"]) == (3 if name == "eval" else 1)
        assert outputs[name, "2"] == outputs[name, "1"]


@pytest.mark.parametrize("chosen, expected", [({}, "1"),
                                              ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
                                              ({"OMP_NUM_THREADS": "2"}, "None")])
def test_import_runs_blas_on_one_thread_unless_chosen(chosen, expected):
    env = {key: value for key, value in child_env().items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import os, mfid; print(os.environ.get('OPENBLAS_NUM_THREADS'))"],
        capture_output=True, text=True, env={**env, **chosen})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected
