"""Command-line front end: seeded, reproducible experiment runs.

Commands: synth, train, eval, transfer, detmetrics, ablate, baseline.
Options resolve in three layers: built-in defaults, then the ``--config``
INI file (section name = command name, keys = option names), then explicit
flags.  Every output file starts with a comment line carrying the toolkit
version, the resolved master seed, and a hash of the resolved options, and
reruns with identical inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import configparser
import gc
import hashlib
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .baseline import DEFAULT_C_GRID, baseline_pipeline
from .dataset import (
    Dataset,
    Split,
    STRATIFIED,
    _map_indexed,
    identity_disjoint_split,
    load_dataset,
    load_split,
    save_dataset,
    stratified_splits,
    synth_gaussian,
)
from .detection import _read_boxes, _score_boxes
from .evaluation import (
    TrialConfig,
    _accept_rates,
    _score_split,
    classification_accuracy,
    far_thresholds,
    roc_points,
)
from .loss import LOSS_CSV_HEADER, LossConfig
from .model import TrainConfig, load_head, save_head, train

# Option groups shared by the commands that make data, train a head, score
# trials, or write outputs.
_SYNTH = {"identities": 20, "per_id": 50, "dim": 64, "center_scale": 1.0, "sigma": 0.3}
_TRAIN = {
    "architecture": "mlp1", "embed_dim": 32, "epochs": 50, "batch_pairs": 16,
    "lr": 1e-3, "decay_factor": 0.1, "decay_every": 20, "margin": 1.0,
    "sim_weight": 1.0, "dissim_weight": 1.0, "similar_fraction": 0.5,
    "momentum": 0.0,
}
_TRIAL = {"test_fraction": 0.2, "trials": 100, "gallery_per_identity": 1, "far": 0.01}
_OPEN_SET = {"distractors": 6, "distractor_mode": "fixed"}
_RUN = {"seed": 0, "out": "out"}

_DEFAULTS = {
    "synth": {**_SYNTH, **_RUN},
    "train": {"data": None, "split": None, "objective": "mfid", **_TRAIN, **_RUN},
    "eval": {"data": None, "model": None, "protocols": "closed,open,verif",
             "splits": 5, **_TRIAL, **_OPEN_SET, "split_file": None, **_RUN},
    "transfer": {"model": None, "data": None, "source_name": None, **_TRIAL,
                 **_OPEN_SET, **_RUN},
    "detmetrics": {"detections": None, "ground_truth": None, "iou_threshold": 0.5,
                   **_RUN},
    "ablate": {"data": None, "seeds": 10, "objectives": "mfid,cross_entropy",
               **_SYNTH, **_TRAIN, **_TRIAL, **_RUN, "jobs": 1},
    "baseline": {"data": None, "splits": 5, "test_fraction": 0.2, "energy": 0.99,
                 "c_grid": ",".join(repr(c) for c in DEFAULT_C_GRID),
                 "validation_fraction": 0.2, **_RUN},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfid",
        description="Metric learning and open-set identification over feature vectors.")
    parser.add_argument("--version", action="version", version=f"mfid {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, defaults in _DEFAULTS.items():
        sub = subparsers.add_parser(command)
        sub.add_argument("--config", default=None,
                         help="INI file; section [%s] supplies option defaults" % command)
        for key, default in defaults.items():
            sub.add_argument("--" + key.replace("_", "-"), type=_option_type(default),
                             default=argparse.SUPPRESS)
    return parser


def _option_type(default) -> type:
    """int, float or str: the type of the built-in default (str when None)."""
    return str if default is None else type(default)


def _resolve_options(args: argparse.Namespace) -> dict:
    command = args.command
    options = dict(_DEFAULTS[command])
    if args.config:
        config_path = Path(args.config)
        if not config_path.is_file():
            raise ValueError(f"config file not found: {config_path}")
        ini = configparser.ConfigParser()
        ini.read(config_path, encoding="utf-8")
        if ini.has_section(command):
            for key, raw in ini.items(command):
                key = key.replace("-", "_")
                if key not in options:
                    raise ValueError(f"unknown config key {key!r} in [{command}]")
                options[key] = _option_type(options[key])(raw)
    for key, value in vars(args).items():
        if key in options:
            options[key] = value
    return options


_PATH_OPTIONS = ("data", "model", "split", "detections", "ground_truth")


def _config_hash(command: str, options: dict) -> str:
    # out and jobs are execution details, and an input path counts only by
    # its final component: the same experiment read from or written to a
    # different directory, or run in parallel, must hash (and byte-compare)
    # the same.
    hashed = {key: value for key, value in options.items()
              if key not in ("out", "jobs")}
    for key in _PATH_OPTIONS:
        if hashed.get(key) is not None:
            hashed[key] = Path(hashed[key]).name
    if hashed.get("split_file") is not None:
        hashed["split_file"] = ",".join(Path(stem.strip()).name
                                        for stem in hashed["split_file"].split(","))
    canonical = "\n".join(f"{command}.{key}={hashed[key]!r}" for key in sorted(hashed))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _header(command: str, options: dict) -> str:
    return (f"mfid {__version__} cmd={command} seed={options['seed']} "
            f"config={_config_hash(command, options)}")


def _out_dir(options: dict) -> Path:
    out = Path(options["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_report(path: Path, header: str, column_line: str, rows) -> None:
    lines = [f"# {header}", column_line]
    lines.extend(rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _require(options: dict, *keys: str) -> None:
    for key in keys:
        if options[key] is None:
            raise ValueError(f"missing required option --{key.replace('_', '-')}")


def _metric_line(protocol: str, key, value: float, std: float, threshold) -> str:
    """One ``protocol,<key>,mean,std,threshold`` row; no threshold prints empty."""
    tau = "" if threshold is None else repr(threshold)
    return f"{protocol},{key},{value!r},{std!r},{tau}"


def _child_seed(root: np.random.SeedSequence) -> int:
    return int(root.generate_state(1, dtype=np.uint64)[0] % (2 ** 63))


# ---------------------------------------------------------------------------
# commands


def _synth(options: dict, seed: int) -> Dataset:
    return synth_gaussian(options["identities"], options["per_id"], options["dim"],
                          options["center_scale"], options["sigma"], seed)


def cmd_synth(options: dict) -> None:
    ds = _synth(options, options["seed"])
    out = _out_dir(options)
    header = _header("synth", options)
    save_dataset(ds, out / "dataset.csv", header_comment=header)
    save_dataset(ds, out / "dataset.bin")
    manifest = [f"# {header}"]
    manifest.extend(f"{key}={options[key]!r}" for key in (*_SYNTH, "seed"))
    manifest.append(f"n_samples={ds.n_samples}")
    (out / "manifest.txt").write_text("\n".join(manifest) + "\n", encoding="utf-8")


def _train_config(options: dict) -> TrainConfig:
    loss_cfg = LossConfig(margin=options["margin"],
                          sim_weight=options["sim_weight"],
                          dissim_weight=options["dissim_weight"])
    return TrainConfig(
        epochs=options["epochs"], batch_pairs=options["batch_pairs"],
        initial_lr=options["lr"], decay_factor=options["decay_factor"],
        decay_every=options["decay_every"], objective=options["objective"],
        loss=loss_cfg, seed=options["seed"],
        architecture=options["architecture"], embed_dim=options["embed_dim"],
        similar_fraction=options["similar_fraction"],
        momentum=options["momentum"])


def cmd_train(options: dict) -> None:
    _require(options, "data")
    ds = load_dataset(options["data"])
    if options["split"]:
        split = load_split(options["split"], ds.n_samples)
    else:
        split = Split(np.arange(ds.n_samples), np.empty(0, dtype=np.int64),
                      STRATIFIED, options["seed"])
    model = train(ds, split, _train_config(options))
    out = _out_dir(options)
    save_head(model.head, out / "model.mfhd")
    rows = [report.csv_row(epoch) for epoch, report in enumerate(model.loss_history)]
    _write_report(out / "loss_history.csv", _header("train", options),
                  LOSS_CSV_HEADER, rows)


def _trial_config(options: dict, seed: int) -> TrialConfig:
    return TrialConfig(trials=options["trials"],
                       gallery_images_per_identity=options["gallery_per_identity"],
                       distractor_identities=options["distractors"],
                       far_target=options["far"],
                       seed=seed,
                       distractor_mode=options["distractor_mode"])


def _head_and_data(options: dict):
    """The model and the dataset a scoring command reads, checked to fit."""
    ds = load_dataset(options["data"])
    head = load_head(options["model"])
    if ds.dim != head.input_dim:
        raise ValueError(f"dataset dim {ds.dim} does not match model input dim "
                         f"{head.input_dim}")
    return head, ds


_ROC_GRID = tuple(np.round(np.linspace(0.01, 1.0, 100), 10))


def cmd_eval(options: dict) -> None:
    _require(options, "data", "model")
    protocols = [p.strip() for p in options["protocols"].split(",") if p.strip()]
    if not protocols:
        raise ValueError("no protocol given")
    aliases = {"verif": "verification", "closed": "closed_set", "open": "open_set"}
    protocols = [aliases.get(p, p) for p in protocols]
    known = {"classification", "closed_set", "open_set", "verification"}
    unknown = [p for p in protocols if p not in known]
    if unknown:
        raise ValueError(f"unknown protocol {unknown[0]!r}")
    stems = None
    n_splits = options["splits"]
    if options["split_file"]:
        stems = [stem.strip() for stem in options["split_file"].split(",") if stem.strip()]
        n_splits = len(stems)
    if n_splits < 1:
        raise ValueError("splits must be at least 1")
    head, ds = _head_and_data(options)
    disjoint_wanted = [p for p in protocols if p != "classification"]
    provided = (None if stems is None
                else [load_split(stem, ds.n_samples) for stem in stems])
    if disjoint_wanted and provided is not None:
        for stem, split in zip(stems, provided):
            if split.test_indices.size == 0:
                raise ValueError(f"{stem}: split has an empty test side")
    split_children = np.random.SeedSequence(options["seed"]).spawn(n_splits)

    strat_splits = (stratified_splits(ds, n_splits, options["test_fraction"],
                                      options["seed"])
                    if "classification" in protocols else None)

    rows, cmc_rates, roc_tars = [], [], []
    for i, split_stream in enumerate(split_children):
        split_seed_stream, trial_stream = split_stream.spawn(2)
        if disjoint_wanted:
            if provided is not None:
                split = provided[i]
            else:
                split = identity_disjoint_split(ds, options["test_fraction"],
                                                _child_seed(split_seed_stream))
            cfg = _trial_config(options, _child_seed(trial_stream))
            scored, cmc, verification = _score_split(head, ds, split, protocols, cfg)
            rows.extend((protocol, i, *values) for protocol, *values in scored)
            if cmc is not None:
                cmc_rates.append(cmc)
            if verification is not None:
                positives, negatives = verification
                roc_tars.append(_accept_rates(positives,
                                              far_thresholds(negatives, _ROC_GRID)))
        if "classification" in protocols:
            split = strat_splits[i]
            accuracy = classification_accuracy(
                head, ds.features[split.test_indices], ds.labels[split.test_indices])
            rows.append(("classification", i, accuracy, 0.0, None))

    out = _out_dir(options)
    header = _header("eval", options)
    metric_rows = [_metric_line(*row) for row in rows]
    for protocol in sorted({row[0] for row in rows}):
        values = np.asarray([row[2] for row in rows if row[0] == protocol])
        metric_rows.append(_metric_line(protocol, "mean", float(values.mean()),
                                        float(values.std()), None))
    _write_report(out / "metrics.csv", header,
                  "protocol,split,mean,std,threshold", metric_rows)
    if cmc_rates:
        averaged = np.asarray(cmc_rates).mean(axis=0)
        _write_report(out / "cmc.csv", header, "rank,rate",
                      [f"{rank + 1},{float(rate)!r}" for rank, rate in enumerate(averaged)])
    if roc_tars:
        averaged = np.asarray(roc_tars).mean(axis=0)
        _write_report(out / "roc.csv", header, "far,tar",
                      [f"{float(far)!r},{float(tar)!r}"
                       for far, tar in zip(_ROC_GRID, averaged)])


def cmd_transfer(options: dict) -> None:
    _require(options, "model", "data")
    head, ds = _head_and_data(options)
    source = options["source_name"] or Path(options["model"]).stem
    pair = f"{source}->{Path(options['data']).stem}"
    cfg = _trial_config(options, options["seed"])
    split = identity_disjoint_split(ds, options["test_fraction"], cfg.seed)
    scored, cmc, (positives, negatives) = _score_split(
        head, ds, split, ("closed_set", "open_set", "verification"), cfg)
    out = _out_dir(options)
    header = _header("transfer", options)
    _write_report(out / "transfer_metrics.csv", header, "protocol,pair,mean,std,threshold",
                  [_metric_line(protocol, pair, *values) for protocol, *values in scored])
    _write_report(out / "transfer_cmc.csv", header, "rank,rate",
                  [f"{rank + 1},{rate!r}" for rank, rate in enumerate(cmc)])
    _write_report(out / "transfer_roc.csv", header, "far,tar",
                  [f"{far!r},{tar!r}" for far, tar in roc_points(positives, negatives)])


def cmd_detmetrics(options: dict) -> None:
    _require(options, "detections", "ground_truth")
    det_ids, dets = _read_boxes(options["detections"], with_confidence=True)
    gt_ids, gts = _read_boxes(options["ground_truth"], with_confidence=False)
    flags, mean_ap, tpr, fpr = _score_boxes(det_ids, dets, gt_ids, gts,
                                            options["iou_threshold"])
    out = _out_dir(options)
    header = _header("detmetrics", options)
    _write_report(out / "detection_metrics.csv", header,
                  "map,tpr,fpr_per_image,iou_threshold",
                  [f"{mean_ap!r},{tpr!r},{fpr!r},{options['iou_threshold']!r}"])
    rows, tp = dets.tolist(), flags.tolist()
    match_rows = []
    # By image id, then in file order; "+ 0.0" prints a -0.0 confidence as 0.0.
    for i in sorted(range(len(det_ids)), key=det_ids.__getitem__):
        x_min, y_min, x_max, y_max, confidence = rows[i]
        match_rows.append(f"{det_ids[i]},{x_min!r},{y_min!r},{x_max!r},{y_max!r},"
                          f"{confidence + 0.0!r},{int(tp[i])}")
    _write_report(out / "matches.csv", header,
                  "image_id,x_min,y_min,x_max,y_max,confidence,tp", match_rows)


def cmd_ablate(options: dict) -> None:
    if options["seeds"] < 1:
        raise ValueError("seeds must be at least 1")
    arms = [a.strip() for a in options["objectives"].split(",") if a.strip()]
    if len(arms) != 2:
        raise ValueError("--objectives must name exactly two training objectives")
    fixed_ds = load_dataset(options["data"]) if options["data"] else None
    root = np.random.SeedSequence(options["seed"])
    children = root.spawn(options["seeds"])

    def run_seed(i: int):
        data_stream, split_stream, train_stream, trial_stream = children[i].spawn(4)
        ds = (_synth(options, _child_seed(data_stream)) if fixed_ds is None
              else fixed_ds)
        split = identity_disjoint_split(ds, options["test_fraction"],
                                        _child_seed(split_stream))
        train_seed = _child_seed(train_stream)
        # Verification and the closed set only: no open-set fields.
        trial_cfg = TrialConfig(trials=options["trials"],
                                gallery_images_per_identity=options["gallery_per_identity"],
                                far_target=options["far"],
                                seed=_child_seed(trial_stream))
        metrics = []
        for arm in arms:
            cfg = _train_config({**options, "objective": arm, "seed": train_seed})
            model = train(ds, split, cfg)
            scored, _, _ = _score_split(model.head, ds, split,
                                        ("verification", "closed_set"), trial_cfg)
            values = {protocol: value for protocol, value, _, _ in scored}
            metrics.append((values["verification"], values["closed_set"]))
        return metrics

    results = list(_map_indexed(run_seed, options["seeds"], options["jobs"]))
    wins = {arms[0]: 0, arms[1]: 0, "tie": 0}
    rows = []
    for i, ((tar_a, rank1_a), (tar_b, rank1_b)) in enumerate(results):
        if tar_a > tar_b:
            winner = arms[0]
        elif tar_b > tar_a:
            winner = arms[1]
        else:
            winner = "tie"
        wins[winner] += 1
        rows.append(f"{i},{tar_a!r},{tar_b!r},{rank1_a!r},{rank1_b!r},{winner}")
    tars = np.asarray([[m[0][0], m[1][0]] for m in results], dtype=np.float64)
    rows.append(f"summary,{float(tars[:, 0].mean())!r},{float(tars[:, 1].mean())!r},"
                f",,{arms[0]}:{wins[arms[0]]}|{arms[1]}:{wins[arms[1]]}"
                f"|tie:{wins['tie']}")
    _write_report(_out_dir(options) / "ablation.csv", _header("ablate", options),
                  f"seed,{arms[0]}_tar,{arms[1]}_tar,"
                  f"{arms[0]}_rank1,{arms[1]}_rank1,tar_winner", rows)


def cmd_baseline(options: dict) -> None:
    _require(options, "data")
    if options["splits"] < 1:
        raise ValueError("splits must be at least 1")
    ds = load_dataset(options["data"])
    grid = [float(v) for v in str(options["c_grid"]).split(",") if v.strip()]
    splits = stratified_splits(ds, options["splits"], options["test_fraction"],
                               options["seed"])

    accuracies = [baseline_pipeline(
        ds.features[split.train_indices], ds.labels[split.train_indices],
        ds.features[split.test_indices], ds.labels[split.test_indices],
        energy_threshold=options["energy"], c_grid=grid,
        validation_fraction=options["validation_fraction"],
        seed=options["seed"]) for split in splits]
    rows = [f"{i},{acc!r}" for i, acc in enumerate(accuracies)]
    values = np.asarray(accuracies)
    rows.append(f"mean,{float(values.mean())!r}")
    rows.append(f"std,{float(values.std())!r}")
    _write_report(_out_dir(options) / "baseline.csv", _header("baseline", options),
                  "split,accuracy", rows)


_COMMANDS = {
    "synth": cmd_synth, "train": cmd_train, "eval": cmd_eval,
    "transfer": cmd_transfer, "detmetrics": cmd_detmetrics,
    "ablate": cmd_ablate, "baseline": cmd_baseline,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        options = _resolve_options(args)
        _COMMANDS[args.command](options)
    except Exception as exc:  # single reporting point for the exit-code contract
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def run() -> None:
    """The console entry point: :func:`main`, then exit with its status.

    Every file and worker pool is closed when ``main`` returns, so the
    objects left are the ones imports made.  Freezing them spares the exit
    the full collections over them (a few ms per command); ``atexit``
    handlers and the flushes of stdout and stderr still run.
    """
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
