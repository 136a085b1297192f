"""Benchmark of the ``mfid`` command line, measured from outside the program.

Usage (from the repository root)::

    python3 perfbench/run.py --workload session-ablate --seed 1 --seconds 55 --trace 0

Each workload is a closed loop with one client: its commands run one at a
time, each as a fresh ``python3 -m mfid.cli`` child that is waited for before
the next starts, which is how users run the CLI.  A round is one pass over
the workload's commands: ``session-ablate`` runs the parts ``session`` and
``ablate``, ``eval-baseline-detect`` the parts ``eval`` and
``baseline-detect``; rounds repeat while the next one is expected to end
within ``--seconds``.  Every command's outputs are checked, and must be
byte-identical to the first round's.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds with rounds whose commands run under ``traced_cli.py``,
which wraps each layer's entry points, and reports the per-layer metrics
plus the tracing overhead (traced minus untraced round wall).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import bench_inputs
from bench_checks import check_outputs, digests
from bench_layers import LAYER_METRICS
from bench_trace import NameTotals, Span, totals_by_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUPS = 3
COMMAND_TIMEOUT_S = 60.0
COMMANDS = ("synth", "train", "eval", "ablate", "baseline", "detmetrics")


class SetupError(RuntimeError):
    pass


@dataclass
class Step:
    command: str
    args: list[str]
    out: Path
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    command: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    problems: list[str]
    spans_path: Path | None


def _flags(**options) -> list[str]:
    args = []
    for key, value in options.items():
        args += ["--" + key.replace("_", "-"), str(value)]
    return args


# ---------------------------------------------------------------------------
# workload parts: prepare(inputs, run) writes the inputs; steps(inputs, out)
# lists one round's commands.


class Session:
    """synth 160 x 40 x 128, then pair-objective training on its CSV."""

    def __init__(self, seed: int):
        self.synth_seed, self.train_seed = bench_inputs.seeds(seed, 2)

    def prepare(self, inputs: Path, run) -> None:
        pass

    def steps(self, inputs: Path, out: Path) -> list[Step]:
        data, model = out / "data", out / "run"
        return [
            Step("synth", _flags(identities=160, per_id=40, dim=128, sigma=0.5,
                                 seed=self.synth_seed, out=data),
                 data, {"n_samples": 160 * 40}),
            Step("train", _flags(data=data / "dataset.csv", objective="mfid",
                                 epochs=10, seed=self.train_seed, out=model), model),
        ]


class Eval:
    """All four protocols on an MFID binary; the head is trained in set-up."""

    def __init__(self, seed: int):
        self.data_seed, self.head_seed, self.eval_seed = bench_inputs.seeds(seed, 3)

    def prepare(self, inputs: Path, run) -> None:
        bench_inputs.write_mfid_binary(inputs / "dataset.bin", 160, 40, 128, 0.5,
                                       self.data_seed)
        run(Step("train", _flags(data=inputs / "dataset.bin",
                                 objective="cross_entropy", epochs=10,
                                 seed=self.head_seed, out=inputs / "head"),
                 inputs / "head"))

    def steps(self, inputs: Path, out: Path) -> list[Step]:
        return [Step("eval", _flags(data=inputs / "dataset.bin",
                                    model=inputs / "head" / "model.mfhd",
                                    protocols="closed,open,verif,classification",
                                    splits=2, trials=50, seed=self.eval_seed, out=out),
                     out)]


class Ablate:
    """The paired-seed experiment on in-memory data, two worker threads."""

    def __init__(self, seed: int):
        (self.seed,) = bench_inputs.seeds(seed, 1)

    def prepare(self, inputs: Path, run) -> None:
        pass

    def steps(self, inputs: Path, out: Path) -> list[Step]:
        return [Step("ablate", _flags(jobs=2, seeds=4, identities=40, per_id=40,
                                      dim=64, epochs=20, trials=20, seed=self.seed,
                                      out=out),
                     out, {"seeds": 4})]


class BaselineDetect:
    """PCA + logistic regression on 50 x 40 x 64, then detection metrics."""

    IMAGES = 2000

    def __init__(self, seed: int):
        self.data_seed, self.box_seed, self.seed = bench_inputs.seeds(seed, 3)

    def prepare(self, inputs: Path, run) -> None:
        bench_inputs.write_mfid_binary(inputs / "dataset.bin", 50, 40, 64, 0.5,
                                       self.data_seed)
        bench_inputs.write_boxes(inputs, self.IMAGES, self.box_seed)

    def steps(self, inputs: Path, out: Path) -> list[Step]:
        planted = bench_inputs.planted_boxes(inputs)
        return [
            Step("baseline", _flags(data=inputs / "dataset.bin", splits=2,
                                    seed=self.seed, out=out / "baseline"),
                 out / "baseline"),
            Step("detmetrics", _flags(detections=planted["detections"],
                                      ground_truth=planted["ground_truth"],
                                      seed=self.seed, out=out / "det"),
                 out / "det", planted),
        ]


class Combined:
    """The parts' commands in one round, each part on its own inputs,
    outputs and seeds.

    Two workloads of several parts, rather than one per part, let each run
    last longer within the same total time, so that its median spans more
    of the host's slow drift in CPU speed.
    """

    def __init__(self, seed: int, parts: dict):
        self.parts = {name: part(part_seed) for (name, part), part_seed
                      in zip(parts.items(), bench_inputs.seeds(seed, len(parts)))}

    def prepare(self, inputs: Path, run) -> None:
        for name, part in self.parts.items():
            (inputs / name).mkdir()
            part.prepare(inputs / name, run)

    def steps(self, inputs: Path, out: Path) -> list[Step]:
        return [step for name, part in self.parts.items()
                for step in part.steps(inputs / name, out / name)]


# Training side (no large evaluation) and scoring side (no mfid training or
# pair sampling): each is the control for changes to the other.
WORKLOADS = {
    "session-ablate": lambda seed: Combined(
        seed, {"session": Session, "ablate": Ablate}),
    "eval-baseline-detect": lambda seed: Combined(
        seed, {"eval": Eval, "baseline-detect": BaselineDetect}),
}


# ---------------------------------------------------------------------------
# running commands


def _child_env() -> dict:
    # BLAS threading is left at the library default, as users get it.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part)
    return env


def run_command(step: Step, log: Path, spans_path: Path | None = None) -> Outcome:
    """Run one command to exit; time it from spawn and take its rusage."""
    step.out.mkdir(parents=True, exist_ok=True)
    if spans_path is None:
        argv = [sys.executable, "-m", "mfid.cli", step.command, *step.args]
    else:
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path),
                repr(time.time()), "--", step.command, *step.args]
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=_child_env(), cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    problems = []
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
        problems.append(f"{step.command}: exit code {proc.returncode}"
                        + (f": {tail[-1]}" if tail else ""))
    return Outcome(step.command, wall, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024.0, problems, spans_path)


def run_round(steps: list[Step], reference: dict, logs: str,
              traced: bool) -> list[Outcome]:
    """Run a round's commands in order and judge each one's outputs.

    ``reference`` maps each command to the digests of its first round's
    outputs; later rounds must match them byte for byte.  Each command's log
    (and spans, when traced) is written next to the ``logs`` prefix.
    """
    outcomes = []
    for step in steps:
        stem = f"{logs}.{step.command}"
        outcome = run_command(step, Path(stem + ".log"),
                              Path(stem + ".spans.json") if traced else None)
        if not outcome.problems:
            outcome.problems += check_outputs(step.command, step.out, step.expect)
            got = digests(step.out)
            expected = reference.setdefault(step.command, got)
            if got != expected:
                changed = sorted(k for k in got.keys() | expected.keys()
                                 if got.get(k) != expected.get(k))
                outcome.problems.append(f"{step.command}: {', '.join(changed)} "
                                        "differ from the first round")
        outcomes.append(outcome)
    return outcomes


# ---------------------------------------------------------------------------
# summaries


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _describe(label: str, values: list[float]) -> str:
    q1, median, q3 = _quartiles(values)
    return (f"{label:<28} n={len(values):<3} median {median:.4f} s  "
            f"q1 {q1:.4f}  q3 {q3:.4f}  all " + " ".join(f"{v:.3f}" for v in values))


def _openblas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _openblas_threads(),
        "blas_thread_env": {key: os.environ.get(key, "unset")
                            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
    }


def _sum_totals(parts: list[dict[str, NameTotals]]) -> dict[str, NameTotals]:
    merged: dict[str, NameTotals] = {}
    for totals in parts:
        for name, t in totals.items():
            if name not in merged:
                merged[name] = t
                continue
            m = merged[name]
            counts = dict(m.counts)
            for key, value in t.counts.items():
                counts[key] = counts.get(key, 0) + value
            merged[name] = NameTotals(m.calls + t.calls, m.self_s + t.self_s,
                                      min(m.min_self_s, t.min_self_s), counts)
    return merged


def layer_round(outcomes: list[Outcome]) -> tuple[dict, list[float], float, set]:
    """Per-layer values of one traced round, its start-up times, the smallest
    self time of any span, and the names that could not be wrapped."""
    parts, counters, startups, missing = [], {}, [], set()
    for outcome in outcomes:
        if not outcome.spans_path.is_file():  # the command failed; counted already
            continue
        document = json.loads(outcome.spans_path.read_text(encoding="utf-8"))
        parts.append(totals_by_name([Span(*row) for row in document["spans"]]))
        for key, value in document["counts"].items():
            counters[key] = counters.get(key, 0) + value
        startups.append(document["startup_s"])
        missing.update(document["missing"])
        missing.update(f"{name} (count hook)" for name in document["broken"])
    totals = _sum_totals(parts)
    values = {name: float(formula(totals, counters))
              for name, _, formula in LAYER_METRICS}
    min_self = min((t.min_self_s for t in totals.values()), default=0.0)
    return values, startups, min_self, missing


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _tally(rounds) -> tuple[int, int]:
    """(commands attempted, commands failed) over all rounds."""
    outcomes = [o for _, round_outcomes in rounds for o in round_outcomes]
    return len(outcomes), sum(bool(o.problems) for o in outcomes)


def _end_to_end(rounds, setups: list[float]) -> dict:
    walls = [sum(o.wall_s for o in outcomes) for _, outcomes in rounds]
    rss = max(o.rss_mb for _, outcomes in rounds for o in outcomes)
    attempted, failed = _tally(rounds)
    print(_describe("round_s", walls))
    print(_describe("setup_s", setups))
    print(f"{'peak_rss_mb':<28} {rss:.1f} MB")
    print(f"{'error_rate':<28} {failed}/{attempted}")
    return {
        "round_s": _metric(statistics.median(walls), "s"),
        "peak_rss_mb": _metric(rss, "MB"),
        "success_rate": _metric(1.0 - failed / attempted, "ratio"),
        "setup_s": _metric(statistics.median(setups), "s"),
    }


def _per_layer(rounds) -> dict:
    plain = [outcomes for traced, outcomes in rounds if not traced]
    traced = [outcomes for traced, outcomes in rounds if traced]
    per_round, startups, min_selfs, missing = [], [], [], set()
    for outcomes in traced:
        values, starts, min_self, absent = layer_round(outcomes)
        per_round.append(values)
        startups += starts
        min_selfs.append(min_self)
        missing |= absent
    metrics = {}
    for name, unit, _ in LAYER_METRICS:
        metrics[name] = _metric(statistics.median(v[name] for v in per_round), unit)
    metrics["cli.startup_s"] = _metric(statistics.median(startups), "s")
    wall = sum(o.wall_s for outcomes in plain for o in outcomes)
    cpu = sum(o.cpu_s for outcomes in plain for o in outcomes)
    metrics["cli.cpu_per_wall"] = _metric(cpu / wall, "ratio")
    for command in COMMANDS:
        walls = [o.wall_s for outcomes in plain for o in outcomes if o.command == command]
        metrics[f"cmd.{command}_s"] = _metric(statistics.median(walls) if walls else 0.0,
                                              "s")
    plain_wall = statistics.median(sum(o.wall_s for o in r) for r in plain)
    traced_wall = statistics.median(sum(o.wall_s for o in r) for r in traced)
    metrics["trace.overhead_s"] = _metric(traced_wall - plain_wall, "s")
    metrics["trace.overhead_frac"] = _metric((traced_wall - plain_wall) / plain_wall,
                                             "ratio")
    metrics["trace.min_self_s"] = _metric(min(min_selfs), "s")
    for name, entry in metrics.items():
        print(f"{name:<40} {entry['value']:.6g} {entry['unit']}")
    print(f"trace: untraced round {plain_wall:.4f} s, traced round "
          f"{traced_wall:.4f} s, overhead {traced_wall - plain_wall:+.4f} s")
    print("trace: missing " + (", ".join(sorted(missing)) if missing else "none"))
    return metrics


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mfid" / "cli.py").is_file():
        print(f"error: no mfid sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    try:
        return _measure(workload, work, args)
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _set_up(workload, work: Path) -> float:
    """Generate inputs, train what the workload needs, warm the interpreter.

    The warm-up is one untimed invocation per command (``--help``), which
    imports and byte-compiles everything the command imports; the inputs were
    just written, so they are in the page cache already.
    """
    def run(step: Step) -> None:
        problems = run_command(step, work / f"setup.{step.command}.log").problems
        if problems:
            raise SetupError(problems[0])

    start = time.perf_counter()
    shutil.rmtree(work / "inputs", ignore_errors=True)
    (work / "inputs").mkdir()
    workload.prepare(work / "inputs", run)
    for step in workload.steps(work / "inputs", work / "warmup"):
        run(Step(step.command, ["--help"], work / "warmup"))
    return time.perf_counter() - start


def _measure(workload, work: Path, args) -> int:
    work.mkdir(parents=True)
    setups = [_set_up(workload, work) for _ in range(1 if args.trace else SETUPS)]
    # Every round writes to the same paths, so that option hashes, which
    # include input paths, and with them the output bytes repeat exactly.
    steps = workload.steps(work / "inputs", work / "round")
    reference: dict[str, dict] = {}
    rounds, durations = [], []
    kinds = (False, True) if args.trace else (False,)
    start = time.perf_counter()
    # Closed loop: start another pass only if it is expected to end in time.
    while True:
        for traced in kinds:
            shutil.rmtree(work / "round", ignore_errors=True)
            began = time.perf_counter()
            rounds.append((traced, run_round(steps, reference,
                                             str(work / f"round{len(rounds)}"), traced)))
            durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if elapsed + len(kinds) * statistics.median(durations) > args.seconds:
            break
    problems = [p for _, outcomes in rounds for o in outcomes for p in o.problems]
    for problem in problems:
        print(f"FAILED {problem}")
    for command in COMMANDS:
        walls = [o.wall_s for traced, outcomes in rounds if not traced
                 for o in outcomes if o.command == command]
        if walls:
            print(_describe(f"{command}_s", walls))
    for command, files in reference.items():
        for name, digest in files.items():
            print(f"sha256 {command}/{name} {digest}")

    attempted, failed = _tally(rounds)
    metrics = _per_layer(rounds) if args.trace else _end_to_end(rounds, setups)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
