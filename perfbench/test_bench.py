"""Self-tests of the benchmark: span arithmetic, tracing, output checks."""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_inputs  # noqa: E402
import run  # noqa: E402
from bench_checks import check_outputs  # noqa: E402
from bench_trace import Span, Tracer, covered_length, self_times, totals_by_name  # noqa: E402


def test_self_time_of_nested_spans():
    spans = [
        Span(1, None, "root", 0.0, 10.0),
        Span(2, 1, "a", 1.0, 4.0),
        Span(3, 2, "b", 2.0, 3.0),
        Span(4, 1, "c", 5.0, 6.0),
    ]
    assert self_times(spans) == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}


def test_self_time_counts_overlapping_thread_children_once():
    # Two worker threads run children of the root at overlapping times.
    spans = [
        Span(1, None, "root", 0.0, 10.0),
        Span(2, 1, "worker", 1.0, 6.0),
        Span(3, 1, "worker", 4.0, 9.0),
        Span(4, 2, "leaf", 2.0, 3.0),
    ]
    own = self_times(spans)
    assert own[1] == 2.0  # 10 - |[1, 9]|, not 10 - 5 - 5
    assert own[2] == 4.0 and own[3] == 5.0 and own[4] == 1.0
    totals = totals_by_name(spans)
    assert totals["worker"].calls == 2
    assert totals["worker"].self_s == 9.0
    assert totals["worker"].min_self_s == 4.0


def test_covered_length_clips_to_the_parent():
    assert covered_length(0.0, 10.0, [(-5.0, 2.0), (8.0, 12.0), (1.0, 3.0)]) == 5.0
    assert covered_length(0.0, 1.0, []) == 0.0
    assert covered_length(0.0, 10.0, [(12.0, 15.0), (-3.0, -1.0)]) == 0.0


def test_tracer_keeps_one_stack_per_thread():
    tracer = Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def inner():
        time.sleep(0.01)

    def outer():
        barrier.wait()  # both workers inside ``outer`` at once
        traced_inner()
        time.sleep(0.01)

    traced_inner = tracer.wrap("inner", inner)
    traced_outer = tracer.wrap("outer", outer)

    def root():
        workers = [threading.Thread(target=traced_outer) for _ in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=10)
        assert not any(worker.is_alive() for worker in workers)

    tracer.wrap("root", root)()
    spans = tracer.spans()
    by_id = {span.id: span for span in spans}
    (root_span,) = [s for s in spans if s.name == "root"]
    outers = [s for s in spans if s.name == "outer"]
    inners = [s for s in spans if s.name == "inner"]
    assert len(outers) == 2 and len(inners) == 2
    assert all(s.parent == root_span.id for s in outers)
    # Each inner span belongs to the outer span of its own thread.
    assert sorted(by_id[s.parent].name for s in inners) == ["outer", "outer"]
    assert len({s.parent for s in inners}) == 2
    assert all(value >= 0.0 for value in self_times(spans).values())


def test_tracer_counts_hooks_and_missing_names():
    tracer = Tracer()
    assert not tracer.install("perfbench_no_such_module.fn", lambda fn: fn)
    assert not tracer.install("json.no_such_function", lambda fn: fn)
    assert tracer.missing == ["perfbench_no_such_module.fn", "json.no_such_function"]
    counted = tracer.counter("calls", abs)
    spanned = tracer.wrap("sum", sum, hook=lambda args, kwargs, result: {"n": result})
    assert counted(-2) == 2 and counted(3) == 3
    assert spanned([1, 2]) == 3
    assert tracer.counts() == {"calls": 2}
    assert totals_by_name(tracer.spans())["sum"].counts == {"n": 3}


def test_workload_parts_get_their_own_outputs_and_seeds(tmp_path):
    for make in run.WORKLOADS.values():
        workload = make(5)
        steps = workload.steps(tmp_path / "inputs", tmp_path / "out")
        outs = [step.out for step in steps]
        # Digests are taken per output directory and compared per command.
        assert not any(a != b and b.is_relative_to(a) for a in outs for b in outs)
        assert len({step.command for step in steps}) == len(steps)
        part_seeds = [{step.args[step.args.index("--seed") + 1]
                       for step in part.steps(tmp_path, tmp_path)}
                      for part in workload.parts.values()]
        assert not set.intersection(*part_seeds)


def _detmetrics_step(tmp_path: Path) -> run.Step:
    planted = bench_inputs.write_boxes(tmp_path, images=4, seed=3)
    out = tmp_path / "det"
    args = run._flags(detections=planted["detections"],
                      ground_truth=planted["ground_truth"], seed=1, out=out)
    return run.Step("detmetrics", args, out, planted)


def test_generated_boxes_give_the_planted_rates(tmp_path):
    step = _detmetrics_step(tmp_path)
    outcomes = run.run_round([step], {}, str(tmp_path / "r0"), traced=False)
    assert [o.problems for o in outcomes] == [[]]
    assert check_outputs("detmetrics", step.out, step.expect) == []


def test_corrupted_output_is_counted_in_error_rate(tmp_path, monkeypatch):
    step = _detmetrics_step(tmp_path)
    reference: dict = {}
    rounds = [(False, run.run_round([step], reference, str(tmp_path / "r0"), False))]
    metrics_file = step.out / "detection_metrics.csv"
    matches_file = step.out / "matches.csv"
    real_run_command = run.run_command

    def corrupting(corrupt):
        def run_command(*args, **kwargs):
            outcome = real_run_command(*args, **kwargs)
            corrupt()
            return outcome
        return run_command

    # A wrong planted rate fails the content check and the byte comparison.
    monkeypatch.setattr(run, "run_command", corrupting(
        lambda: metrics_file.write_text(
            metrics_file.read_text().replace(",5.0,", ",4.75,"))))
    rounds.append((False, run.run_round([step], reference, str(tmp_path / "r1"), False)))
    problems = rounds[-1][1][0].problems
    assert any("FPR per image 4.75" in p for p in problems)
    assert any("differ from the first round" in p for p in problems)

    # An extra byte that leaves every rate plausible still breaks identity.
    monkeypatch.setattr(run, "run_command", corrupting(
        lambda: matches_file.write_bytes(matches_file.read_bytes() + b"\n")))
    rounds.append((False, run.run_round([step], reference, str(tmp_path / "r2"), False)))
    assert rounds[-1][1][0].problems == [
        "detmetrics: matches.csv differ from the first round"]

    metrics = run._end_to_end(rounds, setups=[1.0])
    assert metrics["success_rate"]["value"] == 1.0 - 2 / 3


def _report(path: Path, columns: str, rows: list[str]) -> None:
    path.write_text("\n".join(["# header", columns, *rows]) + "\n")


def test_eval_checks_catch_bad_curves(tmp_path):
    _report(tmp_path / "metrics.csv", "protocol,split,mean,std,threshold",
            ["closed_set,0,0.5,0.1,", "verification,0,0.9,0.0,0.3"])
    _report(tmp_path / "cmc.csv", "rank,rate", ["1,0.5", "2,0.75", "3,1.0"])
    _report(tmp_path / "roc.csv", "far,tar", ["0.01,0.5", "0.02,0.6"])
    assert check_outputs("eval", tmp_path) == []
    _report(tmp_path / "cmc.csv", "rank,rate", ["1,0.5", "2,0.4", "3,0.9"])
    _report(tmp_path / "roc.csv", "far,tar", ["0.01,0.7", "0.02,0.6"])
    problems = check_outputs("eval", tmp_path)
    assert "cmc.csv: CMC decreases with rank" in problems
    assert "cmc.csv: CMC ends at 0.9, not 1.0" in problems
    assert "roc.csv: TAR decreases as FAR grows" in problems
    (tmp_path / "roc.csv").unlink()
    assert check_outputs("eval", tmp_path) == ["eval: missing output roc.csv"]


def test_train_check_needs_finite_falling_loss(tmp_path):
    columns = "epoch,total,ce,sim,dissim,n_similar,n_dissimilar"
    _report(tmp_path / "loss_history.csv", columns, ["0,2.0,1,1,0,8,8", "1,1.5,1,0.5,0,8,8"])
    (tmp_path / "model.mfhd").write_bytes(b"")
    assert check_outputs("train", tmp_path) == []
    _report(tmp_path / "loss_history.csv", columns, ["0,2.0,1,1,0,8,8", "1,nan,1,1,0,8,8"])
    assert check_outputs("train", tmp_path) == ["loss_history.csv: non-finite value"]
    _report(tmp_path / "loss_history.csv", columns, ["0,2.0,1,1,0,8,8", "1,2.0,1,1,0,8,8"])
    assert check_outputs("train", tmp_path)[0].startswith("loss_history.csv: last total")
