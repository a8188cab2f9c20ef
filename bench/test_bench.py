"""Self-tests of the benchmark (``python -m pytest bench -q``).

Outside the tier-1 ``testpaths``: these test the measuring instrument,
not the program.
"""

import json
import re

import numpy as np
import pytest

from repro import LMFAO
from repro.datasets import retailer

from bench import check, harness, run, trace, traced, workloads

SPEC = run.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def tiny():
    return retailer(scale=0.02)


# -- the contract of BENCHMARK.json ------------------------------------------


def test_spec_names_counts_and_bounds():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    # 4 + 22 runs per workload must fit the driver's cap
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60


def test_spec_workloads_are_the_ones_implemented():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WORKLOADS
    assert set(run.RUNNERS) == set(workloads.WORKLOADS)


def test_generic_layer_metrics_name_wrapped_spans():
    """Every ``<span>.ms/.self_ms/.calls`` metric must resolve to a span
    the trace table can produce, or it would silently read 0."""
    recorder = trace.Recorder()
    wanted = [m["name"] for m in SPEC["per_layer"]]
    produced = traced.layer_metrics(recorder, [], 1, wanted)
    generic = [n for n in wanted if n.endswith((".self_ms", ".calls"))]
    assert generic and set(generic) <= set(produced)


# -- scripts -------------------------------------------------------------------


def script_bytes(database, seed, n=12):
    script = workloads.DeltaScript(database, seed)
    ops = []
    for _ in range(n):
        op = script.next()
        script.commit(op)
        ops.append(op)
    reads = workloads.read_requests(seed)
    return json.dumps([ops, [next(reads) for _ in range(n)]]).encode()


def test_same_seed_same_script_other_seed_other_script(tiny):
    assert script_bytes(tiny.database, 5) == script_bytes(tiny.database, 5)
    assert script_bytes(tiny.database, 5) != script_bytes(tiny.database, 6)


def test_delta_script_keeps_sizes_and_keys(tiny):
    script = workloads.DeltaScript(tiny.database, 1)
    relations = []
    for _ in range(16):
        op = script.next()
        script.commit(op)
        relations.append(op["relation"])
    assert relations[:4] == ["Inventory"] * 3 + ["Items"]
    assert relations[3::4] == list(workloads.DIMENSIONS)
    for before in tiny.database:
        after = script.database.relation(before.name)
        assert after.n_rows == before.n_rows
    for name, key in (("Items", "ksn"), ("Location", "locn"), ("Census", "zip")):
        assert set(script.database.relation(name).column(key)) == set(
            tiny.database.relation(name).column(key)
        )


# -- statistics ----------------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert harness.tail_percentile(list(range(100)), 90) == 90
    with pytest.raises(ValueError):
        harness.tail_percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        harness.tail_percentile(list(range(999)), 99)
    assert harness.tail_percentile(list(range(1000)), 99) == 990
    with pytest.raises(ValueError):
        harness.tail_percentile(list(range(1000)), 50)


def test_summary_reports_n_and_quartiles():
    out = harness.summary([1.0, 2.0, 3.0, 4.0])
    assert out["n"] == 4 and out["median"] == 2.5 and out["q1"] < out["q3"]
    assert harness.summary([]) == {"n": 0}


# -- spans ---------------------------------------------------------------------


def make_recorder(rows):
    recorder = trace.Recorder()
    for name, start, end, parent, op in rows:
        span = trace.Span(name, start, parent, op, 0)
        span.end = end
        recorder.spans.append(span)
    return recorder


def test_self_time_is_duration_minus_direct_children():
    recorder = make_recorder([
        ("bench.op", 0.0, 10.0, -1, 0),
        ("engine.run", 1.0, 9.0, 0, 0),
        ("engine.executor.run_group", 2.0, 5.0, 1, 0),
        ("data.ops.group_sums", 3.0, 4.0, 2, 0),
        ("engine.executor.run_group", 5.0, 7.0, 1, 0),
        ("engine.plan", 0.0, 99.0, -1, -1),  # set-up: outside every op
    ])
    assert recorder.self_times()[:5] == [2.0, 3.0, 2.0, 1.0, 2.0]
    totals = recorder.totals()
    assert totals["engine.executor.run_group"] == (5.0, 4.0, 2)
    assert "engine.plan" not in totals
    metrics = traced.layer_metrics(
        recorder, ["engine.assemble"], 2,
        ["engine.executor.run_group.ms", "engine.executor.run_group.calls",
         "engine.run.self_ms", "engine.assemble.ms", "not.a.span.ms"],
    )
    assert metrics == {
        "engine.executor.run_group.ms": 2500.0,
        "engine.executor.run_group.calls": 1.0,
        "engine.run.self_ms": 1500.0,
        "engine.assemble.ms": trace.ABSENT,
    }
    summary = traced.trace_summary(recorder, 12.0, 10.0)
    assert summary == {"trace.coverage": 0.8, "trace.overhead_ratio": 1.2}


def test_spans_nest_by_thread_then_by_latest_open_span():
    import threading

    recorder = trace.Recorder()
    recorder.enabled = True
    with recorder.span("bench.op"):
        with recorder.span("server.client"):
            worker = threading.Thread(
                target=lambda: recorder.finish(recorder.begin("server.http.handler"))
            )
            worker.start()
            worker.join()
    assert [s.parent for s in recorder.spans] == [-1, 0, 1]


def test_missing_target_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(
        trace, "TARGETS",
        (("gone.layer", "repro.no_such_module:thing"),
         ("gone.method", "repro.engine.engine:LMFAO.no_such_method"),
         ("engine.plan", "repro.engine.engine:LMFAO.plan")),
    )
    original = LMFAO.plan
    uninstall, absent = trace.install(trace.Recorder())
    try:
        assert absent == ["gone.layer", "gone.method"]
        assert LMFAO.plan is not original
    finally:
        uninstall()
    assert LMFAO.plan is original


# -- the checker checks --------------------------------------------------------


def test_checker_accepts_the_engine_and_rejects_a_perturbed_answer(tiny):
    engine = LMFAO(tiny.database, tiny.join_tree)
    batch = workloads.paper_batches(tiny, engine)["covar"]
    truth = check.ground_truth(check.flat_columns(tiny.database), batch)
    result = engine.run(batch)
    assert check.check_batch_result(truth, result) == []
    name = next(iter(truth))
    column = result[name].schema.names[-1]
    result[name].column(column)[0] *= 1.0 + 1e-5
    assert check.check_batch_result(truth, result)
    del result[name]
    assert check.check_batch_result(truth, result)


def test_checker_rejects_wrong_models():
    state = workloads.build_train(0.02)
    outcome = workloads.Outcome()
    models = workloads.one_pass(workloads.train_units(state), outcome)
    workloads.check_train(state, models, outcome)
    assert outcome.problems == [] and outcome.failed == 0
    models["ridge"].theta = models["ridge"].theta * 1.5
    models["tree"].root.prediction += 1e-3
    workloads.check_train(state, models, outcome)
    assert len(outcome.problems) == 2


def test_payload_check_compares_by_position_in_any_row_order():
    truth = {"q": ([np.array([1, 2])], [np.array([10.0, 20.0])])}
    good = {"q": {"columns": ["k", "s"], "data": {"k": [2, 1], "s": [20.0, 10.0]}}}
    bad = {"q": {"columns": ["k", "s"], "data": {"k": [2, 1], "s": [10.0, 20.0]}}}
    assert check.check_payload(truth, good) == []
    assert check.check_payload(truth, bad)
    assert check.check_payload(truth, {})


# -- the command ---------------------------------------------------------------


@pytest.mark.parametrize("traced", [0, 1])
def test_smoke_run_prints_exactly_the_declared_metrics(traced, tmp_path, capsys):
    code = run.main([
        "--workload", "agg_batch", "--smoke", "--trace", str(traced),
        "--out", str(tmp_path),
    ])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert all(
        isinstance(v["value"], (int, float)) for v in result["metrics"].values()
    )
    detail = json.loads(next(tmp_path.iterdir()).read_text())
    assert {"nproc", "python", "numpy", "scale", "seed", "git_commit"} <= set(detail)
    if traced:
        assert detail["absent"] == [] and detail["spans"]["rows"]
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9
