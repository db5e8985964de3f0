"""Tests of the benchmark's own input generation, checks and tracing.

Run from the repository root:  python3 -m pytest -q esdbench
"""

import json
import math

import pytest

import run  # puts src/ on sys.path
import ops
from tracing import Tracer


def _op(kind, argv, spec):
    return {"id": f"test/{kind}", "kind": kind, "argv": argv, "spec": spec}


DECAY = ops.channel("decay", [1.3, 1.3, 0.0])
PURE = ops.pure_x(0.8)
DEATH = _op("death-time", ["death-time", "--channel", DECAY["literal"],
                           "--state", ops.x_literal(PURE)],
            {"channel": DECAY, "state": PURE})
EVOLVE = _op("evolve", ["evolve", "--channel", DECAY["literal"], "--state", ops.x_literal(PURE),
                        "--horizon", repr(2.0 / 1.3)],
             {"channel": DECAY, "state": PURE, "horizon": 2.0 / 1.3})
COLLECTIVE = ops.channel("collective", [0.7])
CLASSIFY = _op("classify", ["classify", "--channel", COLLECTIVE["literal"], "--samples", "20"],
               {"channel": COLLECTIVE, "samples": 20})
SWEEP = ops._sweep(DECAY, [("a", 0.05, 0.95, 19)], None)
SWEEP["id"] = "test/sweep"
OPS = [DEATH, EVOLVE, CLASSIFY, SWEEP]


def _run_with(target, corrupt):
    """One pass over OPS where ``corrupt`` rewrites the result of ``target``."""
    def execute(op):
        result = run.execute(op)
        return corrupt(*result) if op is target else result

    runner = run.Runner(OPS, execute=execute)
    runner.run_pass()
    return runner


def test_clean_pass_has_no_failures():
    runner = _run_with(None, None)
    assert runner.attempted == len(OPS)
    assert runner.failures == []


def _set(text, **fields):
    payload = json.loads(text)
    payload.update(fields)
    return json.dumps(payload, indent=2) + "\n"


def test_corrupted_t_star_is_one_failed_op():
    def corrupt(code, text):
        t_star = json.loads(text)["t_star"]
        return code, _set(text, t_star=t_star + 1e-6)

    runner = _run_with(DEATH, corrupt)
    assert [op_id for op_id, _ in runner.failures] == [DEATH["id"]]


def test_wrong_case_label_is_one_failed_op():
    runner = _run_with(CLASSIFY, lambda code, text: (code, _set(text, case="ii")))
    assert [op_id for op_id, _ in runner.failures] == [CLASSIFY["id"]]
    assert "table gives multi/iv" in runner.failures[0][1]


def test_non_psd_csv_row_is_one_failed_op():
    def corrupt(code, text):
        lines = text.splitlines()
        cells = lines[7].split(",")
        cells[3] = "-1e-06"  # min_eig
        lines[7] = ",".join(cells)
        return code, "\n".join(lines) + "\n"

    runner = _run_with(EVOLVE, corrupt)
    assert [op_id for op_id, _ in runner.failures] == [EVOLVE["id"]]
    assert "min_eig" in runner.failures[0][1]


def test_nonzero_exit_is_one_failed_op():
    runner = _run_with(SWEEP, lambda code, text: (3, "error: boom"))
    assert runner.failures == [(SWEEP["id"], "exit 3: error: boom")]


# horizon 5/rate at rate 1.5 sits on the program's step grid (dt = 1e-3/rate)
DECAY_15 = ops.channel("decay", [1.5, 1.5, 0.0])
ON_GRID = _op("evolve", ["evolve", "--channel", DECAY_15["literal"], "--state", ops.x_literal(PURE),
                         "--horizon", repr(5.0 / 1.5)],
              {"channel": DECAY_15, "state": PURE, "horizon": 5.0 / 1.5})


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="known defect: simulate's last sample is one ulp before a "
                          "horizon on its step grid (esdbench/BASELINE.md)")
def test_horizon_on_the_step_grid_ends_at_the_horizon():
    runner = run.Runner([ON_GRID])
    runner.run_pass()
    assert runner.failures == []


def test_typed_horizons_keep_the_step_count():
    for units in (1.0, 2.0, 4.0, 5.0):
        for rate in (0.5, 1.5, 1.234567, 3.0):
            horizon = ops.typed_horizon(units, rate)
            assert horizon <= units / rate
            assert math.ceil(horizon * rate * 1e3 * (1.0 - 1e-12)) == 1000 * units


def test_changed_output_on_a_later_pass_fails():
    runner = run.Runner([DEATH])
    runner.run_pass()
    runner.execute = lambda op: (0, _set(run.execute(op)[1], crossings=7))
    runner.run_pass()
    assert runner.attempted == 2 and len(runner.failures) == 1


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_same_seed_same_bytes_other_seed_same_shape(workload, tmp_path):
    first = ops.build(workload, 5, tmp_path / "a")
    again = ops.build(workload, 5, tmp_path / "a")
    other = ops.build(workload, 6, tmp_path / "b")
    assert json.dumps(first) == json.dumps(again)
    assert ops.signature(first) == ops.signature(other)
    assert json.dumps(first) != json.dumps(other).replace("/b/", "/a/")
    assert len(first) >= 100  # at least 10 ops above the p90 latency
    if any(op["kind"] == "sweep" for op in first):
        assert all("--jobs" in op["argv"] for op in first if op["kind"] == "sweep")


def test_tracer_sees_bisection_through_every_namespace():
    import esdkit

    original = esdkit.channels.x_closed_curves
    tracer = Tracer()
    tracer.install()
    try:
        code, _ = run.execute(DEATH)
    finally:
        tracer.uninstall()
    assert code == 0
    assert esdkit.dynamics.x_closed_curves is original
    metrics = tracer.metrics(1)
    assert metrics["dynamics.death_time.calls"][0] == 1
    assert metrics["dynamics.verdict.finite"][0] == 1
    # bisection calls go through the name dynamics imported
    assert metrics["channels.x_closed_curves.calls"][0] > 20
    assert metrics["dynamics.closed_evals_per_crossing"][0] > 20
    assert metrics["cli.main.self_ms"][0] <= metrics["cli.main.total_ms"][0]


def test_layer_metric_names_match_benchmark_json():
    spec = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text())
    layer = set(Tracer().metrics(1)) | {"cli.output_bytes", "trace.overhead_frac"}
    assert layer == {m["name"] for m in spec["per_layer"]}
