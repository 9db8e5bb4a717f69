"""Self-tests of the benchmark harness (run with pytest from the repo root)."""

import json
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as harness  # noqa: E402
import spans  # noqa: E402

SMALL_OP = ["verify", "--N", "3", "--k", "2", "--Q", "x^2", "--order", "12",
            "--format", "json"]


class FakeClock:
    """A clock that reads the values it is told to, in order."""

    def __init__(self, readings):
        self.readings = iter(readings)

    def __call__(self):
        return next(self.readings)


def test_self_time_subtracts_nested_spans():
    # outer [0, 10] encloses inner [1, 3] and inner [4, 8]; the second inner
    # span encloses leaf [5, 6].
    rec = spans.Recorder(clock=FakeClock([0, 1, 3, 4, 5, 6, 8, 10]))
    leaf = rec.timed("leaf", lambda: None)

    def inner_body(nest):
        if nest:
            leaf()

    inner = rec.timed("inner", inner_body)

    def outer_body():
        inner(False)
        inner(True)

    rec.timed("outer", outer_body)()
    assert rec.calls == {"leaf": 1, "inner": 2, "outer": 1}
    assert rec.self_s == {"leaf": 1, "inner": 2 + 3, "outer": 10 - 2 - 4}


def test_self_time_of_recursive_span_counts_each_frame_once():
    # f [0, 6] calls f [1, 4], which calls f [2, 3].
    rec = spans.Recorder(clock=FakeClock([0, 1, 2, 3, 4, 6]))

    def body(depth):
        if depth:
            f(depth - 1)

    f = rec.timed("f", body)
    f(2)
    assert rec.calls["f"] == 3
    assert rec.self_s["f"] == 6


def test_excluded_time_leaves_every_open_span():
    # outer [0, 10] encloses inner [2, 6], during which 1 s is excluded (the
    # reference kernel ran there).
    rec = spans.Recorder(clock=FakeClock([0, 2, 6, 10]))
    inner = rec.timed("inner", lambda: rec.exclude(1))
    rec.timed("outer", inner)()
    assert rec.self_s == {"inner": 4 - 1, "outer": 10 - 4}


def test_rebind_reaches_imported_names_and_class_aliases():
    def original():
        pass

    importer = types.ModuleType("importer")
    importer.alias = original

    class Number:
        __mul__ = original
        __rmul__ = __mul__

    importer.Number = Number
    definer = types.ModuleType("definer")
    definer.original = original
    assert spans._rebind([definer, importer], original, len) == 4
    assert definer.original is importer.alias is Number.__mul__ is Number.__rmul__ is len


def test_wrong_recorded_digest_counts_as_failed_op():
    result = harness.run_child(SMALL_OP, trace=False, timeout=60)
    key = harness.argv_key(SMALL_OP)
    assert harness.op_failures(result, SMALL_OP, {key: result["stdout_sha256"]}) == []
    fake = {key: "0" * 64}
    assert harness.op_failures(result, SMALL_OP, fake) == [
        "stdout differs from the recorded digest"]
    run = harness.Run(fake, seconds=1)
    assert run.run_pass([SMALL_OP], trace=False)["records"][0]["failures"]


def test_traced_op_prints_the_same_bytes_and_records_aliases():
    plain = harness.run_child(SMALL_OP, trace=False, timeout=60)
    traced = harness.run_child(SMALL_OP, trace=True, timeout=60)
    assert traced["stdout_sha256"] == plain["stdout_sha256"]
    calls = traced["trace"]["calls"]
    # Reached only through names bound by `from .x import y` or by aliases.
    assert calls["macmahon.brute_force"] > 0          # cli.brute_force
    assert calls["pfdform.closed_form"] > 0           # cli.closed_form
    assert calls["field.coerce_pair"] > 0             # via field.value_*
    assert calls["series.QSeries.mul"] > 0
    assert calls["chars.gauss_sum"] > 0               # pfdform.gauss_sum
    metrics = harness.layer_metrics([traced])
    assert set(metrics) == {name for name, _, _ in harness.PER_LAYER}


def test_benchmark_json_lists_the_metrics_and_workloads_reported():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(harness.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == harness.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == (
        harness.PER_LAYER + harness.TRACE_RUN)


def test_every_drawable_argv_has_a_recorded_digest():
    digests = json.loads(harness.DIGESTS.read_text())["digests"]
    for workload in harness.WORKLOADS:
        for argv in harness.drawable(workload):
            assert harness.argv_key(argv) in digests
