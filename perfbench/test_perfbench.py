"""Self-tests of the benchmark's own code on synthetic data.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import json
import os
import time

import pytest

from perfbench import calibrate, layers, models, stats
from perfbench.spans import Instrumentation, Span, Tracer, covered_length, self_times
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# the "highest percentile with at least ten beyond" rule


def test_tail_leaves_exactly_ten_beyond():
    values = list(range(1, 101))  # 1..100
    value, pct, n = stats.tail(values)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(v > value for v in values) == 10


def test_tail_ignores_input_order_and_counts_ties_by_rank():
    values = [5.0] * 15 + [1.0] * 15
    value, pct, n = stats.tail(reversed(values))
    assert n == 30 and pct == pytest.approx(100 * 20 / 30)
    assert value == 5.0  # rank 20 of 30 falls among the 5.0s


def test_tail_needs_more_than_ten_samples():
    assert stats.tail(range(10)) is None
    value, pct, n = stats.tail(range(11))
    assert (value, n) == (0, 11) and pct == pytest.approx(100 / 11)


def test_tail_of_mixed_population_reads_the_slow_part():
    # 56 fast ops and 14 slow ones: the tail lands among the slow ones,
    # the median among the fast ones
    values = [0.002] * 56 + [0.5 + i / 100 for i in range(14)]
    value, _, _ = stats.tail(values)
    assert value >= 0.5
    assert stats.median(values) == 0.002


# ---------------------------------------------------------------------------
# self time from the span tree


def _named(span_id, name, start, end, parent=None, op=None, batch=0, **attrs):
    s = Span(span_id, name, start, parent, op, batch, attrs)
    s.end = end
    return s


def _span(span_id, start, end, parent=None):
    return _named(span_id, f"s{span_id}", start, end, parent)


def test_self_time_subtracts_nested_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 5.0, 6.0, parent=0),
        _span(3, 2.0, 3.0, parent=1),  # grandchild: counts against 1, not 0
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 5.0, parent=0),
        _span(2, 3.0, 7.0, parent=0),  # overlaps 1 on [3, 5]
        _span(3, 6.5, 12.0, parent=0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - (10.0 - 1.0))


def test_covered_length_of_disjoint_touching_and_outside_intervals():
    assert covered_length(0, 10, [(1, 2), (2, 3), (20, 30), (-5, 0.5)]) == pytest.approx(2.5)
    assert covered_length(0, 10, []) == 0.0


def test_tracer_nests_spans_under_the_op():
    clock = iter(float(t) for t in range(100)).__next__
    tracer = Tracer(clock=clock)
    inner = tracer.wrap(lambda x: x + 1, "lg.inner")
    outer = tracer.wrap(lambda x: inner(inner(x)), "lg.outer")
    op = tracer.begin("op.lg", kind="lg")
    assert outer(1) == 3
    tracer.end(op)
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (outer_span,) = by_name["lg.outer"]
    assert outer_span.parent == op.span_id
    assert all(s.parent == outer_span.span_id for s in by_name["lg.inner"])
    assert all(s.op == op.span_id for s in tracer.spans)


def test_per_layer_metrics_count_per_batch_and_keep_setup_out_of_counts():
    spans = [
        _named(0, "op.setup", 0, 1, None, 0, layers.SETUP_BATCH, kind="setup"),
        _named(1, "zoo.build", 0, 1, 0, 0, layers.SETUP_BATCH, states=30),
    ]
    for batch in range(2):
        base = 10 * (batch + 1)
        op = 2 + 4 * batch
        spans += [
            _named(op, "op.lg", base, base + 8, None, op, batch, kind="lg"),
            _named(op + 1, "lg.check_opnd_complete", base, base + 4, op, op, batch,
                   contexts=108, undefined=6),
            _named(op + 2, "lg.check_opnd_complete", base + 4, base + 8, op, op, batch,
                   contexts=108, undefined=0),
            _named(op + 3, "operational.run_protocol", base + 1, base + 2, op + 1, op, batch),
        ]
    m = layers.per_layer_metrics(spans, batches=2)
    assert m["lg.check_opnd_complete_calls"] == 2
    assert m["lg.check_opnd_complete_s"] == 4
    assert m["operational.run_protocol_calls"] == 1
    assert m["lg.self_s"] == pytest.approx(8 - 1)  # per batch: 8 s of spans, 1 s covered by a child
    assert m["zoo.build_calls"] == 0 and m["zoo.build_s"] == 1 and m["zoo.states"] == 30
    assert (m["lg.contexts"], m["lg.contexts_undefined"]) == (216, 6)
    assert m["lg.contexts_defined_ratio"] == pytest.approx(1 - 6 / 216)
    assert m["classify.classify_s"] == 0.0 and m["classify.classify_calls"] == 0

    (lg_row,) = [r for r in layers.op_breakdown(spans) if r["kind"] == "lg"]
    assert lg_row["ops"] == 2 and lg_row["covered"] == pytest.approx(1.0)
    shares = {name: share for share, name in lg_row["shares"]}
    assert shares["lg.check_opnd_complete"] == pytest.approx(1.0)
    assert shares["operational.run_protocol"] == pytest.approx(1 / 8)


def test_check_opnd_counts_only_the_chains_specific_contexts():
    spans = [
        _named(0, "op.lg", 0, 10, None, 0, 0, kind="lg"),
        _named(1, "lg.check_implication_chain", 0, 10, 0, 0, 0),
        _named(2, "lg.check_opnd_complete", 0, 6, 1, 0, 0, contexts=108, undefined=0),
        _named(3, "lg.check_opnd", 1, 1.5, 2, 0, 0),
        _named(4, "lg.check_opnd", 2, 2.5, 2, 0, 0),
        _named(5, "lg.check_opnd", 7, 9, 1, 0, 0),
    ]
    m = layers.per_layer_metrics(spans, batches=1)
    assert m["lg.check_opnd_calls"] == 1
    assert m["lg.check_opnd_s"] == 2
    assert m["trace.spans"] == 6


def test_wrapped_exception_marks_the_span_and_propagates():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap(boom, "lg.boom")
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.spans[0].error and tracer.spans[0].end >= tracer.spans[0].start


def test_instrumentation_restores_every_binding():
    lg = pytest.importorskip("lglab.lg")
    original = lg.run_protocol
    tracer = Tracer()
    with Instrumentation(tracer, [("lglab.operational", "run_protocol", "operational.run_protocol", None)]):
        assert lg.run_protocol is not original
    assert lg.run_protocol is original


# ---------------------------------------------------------------------------
# failure accounting


def test_fail_ratio_counts_known_and_unexpected_failures():
    tally = stats.OpTally()
    for _ in range(22):
        tally.record()
    tally.record("lg ks-sphere: known defect", known=True)
    tally.record("classify ks-sphere: known defect", known=True)
    assert (tally.attempted, tally.failed, tally.known) == (24, 2, 2)
    assert tally.fail_ratio == pytest.approx(2 / 24)
    assert tally.correct
    tally.record("lg qubit: lg_pairwise -1.2")
    assert tally.failed == 3 and not tally.correct
    assert tally.fail_ratio == pytest.approx(3 / 25)


def test_cli_checks_separate_the_known_defect_from_other_failures():
    from perfbench import workloads as w

    bool_error = "TypeError: Object of type bool is not JSON serializable\n"
    with pytest.raises(w.KnownDefect):
        w._check_classify("ks-sphere")(w.CliResult(1, bool_error))
    with pytest.raises(w.CheckFailed) as failure:
        w._check_classify("qubit")(w.CliResult(1, bool_error))
    assert not isinstance(failure.value, w.KnownDefect)
    refusal = "error: no declared preparation is an operational eigenstate of 'Q'\n"
    w._check_classify("null-result-pair")(w.CliResult(2, refusal))
    with pytest.raises(w.CheckFailed):
        w._check_classify("null-result-pair")(w.CliResult(0, "", stdout="{}"))
    verdict = json.dumps({"results": {"verdict": "MR1"}})
    w._check_classify("superselected")(w.CliResult(0, "", stdout=verdict))
    with pytest.raises(w.CheckFailed):
        w._check_classify("bohm-two-path")(w.CliResult(0, "", stdout=verdict))


def test_sweep_check_counts_rows():
    from perfbench import workloads as w

    rows = [w.SWEEP_HEADER] + ["0.5,1,-1.2,0.3,1"] * w.SWEEP_VIOLATED
    rows += ["0.5,1,0.2,0.3,0"] * (w.SWEEP_ROWS - w.SWEEP_VIOLATED)
    w._check_sweep(w.CliResult(0, "", stdout="\n".join(rows) + "\n"))
    with pytest.raises(w.CheckFailed):
        w._check_sweep(w.CliResult(0, "", stdout="\n".join(rows[:-1]) + "\n"))


def test_empty_tally_is_not_correct():
    assert not stats.OpTally().correct
    assert stats.OpTally().fail_ratio == 0.0


# ---------------------------------------------------------------------------
# the host clock


def _clock(samples):
    """A clock with synthetic (time, kernel seconds) samples; its thread never starts."""
    clock = calibrate.HostClock()
    clock.times = [t for t, _ in samples]
    clock.samples = [k for _, k in samples]
    return clock


def test_lap_is_scaled_by_the_samples_taken_during_it():
    ref = calibrate.REFERENCE_S
    m = calibrate.MARGIN_S
    # the host runs at half speed from t = 10 on
    clock = _clock([(t / 10, ref if t < 100 else 2 * ref) for t in range(200)])
    assert clock.scaled(calibrate.Lap(2.0, 3.0)) == pytest.approx(3.0)
    assert clock.scaled(calibrate.Lap(12.0, 4.0)) == pytest.approx(2.0)
    # a lap across the switch is scaled by the mean of what was sampled around it
    lap = calibrate.Lap(9.0, 2.0)
    inside = [k for t, k in zip(clock.times, clock.samples) if 9.0 - m <= t <= 11.0 + m]
    assert clock.scaled(lap) == pytest.approx(2.0 * ref * len(inside) / sum(inside))


def test_lap_without_samples_nearby_takes_the_nearest():
    ref = calibrate.REFERENCE_S
    clock = _clock([(0.0, ref), (5.0, 2 * ref)])
    assert clock.scaled(calibrate.Lap(2.0, 0.001)) == pytest.approx(0.001)
    assert clock.scaled(calibrate.Lap(3.0, 0.001)) == pytest.approx(0.0005)
    assert clock.scaled(calibrate.Lap(9.0, 0.001)) == pytest.approx(0.0005)


def test_kernel_never_starts_a_garbage_collection():
    import gc

    weights = {i: 1.0 / (i + 1) for i in range(calibrate._KEYS)}
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = gc.get_count()
        calibrate.kernel(weights)
        assert gc.get_count() == before
    finally:
        if enabled:
            gc.enable()


def test_clock_thread_samples_and_stops():
    with calibrate.HostClock() as clock:
        while len(clock.samples) < 2:
            time.sleep(calibrate.PERIOD_S)
    assert not clock._thread.is_alive()
    assert clock.times == sorted(clock.times)
    assert all(k > 0 for k in clock.samples)


# ---------------------------------------------------------------------------
# model generator, metric names and the benchmark description


def test_population_shape_is_fixed_by_the_plan_not_the_seed():
    pytest.importorskip("lglab")
    a = models.population(1)
    b = models.population(2)
    assert models.shape(a) == models.shape(b) == models.plan_shape()
    assert models.plan_shape()["invasive_share"] == pytest.approx(0.2)
    weights_a = [dict(m.model.preparation("E").weights) for m, _ in a]
    weights_b = [dict(m.model.preparation("E").weights) for m, _ in b]
    assert weights_a != weights_b


def test_population_is_reproducible_from_its_seed():
    pytest.importorskip("lglab")
    a = models.population(7)
    b = models.population(7)
    assert [dict(m.model.preparation("E").weights) for m, _ in a] == [
        dict(m.model.preparation("E").weights) for m, _ in b
    ]


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    from perfbench.run import END_TO_END

    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(layers.PER_LAYER)
