"""Percentile, interval and span self-time arithmetic on synthetic data."""

import random
import statistics

import pytest

import analysis
import calibration
from tracing import ROOT, SpanRecorder


def test_percentile_matches_statistics_inclusive():
    rng = random.Random(3)
    values = [rng.expovariate(1.0) for _ in range(57)]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    for k, expected in enumerate(deciles, start=1):
        assert analysis.percentile(values, 10 * k) == pytest.approx(expected)


def test_percentile_small_cases():
    assert analysis.percentile([4, 1, 3, 2], 50) == 2.5
    assert analysis.percentile(range(1, 12), 90) == 10
    assert analysis.percentile([7], 90) == 7
    with pytest.raises(ValueError):
        analysis.percentile([], 50)


def test_gaps_start_where_the_previous_trial_handed_back():
    # Completions at 0.1, 0.3, 0.6, 1.0; a 0.05 s kernel after each.
    times = [0.1, 0.3, 0.6, 1.0]
    resumes = [0.15, 0.35, 0.65, 1.05]
    assert analysis.gaps(times, resumes) == pytest.approx([0.1, 0.15, 0.25, 0.35])
    assert analysis.gaps(times, times) == pytest.approx([0.1, 0.2, 0.3, 0.4])


def test_trial_metrics_from_gaps():
    m = analysis.trial_metrics([0.1, 0.2, 0.3, 0.4])
    assert m["trials_per_s"] == (4.0, "1/s", 4)
    assert m["trial_ms_p50"][0] == pytest.approx(250.0)
    assert m["trial_ms_p90"][0] == pytest.approx(370.0)


def test_projected_time_to_d():
    gaps = [1.0, 1.0, 3.0, 1.0]
    regions = ["a", "b", "a", "b"]
    ttd = analysis.projected_time_to_d(0.5, gaps, regions, {"a": 10, "b": 4})
    assert ttd == pytest.approx(0.5 + 10 * 2.0 + 4 * 1.0)


def test_speed_factors_bracket_each_trial():
    ref = calibration.REFERENCE_KERNEL_S
    speeds = calibration.speed_factors([ref, ref, 3 * ref, 3 * ref])
    assert speeds == pytest.approx([1.0, 1.0, 0.5, 1 / 3])


def _spans():
    # trial 0 (set-up): one reference span.  trial 1: root [0, 10] with
    # children A [1, 4] (holding B [2, 3]) and C [5, 6].  trial 2: root
    # [10, 12] with one A [10.5, 11.5].
    return [
        [0, -1, "injection.reference", -5.0, -1.0],
        [1, -1, ROOT, 0.0, 10.0],
        [1, 1, "mpi.simulator", 1.0, 4.0],
        [1, 2, "cpu.vm", 2.0, 3.0],
        [1, 1, "engine.store", 5.0, 6.0],
        [2, -1, ROOT, 10.0, 12.0],
        [2, 5, "mpi.simulator", 10.5, 11.5],
    ]


def test_self_times_subtract_direct_children():
    s = analysis.self_times(_spans())
    assert s[(1, ROOT)] == pytest.approx(6.0)
    assert s[(1, "mpi.simulator")] == pytest.approx(2.0)
    assert s[(1, "cpu.vm")] == pytest.approx(1.0)
    assert s[(1, "engine.store")] == pytest.approx(1.0)
    assert s[(2, ROOT)] == pytest.approx(1.0)
    assert s[(0, "injection.reference")] == pytest.approx(4.0)


def test_check_spans_accepts_nested_spans():
    assert analysis.check_spans(_spans()) == []


def test_check_spans_reports_escape_and_crossing():
    spans = _spans()
    spans[4] = [1, 1, "engine.store", 9.0, 10.5]  # ends after its root
    assert any("escapes" in p for p in analysis.check_spans(spans))
    spans = _spans()
    spans[6] = [1, 5, "mpi.simulator", 10.5, 11.5]  # trial 1 under trial 2
    assert any("crosses" in p for p in analysis.check_spans(spans))


def test_check_coverage_flags_time_the_layers_miss():
    # In the synthetic dump the root keeps 7 of 12 s: the tracer misses it.
    m = analysis.layer_metrics({"completed": 2, "spans": _spans(), "counts": []})
    assert analysis.check_coverage(m)
    assert analysis.check_coverage({"engine.driver.share": (0.03, "fraction", 9)}) == []


def test_layer_metrics_on_synthetic_dump():
    dump = {
        "completed": 2,
        "spans": _spans(),
        "counts": [
            [1, "cpu.vm.insns_retired", 100],
            [1, "cpu.vm.translated_insns", 75],
            [2, "cpu.vm.insns_retired", 300],
            [2, "cpu.vm.translated_insns", 25],
            [0, "cpu.vm.insns_retired", 10_000],  # set-up: not a trial
        ],
    }
    m = analysis.layer_metrics(dump)
    assert m["engine.driver.self_ms"][0] == pytest.approx(3500.0)  # median(6, 1) s
    assert m["mpi.simulator.job_ms"][0] == pytest.approx(1500.0)  # median(2, 1)
    assert m["cpu.vm.call_ms"][0] == pytest.approx(500.0)  # median(1, 0)
    assert m["mpi.simulator.share"][0] == pytest.approx(3.0 / 12.0)
    assert m["engine.driver.share"][0] == pytest.approx(7.0 / 12.0)
    assert sum(m[f"{layer}.share"][0] for layer in analysis.TRIAL_LAYERS) == pytest.approx(1.0)
    assert m["cpu.vm.calls"][0] == 0.5
    assert m["cpu.vm.insns_retired"][0] == 200.0
    assert m["cpu.vm.translated_insn_frac"][0] == pytest.approx(0.25)
    assert m["injection.reference_s"][0] == pytest.approx(4.0)
    # calibration factors scale each trial's times and the set-up's
    slow = analysis.layer_metrics(dump, speeds=[0.5, 0.5], setup_speed=0.25)
    assert slow["mpi.simulator.job_ms"][0] == pytest.approx(750.0)
    assert slow["mpi.simulator.share"][0] == pytest.approx(3.0 / 12.0)
    assert slow["injection.reference_s"][0] == pytest.approx(1.0)


def test_recorder_trial_roots_nest_spans():
    rec = SpanRecorder()
    sid = rec.open("injection.reference")
    rec.close(sid)
    rec.start_trials(1.0)
    rec.close(rec.open("cpu.vm"))
    rec.next_trial(2.0)
    rec.close(rec.open("cpu.vm"))
    rec.next_trial(3.0)
    rec.stop_trials(3.5)
    assert rec.completed == 2
    roots = [s for s in rec.spans if s[2] == ROOT]
    assert [(s[0], s[3], s[4]) for s in roots] == [(1, 1.0, 2.0), (2, 2.0, 3.0), (3, 3.0, 3.5)]
    assert [s[0] for s in rec.spans if s[2] == "cpu.vm"] == [1, 2]
