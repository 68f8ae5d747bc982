"""Arithmetic of the benchmark: percentiles, span self times, metrics.

Pure functions over plain data (completion timestamps, span lists), so
the tests in ``perfbench/tests`` check them on synthetic input.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from tracing import ROOT

#: Per-trial layers whose median self time is reported, by metric name.
LAYER_MS = {
    "engine.checkpoint.plan": "engine.checkpoint.plan_ms",
    "apps.build_process": "apps.build_process_ms",
    "cpu.vm": "cpu.vm.call_ms",
    "cpu.translate": "cpu.translate.build_ms",
    "mpi.simulator": "mpi.simulator.job_ms",
    "mpi.adi": "mpi.adi.ms",
    "injection.install": "injection.install_ms",
    "injection.classify": "injection.classify_ms",
    "engine.store": "engine.store.append_ms",
    ROOT: "engine.driver.self_ms",
}
#: Every layer that can hold trial time; each gets a ``<layer>.share``.
TRIAL_LAYERS = tuple(LAYER_MS) + ("staticanalysis.stratum",)
#: Layers whose call count per trial is reported (outermost spans only).
CALL_COUNTS = {
    "apps.build_process": "apps.build_process_calls",
    "cpu.vm": "cpu.vm.calls",
    "mpi.adi": "mpi.adi.calls",
}
#: Share of the traced trial time the layers other than ``engine.driver``
#: must account for.  All four workloads show 0.97 to 0.99; the margin
#: leaves room for a later speed-up of the wrapped layers.
MIN_LAYER_COVERAGE = 0.8
#: Set-up phases reported as the inclusive duration of their span.
SETUP_SPANS = {
    "injection.reference": "injection.reference_s",
    "engine.checkpoint.record": "engine.checkpoint.record_s",
    "staticanalysis.predictor": "staticanalysis.predictor_s",
}


def percentile(values, p: float) -> float:
    """Linearly interpolated percentile (the ``inclusive`` method of
    :func:`statistics.quantiles`)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    rank = (len(xs) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def gaps(times: list[float], resumes: list[float]) -> list[float]:
    """Each trial's latency: from the point the previous trial handed
    back (``resumes``; 0 for the first) to its own completion."""
    starts = [0.0] + resumes[:-1]
    return [t - s for t, s in zip(times, starts)]


def trial_metrics(gaps_s: list[float]) -> dict:
    """End-to-end trial metrics from per-trial latencies in seconds."""
    gaps_ms = [1000.0 * g for g in gaps_s]
    n = len(gaps_ms)
    return {
        "trials_per_s": (n / sum(gaps_s), "1/s", n),
        "trial_ms_p50": (percentile(gaps_ms, 50), "ms", n),
        "trial_ms_p90": (percentile(gaps_ms, 90), "ms", n),
    }


def projected_time_to_d(
    setup_s: float, gaps_s: list[float], regions: list[str], adaptive_n: dict
) -> float:
    """Set-up plus, for each region, the trials ``campaign run
    --target-d`` needs (``adaptive_n``, from the oracle) times this
    run's mean trial latency in that region."""
    by_region: dict[str, list[float]] = defaultdict(list)
    for gap, region in zip(gaps_s, regions):
        by_region[region].append(gap)
    return setup_s + sum(
        n * statistics.fmean(by_region[region]) for region, n in adaptive_n.items()
    )


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def self_times(spans: list) -> dict[tuple[int, str], float]:
    """``(trial, name) -> seconds``: each span's duration minus the
    durations of its direct children, summed per trial and name."""
    child = [0.0] * len(spans)
    for trial, parent, name, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[tuple[int, str], float] = defaultdict(float)
    for sid, (trial, parent, name, start, end) in enumerate(spans):
        out[(trial, name)] += (end - start) - child[sid]
    return out


def check_spans(spans: list, tol: float = 1e-6) -> list[str]:
    """Problems that would make span self times meaningless: a span left
    open, outside its parent, or outside its trial."""
    problems = []
    for sid, (trial, parent, name, start, end) in enumerate(spans):
        if end is None or end < start:
            problems.append(f"span {sid} ({name}) is not closed properly")
            continue
        if parent < 0:
            if trial >= 1 and name != ROOT:
                problems.append(f"span {sid} ({name}) of trial {trial} has no root")
            continue
        ptrial, _, pname, pstart, pend = spans[parent]
        if ptrial != trial:
            problems.append(f"span {sid} ({name}) crosses trials {ptrial}->{trial}")
        elif start < pstart - tol or end > pend + tol:
            problems.append(f"span {sid} ({name}) escapes its parent {pname}")
    return problems


def check_coverage(metrics: dict) -> list[str]:
    """A problem if the named layers cover less than
    ``MIN_LAYER_COVERAGE`` of the traced trial time, i.e. the tracer
    misses work that ``engine.driver`` (the root's self time) absorbs."""
    covered = 1.0 - metrics[f"{ROOT}.share"][0]
    if covered >= MIN_LAYER_COVERAGE:
        return []
    return [
        f"named layers cover {covered:.3f} of the traced trial time, "
        f"below {MIN_LAYER_COVERAGE}"
    ]


def root_walls(spans: list, completed: int) -> dict[int, float]:
    """Wall time of each completed trial (its root span's duration)."""
    return {
        trial: end - start
        for trial, parent, name, start, end in spans
        if name == ROOT and parent < 0 and 1 <= trial <= completed
    }


def _outermost(spans: list, name: str):
    """Spans named ``name`` whose parent is not also named ``name``."""
    for trial, parent, sname, start, end in spans:
        if sname == name and (parent < 0 or spans[parent][2] != name):
            yield trial, end - start


def layer_metrics(dump: dict, speeds: list[float] | None = None, setup_speed: float = 1.0) -> dict:
    """Per-layer metrics of one traced run: ``name -> (value, unit, n)``.

    Times of trial ``t`` are multiplied by ``speeds[t - 1]`` and set-up
    times by ``setup_speed`` (the calibration factors; default 1)."""
    spans, completed = dump["spans"], dump["completed"]
    if completed < 1:
        raise ValueError("the traced run completed no trial")
    trials = range(1, completed + 1)
    factor = {0: setup_speed} | {t: speeds[t - 1] if speeds else 1.0 for t in trials}
    selfs = {
        (t, name): value * factor[t]
        for (t, name), value in self_times(spans).items()
        if t in factor
    }
    walls = {t: wall * factor[t] for t, wall in root_walls(spans, completed).items()}
    total_wall = sum(walls.values())
    counts: dict[str, float] = defaultdict(float)
    for trial, name, value in dump["counts"]:
        if 1 <= trial <= completed:
            counts[name] += value

    out = {}
    for layer, metric in LAYER_MS.items():
        per_trial = [1000.0 * selfs.get((t, layer), 0.0) for t in trials]
        out[metric] = (statistics.median(per_trial), "ms", completed)
    for layer in TRIAL_LAYERS:
        share = sum(selfs.get((t, layer), 0.0) for t in trials) / total_wall
        out[f"{layer}.share"] = (share, "fraction", completed)
    for layer, metric in CALL_COUNTS.items():
        calls = sum(1 for t, _ in _outermost(spans, layer) if 1 <= t <= completed)
        out[metric] = (calls / completed, "count/trial", completed)
    for name, metric in SETUP_SPANS.items():
        secs = float(sum(d for t, d in _outermost(spans, name) if t == 0))
        out[metric] = (secs * setup_speed, "s", 1)

    stratum = [
        d * factor[t]
        for t, d in _outermost(spans, "staticanalysis.stratum")
        if 1 <= t <= completed
    ]
    out["staticanalysis.stratum_ms"] = (
        1000.0 * statistics.fmean(stratum) if stratum else 0.0, "ms", len(stratum)
    )
    out["staticanalysis.pool_specs"] = (float(len(stratum)), "count", 1)

    insns = counts["cpu.vm.insns_retired"]
    out["cpu.vm.insns_retired"] = (insns / completed, "count/trial", completed)
    out["cpu.vm.translated_insn_frac"] = (
        counts["cpu.vm.translated_insns"] / insns if insns else 0.0,
        "fraction",
        completed,
    )
    out["cpu.translate.retranslations"] = (
        counts["cpu.translate.retranslations"] / completed, "count/trial", completed
    )
    out["mpi.channel.bytes"] = (
        counts["mpi.channel.bytes"] / completed, "bytes/trial", completed
    )
    golden = counts["engine.checkpoint.golden_blocks"]
    out["engine.checkpoint.blocks_skipped_frac"] = (
        counts["engine.checkpoint.blocks_skipped"] / golden if golden else 0.0,
        "fraction",
        completed,
    )
    return out
