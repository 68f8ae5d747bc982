"""One benchmark sample in a fresh interpreter: set-up, then trials.

``run.py`` starts one of these per sample, so module-level caches (the
predictor, translation, primed-text and golden-recording caches) never
carry over from one sample to the next.  Set-up covers everything up to
the moment the first trial can dispatch, including the golden-run
recording, which is forced here rather than inside the first trial.

    python3 perfbench/worker.py --workload NAME --seed N --mode measure \\
        --seconds S --t0 T --work DIR [--trace] [--max-trials K] [--golden]

``--t0`` is the caller's ``time.monotonic()`` just before it started
this process; set-up time is measured from it.  The calibration kernel
(``calibration.py``) is sampled between set-up phases, after every
trial and around every golden run.
The result is written to ``DIR/result.json`` (and the spans of a traced
run to ``DIR/spans.json``).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import calibration
from workloads import CAMPAIGN_SEED, CHECKPOINT_STRIDE, NPROCS, TARGET_D, WORKLOADS


class StopTrials(Exception):
    """Raised through the engine once ``--max-trials`` trials completed."""


#: Fault-free runs timed for the ZOFI ratio ``engine.overhead_x``.
GOLDEN_RUNS = 3
#: ``peak_rss_mb`` is read when this many trials completed (or at the end
#: of a shorter phase), so it covers the same work on any machine.
RSS_AT_TRIALS = 200


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class TrialClock:
    """Timestamps every result the executor yields (a trial completion
    as the runner sees it) and marks it on the span recorder.

    The calibration kernel runs after each completion; the next trial's
    interval (and root span) starts when it returns (``resumes``), so
    kernel time is in no trial.
    """

    def __init__(self, executor, recorder=None, max_trials=None) -> None:
        self._run = executor.run
        executor.run = self.run
        self.recorder = recorder
        self.max_trials = max_trials
        self.times: list[float] = []
        self.resumes: list[float] = []
        self.kernel_s: list[float] = []
        self.regions: list[str] = []
        self.rss_mb: float | None = None

    def run(self, specs):
        for result in self._run(specs):
            t = time.perf_counter()
            self.times.append(t)
            self.regions.append(result.region.value)
            if len(self.times) == RSS_AT_TRIALS:
                self.rss_mb = peak_rss_mb()
            self.kernel_s.append(calibration.sample(calibration.TRIAL_REPEATS))
            self.resumes.append(time.perf_counter())
            if self.recorder is not None:
                self.recorder.next_trial(t, self.resumes[-1])
            yield result
            if self.max_trials is not None and len(self.times) >= self.max_trials:
                raise StopTrials


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure"), default="measure")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--max-trials", type=int, default=None)
    ap.add_argument("--golden", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--t0", type=float, default=None)
    ap.add_argument("--work", required=True)
    args = ap.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.monotonic()
    w = WORKLOADS[args.workload]
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    # Set-up is timed in phases, each bracketed by calibration samples
    # whose own time is not set-up; ``setup_ref_s`` scales every phase
    # by its bracket, as trials are scaled.
    phases = {"startup_s": time.monotonic() - t0}
    kernel = [calibration.sample()]

    def lap(name: str, since: float) -> float:
        phases[name] = time.monotonic() - since
        kernel.append(calibration.sample())
        return time.monotonic()

    t = time.monotonic()
    recorder = None
    if args.trace:
        from tracing import SpanRecorder, install

        recorder = SpanRecorder()
        install(recorder)
    from repro.injection.campaign import Campaign
    from repro.injection.faults import Region

    t = lap("import_s", t)
    campaign = Campaign.from_registry(w.app, nprocs=NPROCS, seed=CAMPAIGN_SEED)
    campaign.reference(fastpath=w.fastpath)
    t = lap("reference_s", t)
    if w.stratify:
        campaign.outcome_predictor()
        t = lap("predictor_s", t)
    store = work / w.store_name
    engine = campaign.engine(
        jobs=1,
        store=store,
        checkpoint_stride=CHECKPOINT_STRIDE,
        fastpath=w.fastpath,
        stratify=w.stratify,
        prune_masked=w.prune_masked,
    )
    t = lap("engine_s", t)
    executor = engine.executor()
    lap("record_s", t)
    result = {
        "setup_s": sum(phases.values()),
        "setup_ref_s": sum(
            d * f for d, f in zip(phases.values(), calibration.speed_factors(kernel))
        ),
        "phases": phases,
    }
    if args.mode == "setup":
        engine.close()
        (work / "result.json").write_text(json.dumps(result))
        return 0

    clock = TrialClock(executor, recorder, args.max_trials)
    errors: list[tuple[str, str]] = []
    attempted: list[str] = []
    complete = stopped = False
    phase_start = time.perf_counter()
    if recorder is not None:
        recorder.start_trials(phase_start)
    if w.uniform:
        deadline = phase_start + args.seconds
        for region, index in w.trial_order(args.seed):
            if len(attempted) == args.max_trials or time.perf_counter() >= deadline:
                break
            spec = engine.make_spec(Region(region), index)
            attempted.append(spec.key)
            try:
                for trial in executor.run([spec]):
                    engine.store.append(trial)
            except StopTrials:
                stopped = True
            except Exception as exc:  # a trial raising out of the engine fails
                errors.append((spec.key, f"{type(exc).__name__}: {exc}"))
    else:
        try:
            engine.run([Region(r) for r in w.region_order(args.seed)], target_d=TARGET_D)
            complete = True
        except StopTrials:
            stopped = True
        except Exception as exc:  # the campaign died: every missing line fails
            errors.append(("campaign", f"{type(exc).__name__}: {exc}"))
    phase_end = time.perf_counter()
    if recorder is not None:
        recorder.stop_trials(phase_end)
    result["peak_rss_mb"] = clock.rss_mb if clock.rss_mb is not None else peak_rss_mb()
    engine.close()

    if args.golden:
        # The ZOFI reference point: warm fault-free runs in this mode.
        from repro.mpi.simulator import Job

        ctx = engine.context
        golden = []
        for _ in range(GOLDEN_RUNS):
            before = calibration.sample(calibration.TRIAL_REPEATS)
            g0 = time.perf_counter()
            Job(ctx.factory(), ctx.job_config()).run()
            g1 = time.perf_counter()
            after = calibration.sample(calibration.TRIAL_REPEATS)
            speed = 2 * calibration.REFERENCE_KERNEL_S / (before + after)
            golden.append((g1 - g0) * speed)
        result["golden_ms"] = 1000.0 * statistics.median(golden)

    result.update(
        phase_s=phase_end - phase_start,
        completions=[t - phase_start for t in clock.times],
        resumes=[t - phase_start for t in clock.resumes],
        kernel_s=clock.kernel_s,
        regions=clock.regions,
        attempted_keys=attempted if w.uniform else None,
        complete=complete,
        stopped=stopped,
        errors=errors,
        store=store.name,
    )
    if recorder is not None:
        recorder.dump(work / "spans.json")
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
