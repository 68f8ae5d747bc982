"""Layer spans for the traced benchmark run, recorded from outside ``src/``.

:func:`install` replaces the public entry points of each ``repro`` layer
with wrappers that open a span around the original call.  A span is
``[trial, parent, name, start, end]``: ``trial`` 0 is set-up and trials
count from 1; ``parent`` is the index of the enclosing span (-1 for
none).  The runner marks every trial completion with
:meth:`SpanRecorder.next_trial`, which closes the current root span
(``engine.driver``, covering the trial's latency as the runner measures
it) and opens the next, so every span of a trial shares its trial id
and nests under its root.  Probes attached to some wrappers add
per-trial counts (instructions retired, channel bytes, replayed blocks).

Spans stay in memory and are written once, by :meth:`SpanRecorder.dump`.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

ROOT = "engine.driver"


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.trial = 0
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self._root: int | None = None

    def open(self, name: str, start: float | None = None) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(
            [self.trial, parent, name, perf_counter() if start is None else start, None]
        )
        self.stack.append(sid)
        return sid

    def close(self, sid: int, end: float | None = None) -> None:
        self.spans[sid][4] = perf_counter() if end is None else end
        popped = self.stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed while span {popped} is open")

    def count(self, name: str, value: float = 1) -> None:
        self.counts[(self.trial, name)] += value

    # -- trial roots ---------------------------------------------------
    def start_trials(self, t: float) -> None:
        """Begin the trial phase: trial 1's root opens at ``t``."""
        self.trial = 1
        self._root = self.open(ROOT, t)

    def next_trial(self, end: float, start: float | None = None) -> None:
        """A trial completed at ``end``: close its root, and open the
        next one at ``start`` (default ``end``; later when the runner
        does untraced work in between)."""
        self.close(self._root, end)
        self.trial += 1
        self._root = self.open(ROOT, end if start is None else start)

    def stop_trials(self, t: float) -> None:
        """End the trial phase.  The open root covers no completed
        trial; it is closed at ``t`` and its trial id is not counted."""
        if self._root is not None:
            self.close(self._root, t)
            self._root = None

    @property
    def completed(self) -> int:
        return max(self.trial - 1, 0)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "completed": self.completed,
                    "spans": self.spans,
                    "counts": [[t, n, v] for (t, n), v in self.counts.items()],
                },
                fh,
            )


def _wrap(recorder: SpanRecorder, fn, name: str, probe=None):
    """``fn`` inside a span named ``name``.  ``probe(args)``, when given,
    runs before the call and returns a callback run after it (even when
    the call raises) to record counts."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        after = probe(args) if probe is not None else None
        sid = recorder.open(name)
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            recorder.close(sid)
            if after is not None:
                after(out)

    return traced


def _vm_probe(recorder: SpanRecorder):
    def probe(args):
        vm = args[0]
        stats = vm.fastpath_stats
        insns = vm.instructions_retired
        translated = stats["translated_insns"]
        retrans = stats["retranslations"]

        def after(_out):
            recorder.count("cpu.vm.insns_retired", vm.instructions_retired - insns)
            recorder.count(
                "cpu.vm.translated_insns", stats["translated_insns"] - translated
            )
            recorder.count(
                "cpu.translate.retranslations", stats["retranslations"] - retrans
            )

        return after

    return probe


def _job_probe(recorder: SpanRecorder):
    def probe(args):
        job = args[0]

        def after(_out):
            recorder.count(
                "mpi.channel.bytes",
                sum(ep.stats.total_bytes for ep in job.endpoints),
            )

        return after

    return probe


def _replay_probe(recorder: SpanRecorder):
    def probe(args):
        ctx = args[0]

        def after(plan):
            recording = ctx.checkpoint
            if recording is not None:
                recorder.count("engine.checkpoint.golden_blocks", sum(recording.blocks_per_rank))
            if plan is not None:
                recorder.count("engine.checkpoint.blocks_skipped", plan.blocks_skipped)

        return after

    return probe


def targets(recorder: SpanRecorder) -> list[tuple[object, str, str, object]]:
    """``(owner, attribute, span name, probe)`` for every wrapped entry
    point, one or more per ``repro`` layer."""
    from repro.apps import APPLICATION_SUITE, MPIApplication
    from repro.cpu import translate
    from repro.cpu.vm import VM
    from repro.engine import checkpoint, core
    from repro.engine.store import ResultStore
    from repro.engine.store_sqlite import SQLiteResultStore
    from repro.injection.campaign import Campaign
    from repro.mpi.adi import AdiEngine
    from repro.mpi.simulator import Job
    from repro.staticanalysis.outcomes.predictor import OutcomePredictor

    apps = [MPIApplication] + [
        cls for cls in APPLICATION_SUITE.values() if "build_process" in cls.__dict__
    ]
    return [
        (Campaign, "reference", "injection.reference", None),
        (Campaign, "outcome_predictor", "staticanalysis.predictor", None),
        (OutcomePredictor, "stratum", "staticanalysis.stratum", None),
        (checkpoint, "record_golden", "engine.checkpoint.record", None),
        (checkpoint, "prepare_replay", "engine.checkpoint.plan", _replay_probe(recorder)),
        *[(cls, "build_process", "apps.build_process", None) for cls in apps],
        (VM, "call", "cpu.vm", _vm_probe(recorder)),
        (translate, "build_vm_table", "cpu.translate", None),
        (translate, "translation_for", "cpu.translate", None),
        (Job, "run", "mpi.simulator", _job_probe(recorder)),
        (AdiEngine, "progress", "mpi.adi", None),
        (AdiEngine, "send", "mpi.adi", None),
        (AdiEngine, "post_recv", "mpi.adi", None),
        (core, "install", "injection.install", None),
        (core, "classify", "injection.classify", None),
        (ResultStore, "append", "engine.store", None),
        (SQLiteResultStore, "append", "engine.store", None),
    ]


def install(recorder: SpanRecorder) -> None:
    """Wrap every target for the rest of the process."""
    for owner, attr, name, probe in targets(recorder):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, _wrap(recorder, original, name, probe))
