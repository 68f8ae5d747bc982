"""Distributed execution: lease bookkeeping, the leased executor's wire
protocol, and end-to-end worker equivalence.

The load-bearing claim mirrors the executor suite's: a campaign whose
executor is a coordinator plus any number of workers produces region
tallies (and a store) bit-identical to the same campaign run locally.
The LeaseBook units pin the state machine with an explicit clock; the
protocol tests drive the executor's payloads directly; the equivalence
tests run the driver on a thread against a real HTTP server and two
in-process workers that take turns batch by batch.
"""

import json
import sys
import threading

import pytest

from repro.engine.coordination import (
    LeaseBook,
    WorkerClient,
    WorkerError,
    coordinator_url,
)
from repro.engine.trial import TrialResult
from repro.injection.campaign import Campaign
from repro.injection.faults import Region
from repro.injection.outcomes import Manifestation
from repro.observability.metrics import MetricsRegistry, render_prometheus
from repro.observability.serve import TelemetryHub, TelemetryServer
from tests.conftest import SMALL_NPROCS, SMALL_WAVETOY

REGIONS = (Region.MESSAGE, Region.STACK)
N = 6


def small_campaign():
    return Campaign.from_registry(
        "wavetoy", nprocs=SMALL_NPROCS, app_params=SMALL_WAVETOY
    )


@pytest.fixture(scope="module")
def reference():
    """The local-run baseline: same campaign, ``jobs=2``, no store."""
    return small_campaign().run(REGIONS, N, jobs=2, checkpoint_stride=None)


class TestLeaseBook:
    def test_grants_lowest_pending_once(self):
        book = LeaseBook([0, 1, 2], lease_timeout=10.0)
        assert book.lease("a", now=0.0) == 0
        assert book.lease("b", now=1.0) == 1
        assert book.lease("c", now=2.0) == 2
        assert book.lease("d", now=3.0) is None  # all leased, none expired
        assert (book.pending, book.leased, book.done) == (0, 3, 0)

    def test_expiry_requeues_and_regrants(self):
        book = LeaseBook([0], lease_timeout=10.0)
        assert book.lease("a", now=0.0) == 0
        assert book.lease("b", now=9.9) is None  # within the window
        assert book.lease("b", now=10.0) == 0  # deadline passed
        assert book.requeues == 1

    def test_ack_idempotent_and_late(self):
        book = LeaseBook([0, 1], lease_timeout=5.0)
        book.lease("a", now=0.0)
        assert book.ack(0, now=1.0) is True
        assert book.ack(0, now=2.0) is False
        # A presumed-dead worker's late ack (post-expiry, post-regrant)
        # still completes the batch.
        book.lease("b", now=0.0)  # batch 1
        book.expire(now=100.0)
        assert book.lease("c", now=100.0) == 1
        assert book.ack(1, now=101.0) is True
        assert book.all_done

    def test_done_batches_never_regrant(self):
        book = LeaseBook([0], lease_timeout=1.0)
        book.lease("a", now=0.0)
        book.ack(0, now=0.5)
        assert book.lease("b", now=100.0) is None
        assert book.requeues == 0

    def test_snapshot_accounting(self):
        book = LeaseBook([0, 1, 2], lease_timeout=10.0)
        book.lease("a", now=0.0)
        book.ack(0, now=1.0)
        book.lease("b", now=2.0)
        snap = book.snapshot(now=4.0)
        assert (snap["pending"], snap["leased"], snap["done"]) == (1, 1, 1)
        (lease,) = snap["leases"]
        assert lease["worker"] == "b"
        assert lease["expires_in"] == pytest.approx(8.0)

    def test_bad_timeout_rejected(self):
        with pytest.raises(ValueError):
            LeaseBook([0], lease_timeout=0.0)


def result_for(spec, **overrides):
    fields = dict(
        key=spec.key,
        app=spec.app,
        region=spec.region,
        index=spec.index,
        manifestation=Manifestation.CORRECT,
        delivered=True,
    )
    fields.update(overrides)
    return TrialResult(**fields)


class TestCoordinatorProtocol:
    """Lease payloads and submission validation - no trial is ever
    executed here, so these run on a bare engine with a fake clock."""

    def _open(self, clock=None, metrics=None, **kwargs):
        """A leased executor with every campaign spec opened in one
        ``run`` call; returns the executor, the specs and the ordered
        result iterator."""
        engine = small_campaign().engine(metrics=metrics)
        kwargs.setdefault("batch_size", 4)
        if clock is not None:
            kwargs["clock"] = clock
        executor = engine.distribute(**kwargs)
        specs = [
            engine.make_spec(region, i) for region in REGIONS for i in range(N)
        ]
        return executor, specs, executor.run(specs)

    def _submit_all(self, executor, grant, specs_by_key):
        return executor.submit(
            "w",
            grant["batch"],
            [result_for(specs_by_key[key]).to_json()
             for _, _, key in grant["trials"]],
        )

    def test_batches_partition_all_specs(self):
        executor, specs, _ = self._open()
        batched = [
            key for bid in sorted(executor._batches)
            for key in executor._batches[bid]
        ]
        assert batched == [spec.key for spec in specs]
        assert len(specs) == len(REGIONS) * N
        assert all(len(batch) <= 4 for batch in executor._batches.values())

    def test_manifest_carries_execution_identity(self):
        executor, _, _ = self._open()
        manifest = executor.manifest
        assert manifest["app"] == "wavetoy"
        assert manifest["nprocs"] == SMALL_NPROCS
        assert manifest["app_params"] == SMALL_WAVETOY
        assert manifest["execution"]["eager_threshold"] > 0
        assert manifest["metrics"] is False
        assert json.dumps(manifest)  # wire format is plain JSON

    def test_lease_then_wait_then_done(self):
        now = [0.0]
        executor, specs, results = self._open(clock=lambda: now[0])
        by_key = {spec.key: spec for spec in specs}
        grants = []
        while True:
            payload = executor.lease_payload("w")
            if "batch" not in payload:
                break
            # Leases carry JSON [region, index, key] triples, no specs.
            assert json.loads(json.dumps(payload)) == payload
            grants.append(payload)
        assert payload == {"wait": 0.0}  # all leased out
        for grant in grants:
            reply = self._submit_all(executor, grant, by_key)
            assert reply["accepted"] == len(grant["trials"])
        assert executor.book.all_done
        assert [r.key for r in results] == [s.key for s in specs]
        # Between dispatch waves workers wait; only close says done.
        assert executor.lease_payload("w") == {"wait": 0.0}
        executor.close()
        assert executor.lease_payload("w") == {"done": True}

    def test_submit_validation(self):
        executor, specs, _ = self._open()
        grant = executor.lease_payload("w")
        leased = executor._batches[grant["batch"]]
        first = next(iter(leased.values()))
        foreign = next(s for s in specs if s.key not in leased)
        good = result_for(first).to_json()
        reply = executor.submit(
            "w",
            grant["batch"],
            [
                good,
                good,  # duplicate of the same key in one submission
                result_for(foreign).to_json(),  # not leased in this batch
                {"key": "garbage"},  # unparseable
            ],
        )
        assert reply["accepted"] == 1
        assert reply["duplicate"] == 1
        assert reply["rejected"] == 2
        # Partial batch: not acknowledged yet.
        assert not executor.book.state(grant["batch"]) == "done"
        assert "error" in executor.submit("w", 999, [])

    def test_forged_attribution_rejected(self):
        """A result filed under a leased key must describe that key's
        trial: another region, index or app would put a store line
        under the wrong execution."""
        executor, _, _ = self._open()
        grant = executor.lease_payload("w")
        spec = next(iter(executor._batches[grant["batch"]].values()))
        assert spec.region is Region.MESSAGE
        forged = [
            result_for(spec, region=Region.STACK, index=99).to_json(),
            result_for(spec, region=Region.STACK).to_json(),
            result_for(spec, index=spec.index + 1).to_json(),
            result_for(spec, app="climate").to_json(),
        ]
        reply = executor.submit("w", grant["batch"], forged)
        assert (reply["accepted"], reply["rejected"]) == (0, len(forged))
        assert executor.book.state(grant["batch"]) == "leased"
        assert spec.key not in executor._results

    def test_malformed_metrics_rejected(self):
        executor, _, _ = self._open(metrics=MetricsRegistry())
        assert executor.manifest["metrics"] is True
        grant = executor.lease_payload("w")
        spec = next(iter(executor._batches[grant["batch"]].values()))
        bare = result_for(spec).to_json()  # metrics were requested
        broken = dict(bare, metrics={"counters": "not a mapping"})
        reply = executor.submit("w", grant["batch"], [bare, broken])
        assert (reply["accepted"], reply["rejected"]) == (0, 2)
        snapshot = MetricsRegistry()
        snapshot.counter("repro_demo_total").inc()
        good = dict(bare, metrics=snapshot.snapshot().to_json())
        assert executor.submit("w", grant["batch"], [good])["accepted"] == 1
        assert executor._results[spec.key].metrics == snapshot.snapshot()

    def test_requeued_batch_counts_once(self):
        now = [0.0]
        executor, specs, _ = self._open(
            clock=lambda: now[0], lease_timeout=5.0
        )
        by_key = {spec.key: spec for spec in specs}
        grant = executor.lease_payload("dead")
        now[0] = 10.0  # the lease expires; a second worker regrants
        regrant = executor.lease_payload("alive")
        assert regrant["batch"] == grant["batch"]
        assert regrant["attempt"] == 2
        first = self._submit_all(executor, regrant, by_key)
        late = self._submit_all(executor, grant, by_key)
        assert first["accepted"] == len(grant["trials"])
        assert late["accepted"] == 0
        assert late["duplicate"] == len(grant["trials"])
        assert executor.requeues == 1

    def test_concurrent_workers_fold_each_key_once(self):
        """Eight threads lease and submit every batch twice while the
        driver consumes: each key is accepted once and yielded once, in
        spec order."""
        executor, specs, results = self._open(batch_size=1)
        by_key = {spec.key: spec for spec in specs}
        replies = []

        def worker(name):
            while True:
                grant = executor.lease_payload(name, block=0.05)
                if grant.get("done"):
                    return
                if "batch" in grant:
                    for _ in range(2):
                        replies.append(self._submit_all(executor, grant, by_key))

        got = []
        consumer = threading.Thread(
            target=lambda: got.extend(r.key for r in results)
        )
        threads = [
            threading.Thread(target=worker, args=(f"w{i}",)) for i in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in [consumer, *threads]:
                thread.start()
            consumer.join(timeout=60)
            assert not consumer.is_alive()
            executor.close()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
        finally:
            executor.close()
            sys.setswitchinterval(interval)
        assert got == [spec.key for spec in specs]
        assert sum(r["accepted"] for r in replies) == len(specs)
        assert sum(r["duplicate"] for r in replies) == len(specs)

    def test_finalize_requires_completion(self):
        """The ordered results never complete without every trial: a
        closed executor with trials outstanding raises instead."""
        executor, _, results = self._open()
        executor.close()
        with pytest.raises(RuntimeError, match="outstanding"):
            next(results)

    def test_coordinator_url_forms(self):
        assert coordinator_url("9200") == "http://127.0.0.1:9200"
        assert coordinator_url("0.0.0.0:81") == "http://0.0.0.0:81"
        assert coordinator_url("http://h:9/") == "http://h:9"


def run_distributed(engine, regions, n, *, batch_size=4, **run_kwargs):
    """Drive ``engine.run`` on a thread with a leased executor while two
    in-process workers take turns, one batch each; returns the campaign
    result, the executor and per-worker stats.

    The workers alternate in this thread rather than running
    concurrently (trial execution scopes a per-process observability
    runtime, so concurrent clients belong in separate processes - the
    chaos integration test runs them that way); the executor still
    sees an interleaved multi-worker submission stream.
    """
    executor = engine.distribute(batch_size=batch_size, lease_timeout=60.0)
    server = TelemetryServer(engine.telemetry, routes=executor).start()
    box = {}

    def drive():
        try:
            with engine:
                box["result"] = engine.run(regions, n, **run_kwargs)
        except Exception as exc:  # re-raised in the test thread
            box["error"] = exc

    thread = threading.Thread(target=drive, daemon=True)
    thread.start()
    stats = {"w0": [0, 0], "w1": [0, 0]}
    try:
        turn = 0
        while thread.is_alive():
            name = f"w{turn % 2}"
            done = WorkerClient(
                server.url, name=name, poll_interval=0.05, max_batches=1
            ).run()
            stats[name][0] += done.batches
            stats[name][1] += done.trials
            turn += 1
        thread.join()
    finally:
        server.stop()
    if "error" in box:
        raise box["error"]
    return box["result"], executor, stats


def sorted_lines(path):
    return sorted(path.read_text().splitlines())


class TestDistributedEquivalence:
    """Coordinator + two HTTP workers == one local run, bit for bit."""

    def _engine(self, tmp_path, store_name, **kwargs):
        return small_campaign().engine(
            telemetry=TelemetryHub(), store=tmp_path / store_name, **kwargs
        )

    def test_tallies_and_store_match_local_run(self, tmp_path, reference):
        local = small_campaign().run(
            REGIONS, N, jobs=2, store=tmp_path / "local.jsonl",
            checkpoint_stride=None,
        )
        engine = self._engine(tmp_path, "dist.jsonl")
        distributed, _, stats = run_distributed(engine, REGIONS, N)
        for region in REGIONS:
            a, b = local.regions[region], distributed.regions[region]
            assert dict(a.tally.counts) == dict(b.tally.counts)
            assert a.delivered == b.delivered
            assert a.resumed == b.resumed == 0
            assert a.pruned == b.pruned == 0
            # And both equal the module baseline.
            ref = reference.regions[region]
            assert dict(ref.tally.counts) == dict(b.tally.counts)
        # Byte-identical stores (modulo append order).
        assert sorted_lines(tmp_path / "local.jsonl") == sorted_lines(
            tmp_path / "dist.jsonl"
        )
        # Both workers did real work, and every batch went to somebody.
        assert all(batches >= 1 for batches, _ in stats.values())
        assert sum(batches for batches, _ in stats.values()) == 4
        assert sum(trials for _, trials in stats.values()) == len(REGIONS) * N
        # The coordinator's live telemetry folded every submission.
        payload = engine.telemetry.status_payload()
        assert sum(r["trials"] for r in payload["regions"]) == len(REGIONS) * N

    def test_prune_masked_matches_local_run(self, tmp_path):
        regions = (Region.TEXT, Region.DATA)
        local = small_campaign().run(
            regions, 8, store=tmp_path / "local.jsonl", prune_masked=True
        )
        engine = self._engine(tmp_path, "dist.jsonl", prune_masked=True)
        distributed, _, stats = run_distributed(engine, regions, 8)
        for region in regions:
            a, b = local.regions[region], distributed.regions[region]
            assert dict(a.tally.counts) == dict(b.tally.counts)
            assert a.pruned == b.pruned
        pruned = sum(r.pruned for r in distributed.regions.values())
        assert pruned > 0
        # Pruned trials were tallied by the driver, never leased.
        leased = sum(trials for _, trials in stats.values())
        assert leased == len(regions) * 8 - pruned
        assert sorted_lines(tmp_path / "local.jsonl") == sorted_lines(
            tmp_path / "dist.jsonl"
        )

    def test_stratified_fixed_n_matches_local_run(self, tmp_path):
        regions = (Region.TEXT,)
        local = small_campaign().run(
            regions, 24, store=tmp_path / "local.jsonl", stratify=True
        )
        engine = self._engine(tmp_path, "dist.jsonl", stratify=True)
        distributed, _, _ = run_distributed(engine, regions, 24)
        a, b = local.regions[Region.TEXT], distributed.regions[Region.TEXT]
        assert dict(a.tally.counts) == dict(b.tally.counts)
        assert a.stratified == b.stratified
        assert sorted_lines(tmp_path / "local.jsonl") == sorted_lines(
            tmp_path / "dist.jsonl"
        )

    def test_adaptive_target_d_matches_local_jobs1(self, tmp_path):
        local = small_campaign().run(
            REGIONS, None, store=tmp_path / "local.jsonl", target_d=0.2,
            checkpoint_stride=None,
        )
        engine = self._engine(tmp_path, "dist.jsonl")
        distributed, _, _ = run_distributed(
            engine, REGIONS, None, target_d=0.2
        )
        for region in REGIONS:
            a, b = local.regions[region], distributed.regions[region]
            assert a.executions == b.executions
            assert dict(a.tally.counts) == dict(b.tally.counts)
            assert a.adaptive_d == b.adaptive_d
        assert sorted_lines(tmp_path / "local.jsonl") == sorted_lines(
            tmp_path / "dist.jsonl"
        )

    def test_metrics_match_local_run(self, tmp_path):
        local_metrics = MetricsRegistry()
        small_campaign().run(
            REGIONS, N, metrics=local_metrics, log_interval=2,
            checkpoint_stride=16,
        )
        metrics = MetricsRegistry()
        engine = small_campaign().engine(
            metrics=metrics,
            log_interval=2,
            checkpoint_stride=16,
            telemetry=TelemetryHub(registry=metrics),
        )
        run_distributed(engine, REGIONS, N)
        text = render_prometheus(metrics)
        assert "repro_vm_" in text  # worker-side series crossed the wire
        assert text == render_prometheus(local_metrics)

    def test_resume_satisfies_everything_locally(self, tmp_path, reference):
        small_campaign().run(
            REGIONS, N, jobs=2, store=tmp_path / "full.jsonl",
            checkpoint_stride=None,
        )
        engine = self._engine(tmp_path, "full.jsonl")
        result, executor, stats = run_distributed(
            engine, REGIONS, N, resume=True
        )
        # Nothing was leased: the store already held every trial.
        assert executor._next_batch == 0
        assert all(batches == 0 for batches, _ in stats.values())
        for region in REGIONS:
            row = result.regions[region]
            assert row.resumed == N
            assert dict(row.tally.counts) == dict(
                reference.regions[region].tally.counts
            )


class TestWorkerIdentity:
    """A worker refuses to execute under an identity that differs from
    the coordinator's."""

    def _serve(self):
        engine = small_campaign().engine(telemetry=TelemetryHub())
        executor = engine.distribute(batch_size=4)
        server = TelemetryServer(engine.telemetry, routes=executor).start()
        return engine, executor, server

    @pytest.mark.parametrize("field", ["eager_threshold", "block_limit"])
    def test_tampered_manifest_refused(self, field):
        engine, executor, server = self._serve()
        executor.manifest["execution"][field] += 1
        try:
            with pytest.raises(WorkerError, match=field):
                WorkerClient(server.url, poll_interval=0.05).run()
        finally:
            executor.close()
            server.stop()

    def test_lease_key_mismatch_refused(self):
        engine, executor, server = self._serve()
        spec = engine.make_spec(Region.STACK, 0)
        executor.run([spec])
        bid = next(iter(executor._batches))
        executor._batches[bid] = {"0" * 64: spec}  # a key the worker can't derive
        try:
            with pytest.raises(WorkerError, match="key"):
                WorkerClient(server.url, poll_interval=0.05).run()
        finally:
            executor.close()
            server.stop()
