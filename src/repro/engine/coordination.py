"""Distributed campaign execution: leased trial batches over HTTP.

A distributed campaign is a local campaign whose executor happens to
be a fleet.  The driver (:class:`~repro.engine.driver.CampaignEngine`)
still plans every trial, resolves store and prune hits, tallies, and
feeds every sink; only the trials it would otherwise execute itself go
over the wire.  This module supplies that executor and its workers,
on top of the telemetry HTTP stack:

* :class:`LeaseBook` - the pure lease state machine.  Batches move
  ``pending -> leased(deadline) -> done``; a lease that outlives its
  deadline is requeued, so a dead or hung worker's batch is eventually
  re-served to a live one.  Time is injected explicitly, which makes
  the machine property-testable under arbitrary interleavings.
* :class:`LeasedExecutor` - the same ``run(specs)``/``close()``/``jobs``
  interface as the serial and process-pool executors.  Each ``run``
  call turns the driver's missing specs into lease-book batches, serves
  them at ``/lease``, folds ``/submit`` results idempotently by trial
  key, and yields them in spec order - so tallies, stores and merged
  metrics are bit-identical to a local run by the same argument that
  makes worker count irrelevant locally.
* :class:`WorkerClient` - ``campaign work COORD:PORT``: rebuilds the
  campaign from ``/manifest``, refuses any execution-identity drift,
  executes leased trials through the one ``execute_trial`` authority
  and pushes results back.

The wire is plain JSON in both directions.  A lease names its trials
as ``[region, index, key]`` triples; the worker re-derives each spec
with ``make_spec(region, index)`` and refuses a key mismatch.  A
submission is validated against the leased spec (key, app, region and
index), and duplicate keys (a requeued batch delivered twice) are
dropped, so a confused or duplicate worker cannot misattribute, corrupt
or double-count a trial.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.engine.trial import TrialResult, TrialSpec
from repro.injection.faults import Region
from repro.observability.metrics import MetricsSnapshot

#: Version stamped into the ``/manifest`` and ``/work`` payloads and
#: checked by workers before executing anything (2: leases are JSON
#: ``[region, index, key]`` triples).
WORK_SCHEMA_VERSION = 2

#: Default trials per leased batch.
DEFAULT_BATCH_SIZE = 8

#: Default lease deadline in seconds: a batch not acknowledged within
#: this window is requeued for another worker.
DEFAULT_LEASE_TIMEOUT = 60.0

#: Seconds a ``/lease`` request is held open waiting for a batch
#: (long poll) before answering "wait": between the driver's dispatch
#: waves workers stay parked on the server instead of sleeping blind.
LEASE_POLL_SECONDS = 1.0

#: Seconds the coordinator keeps answering "done" after the campaign
#: completes, so idle workers exit cleanly instead of finding no server.
LINGER_SECONDS = 3.0

#: Seconds a worker waits between polls when no batch is pending.
DEFAULT_POLL_INTERVAL = 0.5

#: Consecutive connection failures a worker tolerates (the coordinator
#: may not be up yet, or may be briefly unreachable) before giving up.
CONNECT_RETRIES = 40

#: Test hook: a worker sleeps this many seconds after leasing a batch
#: and before executing it.  Lets the chaos suite park a worker
#: mid-batch deterministically, then SIGKILL it.
HOLD_ENV = "REPRO_WORK_HOLD_SECONDS"

PENDING = "pending"
LEASED = "leased"
DONE = "done"


@dataclass
class _Lease:
    state: str = PENDING
    worker: str | None = None
    deadline: float | None = None
    #: Times this batch was granted (first lease plus every regrant).
    grants: int = 0


class LeaseBook:
    """Deadline-leased batch bookkeeping with injected time.

    Guarantees (property-tested in ``tests/props``):

    * a batch is never granted to two workers at once *within* a lease
      window - a regrant happens only after the previous deadline;
    * every batch is eventually grantable while not done (expiry always
      returns it to pending), so no trial is ever lost to a dead
      worker;
    * ``ack`` is idempotent and accepts late acknowledgements from
      presumed-dead workers (their results are valid by determinism;
      the executor's key-dedup fold prevents double counting).
    """

    def __init__(
        self, batch_ids: Iterable[int], lease_timeout: float = DEFAULT_LEASE_TIMEOUT
    ) -> None:
        if lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be positive: {lease_timeout}")
        self.lease_timeout = lease_timeout
        self._leases: dict[int, _Lease] = {
            bid: _Lease() for bid in sorted(batch_ids)
        }
        #: Leases returned to pending after their deadline passed.
        self.requeues = 0

    # -- state transitions --------------------------------------------
    def expire(self, now: float) -> list[int]:
        """Requeue every lease whose deadline has passed; returns the
        requeued batch ids."""
        requeued = []
        for bid, lease in self._leases.items():
            if lease.state == LEASED and lease.deadline is not None and (
                now >= lease.deadline
            ):
                lease.state = PENDING
                lease.worker = None
                lease.deadline = None
                self.requeues += 1
                requeued.append(bid)
        return requeued

    def lease(self, worker: str, now: float) -> int | None:
        """Grant the lowest pending batch to ``worker``, or ``None``
        when nothing is pending (outstanding leases may still expire
        and become grantable later)."""
        self.expire(now)
        for bid in sorted(self._leases):
            lease = self._leases[bid]
            if lease.state == PENDING:
                lease.state = LEASED
                lease.worker = worker
                lease.deadline = now + self.lease_timeout
                lease.grants += 1
                return bid
        return None

    def ack(self, batch_id: int, now: float) -> bool:
        """Mark a batch done; returns False when it already was.

        Accepted from any state: a worker whose lease expired (and
        whose batch may have been regranted) still completed real,
        deterministic work - the batch is done either way.
        """
        lease = self._leases[batch_id]
        if lease.state == DONE:
            return False
        lease.state = DONE
        lease.worker = None
        lease.deadline = None
        return True

    # -- accounting ---------------------------------------------------
    def _count(self, state: str) -> int:
        return sum(1 for lease in self._leases.values() if lease.state == state)

    @property
    def pending(self) -> int:
        return self._count(PENDING)

    @property
    def leased(self) -> int:
        return self._count(LEASED)

    @property
    def done(self) -> int:
        return self._count(DONE)

    @property
    def all_done(self) -> bool:
        return all(lease.state == DONE for lease in self._leases.values())

    def state(self, batch_id: int) -> str:
        return self._leases[batch_id].state

    def snapshot(self, now: float) -> dict:
        """JSON-ready accounting for the ``/work`` endpoint."""
        return {
            "batches": len(self._leases),
            "pending": self.pending,
            "leased": self.leased,
            "done": self.done,
            "requeues": self.requeues,
            "lease_timeout": self.lease_timeout,
            "leases": [
                {
                    "batch": bid,
                    "worker": lease.worker,
                    "expires_in": (
                        max(0.0, lease.deadline - now)
                        if lease.deadline is not None
                        else None
                    ),
                }
                for bid, lease in sorted(self._leases.items())
                if lease.state == LEASED
            ],
        }


def work_manifest(engine) -> dict:
    """Everything a worker needs to rebuild the one execution authority
    a campaign engine runs under, as plain JSON."""
    ctx = engine.context
    return {
        "schema_version": WORK_SCHEMA_VERSION,
        "app": ctx.app,
        "nprocs": ctx.config.nprocs,
        "app_params": dict(engine.app_params),
        "seed": engine.seed,
        "metrics": ctx.collect_metrics,
        "execution": ctx.describe(),
    }


def _json_reply(payload: dict) -> tuple[bytes, str]:
    body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return body.encode(), "application/json"


class LeasedExecutor:
    """Executes the driver's trials on remote workers.

    Build it through :meth:`~repro.engine.driver.CampaignEngine.distribute`
    and bind it as the ``routes`` of a
    :class:`~repro.observability.serve.TelemetryServer`: it serves
    ``/manifest`` and ``/work`` (GET) and ``/lease`` and ``/submit``
    (POST) beside the scrape endpoints.  Each :meth:`run` call opens a
    fresh :class:`LeaseBook` over its specs and blocks until workers
    have submitted every one, yielding results in spec order.  Nothing
    is executed here.
    """

    #: The adaptive step ``max(MIN_ADAPTIVE_BATCH, 2 * jobs)`` equals a
    #: serial run's (any value up to 4 does), so adaptive campaigns
    #: execute the same trial set as a local ``jobs=1`` run; and since
    #: ``jobs != 1``, per-trial records (which do not cross the wire)
    #: are not kept by default.
    jobs = 2

    def __init__(
        self,
        manifest: dict,
        *,
        batch_size: int = DEFAULT_BATCH_SIZE,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        clock=time.monotonic,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1: {batch_size}")
        self.manifest = manifest
        self.batch_size = batch_size
        self.lease_timeout = lease_timeout
        self.clock = clock
        #: Guards every field below; notified when batches open, when
        #: results arrive and on close.
        self.lock = threading.Condition()
        self.book = LeaseBook((), lease_timeout)
        #: The open ``run`` call's batches, ``batch id -> {key: spec}``.
        self._batches: dict[int, dict[str, TrialSpec]] = {}
        self._results: dict[str, TrialResult] = {}
        self._next_batch = 0
        self._past_requeues = 0
        self._closed = False

    @property
    def requeues(self) -> int:
        """Leases requeued after their deadline, over every ``run``."""
        return self._past_requeues + self.book.requeues

    # ------------------------------------------------------------------
    # the executor interface
    # ------------------------------------------------------------------
    def run(self, specs: Iterable[TrialSpec]) -> Iterator[TrialResult]:
        """Open ``specs`` for leasing now; the returned iterator blocks
        until each result has been submitted, in spec order."""
        specs = list(specs)
        if not specs:
            return iter(())
        with self.lock:
            if self._closed:
                raise RuntimeError("leased executor is closed")
            first = self._next_batch
            self._batches = {
                first + i: {
                    spec.key: spec for spec in specs[j : j + self.batch_size]
                }
                for i, j in enumerate(range(0, len(specs), self.batch_size))
            }
            self._next_batch = first + len(self._batches)
            self._past_requeues += self.book.requeues
            self.book = LeaseBook(self._batches, self.lease_timeout)
            self._results = {}
            self.lock.notify_all()
        return self._in_order(specs)

    def _in_order(self, specs: list[TrialSpec]) -> Iterator[TrialResult]:
        for spec in specs:
            with self.lock:
                while spec.key not in self._results:
                    if self._closed:
                        raise RuntimeError(
                            "leased executor closed with trials outstanding"
                        )
                    self.lock.wait()
                result = self._results[spec.key]
            yield result

    def close(self) -> None:
        """Stop leasing: every later ``/lease`` answers "done"."""
        with self.lock:
            self._closed = True
            self.lock.notify_all()

    # ------------------------------------------------------------------
    # protocol payloads
    # ------------------------------------------------------------------
    def lease_payload(self, worker: str, block: float = 0.0) -> dict:
        """One worker's next unit of work: a batch grant, a "wait"
        after ``block`` seconds with nothing grantable, or "done"."""
        deadline = time.monotonic() + block
        with self.lock:
            while True:
                if self._closed:
                    return {"done": True}
                bid = self.book.lease(worker, self.clock())
                if bid is not None:
                    return {
                        "batch": bid,
                        "attempt": self.book._leases[bid].grants,
                        "trials": [
                            [spec.region.value, spec.index, key]
                            for key, spec in self._batches[bid].items()
                        ],
                    }
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return {"wait": 0.0}
                self.lock.wait(remaining)

    def _accept(self, obj, specs: dict[str, TrialSpec]) -> TrialResult | None:
        """Parse one submitted result; ``None`` unless it is well formed
        and describes exactly the leased spec filed under its key."""
        try:
            result = TrialResult.from_json(obj)
            metrics = obj.get("metrics")
            if metrics is not None:
                result.metrics = MetricsSnapshot.from_json(metrics)
        except (KeyError, ValueError, TypeError, AttributeError):
            return None
        spec = specs.get(result.key)
        if spec is None or (result.app, result.region, result.index) != (
            spec.app,
            spec.region,
            spec.index,
        ):
            return None
        if (result.metrics is not None) != bool(self.manifest["metrics"]):
            return None
        # Rehydration marks results resumed; these were freshly
        # executed, just remotely.
        result.resumed = False
        return result

    def submit(self, worker: str, batch_id: int, payloads: list) -> dict:
        """Fold one batch's submitted results; idempotent per key.

        The batch is acknowledged once every one of its keys has been
        folded (by this submission or an earlier duplicate).
        """
        with self.lock:
            specs = self._batches.get(batch_id)
            if specs is None:
                return {"error": f"unknown batch {batch_id}", "accepted": 0}
            accepted = duplicate = rejected = 0
            for obj in payloads:
                result = self._accept(obj, specs)
                if result is None:
                    rejected += 1
                elif result.key in self._results:
                    duplicate += 1
                else:
                    self._results[result.key] = result
                    accepted += 1
            if specs.keys() <= self._results.keys():
                self.book.ack(batch_id, self.clock())
            if accepted:
                self.lock.notify_all()
            return {
                "worker": worker,
                "accepted": accepted,
                "duplicate": duplicate,
                "rejected": rejected,
                "done": self._closed,
            }

    # ------------------------------------------------------------------
    # HTTP routes (see repro.observability.serve.TelemetryServer)
    # ------------------------------------------------------------------
    def handle_get(self, path: str):
        if path == "/manifest":
            return _json_reply(self.manifest)
        if path == "/work":
            with self.lock:
                payload = self.book.snapshot(self.clock())
                payload["requeues"] = self.requeues
            payload["schema_version"] = WORK_SCHEMA_VERSION
            return _json_reply(payload)
        return None

    def handle_post(self, path: str, body: bytes):
        obj = json.loads(body.decode() or "{}")
        worker = str(obj.get("worker", "anonymous"))
        if path == "/lease":
            return _json_reply(self.lease_payload(worker, LEASE_POLL_SECONDS))
        if path == "/submit":
            return _json_reply(
                self.submit(worker, int(obj["batch"]), obj.get("results", []))
            )
        return None


class WorkerError(RuntimeError):
    """The coordinator is unreachable or served an unusable payload."""


def coordinator_url(endpoint: str) -> str:
    """``HOST:PORT``/``PORT``/full URL -> a base ``http://`` URL."""
    if "://" in endpoint:
        return endpoint.rstrip("/")
    from repro.observability.serve import parse_endpoint

    host, port = parse_endpoint(endpoint)
    return f"http://{host}:{port}"


def _wire(result: TrialResult) -> dict:
    """A result as submitted: its store payload plus its metrics."""
    payload = result.to_json()
    if result.metrics is not None:
        payload["metrics"] = result.metrics.to_json()
    return payload


@dataclass
class WorkerStats:
    batches: int = 0
    trials: int = 0
    duplicates: int = 0


class WorkerClient:
    """One campaign worker: lease, execute, submit, repeat.

    Builds its campaign from the coordinator's ``/manifest`` through
    the same registry path the local CLI uses and stops unless the
    rebuilt context's ``describe()`` equals the manifest's, so
    ``execute_trial`` runs under a context equal to the coordinator's -
    the precondition for bit-identical results.  ``jobs`` forwards to
    the worker's own engine, so one worker can drive a local process
    pool between HTTP round-trips.

    Run one client per OS process (``campaign work`` does): trial
    execution scopes the per-process observability runtime, so two
    clients executing concurrently on threads of one process would
    cross their propagation timelines.
    """

    def __init__(
        self,
        endpoint: str,
        *,
        jobs: int | None = 1,
        name: str | None = None,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        max_batches: int | None = None,
        hold_seconds: float | None = None,
        log=None,
    ) -> None:
        self.url = coordinator_url(endpoint)
        self.jobs = jobs
        self.name = name or f"{socket.gethostname()}:{os.getpid()}"
        self.poll_interval = poll_interval
        self.max_batches = max_batches
        if hold_seconds is None:
            hold_seconds = float(os.environ.get(HOLD_ENV, "0") or 0)
        self.hold_seconds = hold_seconds
        self.log = log or (lambda _msg: None)
        self.stats = WorkerStats()

    # -- transport ----------------------------------------------------
    def _request(
        self, path: str, data: bytes | None = None, retries: int = CONNECT_RETRIES
    ) -> bytes:
        request = urllib.request.Request(
            self.url + path,
            data=data,
            headers={"Content-Type": "application/json"} if data else {},
        )
        last: Exception | None = None
        for _ in range(retries):
            try:
                with urllib.request.urlopen(request, timeout=30) as response:
                    return response.read()
            except urllib.error.HTTPError as exc:
                # The endpoint answered; a non-200 is a protocol error,
                # not a transient outage.
                raise WorkerError(
                    f"{self.url}{path}: HTTP {exc.code} {exc.reason}"
                ) from exc
            except (urllib.error.URLError, OSError, TimeoutError) as exc:
                last = exc
                time.sleep(self.poll_interval)
        raise WorkerError(
            f"coordinator unreachable after {retries} attempts: "
            f"{self.url}{path}: {last}"
        )

    def _post_json(self, path: str, payload: dict, **kwargs) -> dict:
        return json.loads(
            self._request(path, json.dumps(payload).encode(), **kwargs).decode()
        )

    # -- the work loop ------------------------------------------------
    def _build_engine(self, manifest: dict):
        from repro.injection.campaign import Campaign
        from repro.observability.metrics import MetricsRegistry

        if manifest.get("schema_version") != WORK_SCHEMA_VERSION:
            raise WorkerError(
                f"coordinator speaks work schema "
                f"{manifest.get('schema_version')!r}, worker expects "
                f"{WORK_SCHEMA_VERSION}"
            )
        execution = manifest["execution"]
        campaign = Campaign.from_registry(
            manifest["app"],
            nprocs=int(manifest["nprocs"]),
            app_params=manifest.get("app_params") or {},
            seed=int(manifest["seed"]),
        )
        engine = campaign.engine(
            jobs=self.jobs,
            # The registry only switches per-trial collection on; the
            # snapshots travel with each submission.
            metrics=MetricsRegistry() if manifest.get("metrics") else None,
            checkpoint_stride=execution.get("checkpoint_stride"),
            fastpath=bool(execution.get("fastpath", False)),
        )
        local = json.loads(json.dumps(engine.context.describe()))
        drift = sorted(
            name
            for name in local.keys() | execution.keys()
            if local.get(name) != execution.get(name)
        )
        if drift:
            engine.close()
            raise WorkerError(
                "manifest execution identity does not match the rebuilt "
                "context: "
                + ", ".join(
                    f"{name} {execution.get(name)!r} != {local.get(name)!r}"
                    for name in drift
                )
            )
        return engine

    def _spec(self, engine, trial: list) -> TrialSpec:
        """Re-derive one leased trial; its key must match exactly, or
        the result would be stored under another execution's key."""
        region, index, key = trial
        spec = engine.make_spec(Region(region), int(index))
        if spec.key != key:
            raise WorkerError(
                f"leased trial {region}#{index} has key {key}, but the "
                f"manifest-built campaign derives {spec.key}"
            )
        return spec

    def run(self) -> WorkerStats:
        manifest = json.loads(self._request("/manifest").decode())
        self.log(
            f"worker {self.name}: joined {manifest['app']} campaign at "
            f"{self.url}"
        )
        with self._build_engine(manifest) as engine:
            while True:
                if (
                    self.max_batches is not None
                    and self.stats.batches >= self.max_batches
                ):
                    return self.stats
                try:
                    grant = self._post_json(
                        "/lease", {"worker": self.name}, retries=6
                    )
                except WorkerError:
                    # Unreachable while holding no work: the campaign
                    # finished (the coordinator stopped serving after
                    # its linger window) or died - either way nothing
                    # is lost; any lease we never took requeues.
                    self.log(
                        f"worker {self.name}: coordinator gone; exiting"
                    )
                    return self.stats
                if grant.get("done"):
                    self.log(f"worker {self.name}: campaign complete")
                    return self.stats
                if "batch" not in grant:
                    time.sleep(float(grant.get("wait", self.poll_interval)))
                    continue
                specs = [self._spec(engine, trial) for trial in grant["trials"]]
                if self.hold_seconds:
                    time.sleep(self.hold_seconds)
                results = list(engine.executor().run(specs))
                reply = self._post_json("/submit", {
                    "worker": self.name,
                    "batch": grant["batch"],
                    "results": [_wire(result) for result in results],
                })
                self.stats.batches += 1
                self.stats.trials += len(results)
                self.stats.duplicates += int(reply.get("duplicate", 0))
                self.log(
                    f"worker {self.name}: batch {grant['batch']} "
                    f"(attempt {grant.get('attempt', 1)}): "
                    f"{reply.get('accepted', 0)} accepted, "
                    f"{reply.get('duplicate', 0)} duplicate, "
                    f"{reply.get('rejected', 0)} rejected"
                )
                if reply.get("done"):
                    # Exit on the submit acknowledgement rather than an
                    # extra lease round: the coordinator may stop
                    # serving shortly after the campaign completes.
                    self.log(f"worker {self.name}: campaign complete")
                    return self.stats
