"""PR 5-style differential gate for ``--fastpath`` (PR 8 acceptance).

The translated engine must be *observationally invisible*: campaign
tallies, stored trial records (manifestation, latency, injection
instants), ``status --json`` payloads, and the engine's metric series
are bit-identical with and without ``--fastpath``, serial and parallel,
on every suite application.  Only throughput (and the fastpath-only
counters) may differ."""

import pytest

from repro.engine.store import ResultStore
from repro.injection.campaign import Campaign
from repro.injection.faults import Region
from repro.observability.metrics import MetricsRegistry, render_prometheus

SEED = 20040607
N = 4
REGIONS = (Region.TEXT, Region.DATA, Region.REGULAR_REG)
APPS = ("wavetoy", "moldyn", "climate")


def run_campaign(app, tmp_path, *, fastpath, jobs):
    store_path = (
        tmp_path / f"{app}-{'fp' if fastpath else 'interp'}-j{jobs}.jsonl"
    )
    metrics = MetricsRegistry()
    campaign = Campaign.from_registry(app, nprocs=2, seed=SEED)
    with ResultStore(store_path) as store:
        result = campaign.run(
            REGIONS,
            N,
            jobs=jobs,
            store=store,
            metrics=metrics,
            fastpath=fastpath,
        )
    records = sorted(store_path.read_text().splitlines())
    status = [
        (s.app, s.region, s.trials, s.errors, s.manifestations, s.pruned)
        for s in ResultStore(store_path).status()
    ]
    tallies = {
        region.value: (
            row.tally.as_dict()
            if hasattr(row.tally, "as_dict")
            else vars(row.tally)
        )
        for region, row in result.regions.items()
    }
    # Drop run-dependent series (per-worker pids) and the deliberately
    # fastpath-only counters; everything else must match bit for bit -
    # including the VM instruction/block totals, which pin the two
    # engines to identical dynamic execution, not just identical
    # verdicts.
    series = "\n".join(
        line
        for line in render_prometheus(metrics).splitlines()
        if "worker=" not in line and "fastpath" not in line
    )
    return records, status, tallies, series


@pytest.mark.parametrize("jobs", [1, 4])
@pytest.mark.parametrize("app", APPS)
def test_fastpath_is_observationally_invisible(app, jobs, tmp_path):
    interp = run_campaign(app, tmp_path, fastpath=False, jobs=jobs)
    fast = run_campaign(app, tmp_path, fastpath=True, jobs=jobs)
    assert interp[0] == fast[0], "stored trial records differ"
    assert interp[1] == fast[1], "status payloads differ"
    assert interp[2] == fast[2], "region tallies differ"
    assert interp[3] == fast[3], "metric series differ"


def test_bulk_iterations_reach_the_metrics(tmp_path):
    metrics = MetricsRegistry()
    campaign = Campaign.from_registry("wavetoy", nprocs=2, seed=SEED)
    campaign.run((Region.DATA,), 2, metrics=metrics, fastpath=True)
    assert (
        metrics.counter_value("repro_vm_fastpath_total", kind="bulk_iterations")
        > 0
    )
    assert 'repro_vm_fastpath_total{kind="bulk_iterations"}' in (
        render_prometheus(metrics)
    )
