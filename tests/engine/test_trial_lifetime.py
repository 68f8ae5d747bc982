"""A finished trial's job is freed by reference counting.

Each trial builds one process image per rank (a 1 MB heap each).  With
the cyclic garbage collector off, the number of live images must return
to its baseline after every ``execute_trial``, whatever the region and
outcome (completed, crashed, hung, MPI-detected), on the interpreter and
the fast path, with and without golden-prefix checkpoint replay.
"""

import functools
import gc

import pytest

from repro.apps import ClimateApp, WavetoyApp
from repro.engine.core import execute_trial
from repro.injection.campaign import Campaign
from repro.injection.faults import Region
from repro.memory.process import ProcessImage
from repro.mpi.simulator import JobConfig
from repro.sampling.plans import CampaignPlan
from tests.conftest import SMALL_CLIMATE, SMALL_NPROCS, SMALL_WAVETOY

PER_REGION = 3


def live_images() -> int:
    return sum(1 for o in gc.get_objects() if isinstance(o, ProcessImage))


@pytest.mark.parametrize("stride", [None, 4], ids=["no_ckpt", "ckpt"])
@pytest.mark.parametrize("fastpath", [False, True], ids=["interp", "fast"])
@pytest.mark.parametrize(
    "factory, params",
    [(WavetoyApp, SMALL_WAVETOY), (ClimateApp, SMALL_CLIMATE)],
    ids=["wavetoy", "climate"],
)
def test_trial_images_freed_without_cyclic_gc(factory, params, fastpath, stride):
    campaign = Campaign(
        functools.partial(factory, **params),
        JobConfig(nprocs=SMALL_NPROCS, fastpath=fastpath),
        plan=CampaignPlan(per_region={r.value: PER_REGION for r in Region}),
        seed=11,
        app_params=params,
    )
    with campaign.engine() as eng:
        specs = [eng.make_spec(r, i) for r in Region for i in range(PER_REGION)]
    ctx = campaign.execution_context()
    ctx.checkpoint_stride = stride
    execute_trial(ctx, specs[0])  # warm: reference and golden recording
    gc.collect()
    baseline = live_images()
    leaked = []
    gc.disable()
    try:
        for spec in specs:
            result = execute_trial(ctx, spec)
            if live_images() != baseline:
                leaked.append((spec.region, spec.index, result.manifestation))
    finally:
        gc.enable()
    assert leaked == []
