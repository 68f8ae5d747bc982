"""The scheduler's stepping API (``Job.begin``/``Job.step_round``).

The golden-run recorder in :mod:`repro.engine.checkpoint` drives jobs
through this API, so its contract is pinned here: ``begin`` returns
``None`` on a clean start, ``step_round`` returns ``None`` until the
job produces a result, and the stepped loop is exactly ``Job.run``.
"""

from __future__ import annotations

import pytest

from repro.mpi.simulator import Job, JobConfig
from tests.conftest import (
    SMALL_NPROCS,
    small_climate,
    small_moldyn,
    small_wavetoy,
)

APPS = {
    "wavetoy": small_wavetoy,
    "moldyn": small_moldyn,
    "climate": small_climate,
}


def make_job(app_name: str) -> Job:
    return Job(APPS[app_name](), JobConfig(nprocs=SMALL_NPROCS))


def step_to_completion(job: Job):
    result = None
    while result is None:
        result = job.step_round()
    return result


def result_fields(result):
    return (
        result.status,
        result.detail,
        result.stdout,
        result.stderr,
        result.outputs,
        result.rounds,
        result.blocks_per_rank,
    )


@pytest.mark.parametrize("app_name", sorted(APPS))
class TestRoundTrip:
    def test_stepping_api_matches_run(self, app_name):
        """begin + step_round loop is exactly ``Job.run``."""
        stepped_job = make_job(app_name)
        assert stepped_job.begin() is None
        stepped = step_to_completion(stepped_job)
        assert result_fields(stepped) == result_fields(make_job(app_name).run())
