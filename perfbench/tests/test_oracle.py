"""The correctness oracle: recorded lines, planted mismatches, and the
adaptive trial counts behind the projected ``time_to_d_s``."""

import json

import pytest

import oracle
import run
from workloads import CAMPAIGN_SEED, CHECKPOINT_STRIDE, NPROCS, TARGET_D, WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_oracle_covers_the_workload(name):
    w = WORKLOADS[name]
    meta, expected = oracle.load(name)
    assert meta["workload"] == name
    assert meta["authority"] == {"fastpath": False, "checkpoint_stride": None, "jobs": 1}
    assert meta["config"] == json.loads(json.dumps(w.describe()))
    assert meta["trials"] == len(expected)
    if w.uniform:
        assert len(expected) == len(w.pool())
        assert set(meta["adaptive_n"]) == set(w.regions)


def _planted(tmp_path, mutate):
    """A store holding three oracle lines, passed through ``mutate``."""
    w = WORKLOADS["climate-message"]
    _, expected = oracle.load(w.name)
    keys = sorted(expected)[:3]
    lines = mutate([expected[k] for k in keys])
    (tmp_path / w.store_name).write_text("".join(line + "\n" for line in lines))
    result = {"store": w.store_name, "attempted_keys": keys, "errors": []}
    return run.check(w, expected, result, tmp_path)


def test_matching_store_has_no_failed_trial(tmp_path):
    assert _planted(tmp_path, lambda lines: lines) == (3, [])


def test_planted_mismatch_is_a_failed_trial(tmp_path):
    def flip(lines):
        obj = json.loads(lines[1])
        obj["manifestation"] = "correct" if obj["manifestation"] != "correct" else "crash"
        return [lines[0], json.dumps(obj, sort_keys=True), lines[2]]

    attempted, problems = _planted(tmp_path, flip)
    assert attempted == 3
    assert len(problems) == 1 and "differs from the oracle" in problems[0]


def test_missing_line_is_a_failed_trial(tmp_path):
    attempted, problems = _planted(tmp_path, lambda lines: lines[:2])
    assert attempted == 3
    assert len(problems) == 1 and "no stored line" in problems[0]


def test_worker_error_and_its_missing_line_count_once(tmp_path):
    w = WORKLOADS["climate-message"]
    _, expected = oracle.load(w.name)
    key = sorted(expected)[0]
    (tmp_path / w.store_name).write_text("")
    result = {"store": w.store_name, "attempted_keys": [key],
              "errors": [[key, "RuntimeError: boom"]]}
    assert run.check(w, expected, result, tmp_path) == (1, [f"{key}: no stored line"])


def test_adaptive_n_matches_the_adaptive_engine():
    """The replayed stopping rule agrees with ``run_region(target_d=...)``."""
    from repro.injection.campaign import Campaign
    from repro.injection.faults import Region

    meta, _ = oracle.load("climate-message")
    campaign = Campaign.from_registry("climate", nprocs=NPROCS, seed=CAMPAIGN_SEED)
    row = campaign.run_region(
        Region.MESSAGE,
        target_d=TARGET_D,
        checkpoint_stride=CHECKPOINT_STRIDE,
        fastpath=True,
    )
    assert row.executions == meta["adaptive_n"]["message"]
