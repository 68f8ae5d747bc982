"""Each workload's traced layer shares match the reason it was chosen.

Runs every workload's traced worker at a smoke size (tens of trials), so
the shares are coarse; the bounds below leave room for that.
"""

import json
import time

import pytest

import analysis
import oracle
import run
from workloads import WORKLOADS

SMOKE_TRIALS = {
    "wavetoy-mem": 30,
    "climate-message": 30,
    "climate-text": 40,
    "wavetoy-stratified": 20,
}


@pytest.fixture(scope="module")
def layers(tmp_path_factory):
    out = {}
    for name, trials in SMOKE_TRIALS.items():
        w = WORKLOADS[name]
        work = tmp_path_factory.mktemp(name)
        deadline = time.monotonic() + run.RUN_BUDGET_S
        result = run.spawn(name, 1, "measure", work, deadline,
                           seconds=run.RUN_BUDGET_S, trace=True, max_trials=trials)
        _, expected = oracle.load(name)
        attempted, problems = run.check(w, expected, result, work)
        dump = json.loads((work / "spans.json").read_text())
        metrics = analysis.layer_metrics(dump)
        out[name] = {
            "attempted": attempted,
            "problems": problems
            + analysis.check_spans(dump["spans"])
            + analysis.check_coverage(metrics),
            "metrics": {k: v[0] for k, v in metrics.items()},
        }
    return out


def share(m: dict, *layers: str) -> float:
    return sum(m[f"{layer}.share"] for layer in layers)


@pytest.mark.parametrize("name", sorted(SMOKE_TRIALS))
def test_traced_smoke_run_is_correct_and_accounted(layers, name):
    assert layers[name]["attempted"] >= SMOKE_TRIALS[name]
    assert layers[name]["problems"] == []


def test_wavetoy_mem_is_vm_bound_without_translation(layers):
    m = layers["wavetoy-mem"]["metrics"]
    assert max(analysis.TRIAL_LAYERS, key=lambda layer: m[f"{layer}.share"]) == "cpu.vm"
    assert m["cpu.translate.share"] < 0.05
    assert m["cpu.vm.translated_insn_frac"] > 0.9


def test_climate_text_is_translation_bound(layers):
    m = layers["climate-text"]["metrics"]
    assert max(analysis.TRIAL_LAYERS, key=lambda layer: m[f"{layer}.share"]) == "cpu.translate"
    assert m["cpu.translate.retranslations"] > 0


def test_climate_message_has_the_largest_mpi_and_build_share(layers):
    def mpi_build(name):
        return share(layers[name]["metrics"], "mpi.simulator", "mpi.adi", "apps.build_process")

    assert mpi_build("climate-message") > mpi_build("wavetoy-mem")
    assert layers["climate-message"]["metrics"]["cpu.vm.translated_insn_frac"] == 0


def test_static_predictor_only_on_the_stratified_workload(layers):
    for name, data in layers.items():
        m = data["metrics"]
        stratified = name == "wavetoy-stratified"
        assert (m["staticanalysis.predictor_s"] > 0) == stratified, name
        assert (m["staticanalysis.pool_specs"] > 0) == stratified, name
