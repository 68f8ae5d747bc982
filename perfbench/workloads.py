"""The campaign workloads of the trial-cost benchmark.

Every workload is one fixed campaign over ``nprocs=2`` simulated ranks,
checkpoint stride 16 and the serial executor (jobs=1), driven through
the public engine API.  Two shapes exist:

* **uniform**: a fixed pool of ``pool_per_region`` trials per region
  (trial indices ``0..pool_per_region-1`` of the campaign seed).  A run
  executes a seeded permutation of that pool until its time is up, so
  the workload seed chooses which trials run and in what order.
* **stratified**: one complete adaptive campaign (``--stratify
  --prune-masked --target-d``) whose trial set is fixed by the campaign
  seed; the workload seed chooses the order in which regions run.

The expected store lines of every trial a run can execute are recorded
once per workload in ``perfbench/oracle/`` (see ``oracle.py``).  Why
each workload was chosen is stated once, in ``BENCHMARK.json``.
"""

from __future__ import annotations

import random
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

#: The ``src`` tree of the checkout this benchmark sits in.
SRC = Path(__file__).resolve().parent.parent / "src"

#: Campaign seed of every workload (the CLI default); trial keys and the
#: recorded oracle lines depend on it.
CAMPAIGN_SEED = 20040607
NPROCS = 2
CHECKPOINT_STRIDE = 16
#: Target Cochran half-width d of the adaptive ``time_to_d_s`` answer.
TARGET_D = 0.08

def use_source_tree() -> None:
    """Make the checkout's ``repro`` package importable."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


MEMORY_REGIONS = ("regular_reg", "fp_reg", "data", "bss", "heap", "stack")


@dataclass(frozen=True)
class Workload:
    name: str
    app: str
    regions: tuple[str, ...]
    fastpath: bool
    #: Uniform pool size per region; 0 for the stratified campaign.
    pool_per_region: int = 0
    stratify: bool = False
    prune_masked: bool = False
    store_name: str = "store.jsonl"

    @property
    def uniform(self) -> bool:
        return not self.stratify

    def describe(self) -> dict:
        """The configuration snapshot stored with every result."""
        return {
            **asdict(self),
            "campaign_seed": CAMPAIGN_SEED,
            "nprocs": NPROCS,
            "checkpoint_stride": CHECKPOINT_STRIDE,
            "jobs": 1,
            "target_d": TARGET_D,
        }

    def pool(self) -> list[tuple[str, int]]:
        """Every ``(region, index)`` trial a uniform run may execute."""
        return [
            (region, index)
            for region in self.regions
            for index in range(self.pool_per_region)
        ]

    def trial_order(self, seed: int) -> list[tuple[str, int]]:
        """The seeded permutation of the uniform pool a run executes."""
        order = self.pool()
        random.Random(seed).shuffle(order)
        return order

    def region_order(self, seed: int) -> list[str]:
        """The seeded order in which a stratified campaign runs regions."""
        order = list(self.regions)
        random.Random(seed).shuffle(order)
        return order


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="wavetoy-mem",
            app="wavetoy",
            regions=MEMORY_REGIONS,
            fastpath=True,
            pool_per_region=250,
        ),
        Workload(
            name="climate-message",
            app="climate",
            regions=("message",),
            fastpath=False,
            pool_per_region=1500,
        ),
        Workload(
            name="climate-text",
            app="climate",
            regions=("text",),
            fastpath=True,
            pool_per_region=1000,
        ),
        Workload(
            name="wavetoy-stratified",
            app="wavetoy",
            regions=MEMORY_REGIONS + ("text",),
            fastpath=True,
            stratify=True,
            prune_masked=True,
            store_name="store.sqlite",
        ),
    )
}
