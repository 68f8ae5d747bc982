"""Expected store lines per workload: the benchmark's correctness oracle.

Every trial a workload can execute is run once with the semantic
authority (the per-opcode interpreter, no checkpoint replay) and its
store line recorded in ``perfbench/oracle/<workload>.jsonl.gz``: a JSON
metadata line, then the sorted store lines.  A benchmark run diffs its
own store against these lines; a differing or missing line is a failed
trial.  Regenerate (minutes, not part of a benchmark run) with

    python3 perfbench/oracle.py [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import gzip
import json
import sqlite3
import sys
import tempfile
from pathlib import Path

from workloads import (
    CAMPAIGN_SEED,
    NPROCS,
    TARGET_D,
    WORKLOADS,
    Workload,
    use_source_tree,
)

ORACLE_DIR = Path(__file__).resolve().parent / "oracle"


def oracle_path(name: str) -> Path:
    return ORACLE_DIR / f"{name}.jsonl.gz"


def line_key(line: str) -> str:
    return json.loads(line)["key"]


def load(name: str) -> tuple[dict, dict[str, str]]:
    """``(metadata, {trial key: expected store line})``."""
    with gzip.open(oracle_path(name), "rt") as fh:
        meta = json.loads(fh.readline())
        lines = [line.rstrip("\n") for line in fh]
    return meta, {line_key(line): line for line in lines}


def store_lines(path: Path) -> list[str]:
    """The raw result lines of a JSONL or SQLite store, in write order."""
    if not path.exists():
        return []
    if path.suffix == ".sqlite":
        conn = sqlite3.connect(path)
        try:
            rows = conn.execute("SELECT payload FROM trials ORDER BY rowid").fetchall()
        finally:
            conn.close()
        return [payload for (payload,) in rows]
    return [line for line in path.read_text().splitlines() if line.strip()]


def diff(expected: dict[str, str], lines: list[str], keys) -> list[tuple[str, str]]:
    """``(key, problem)`` per failed trial: a trial in ``keys`` whose
    stored line is missing or differs from the oracle, or a stored line
    that no trial in ``keys`` accounts for."""
    stored: dict[str, str] = {}
    problems = []
    for line in lines:
        key = line_key(line)
        if stored.setdefault(key, line) != line:
            problems.append((key, "stored twice with different lines"))
    for key in keys:
        line = stored.pop(key, None)
        if line is None:
            problems.append((key, "no stored line"))
        elif expected.get(key) != line:
            problems.append((key, "stored line differs from the oracle"))
    problems.extend((key, "stored but never attempted") for key in stored)
    return problems


def adaptive_n(lines: list[str]) -> dict[str, int]:
    """Per region, the trials ``campaign run --target-d TARGET_D`` (jobs=1)
    executes before stopping, replayed on the oracle outcomes in trial
    index order with the engine's own stopping rule."""
    from repro.engine.driver import MIN_ADAPTIVE_BATCH, observed_half_width
    from repro.sampling.theory import sample_size_oversampled

    outcomes: dict[str, dict[int, bool]] = {}
    for line in lines:
        obj = json.loads(line)
        outcomes.setdefault(obj["region"], {})[obj["index"]] = (
            obj["manifestation"] != "correct"
        )
    cap = sample_size_oversampled(TARGET_D)
    out = {}
    for region, by_index in outcomes.items():
        errors = [by_index[i] for i in range(len(by_index))]
        if len(errors) < cap:
            raise ValueError(f"{region}: pool of {len(errors)} < cap {cap}")
        planned = 0
        while planned < cap:
            planned = min(planned + MIN_ADAPTIVE_BATCH, cap)
            if observed_half_width(sum(errors[:planned]), planned) <= TARGET_D:
                break
        out[region] = planned
    return out


def generate(w: Workload) -> Path:
    from repro.injection.campaign import Campaign
    from repro.injection.faults import Region

    campaign = Campaign.from_registry(w.app, nprocs=NPROCS, seed=CAMPAIGN_SEED)
    with tempfile.TemporaryDirectory(dir=ORACLE_DIR) as tmp:
        store = Path(tmp) / w.store_name
        with campaign.engine(
            jobs=1,
            store=store,
            checkpoint_stride=None,
            fastpath=False,
            stratify=w.stratify,
            prune_masked=w.prune_masked,
        ) as engine:
            if w.uniform:
                engine.run_trials(
                    [engine.make_spec(Region(r), i) for r, i in w.pool()]
                )
            else:
                engine.run([Region(r) for r in w.regions], target_d=TARGET_D)
        lines = sorted(store_lines(store))
    meta = {
        "workload": w.name,
        "config": w.describe(),
        "authority": {"fastpath": False, "checkpoint_stride": None, "jobs": 1},
        "trials": len(lines),
        "adaptive_n": adaptive_n(lines) if w.uniform else None,
    }
    path = oracle_path(w.name)
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        gz.write(("\n".join([json.dumps(meta, sort_keys=True)] + lines) + "\n").encode())
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    use_source_tree()
    ORACLE_DIR.mkdir(exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        path = generate(WORKLOADS[name])
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
