"""Trial-cost benchmark of the fault-injection campaign engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics: one fresh worker process sets up and runs trials for ``S``
seconds, and further fresh processes repeat only the set-up, whose
median is ``setup_s``.  ``--trace 1`` measures the per-layer metrics: a
worker runs trials untraced for ``S/2`` seconds, then a traced worker
runs the same trials with every layer wrapped in spans
(``tracing.py``).  Each run diffs its store against the recorded oracle
(``oracle.py``); a missing or differing line is a failed trial, and any
failure makes the run exit 1.

Every metric is printed with its unit and sample count, and the run
record (metrics, workload config, seed, git identity, versions, nproc)
is written to ``.perfbench_out/results/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, with exactly the metrics ``BENCHMARK.json`` lists for the
chosen mode.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import analysis
import calibration
import oracle
from workloads import SRC, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
#: Fresh processes whose set-up time is sampled per ``--trace 0`` run.
SETUP_SAMPLES = 3
#: Wall-clock budget of one run; workers still alive then are killed.
RUN_BUDGET_S = 170.0


class RunError(Exception):
    pass


def spawn(workload: str, seed: int, mode: str, work: Path, deadline: float, **opts) -> dict:
    """Run one worker in a fresh interpreter and return its result."""
    shutil.rmtree(work, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--work", str(work)]
    for name, value in opts.items():
        flag = "--" + name.replace("_", "-")
        if value is True:
            cmd.append(flag)
        elif value not in (None, False):
            cmd += [flag, str(value)]
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"{mode} worker exceeded the {RUN_BUDGET_S:.0f}s run budget") from None
    if proc.returncode != 0:
        raise RunError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads((work / "result.json").read_text())


def check(w, expected: dict, result: dict, work: Path) -> tuple[int, list[str]]:
    """``(attempted, problems)``: the worker's store against the oracle,
    one problem per failed trial."""
    lines = oracle.store_lines(work / result["store"])
    if w.uniform:
        keys = result["attempted_keys"]
    elif result["stopped"]:  # cut short on purpose: check what ran
        keys = [oracle.line_key(line) for line in lines]
    else:
        keys = list(expected)
    problems = dict(oracle.diff(expected, lines, keys))
    for key, message in result["errors"]:
        problems.setdefault(key, message)
    return len(keys), [f"{key}: {message}" for key, message in problems.items()]


def scaled_gaps(result: dict) -> list[float]:
    """Per-trial latencies of a worker at reference speed."""
    if not result["completions"]:
        raise RunError("a measuring worker completed no trial")
    raw = analysis.gaps(result["completions"], result["resumes"])
    return [g * f for g, f in zip(raw, calibration.speed_factors(result["kernel_s"]))]


def end_to_end(w, meta: dict, measure: dict, setups: list[dict], attempted: int, failed: int) -> dict:
    """The end-to-end metrics at reference machine speed, and the same
    from raw wall times under ``raw.<name>``."""
    scaled = scaled_gaps(measure)
    raw = analysis.gaps(measure["completions"], measure["resumes"])
    tail = measure["phase_s"] - measure["resumes"][-1]
    out = {}
    for prefix, gaps, setup, tail_s in (
        ("", scaled, [r["setup_ref_s"] for r in setups],
         tail * calibration.speed_factors(measure["kernel_s"])[-1]),
        ("raw.", raw, [r["setup_s"] for r in setups], tail),
    ):
        m = analysis.trial_metrics(gaps)
        setup_s = statistics.median(setup)
        m["setup_s"] = (setup_s, "s", len(setup))
        if w.uniform:
            ttd = analysis.projected_time_to_d(setup_s, gaps, measure["regions"], meta["adaptive_n"])
            m["time_to_d_s"] = (ttd, "s", len(gaps))
        elif measure["complete"]:
            m["time_to_d_s"] = (setup_s + sum(gaps) + tail_s, "s", len(gaps))
        out.update({prefix + name: value for name, value in m.items()})
    out["peak_rss_mb"] = (measure["peak_rss_mb"], "MB", 1)
    out["trial_ok_frac"] = (1.0 - failed / attempted, "fraction", attempted)
    return out


def run(args) -> tuple[dict, int, list[str], dict]:
    w = WORKLOADS[args.workload]
    meta, expected = oracle.load(w.name)
    run_dir = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}"
    deadline = time.monotonic() + RUN_BUDGET_S
    if not args.trace:
        measure = spawn(w.name, args.seed, "measure", run_dir / "measure", deadline,
                        seconds=args.seconds)
        setups = [measure] + [
            spawn(w.name, args.seed, "setup", run_dir / f"setup{i}", deadline)
            for i in range(1, SETUP_SAMPLES)
        ]
        attempted, problems = check(w, expected, measure, run_dir / "measure")
        metrics = end_to_end(w, meta, measure, setups, attempted, len(problems))
        workers = {"measure": summary(measure), "setups": [summary(r) for r in setups[1:]]}
        return metrics, attempted, problems, workers

    plain = spawn(w.name, args.seed, "measure", run_dir / "plain", deadline,
                  seconds=args.seconds / 2, golden=True)
    traced = spawn(w.name, args.seed, "measure", run_dir / "traced", deadline,
                   seconds=RUN_BUDGET_S, trace=True,
                   max_trials=len(plain["completions"]) if w.uniform else None)
    attempted, problems = check(w, expected, plain, run_dir / "plain")
    traced_attempted, traced_problems = check(w, expected, traced, run_dir / "traced")
    attempted += traced_attempted
    problems += traced_problems
    dump = json.loads((run_dir / "traced" / "spans.json").read_text())
    problems += [f"trace: {p}" for p in analysis.check_spans(dump["spans"])]
    metrics = analysis.layer_metrics(
        dump,
        calibration.speed_factors(traced["kernel_s"]),
        traced["setup_ref_s"] / traced["setup_s"],
    )
    problems += [f"trace: {p}" for p in analysis.check_coverage(metrics)]
    # At reference speed, like the end-to-end metrics (golden_ms too).
    plain_m = analysis.trial_metrics(scaled_gaps(plain))
    traced_m = analysis.trial_metrics(scaled_gaps(traced))
    p50, n = plain_m["trial_ms_p50"][::2]
    metrics["engine.overhead_x"] = (p50 / plain["golden_ms"], "x", n)
    overhead = 1.0 - traced_m["trials_per_s"][0] / plain_m["trials_per_s"][0]
    metrics["trace.overhead_frac"] = (overhead, "fraction", 2)
    return metrics, attempted, problems, {"plain": summary(plain), "traced": summary(traced)}


def summary(result: dict) -> dict:
    """A worker result without its per-trial lists."""
    drop = {"completions", "resumes", "kernel_s", "regions", "attempted_keys"}
    return {k: v for k, v in result.items() if k not in drop} | {
        "trials": len(result.get("completions", []))
    }


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": None,
        "git_dirty": None,
    }
    if (ROOT / ".git").exists():
        def git(*cmd):
            return subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True).stdout.strip()

        env["git_commit"] = git("rev-parse", "HEAD") or None
        env["git_dirty"] = bool(git("status", "--porcelain", "--untracked-files=no"))
    return env


def declared_metrics(trace: int) -> dict[str, str]:
    """``name -> unit`` of the metrics BENCHMARK.json lists for a mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def format_table(metrics: dict) -> str:
    width = max(len(name) for name in metrics)
    return "\n".join(
        f"  {name:<{width}}  {value:>14.6g} {unit:<12} n={n}"
        for name, (value, unit, n) in metrics.items()
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro source tree at {SRC}", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    try:
        metrics, attempted, problems, workers = run(args)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    missing = sorted(set(declared) - set(metrics))
    wrong_unit = sorted(n for n in declared if n in metrics and metrics[n][1] != declared[n])
    if (missing and not problems) or wrong_unit:
        print(f"perfbench: metrics not measured {missing}, wrong unit {wrong_unit}",
              file=sys.stderr)
        return 2
    correct = not problems
    record = {
        "workload": WORKLOADS[args.workload].describe(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "correct": correct,
        "attempted": attempted,
        "failed": len(problems),
        "trial_fail_frac": len(problems) / attempted,
        "problems": problems[:50],
        "metrics": {n: {"value": v, "unit": u, "n": k} for n, (v, u, k) in metrics.items()},
        "workers": workers,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    for problem in problems[:20]:
        print(f"perfbench: failed trial {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} trials attempted, {len(problems)} failed "
          f"(trial_fail_frac {record['trial_fail_frac']:.4g})")
    print(format_table(metrics))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {
            n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in declared if n in metrics
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
