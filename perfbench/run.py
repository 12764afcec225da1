"""Benchmark of qndsim: one workload, one run, one JSON line of results.

  python3 perfbench/run.py --workload {check,calibration,design} --seed N
                           --seconds S --trace {0,1}

Run from the root of a checkout; qndsim is imported from its src/. Items run
one at a time, in a closed loop, until S seconds have passed. With
--trace 0 the last line of standard output holds the end-to-end metrics;
with --trace 1 it holds the per-layer metrics of a traced run of the same
items. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import checks
import tracer
from workloads import SUBCOMMANDS, more_items, write_item_config

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

SETUP_PROBES = 5
ITEM_TIMEOUT_S = 60.0
WORKER_TIMEOUT_S = 150.0
# exactly what the installed `qndsim` console script runs
CLI_ENTRY = "import sys; from qndsim.cli import main; sys.exit(main())"

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_s": "s",
    "cpu_s_per_item": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "moments.simulate_moment_estimates.s": "s",
    "moments.simulate_moment_estimates.calls": "count",
    "moments.shots": "count",
    "core.two_time_correlation.s": "s",
    "core.two_time_correlation.calls": "count",
    "core.tau_points": "count",
    "core.steady_state.s": "s",
    "core.psd.s": "s",
    "core.evolve.s": "s",
    "calibration.mollow_spectrum.s": "s",
    "calibration.mollow_spectrum.calls": "count",
    "calibration.true_mollow_spectrum.calls": "count",
    "calibration.spectrum_cache_hit_ratio": "ratio",
    "calibration.fit_mollow.s": "s",
    "calibration.fit_satellite_drive.s": "s",
    "calibration.inelastic_spectrum_model.calls": "count",
    "calibration.loss_calibration_roundtrip.s": "s",
    "fit.calls": "count",
    "fit.nfev": "count",
    "fit.s": "s",
    "fit.success_ratio": "ratio",
    "readout.sample_shots.s": "s",
    "readout.shots": "count",
    "readout.histogram_shots.s": "s",
    "readout.fit_double_gaussian.s": "s",
    "readout.fit_double_gaussian.calls": "count",
    "device.phase_difference_spectrum.s": "s",
    "device.points": "count",
    "protocol.window_sweep.s": "s",
    "protocol.optimal_window.s": "s",
    "protocol.fidelity_metrics.calls": "count",
    "csvio.write_csv.s": "s",
    "csvio.rows": "count",
    "csvio.bytes": "bytes",
    "csvio.write_json.s": "s",
    "config.load_config.s": "s",
    "config.config_digest.s": "s",
    **{
        f"cli.run_{name}.s": "s"
        for name in ("spectrum", "theta_sweep", "window_sweep", "qnd", "mollow", "stark", "readout", "loss")
    },
    "acceptance.run_criteria.s": "s",
    "acceptance.run_check.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def reference_seconds() -> float:
    """A fixed numpy computation, timed to tell a slow machine from a slow
    program; reported, never gated."""
    a = np.random.default_rng(0).standard_normal((256, 256))
    np.linalg.svd(a)  # load and warm the LAPACK routines first
    start = time.perf_counter()
    for _ in range(8):
        np.linalg.svd(a)
        np.fft.fft2(a)
    return time.perf_counter() - start


def setup_seconds(workload: str, seed: int, work: Path) -> float:
    """Fresh interpreter to first item ready, as the probe reports it."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "probe", "--workload", workload,
         "--seed", str(seed), "--work", str(work)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.split()[-1]) - start


def wait_with_usage(proc: subprocess.Popen, timeout: float):
    """Reap proc and return its resource usage; kill it after timeout."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_check_item(seed: int, index: int, work: Path, traced: bool) -> dict:
    """One `qndsim check` in a fresh process, timed and checked from here."""
    item_dir = work / f"item{index}"
    config_path = item_dir / "config.yaml"
    out = item_dir / "out"
    cfg = write_item_config("check", seed, index, ROOT, config_path)
    argv = ["check", "--config", str(config_path), "--out", str(out)]
    if traced:
        cmd = [sys.executable, str(BENCH / "worker.py"), "cli", "--totals", str(item_dir / "totals.json"),
               "--spans", str(work / "spans.jsonl"), "--", *argv]
    else:
        cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
    with open(item_dir / "log.txt", "w") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        usage = wait_with_usage(proc, ITEM_TIMEOUT_S)
        wall = time.monotonic() - start
    record = {
        "index": index,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "failed": None,
        "check": None,
        "sha256": None,
    }
    # exit 3 is a completed run whose criteria failed: a check failure
    if proc.returncode not in (0, 3):
        record["failed"] = f"exit code {proc.returncode}: {(item_dir / 'log.txt').read_text()[-400:]}"
    else:
        try:
            checks.verify("check", out, cfg, proc.returncode)
        except (checks.CheckError, OSError, KeyError, ValueError) as exc:
            record["check"] = f"{type(exc).__name__}: {exc}"
        record["sha256"] = checks.tree_sha256(out)
    if traced:
        record["trace"] = json.loads((item_dir / "totals.json").read_text())
    shutil.rmtree(item_dir, ignore_errors=True)
    return record


def run_check_items(seed: int, work: Path, seconds: float | None, count: int | None, traced: bool) -> dict:
    records = []
    start = time.monotonic()
    while more_items(len(records), start, seconds, count):
        records.append(run_check_item(seed, len(records), work, traced))
    traces = [r.pop("trace") for r in records if "trace" in r]
    return {
        "items": records,
        "maxrss_kb": max(r["maxrss_kb"] for r in records),
        "totals": tracer.merge([t["totals"] for t in traces]),
        "missing": sorted({m for t in traces for m in t["missing"]}),
    }


def run_worker(workload: str, seed: int, work: Path, seconds: float | None, count: int | None, traced: bool) -> dict:
    """Items in one fresh worker process; its records come back as JSON."""
    result = work / f"worker-{'traced' if traced else 'plain'}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "items", "--workload", workload, "--seed", str(seed),
           "--work", str(work), "--result", str(result)]
    cmd += ["--seconds", str(seconds)] if count is None else ["--count", str(count)]
    if traced:
        cmd += ["--trace", "--spans", str(work / "spans.jsonl")]
    with open(work / "worker-log.txt", "w") as log:
        subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                       timeout=WORKER_TIMEOUT_S, check=True)
    return json.loads(result.read_text())


def run_items(workload: str, seed: int, work: Path, seconds=None, count=None, traced=False) -> dict:
    if workload == "check":
        return run_check_items(seed, work, seconds, count, traced)
    return run_worker(workload, seed, work, seconds, count, traced)


def end_to_end(run: dict, setups: list[float]) -> dict:
    walls = [r["wall"] for r in run["items"]]
    return {
        "setup_s": statistics.median(setups),
        "items_per_s": len(walls) / sum(walls),
        "item_p50_s": statistics.median(walls),
        "cpu_s_per_item": statistics.median(r["cpu"] for r in run["items"]),
        "peak_rss_mb": run["maxrss_kb"] / 1024.0,
    }


def per_layer(plain: dict, traced: dict) -> dict:
    items = len(traced["items"])
    found = tracer.metrics(traced["totals"], items)
    out = {name: float(found.get(name, 0.0)) for name in PER_LAYER}
    out["trace.overhead_ratio"] = statistics.median(r["wall"] for r in traced["items"]) / statistics.median(
        r["wall"] for r in plain["items"]
    )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SUBCOMMANDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "qndsim" / "__init__.py").is_file():
        print(f"no qndsim sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ref_start = reference_seconds()
        if args.trace:
            # the same items, untraced then traced, each in its own processes
            plain = run_items(args.workload, args.seed, work, seconds=args.seconds / 2)
            traced = run_items(args.workload, args.seed, work, count=len(plain["items"]), traced=True)
            runs = [plain, traced]
            metrics = per_layer(plain, traced)
            units = PER_LAYER
            spans = work / "spans.jsonl"
            if spans.exists():
                RESULTS.mkdir(exist_ok=True)
                shutil.copyfile(spans, RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            setups = [setup_seconds(args.workload, args.seed, work) for _ in range(SETUP_PROBES)]
            plain = run_items(args.workload, args.seed, work, seconds=args.seconds)
            runs = [plain]
            metrics = end_to_end(plain, setups)
            units = END_TO_END
        ref_end = reference_seconds()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    items = [r for run in runs for r in run["items"]]
    problems = [f"item {r['index']}: {r['check']}" for r in items if r["check"]]
    if args.trace:
        for a, b in zip(plain["items"], traced["items"]):
            if a["sha256"] != b["sha256"]:
                problems.append(f"item {a['index']}: traced outputs differ from untraced")
        for name in sorted(set().union(*(run["missing"] for run in runs))):
            print(f"warning: layer {name} is bound nowhere in qndsim; it reads 0", file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for r in items:
        if r["failed"]:
            print(f"item {r['index']} failed: {r['failed']}", file=sys.stderr)

    summary = {
        "correct": not problems,
        "attempted": len(items),
        "failed": sum(1 for r in items if r["failed"]),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reference_s": {"start": ref_start, "end": ref_end},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "item_walls": [r["wall"] for r in items],
        **({"setup_samples": setups} if not args.trace else {}),
        **summary,
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(f"reference numpy computation: {ref_start:.4f} s at start, {ref_end:.4f} s at end (not gated)")
    for name, entry in summary["metrics"].items():
        print(f"{args.workload} {name}: {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
