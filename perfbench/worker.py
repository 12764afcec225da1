"""Child processes of the benchmark; run.py starts them from the checkout root
with src/ on PYTHONPATH.

  worker.py probe --workload W --seed N --work DIR
      import qndsim, build the first item's inputs, print the monotonic
      clock: the end of one set-up.
  worker.py items --workload W --seed N --work DIR --result FILE
                  (--seconds S | --count K) [--trace] [--spans FILE]
      run items one at a time in this process, through qndsim.cli.main,
      check each item's outputs and write per-item records to FILE.
  worker.py cli --totals FILE --spans FILE -- ARGS...
      qndsim.cli.main(ARGS) with the tracer installed: a traced `qndsim`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import checks
from tracer import Tracer
from workloads import SUBCOMMANDS, more_items, write_item_config

ROOT = Path.cwd()


def _import_cli():
    from qndsim import cli

    expected = (ROOT / "src" / "qndsim").resolve()
    if Path(cli.__file__).resolve().parent != expected:
        raise SystemExit(f"qndsim imported from {cli.__file__}, not from {expected}")
    return cli


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_item(cli, workload: str, seed: int, index: int, work: Path) -> dict:
    """One item: its runners through cli.main, then the checks."""
    item_dir = work / f"item{index}"
    config_path = item_dir / "config.yaml"
    out = item_dir / "out"
    cfg = write_item_config(workload, seed, index, ROOT, config_path)
    error = None
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            codes = [
                cli.main([sub, "--config", str(config_path), "--out", str(out)])
                for sub in SUBCOMMANDS[workload]
            ]
        if any(codes):
            error = f"exit codes {codes}: {err.getvalue()[-400:]}"
    except Exception:  # an item that raises is a failed item, not a crash
        error = traceback.format_exc(limit=-3)
    wall = time.perf_counter() - start
    cpu = _cpu_seconds() - cpu0
    record = {"index": index, "wall": wall, "cpu": cpu, "failed": error, "check": None, "sha256": None}
    if error is None:
        try:
            checks.verify(workload, out, cfg, 0)
        except (checks.CheckError, OSError, KeyError, ValueError) as exc:
            record["check"] = f"{type(exc).__name__}: {exc}"
        record["sha256"] = checks.tree_sha256(out)
    shutil.rmtree(item_dir, ignore_errors=True)
    return record


def cmd_probe(args) -> int:
    _import_cli()
    write_item_config(args.workload, args.seed, 0, ROOT, args.work / "probe" / "config.yaml")
    print(repr(time.monotonic()))
    return 0


def cmd_items(args) -> int:
    cli = _import_cli()
    tracer = Tracer() if args.trace else None
    missing = tracer.install() if tracer else []
    records = []
    start = time.monotonic()
    while more_items(len(records), start, args.seconds, args.count):
        if tracer:
            tracer.item = len(records)
        records.append(run_item(cli, args.workload, args.seed, len(records), args.work))
    if tracer and args.spans:
        tracer.dump_spans(args.spans)
    result = {
        "items": records,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "totals": tracer.totals() if tracer else {},
        "missing": missing,
    }
    args.result.write_text(json.dumps(result))
    return 0


def cmd_cli(args) -> int:
    cli = _import_cli()
    tracer = Tracer()
    missing = tracer.install()
    try:
        return cli.main(args.argv)
    finally:
        tracer.dump_spans(args.spans)
        args.totals.write_text(json.dumps({"totals": tracer.totals(), "missing": missing}))


def main() -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    probe = sub.add_parser("probe")
    items = sub.add_parser("items")
    for p in (probe, items):
        p.add_argument("--workload", required=True, choices=sorted(SUBCOMMANDS))
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--work", type=Path, required=True)
    items.add_argument("--result", type=Path, required=True)
    items.add_argument("--seconds", type=float)
    items.add_argument("--count", type=int)
    items.add_argument("--trace", action="store_true")
    items.add_argument("--spans", type=Path)
    traced = sub.add_parser("cli")
    traced.add_argument("--totals", type=Path, required=True)
    traced.add_argument("--spans", type=Path, required=True)
    traced.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "probe":
        return cmd_probe(args)
    if args.mode == "items":
        if (args.seconds is None) == (args.count is None):
            parser.error("items needs exactly one of --seconds and --count")
        return cmd_items(args)
    if args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    return cmd_cli(args)


if __name__ == "__main__":
    sys.exit(main())
