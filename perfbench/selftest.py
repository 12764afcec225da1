"""Self-test of the output checks: each passes on a real item and rejects a
deliberately corrupted copy of the output it reads.

  python3 perfbench/selftest.py        (from the root of a checkout)

Runs one item per workload with qndsim, then, for every check in
checks.CHECKS, corrupts a copy of the item's outputs and requires that check
to raise CheckError. Also requires BENCHMARK.json to name exactly the metrics
run.py reports. Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
import run
from workloads import SUBCOMMANDS, write_item_config


def _edit_csv(path: Path, edit) -> None:
    header, rows = checks.read_rows(path)
    edit(rows)
    path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")


def _scale_cell(path: Path, row: int, col: int, factor: float) -> None:
    def edit(rows):
        rows[row][col] = repr(float(rows[row][col]) * factor)

    _edit_csv(path, edit)


def corrupt_acceptance(out: Path, cfg: dict) -> None:
    path = out / "acceptance_report.json"
    report = json.loads(path.read_text())
    report["criteria"][4]["passed"] = False
    path.write_text(json.dumps(report))


def corrupt_determinism(out: Path, cfg: dict) -> None:
    path = out / "run_b" / "stark.csv"
    path.write_text(path.read_text() + "\n")


def corrupt_window_sweep(out: Path, cfg: dict) -> None:
    _scale_cell(checks._run_dir(out) / "window_sweep.csv", 40, 3, 1 + 1e-6)


def corrupt_theta_sweep(out: Path, cfg: dict) -> None:
    _scale_cell(checks._run_dir(out) / "theta_sweep.csv", 10, 1, 1 + 1e-6)


def corrupt_spectrum(out: Path, cfg: dict) -> None:
    _scale_cell(checks._run_dir(out) / "spectrum.csv", 1000, 1, 1 + 1e-6)


def corrupt_mollow_spectra(out: Path, cfg: dict) -> None:
    """5 % more flux in the first spectrum, display column kept consistent."""

    def edit(rows):
        for row in rows:
            if row[0] == rows[0][0]:
                psd = float(row[2]) * 1.05
                row[2], row[3] = repr(psd), repr(psd)

    _edit_csv(out / "mollow_spectra.csv", edit)


def corrupt_mollow_fit(out: Path, cfg: dict) -> None:
    _scale_cell(out / "mollow_fit.csv", 0, 1, 1.05)


def corrupt_stark(out: Path, cfg: dict) -> None:
    def edit(rows):
        rows[-1][1] = repr(float(rows[-1][1]) + 5.0)

    _edit_csv(out / "stark.csv", edit)


def corrupt_loss(out: Path, cfg: dict) -> None:
    def edit(rows):
        for row in rows:
            if row[0] == "loss_est":
                row[1] = repr(float(row[1]) + 0.1)

    _edit_csv(out / "loss_pipeline.csv", edit)


def corrupt_readout(out: Path, cfg: dict) -> None:
    """The first 1000 photon_1 shots all land on the excited mean."""

    def edit(rows):
        for row in rows[:1000]:
            row[1] = repr(float(cfg["readout"]["snr"]))

    _edit_csv(out / "shots_photon_1.csv", edit)


CORRUPTIONS = {
    checks.check_acceptance: corrupt_acceptance,
    checks.check_determinism: corrupt_determinism,
    checks.check_window_sweep: corrupt_window_sweep,
    checks.check_theta_sweep: corrupt_theta_sweep,
    checks.check_spectrum: corrupt_spectrum,
    checks.check_mollow_spectra: corrupt_mollow_spectra,
    checks.check_mollow_fit: corrupt_mollow_fit,
    checks.check_stark: corrupt_stark,
    checks.check_loss: corrupt_loss,
    checks.check_readout: corrupt_readout,
}


def run_item(workload: str, work: Path) -> tuple[Path, dict, int]:
    config_path = work / "config.yaml"
    out = work / "out"
    cfg = write_item_config(workload, 1, 0, run.ROOT, config_path)
    if workload == "check":
        argv = ["check", "--config", str(config_path), "--out", str(out)]
        proc = subprocess.run([sys.executable, "-c", run.CLI_ENTRY, *argv], cwd=run.ROOT,
                              env=run.child_env(), capture_output=True, timeout=120)
        return out, cfg, proc.returncode
    sys.path.insert(0, str(run.SRC))
    from qndsim import cli

    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main([s, "--config", str(config_path), "--out", str(out)]) for s in SUBCOMMANDS[workload]]
    return out, cfg, max(codes)


def main() -> int:
    failures = []
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [m["name"] for m in bench["end_to_end"]] != list(run.END_TO_END):
        failures.append("BENCHMARK.json end_to_end names differ from run.END_TO_END")
    if [m["name"] for m in bench["per_layer"]] != list(run.PER_LAYER):
        failures.append("BENCHMARK.json per_layer names differ from run.PER_LAYER")
    (run.BENCH / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.BENCH / "_work") as tmp:
        for workload in SUBCOMMANDS:
            out, cfg, rc = run_item(workload, Path(tmp) / workload)
            for check in checks.CHECKS[workload]:
                name = f"{workload}/{check.__name__}"
                try:
                    check(out, cfg, rc)
                except checks.CheckError as exc:
                    failures.append(f"{name} rejects a real output: {exc}")
                    continue
                copy = Path(tmp) / "corrupted"
                shutil.rmtree(copy, ignore_errors=True)
                shutil.copytree(out, copy)
                CORRUPTIONS[check](copy, cfg)
                try:
                    check(copy, cfg, rc)
                    failures.append(f"{name} accepts a corrupted output")
                except checks.CheckError as exc:
                    print(f"ok   {name}: rejects the corrupted copy ({exc})")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
