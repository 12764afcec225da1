"""Batch front end: one subcommand per experiment, deterministic seeding,
CSV/JSON emission, and the acceptance check.

Exit codes: 0 success, 1 configuration error or unwritable output, 2 numeric
or fit error, 3 acceptance failure under check.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np

from . import acceptance, calibration, moments, protocol, readout
from .config import ConfigError, RunConfig, config_digest, default_config, load_config
from .csvio import write_csv, write_json
from .device import (
    count_pi_crossings,
    dispersive_shift,
    dressed_frequencies,
    phase_difference_spectrum,
)
from .domain import DomainError
from .errors import SimulationError


# The tables a runner returns with its headline: each CSV file name, in write
# order, mapped to the file's header and columns. Each column is what
# write_csv takes: a range or a 1-d bool, integer, float or str array.
Tables = dict[str, tuple[list[str], list[range | np.ndarray]]]


def _runner_seed(master: int, name: str) -> int:
    digest = hashlib.sha256(f"{master}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def run_spectrum(cfg: RunConfig) -> tuple[Tables, dict]:
    """Conditional reflection-phase spectrum of the detector."""
    dev = cfg.device
    nus = cfg.sweeps.nu_mhz.to_array()
    r_g, r_e, dphi = phase_difference_spectrum(dev, nus, cfg.spectroscopy.gamma_atom_mhz)
    tables = {
        "spectrum.csv": (
            ["nu_MHz", "re_rg", "im_rg", "re_re", "im_re", "delta_phi_rad"],
            [nus, r_g.real, r_g.imag, r_e.real, r_e.imag, dphi],
        )
    }
    # each entry below is null when no grid point lies within 2 MHz of its
    # frequency
    nearest = np.argmin(np.abs(nus - dev.nu_ef))
    center = float(dphi[nearest]) if abs(nus[nearest] - dev.nu_ef) <= 2.0 else None
    lo, hi = dressed_frequencies(dev, 1)
    dressed_err = {}
    for tag, nu_d in (("minus", lo), ("plus", hi)):
        window = np.abs(nus - nu_d) <= 2.0
        dressed_err[tag] = float(np.min(np.abs(dphi[window] - np.pi))) if window.any() else None
    in_band = np.abs(nus - dev.nu_ef) <= 2 * np.sqrt(2) * dev.g0
    headline = {
        "delta_phi_at_cavity": center,
        "pi_deviation_at_dressed_minus": dressed_err["minus"],
        "pi_deviation_at_dressed_plus": dressed_err["plus"],
        "pi_crossings": count_pi_crossings(r_g[in_band], r_e[in_band]),
    }
    return tables, headline


def run_theta_sweep(cfg: RunConfig) -> tuple[Tables, dict]:
    """Click probability vs photon preparation angle."""
    thetas = cfg.sweeps.theta_rad.to_array()
    p_e = protocol.theta_sweep(cfg.protocol, cfg.device, thetas)
    probs = protocol.fidelity_metrics(cfg.protocol, cfg.device)
    headline = {
        "p_e_given_1": probs.p_e_given_1,
        "p_e_given_0": probs.p_e_given_0,
        "fidelity": probs.fidelity,
        "ratio": probs.ratio,
    }
    return {"theta_sweep.csv": (["theta_rad", "p_e"], [thetas, p_e])}, headline


def run_window_sweep(cfg: RunConfig) -> tuple[Tables, dict]:
    """Efficiency, dark count, fidelity and ratio vs window length."""
    proto, dev = cfg.protocol, cfg.device
    windows = cfg.sweeps.window_us.to_array()
    probs = protocol.window_sweep(proto, dev, windows)
    tables = {
        "window_sweep.csv": (
            ["Tw_us", "p_e1", "p_e0", "fidelity", "ratio"],
            [windows, probs.p_e_given_1, probs.p_e_given_0, probs.fidelity, probs.ratio],
        )
    }
    headline = {
        "peak_efficiency_window_us": protocol.optimal_window(proto, dev, "efficiency"),
        "peak_fidelity_window_us": protocol.optimal_window(proto, dev, "fidelity"),
        "max_ratio": float(np.max(probs.ratio)),
        "ratio_at_100ns": protocol.fidelity_metrics(proto.with_window(0.1), dev).ratio,
    }
    return tables, headline


def run_qnd(cfg: RunConfig) -> tuple[Tables, dict]:
    """Expected ON/OFF field moments plus the shot-noise Monte Carlo."""
    thetas = np.linspace(0.0, np.pi, cfg.qnd.n_theta)
    on = moments.expected_moments(thetas, "on", cfg.qnd.scale)
    off = moments.expected_moments(thetas, "off", cfg.qnd.scale)
    base = _runner_seed(cfg.seed, "qnd")
    seeds = [
        int(s)
        for s in np.random.SeedSequence(base).generate_state(cfg.qnd.mc_seeds, np.uint64)
    ]
    deviations = moments.qnd_monte_carlo(
        thetas,
        seeds,
        cfg.qnd.scale,
        cfg.qnd.n_shots,
        cfg.qnd.noise_var,
        cfg.qnd.floor,
        cfg.qnd.coherence_offset,
    )
    passed = deviations <= cfg.qnd.gate
    tables = {
        "qnd_expected.csv": (
            ["theta_rad", "n_on", "n_off", "re_a_on", "re_a_off"],
            [thetas, on[0], off[0], on[1], off[1]],
        ),
        "qnd_mc.csv": (
            ["seed_index", "max_power_deviation", "passed"],
            [range(len(seeds)), deviations, passed],
        ),
    }
    headline = {
        "expected_max_deviation": moments.max_power_deviation(on[0], off[0], cfg.qnd.floor),
        "mc_pass_count": int(passed.sum()),
        "mc_seeds": len(seeds),
    }
    return tables, headline


def _true_spectra(cfg: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """(grids, spectra): the source's true spectra on the mollow grid, one row
    of each per drive ratio."""
    mc = cfg.mollow
    rows = [
        calibration.true_mollow_spectrum(r, cfg.device.gamma_source, mc.span, mc.points)
        for r in cfg.sweeps.drive_ratios
    ]
    grids, spectra = zip(*rows)
    return np.array(grids), np.array(spectra)


def run_mollow(cfg: RunConfig) -> tuple[Tables, dict]:
    """Fluorescence spectra, sideband locations, and the gain-fit recovery."""
    mc = cfg.mollow
    gamma = cfg.device.gamma_source
    ratios = cfg.sweeps.drive_ratios
    grids, spectra = _true_spectra(cfg)
    sideband_errs = {}
    for ratio, grid, values in zip(ratios, grids, spectra):
        nominal = ratio * gamma
        fitted = calibration.fit_satellite_drive(grid, values, gamma, nominal)
        sideband_errs[f"sideband_rel_err_ratio_{ratio:g}"] = float(abs(fitted - nominal) / nominal)
    dataset = calibration.synthetic_mollow_dataset(
        spectra, mc.gain_truth, mc.noise_frac, _runner_seed(cfg.seed, "mollow")
    )
    fit = calibration.fit_mollow(ratios, grids, dataset, gamma)
    offsets = mc.display_offset * np.arange(len(ratios))[:, None]
    tables = {
        "mollow_spectra.csv": (
            ["drive_ratio", "delta_MHz", "psd", "psd_display"],
            [
                np.repeat(ratios, mc.points),
                grids.ravel(),
                spectra.ravel(),
                (spectra + offsets).ravel(),
            ],
        ),
        "mollow_fit.csv": (
            ["parameter", "estimate", "truth"],
            [
                np.array(["gain", "gamma_MHz", *(f"omega_MHz_ratio_{r:g}" for r in ratios)]),
                np.array([fit.gain, fit.gamma, *fit.omegas]),
                np.array([mc.gain_truth, gamma, *(r * gamma for r in ratios)]),
            ],
        ),
    }
    headline = {
        "gain_truth": mc.gain_truth,
        "gain_est": fit.gain,
        "gain_rel_err": abs(fit.gain - mc.gain_truth) / mc.gain_truth,
        "gamma_est": fit.gamma,
        "gamma_rel_err": abs(fit.gamma - gamma) / gamma,
        **sideband_errs,
    }
    return tables, headline


def run_stark(cfg: RunConfig) -> tuple[Tables, dict]:
    """Photon-number calibration from the linear qubit-frequency shift."""
    dev = cfg.device
    chi = dispersive_shift(dev.alpha, dev.g0, dev.delta_qc)
    slope_true = 2.0 * chi * cfg.stark.photons_per_unit
    p_in, nu_q = calibration.synthetic_stark_dataset(
        chi,
        dev.nu_ge,
        cfg.stark.photons_per_unit,
        cfg.stark.p_max,
        cfg.stark.n_points,
        noise_mhz=cfg.stark.noise_frac * abs(slope_true) * cfg.stark.p_max,
        seed=_runner_seed(cfg.seed, "stark"),
    )
    fit = calibration.stark_fit(p_in, nu_q)
    tables = {
        "stark.csv": (["P_in", "nu_q_MHz", "n_p"], [p_in, nu_q, fit.photons_at(p_in, chi)])
    }
    headline = {
        "chi_MHz": chi,
        "slope_true": slope_true,
        "slope_est": fit.slope,
        "slope_err": fit.slope_err,
        "nu_q0_est": fit.intercept,
    }
    return tables, headline


def run_readout(cfg: RunConfig) -> tuple[Tables, dict]:
    """Single-shot histograms, double-Gaussian fits, and preselection."""
    dev = cfg.device
    ro = cfg.readout
    mix = readout.GaussianMixture(0.0, ro.snr, 1.0, 0.5)
    thr = readout.midpoint_threshold(mix)
    probs = protocol.fidelity_metrics(cfg.protocol, dev)
    populations = {
        "prep_g": dev.eps_eg,
        "prep_e": 1.0 - dev.eps_ge,
        "photon_0": protocol.readout_composition(probs.p_e_given_0, dev.eps_ge, dev.eps_eg),
        "photon_1": protocol.readout_composition(probs.p_e_given_1, dev.eps_ge, dev.eps_eg),
    }
    tables = {}
    fits = {}
    assigned = {}
    for name, p_e in populations.items():
        seed = _runner_seed(cfg.seed, f"readout:{name}")
        gen = readout.GaussianMixture(mix.mu_g, mix.mu_e, mix.sigma, p_e)
        shots = readout.sample_shots(gen, ro.n_shots, seed)
        hist = readout.histogram_shots(shots, ro.n_bins)
        tables[f"shots_{name}.csv"] = (["index", "q"], [range(ro.n_shots), shots])
        tables[f"hist_{name}.csv"] = (["bin_center", "count"], hist)
        fits[name] = readout.fit_double_gaussian(*hist)
        assigned[name] = readout.assigned_fraction(shots, thr)
    estimates = np.array([(*astuple(fit.mixture), fit.rss) for fit in fits.values()])
    tables["readout_fits.csv"] = (
        ["dataset", "mu_g", "mu_e", "sigma", "w_e", "rss"],
        [np.array(list(fits)), *estimates.T],
    )

    pre_mix = readout.GaussianMixture(mix.mu_g, mix.mu_e, mix.sigma, dev.p_thermal)
    pre_seed = _runner_seed(cfg.seed, "readout:preselect")
    pre_shots = readout.sample_shots(pre_mix, ro.n_shots, pre_seed)
    pre_thr = readout.preselect_threshold(mix, ro.preselect_sigmas)
    discard = readout.assigned_fraction(pre_shots, pre_thr)
    tables["hist_preselect.csv"] = (
        ["bin_center", "count"],
        readout.histogram_shots(pre_shots, ro.n_bins),
    )

    composed_f = probs.fidelity * readout.assignment_fidelity(dev.eps_ge, dev.eps_eg)
    headline = {
        "assignment_fidelity": readout.assignment_fidelity(dev.eps_ge, dev.eps_eg),
        "overlap_error": readout.overlap_error(mix),
        "assigned_e_prep_g": assigned["prep_g"],
        "assigned_e_prep_e": assigned["prep_e"],
        "discard_fraction": discard,
        "composed_p_e_given_1": populations["photon_1"],
        "composed_p_e_given_0": populations["photon_0"],
        "composed_fidelity": composed_f,
        "reference_fidelity": cfg.reference.single_shot_fidelity,
        "reference_dark": cfg.reference.single_shot_dark,
        "reference_miss": cfg.reference.single_shot_miss,
    }
    return tables, headline


def run_loss(cfg: RunConfig) -> tuple[Tables, dict]:
    """Itemized loss budget and the end-to-end loss extraction."""
    components = cfg.loss.components
    budget = calibration.loss_budget(components)
    fractions = np.array(list(components.values()))
    pipeline = calibration.loss_calibration_roundtrip(
        cfg.device,
        cfg.sweeps.drive_ratios,
        *_true_spectra(cfg),
        cfg.loss.detector_gain,
        cfg.loss.noise_frac,
        _runner_seed(cfg.seed, "loss"),
        cfg.stark.photons_per_unit,
        cfg.stark.p_max,
        cfg.stark.n_points,
    )
    quantities = sorted(pipeline)
    tables = {
        "loss_budget.csv": (
            ["name", "fraction", "cumulative"],
            [np.array(list(components)), fractions, np.cumsum(fractions)],
        ),
        "loss_pipeline.csv": (
            ["quantity", "value"],
            [np.array(quantities), np.array([pipeline[q] for q in quantities])],
        ),
    }
    headline = {
        "total_additive": budget.total_additive,
        "total_multiplicative": budget.total_multiplicative,
        "loss_true": pipeline["loss_true"],
        "loss_est": pipeline["loss_est"],
        "loss_abs_err": abs(pipeline["loss_est"] - pipeline["loss_true"]),
    }
    return tables, headline


RUNNERS = {
    "spectrum": run_spectrum,
    "theta-sweep": run_theta_sweep,
    "window-sweep": run_window_sweep,
    "qnd": run_qnd,
    "mollow": run_mollow,
    "stark": run_stark,
    "readout": run_readout,
    "loss": run_loss,
}


def _emit(cfg: RunConfig, subcommand: str, out_dir: Path, digest: str) -> dict:
    """Run one subcommand, write its tables and its report into out_dir, and
    return its headline. digest is config_digest(cfg), computed by the caller
    once for all the reports it writes.

    Raises SimulationError, before anything is written, if a float column or
    a non-null headline value is not finite."""
    tables, headline = RUNNERS[subcommand](cfg)
    name = subcommand.replace("-", "_")
    for file, (header, columns) in tables.items():
        for key, column in zip(header, columns):
            if isinstance(column, np.ndarray) and column.dtype.kind == "f":
                if not np.isfinite(column).all():
                    raise SimulationError(
                        f"the {subcommand} runner gave a non-finite value in column "
                        f"{key!r} of {file}"
                    )
    for key, value in headline.items():
        if value is not None and not math.isfinite(value):
            raise SimulationError(
                f"the {subcommand} runner gave a non-finite headline value {key!r} "
                f"for {name}_report.json"
            )
    for file, (header, columns) in tables.items():
        write_csv(out_dir / file, header, columns)
    report = {
        "subcommand": name,
        "config_digest": digest,
        "seed": cfg.seed,
        "files": sorted(tables),
        "headline": headline,
    }
    write_json(out_dir / f"{name}_report.json", report)
    return headline


def run_all(cfg: RunConfig, out_dir: Path) -> dict[str, dict]:
    """Every subcommand's files and report in out_dir; the headlines by
    subcommand."""
    digest = config_digest(cfg)
    return {subcommand: _emit(cfg, subcommand, out_dir, digest) for subcommand in RUNNERS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qndsim",
        description="Microwave single-photon detection simulator and calibration pipeline",
    )
    parser.add_argument("subcommand", choices=[*RUNNERS, "check"])
    parser.add_argument("--config", type=Path, default=None, help="YAML run configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config) if args.config else default_config()
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
    except (ConfigError, DomainError) as exc:  # DomainError: the --seed override
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    out_dir = args.out if args.out else Path(cfg.output_dir)
    try:
        if args.subcommand == "check":
            results = acceptance.run_check(cfg, out_dir)
            print(acceptance.render_report(results))
            return 0 if all(r.passed for r in results) else 3
        headline = _emit(cfg, args.subcommand, out_dir, config_digest(cfg))
        for key, value in headline.items():
            print(f"{key}: {value}")
        return 0
    except (SimulationError, ValueError, ArithmeticError) as exc:
        print(f"{args.subcommand}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # --out names a path that cannot hold the output tree
        print(f"{args.subcommand}: cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
