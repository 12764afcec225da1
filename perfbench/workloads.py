"""Workload inputs: the run configurations each item hands to qndsim.

Every item's configuration is a pure function of (workload seed, item
index). Each configuration spells out every key the checks in checks.py rely
on, so the checks never depend on the program's own defaults.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np
import yaml

# The configuration qndsim ships, relative to the checkout root.
SHIPPED_CONFIG = Path("src/qndsim/data/device_defaults.yaml")

# Subcommands of one item, run through the CLI entry point in order.
SUBCOMMANDS = {
    "check": ["check"],
    "calibration": ["mollow", "stark", "loss"],
    "design": ["spectrum", "theta-sweep", "window-sweep", "readout"],
}

# Device keys that neither varied workload samples, at the measured values.
FIXED_DEVICE = {
    "nu_ge": 6475.0,
    "nu_ef": 6135.0,
    "alpha": -340.0,
    "g0": 40.0,
    "kappa": 19.0,
    "delta_qc": -676.0,
    "T1": 3.0,
    "T2_star": 1.8,
    "eps_ge": 0.063,
    "eps_eg": 0.022,
    "p_thermal": 0.06,
}

FIXED_SWEEPS = {
    "nu_mhz": {"start": 5985.0, "stop": 6285.0, "step": 0.1},
    "window_us": {"start": 0.05, "stop": 0.6, "step": 0.005},
    "theta_rad": {"start": 0.0, "stop": math.pi, "num": 33},
}


def more_items(done: int, start: float, seconds: float | None, count: int | None) -> bool:
    """Closed-loop run shape: a fixed count, or at least one item and then
    items until `seconds` of the monotonic clock have passed since start."""
    if count is not None:
        return done < count
    return done == 0 or time.monotonic() - start < seconds


def _uniform(rng: np.random.Generator, lo: float, hi: float, digits: int = 6) -> float:
    return round(float(rng.uniform(lo, hi)), digits)


def _item_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def calibration_config(seed: int, index: int) -> dict:
    """One sampled source and line for the mollow, stark and loss runners."""
    rng = np.random.default_rng([seed, index])
    ratios = sorted(_uniform(rng, 2.0, 8.0, 4) for _ in range(3))
    return {
        "seed": _item_seed(rng),
        "device": {
            **FIXED_DEVICE,
            "gamma_source": _uniform(rng, 1.0, 3.0),
            "loss_L": _uniform(rng, 0.1, 0.4),
        },
        "sweeps": {"drive_ratios": ratios},
        "mollow": {
            "gain_truth": _uniform(rng, 0.5, 1.5),
            "noise_frac": 0.01,
            "span": 2.5,
            "points": 801,
            "display_offset": 0.5,
        },
        "stark": {"n_points": 9, "p_max": 4.0, "photons_per_unit": 1.0, "noise_frac": 0.01},
        "loss": {"detector_gain": _uniform(rng, 1.0, 2.5), "noise_frac": 0.01},
    }


def design_config(seed: int, index: int) -> dict:
    """One sampled device, protocol and readout for the four design runners."""
    rng = np.random.default_rng([seed, index])
    device = {
        **FIXED_DEVICE,
        "kappa": _uniform(rng, 10.0, 30.0),
        "g0": _uniform(rng, 30.0, 50.0),
        "T2_star": _uniform(rng, 1.0, 3.0),
        "loss_L": _uniform(rng, 0.1, 0.4),
    }
    protocol = {
        "Tw": _uniform(rng, 0.15, 0.45),
        "theta": math.pi,
        # below the 0.05 us start of the window grid, so every window is valid
        "t0": _uniform(rng, 0.01, 0.04),
        "gamma_photon": _uniform(rng, 1.0, 3.0),
        "ramsey_law": "exponential",
    }
    return {
        "seed": _item_seed(rng),
        "device": device,
        "protocol": protocol,
        "sweeps": dict(FIXED_SWEEPS),
        "spectroscopy": {"gamma_atom_mhz": 0.1},
        "readout": {
            "n_shots": 12500,
            "snr": _uniform(rng, 4.0, 7.0),
            "n_bins": 101,
            "preselect_sigmas": 3.0,
        },
    }


def write_item_config(workload: str, seed: int, index: int, root: Path, path: Path) -> dict:
    """Write the item's YAML configuration to path and return its content.

    check items get the shipped file verbatim, at its seed 0, whatever the
    workload seed: other master seeds fail criterion 9 (see CHANGES.md).
    """
    if workload == "check":
        text = (root / SHIPPED_CONFIG).read_text()
    elif workload == "calibration":
        text = yaml.safe_dump(calibration_config(seed, index), sort_keys=False)
    elif workload == "design":
        text = yaml.safe_dump(design_config(seed, index), sort_keys=False)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return yaml.safe_load(text)
