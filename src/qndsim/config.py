"""Run configuration: YAML ingestion, defaults, grids and content digests.

Every key is optional and falls back to the measured device defaults; the
shipped fixture data/device_defaults.yaml spells out all of them.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from .device import SPECTRUM_HALF_SPAN_MHZ, DeviceParams
from .protocol import ProtocolConfig

CONFIG_VERSION = 1

# A step grid's span must be a whole number of steps to this relative
# tolerance, which absorbs the rounding of decimal steps such as 0.1.
GRID_STEPS_RTOL = 1e-9


class ConfigError(ValueError):
    """Malformed or unknown configuration content."""


@dataclass
class GridSpec:
    """Uniform grid given by start/stop plus either step or num."""

    start: float
    stop: float
    step: float | None = None
    num: int | None = None

    def __post_init__(self):
        if (self.step is None) == (self.num is None):
            raise ConfigError("grid needs exactly one of step or num")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ConfigError("grid start and stop must be finite")
        if self.stop <= self.start:
            raise ConfigError("grid stop must exceed start")
        if self.step is not None and self.step <= 0:
            raise ConfigError("grid step must be positive")
        if self.num is not None and self.num < 2:
            raise ConfigError("grid num must be at least 2")
        if self.step is not None:
            steps = (self.stop - self.start) / self.step
            if abs(steps - round(steps)) > GRID_STEPS_RTOL * steps:
                raise ConfigError(
                    f"grid step {self.step:g} does not divide the span "
                    f"{self.stop - self.start:g} ({steps:.6g} steps)"
                )

    def to_array(self) -> np.ndarray:
        if self.num is not None:
            return np.linspace(self.start, self.stop, self.num)
        n = int(round((self.stop - self.start) / self.step)) + 1
        return np.linspace(self.start, self.stop, n)


@dataclass
class SweepConfig:
    nu_mhz: GridSpec = field(default_factory=lambda: GridSpec(5985.0, 6285.0, step=0.1))
    window_us: GridSpec = field(default_factory=lambda: GridSpec(0.05, 0.6, step=0.005))
    theta_rad: GridSpec = field(default_factory=lambda: GridSpec(0.0, math.pi, num=33))
    drive_ratios: list[float] = field(default_factory=lambda: [2.0, 4.0, 6.0])

    def __post_init__(self):
        # calibration.fit_mollow fits the spectra jointly and needs three
        if len(self.drive_ratios) < 3:
            raise ConfigError("sweeps.drive_ratios needs at least three ratios")
        if any(r <= 0 for r in self.drive_ratios):
            raise ConfigError("sweeps.drive_ratios must be positive")
        # protocol.theta_sweep takes preparation angles in [0, pi]
        if not (0 <= self.theta_rad.start and self.theta_rad.stop <= math.pi):
            raise ConfigError("sweeps.theta_rad must lie in [0, pi]")


@dataclass
class SpectroscopyConfig:
    # Finite e-f linewidth regularizing the dressed-resonance phase; the
    # measured value is not known, and delta-phi targets move by < 1e-3 rad
    # for anything below kappa/50.
    gamma_atom_mhz: float = 0.1

    def __post_init__(self):
        # device.phase_difference_spectrum takes a non-negative atomic linewidth
        if not 0 <= self.gamma_atom_mhz < math.inf:
            raise ConfigError("spectroscopy.gamma_atom_mhz must be non-negative and finite")


@dataclass
class ReadoutRunConfig:
    n_shots: int = 12_500
    snr: float = 5.75  # (mu_e - mu_g) / sigma placing the overlap error at 0.2%
    n_bins: int = 101
    preselect_sigmas: float = 3.0  # conservative ground-state heralding threshold

    def __post_init__(self):
        # preconditions of readout.fit_double_gaussian, checked at load time
        if self.n_shots < 100:
            raise ConfigError("readout.n_shots must be at least 100")
        if self.n_bins < 20:
            raise ConfigError("readout.n_bins must be at least 20")
        # readout.GaussianMixture places e above g
        if not 0 < self.snr < math.inf:
            raise ConfigError("readout.snr must be positive and finite")
        if not self.preselect_sigmas > 0:
            raise ConfigError("readout.preselect_sigmas must be positive")


@dataclass
class QndRunConfig:
    n_shots: int = 12_500
    # Per-quadrature variance of the additive measurement noise, referenced
    # to the photon mode. The value is calibrated so that a 12,500-shot
    # moment estimate carries ~0.5% standard error at one photon: the 2%
    # ON/OFF power gate compared across a 9-point angle grid needs per-point
    # noise well below half the gate to pass in 95% of runs.
    noise_var: float = 0.016
    n_theta: int = 9
    scale: float = 1.0  # line transmission
    mc_seeds: int = 100
    gate: float = 0.02
    floor: float = 0.25  # photons; keeps the relative deviation finite near vacuum
    coherence_offset: float = 0.0  # spurious ON-state amplitude, off by default

    def __post_init__(self):
        if self.mc_seeds < 1:
            raise ConfigError("qnd.mc_seeds must be at least 1")
        if self.n_shots < 1:
            raise ConfigError("qnd.n_shots must be at least 1")
        # the angle grid runs from 0 to pi
        if self.n_theta < 2:
            raise ConfigError("qnd.n_theta must be at least 2")
        if not 0 < self.noise_var < math.inf:
            raise ConfigError("qnd.noise_var must be positive and finite")
        if not 0 < self.scale <= 1:
            raise ConfigError("qnd.scale must lie in (0, 1]")
        if not self.gate > 0:
            raise ConfigError("qnd.gate must be positive")
        if not self.floor > 0:
            raise ConfigError("qnd.floor must be positive")
        if not math.isfinite(self.coherence_offset):
            raise ConfigError("qnd.coherence_offset must be finite")


def _check_noise_frac(value: float, section: str) -> None:
    if not 0 <= value < math.inf:
        raise ConfigError(f"{section}.noise_frac must be non-negative and finite")


@dataclass
class MollowRunConfig:
    gain_truth: float = 0.8
    noise_frac: float = 0.01
    span: float = 2.5
    points: int = 801
    display_offset: float = 0.5

    def __post_init__(self):
        if not 0 < self.gain_truth < math.inf:
            raise ConfigError("mollow.gain_truth must be positive and finite")
        _check_noise_frac(self.noise_frac, "mollow")
        # calibration.mollow_spectrum needs the grid to reach +-2 Omega
        if not 2 <= self.span < math.inf:
            raise ConfigError("mollow.span must be at least 2 and finite")
        if self.points < 2:
            raise ConfigError("mollow.points must be at least 2")
        if not math.isfinite(self.display_offset):
            raise ConfigError("mollow.display_offset must be finite")


@dataclass
class StarkRunConfig:
    n_points: int = 9
    p_max: float = 4.0
    photons_per_unit: float = 1.0
    noise_frac: float = 0.01

    def __post_init__(self):
        # calibration.stark_fit needs three distinct, non-negative powers
        if self.n_points < 3:
            raise ConfigError("stark.n_points must be at least 3")
        if not 0 < self.p_max < math.inf:
            raise ConfigError("stark.p_max must be positive and finite")
        # a zero photon scale makes the detector-chain gain vanish in loss
        if not 0 < self.photons_per_unit < math.inf:
            raise ConfigError("stark.photons_per_unit must be positive and finite")
        _check_noise_frac(self.noise_frac, "stark")


@dataclass
class LossRunConfig:
    # fractions by name, in the order the budget lists them
    components: dict[str, float] = field(
        default_factory=lambda: {
            "circulator": 0.08,
            "switch": 0.05,
            "connectors": 0.05,
            "cables": 0.02,
        }
    )
    detector_gain: float = 1.6
    noise_frac: float = 0.01

    def __post_init__(self):
        # calibration.loss_budget takes each fraction in [0, 1)
        for name, frac in self.components.items():
            if not 0 <= frac < 1:
                raise ConfigError(f"loss.components.{name} must lie in [0, 1)")
        if not 0 < self.detector_gain < math.inf:
            raise ConfigError("loss.detector_gain must be positive and finite")
        _check_noise_frac(self.noise_frac, "loss")


@dataclass
class ReferenceValues:
    """Quoted single-shot reference measurements, reported next to the
    composed model predictions (see README on the known bookkeeping gap)."""

    single_shot_fidelity: float = 0.496
    single_shot_dark: float = 0.134
    single_shot_miss: float = 0.37


@dataclass
class RunConfig:
    device: DeviceParams = field(default_factory=DeviceParams)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    sweeps: SweepConfig = field(default_factory=SweepConfig)
    spectroscopy: SpectroscopyConfig = field(default_factory=SpectroscopyConfig)
    readout: ReadoutRunConfig = field(default_factory=ReadoutRunConfig)
    qnd: QndRunConfig = field(default_factory=QndRunConfig)
    mollow: MollowRunConfig = field(default_factory=MollowRunConfig)
    stark: StarkRunConfig = field(default_factory=StarkRunConfig)
    loss: LossRunConfig = field(default_factory=LossRunConfig)
    reference: ReferenceValues = field(default_factory=ReferenceValues)
    seed: int = 0
    output_dir: str = "out"
    config_version: int = CONFIG_VERSION

    def __post_init__(self):
        if self.config_version != CONFIG_VERSION:
            raise ConfigError(
                f"config_version must be {CONFIG_VERSION}, got {self.config_version!r}"
            )
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit an unsigned 64-bit integer")
        # ProtocolConfig rejects a window that ends at or before the emission delay
        if self.sweeps.window_us.start <= self.protocol.t0:
            raise ConfigError(
                f"sweeps.window_us.start must exceed protocol.t0 ({self.protocol.t0:g} us)"
            )
        # device.phase_difference_spectrum takes frequencies near nu_ef only
        nu, nu_ef = self.sweeps.nu_mhz, self.device.nu_ef
        if not max(abs(nu.start - nu_ef), abs(nu.stop - nu_ef)) <= SPECTRUM_HALF_SPAN_MHZ:
            raise ConfigError(
                f"sweeps.nu_mhz must stay within +-{SPECTRUM_HALF_SPAN_MHZ:g} MHz "
                f"of device.nu_ef ({nu_ef:g} MHz)"
            )


# Dataclasses a config mapping nests, by the field annotation naming them.
_NESTED = {
    cls.__name__: cls
    for cls in (
        DeviceParams,
        ProtocolConfig,
        SweepConfig,
        GridSpec,
        SpectroscopyConfig,
        ReadoutRunConfig,
        QndRunConfig,
        MollowRunConfig,
        StarkRunConfig,
        LossRunConfig,
        ReferenceValues,
    )
}
# YAML's true and false load as Python bools, which are also Integral; no
# config value is a bool, so each check below rejects them.
_SCALARS = {"int": numbers.Integral, "float": numbers.Real, "str": str}


def _key(path: str, name) -> str:
    return f"{path}.{name}" if path else str(name)


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"'{path}' must be a number, got {value!r}")
    return float(value)


def _field_value(kind: str, value, path: str):
    """One config value checked against its field annotation."""
    if kind in _NESTED:
        return _build(_NESTED[kind], value, path)
    if kind == "list[float]":
        if not isinstance(value, list):
            raise ConfigError(f"'{path}' must be a list of numbers")
        return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if kind == "dict[str, float]":
        if not isinstance(value, dict):
            raise ConfigError(f"'{path}' must be a mapping of name to number")
        return {str(k): _number(v, _key(path, k)) for k, v in value.items()}
    base, _, optional = kind.partition(" | ")
    if isinstance(value, bool) or (
        not isinstance(value, _SCALARS[base]) and not (value is None and optional)
    ):
        raise ConfigError(f"'{path}' must be of type {base}, got {value!r}")
    return value


def _build(cls, data, path: str = ""):
    """A config dataclass from a mapping; nested sections and grids recurse."""
    if not isinstance(data, dict):
        raise ConfigError(f"section '{path or 'top-level'}' must be a mapping")
    kinds = {f.name: f.type for f in fields(cls)}
    unknown = set(data) - set(kinds)
    if unknown:
        raise ConfigError(f"unknown key '{_key(path, sorted(unknown)[0])}'")
    kwargs = {name: _field_value(kinds[name], v, _key(path, name)) for name, v in data.items()}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid section '{path}': {exc}" if path else str(exc)) from exc


def from_dict(data: dict) -> RunConfig:
    return _build(RunConfig, data)


def load_config(path: str | Path) -> RunConfig:
    """Parse a YAML run configuration; raises ConfigError with key context."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        # libyaml's loader where PyYAML was built with it; same result, faster
        data = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError(f"YAML parse error in {path}: {exc}") from exc
    if data is None:
        data = {}
    return from_dict(data)


def default_config() -> RunConfig:
    return RunConfig()


def config_digest(cfg: RunConfig) -> str:
    """Stable content hash of the resolved configuration: its fields in
    declaration order, and loss.components in config order, which sets the
    order of the loss budget and of its sum."""
    canonical = json.dumps(asdict(cfg), separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
