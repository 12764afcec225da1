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
from .domain import Checked, DomainError, number
from .protocol import ProtocolConfig

CONFIG_VERSION = 1

# A step grid's span must be a whole number of steps to this relative
# tolerance, which absorbs the rounding of decimal steps such as 0.1.
GRID_STEPS_RTOL = 1e-9


class ConfigError(ValueError):
    """Malformed or unknown configuration content."""


@dataclass
class GridSpec(Checked):
    """Uniform grid given by start/stop plus either step or num."""

    start: float = number()
    stop: float = number()
    step: float | None = number(None, gt=0)
    num: int | None = number(None, kind=int, ge=2)

    def __post_init__(self):
        super().__post_init__()
        if (self.step is None) == (self.num is None):
            raise ConfigError("grid needs exactly one of step or num")
        if self.stop <= self.start:
            raise ConfigError("grid stop must exceed start")
        if self.step is not None:
            steps = (self.stop - self.start) / self.step
            if not math.isfinite(steps) or abs(steps - round(steps)) > GRID_STEPS_RTOL * steps:
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
class SweepConfig(Checked):
    nu_mhz: GridSpec = field(default_factory=lambda: GridSpec(5985.0, 6285.0, step=0.1))
    window_us: GridSpec = field(default_factory=lambda: GridSpec(0.05, 0.6, step=0.005))
    theta_rad: GridSpec = field(default_factory=lambda: GridSpec(0.0, math.pi, num=33))
    drive_ratios: list[float] = number(factory=lambda: [2.0, 4.0, 6.0], gt=0)

    def __post_init__(self):
        super().__post_init__()
        # calibration.fit_mollow fits the spectra jointly and needs three
        if len(self.drive_ratios) < 3:
            raise ConfigError("sweeps.drive_ratios needs at least three ratios")
        # protocol.theta_sweep takes preparation angles in [0, pi]
        if not (0 <= self.theta_rad.start and self.theta_rad.stop <= math.pi):
            raise ConfigError("sweeps.theta_rad must lie in [0, pi]")


@dataclass
class SpectroscopyConfig(Checked):
    # Finite e-f linewidth regularizing the dressed-resonance phase; the
    # measured value is not known, and delta-phi targets move by < 1e-3 rad
    # for anything below kappa/50. device.phase_difference_spectrum takes a
    # non-negative linewidth.
    gamma_atom_mhz: float = number(0.1, ge=0)


@dataclass
class ReadoutRunConfig(Checked):
    # the minimum counts are preconditions of readout.fit_double_gaussian
    n_shots: int = number(12_500, kind=int, ge=100)
    # (mu_e - mu_g) / sigma placing the overlap error at 0.2%;
    # readout.GaussianMixture places e above g
    snr: float = number(5.75, gt=0)
    n_bins: int = number(101, kind=int, ge=20)
    preselect_sigmas: float = number(3.0, gt=0)  # conservative ground-state heralding threshold


@dataclass
class QndRunConfig(Checked):
    n_shots: int = number(12_500, kind=int, ge=1)
    # Per-quadrature variance of the additive measurement noise, referenced
    # to the photon mode. The value is calibrated so that a 12,500-shot
    # moment estimate carries ~0.5% standard error at one photon: the 2%
    # ON/OFF power gate compared across a 9-point angle grid needs per-point
    # noise well below half the gate to pass in 95% of runs.
    noise_var: float = number(0.016, gt=0)
    n_theta: int = number(9, kind=int, ge=2)  # the angle grid runs from 0 to pi
    scale: float = number(1.0, gt=0, le=1)  # line transmission
    mc_seeds: int = number(100, kind=int, ge=1)
    # Relative ON/OFF power deviation allowed; at 1 or more the gate would
    # pass an erased or a doubled photon.
    gate: float = number(0.02, gt=0, lt=1)
    # Photons; keeps the relative deviation finite near vacuum.
    # moments.expected_moments puts the OFF power at scale * sin^2(theta/2)
    # <= 1 photon, so a floor of 1 or more would replace it as the divisor.
    floor: float = number(0.25, gt=0, lt=1)
    coherence_offset: float = number(0.0)  # spurious ON-state amplitude, off by default


@dataclass
class MollowRunConfig(Checked):
    gain_truth: float = number(0.8, gt=0)
    noise_frac: float = number(0.01, ge=0)
    # grid half-width in drive rates; calibration.mollow_spectrum needs it to reach +-2 Omega
    span: float = number(2.5, ge=2)
    points: int = number(801, kind=int, ge=2)
    display_offset: float = number(0.5)


@dataclass
class StarkRunConfig(Checked):
    n_points: int = number(9, kind=int, ge=3)  # calibration.stark_fit needs three distinct powers
    p_max: float = number(4.0, gt=0)
    # a zero photon scale makes the detector-chain gain vanish in loss
    photons_per_unit: float = number(1.0, gt=0)
    noise_frac: float = number(0.01, ge=0)


@dataclass
class LossRunConfig(Checked):
    # fractions by name, in the order the budget lists them; calibration.loss_budget
    # takes each in [0, 1)
    components: dict[str, float] = number(
        factory=lambda: {"circulator": 0.08, "switch": 0.05, "connectors": 0.05, "cables": 0.02},
        ge=0,
        lt=1,
    )
    detector_gain: float = number(1.6, gt=0)
    noise_frac: float = number(0.01, ge=0)

    def __post_init__(self):
        super().__post_init__()
        # each name is one field of loss_budget.csv, which quotes nothing
        for name in self.components:
            if any(char in name for char in ',"\r\n'):
                raise ConfigError(
                    f"loss.components name {name!r} must not contain a comma, "
                    "a double quote, CR or LF"
                )


@dataclass
class ReferenceValues(Checked):
    """Quoted single-shot reference measurements, reported next to the
    composed model predictions (see README on the known bookkeeping gap)."""

    single_shot_fidelity: float = number(0.496, ge=-1, le=1)  # P(e|1) - P(e|0)
    single_shot_dark: float = number(0.134, ge=0, le=1)
    single_shot_miss: float = number(0.37, ge=0, le=1)


@dataclass
class RunConfig(Checked):
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
    seed: int = number(0, kind=int, ge=0, lt=2**64)  # an unsigned 64-bit integer
    output_dir: str = "out"
    config_version: int = number(CONFIG_VERSION, kind=int)

    def __post_init__(self):
        if self.config_version != CONFIG_VERSION:
            raise ConfigError(
                f"config_version must be {CONFIG_VERSION}, got {self.config_version!r}"
            )
        super().__post_init__()
        # device.phase_difference_spectrum takes frequencies near nu_ef only
        nu, nu_ef = self.sweeps.nu_mhz, self.device.nu_ef
        if not max(abs(nu.start - nu_ef), abs(nu.stop - nu_ef)) <= SPECTRUM_HALF_SPAN_MHZ:
            raise ConfigError(
                f"sweeps.nu_mhz must stay within +-{SPECTRUM_HALF_SPAN_MHZ:g} MHz "
                f"of device.nu_ef ({nu_ef:g} MHz)"
            )


# Dataclasses a config mapping nests, by the field annotation naming them:
# every config dataclass, as each one checks its domains through Checked.
_NESTED = {cls.__name__: cls for cls in Checked.__subclasses__()}
# YAML's true and false load as Python bools, which are also Integral; no
# config value is a bool, so each check below rejects them.
_SCALARS = {"int": numbers.Integral, "str": str}


def _key(path: str, name) -> str:
    return f"{path}.{name}" if path else str(name)


def _number(value, path: str) -> float:
    """A float-typed config value as a float, whatever number YAML read."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"'{path}' must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer past the float range
        raise ConfigError(f"'{path}' is an integer too large for a float") from exc


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
    if value is None and optional:
        return None
    if base == "float":
        return _number(value, path)
    if isinstance(value, bool) or not isinstance(value, _SCALARS[base]):
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
    except DomainError as exc:
        raise ConfigError(f"'{_key(path, exc.key)}' {exc.rule}") from exc
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
