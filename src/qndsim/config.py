"""Run configuration: YAML ingestion, defaults, grids and content digests.

Every key is optional and falls back to the measured device defaults; the
shipped fixture data/device_defaults.yaml spells out all of them.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from .device import SPECTRUM_HALF_SPAN_MHZ, DeviceParams
from .domain import Checked, DomainError, DomainTypeError, number
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
            raise DomainError("step", "or num must be given, not both")
        if self.stop <= self.start:
            raise DomainError("stop", f"must exceed start {self.start!r}, got {self.stop!r}")
        if self.step is not None:
            steps = (self.stop - self.start) / self.step
            if not math.isfinite(steps) or abs(steps - round(steps)) > GRID_STEPS_RTOL * steps:
                rule = f"{self.step:g} does not divide the span {self.stop - self.start:g}"
                raise DomainError("step", f"{rule} ({steps:.6g} steps)")

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
            raise DomainError("drive_ratios", "needs at least three ratios")
        # protocol.theta_sweep takes preparation angles in [0, pi]
        if not (0 <= self.theta_rad.start and self.theta_rad.stop <= math.pi):
            raise DomainError("theta_rad", "must lie in [0, pi]")
        # protocol.ramsey_coherence takes window lengths, which are non-negative
        if self.window_us.start < 0:
            raise DomainError(
                "window_us.start", f"must be non-negative, got {self.window_us.start!r}"
            )


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
    detector_gain: float = number(1.6, gt=0)
    noise_frac: float = number(0.01, ge=0)


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
    seed: int = number(0, kind=int, ge=0, lt=2**64)  # an unsigned 64-bit integer
    output_dir: str = "out"
    config_version: int = number(CONFIG_VERSION, kind=int)

    def __post_init__(self):
        if self.config_version != CONFIG_VERSION:
            raise DomainError(
                "config_version", f"must be {CONFIG_VERSION}, got {self.config_version!r}"
            )
        super().__post_init__()
        if not isinstance(self.output_dir, str):
            raise DomainTypeError("output_dir", f"must be a string, got {self.output_dir!r}")
        # device.phase_difference_spectrum takes frequencies near nu_ef only
        nu, nu_ef = self.sweeps.nu_mhz, self.device.nu_ef
        if not max(abs(nu.start - nu_ef), abs(nu.stop - nu_ef)) <= SPECTRUM_HALF_SPAN_MHZ:
            band = f"+-{SPECTRUM_HALF_SPAN_MHZ:g} MHz of device.nu_ef ({nu_ef:g} MHz)"
            raise DomainError("sweeps.nu_mhz", f"must stay within {band}")


# Dataclasses a config mapping nests, by the field annotation naming them:
# every config dataclass, as each one checks its domains through Checked.
_NESTED = {cls.__name__: cls for cls in Checked.__subclasses__()}


def _key(path: str, name) -> str:
    return f"{path}.{name}" if path else str(name)


def _build(cls, data, path: str = ""):
    """A config dataclass from a mapping; nested sections and grids recurse,
    and the dataclass checks and converts its own values."""
    if not isinstance(data, dict):
        raise ConfigError(f"section '{path or 'top-level'}' must be a mapping")
    nested = {f.name: _NESTED.get(f.type) for f in fields(cls)}
    unknown = set(data) - set(nested)
    if unknown:
        raise ConfigError(f"unknown key '{_key(path, sorted(unknown, key=str)[0])}'")
    # a field with no default, as a grid's start and stop, must be given
    for f in fields(cls):
        if f.name not in data and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"'{_key(path, f.name)}' must be given")
    kwargs = {k: _build(nested[k], v, _key(path, k)) if nested[k] else v for k, v in data.items()}
    try:
        return cls(**kwargs)
    except DomainError as exc:
        raise ConfigError(f"'{_key(path, exc.key)}' {exc.rule}") from exc


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
    """Stable content hash of the resolved configuration, its fields in
    declaration order."""
    canonical = json.dumps(asdict(cfg), separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
