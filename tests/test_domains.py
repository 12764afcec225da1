"""Property tests drawn from the declared field domains.

Every strategy here reads the domains from the config dataclasses' field
metadata, so a new numeric field is covered without a new test. Examples
are derandomized and no database is written, so the suite stays
deterministic.
"""

import contextlib
import io
import math
import tempfile
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from qndsim import cli
from qndsim.calibration import driven_atom_model, steady_population
from qndsim.config import ConfigError, default_config, from_dict
from qndsim.core import steady_state
from qndsim.device import DeviceParams, reflection_coefficient
from qndsim.domain import DomainError
from qndsim.protocol import ProtocolConfig, fidelity_metrics

DETERMINISTIC = dict(derandomize=True, database=None, deadline=None)

# Hypothesis caches the constants it reads from the source under its home
# directory, .hypothesis/ in the working directory unless set; it does so while
# pytest collects, and the directory is removed when the session ends.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory()
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

# Physics properties are drawn at |values| up to this many MHz or us: inside
# every domain, and far past any device, without overflowing 2 pi x.
PHYSICAL_LIMIT = 1e6


def _leaves(obj, path=()):
    """(key path, domain, default value, optional) of every numeric field
    that obj and its nested sections declare."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _leaves(value, (*path, f.name))
        elif "domain" in f.metadata:
            yield (*path, f.name), f.metadata["domain"], value, f.default is None


LEAVES = list(_leaves(default_config()))
DOMAINS = {path: domain for path, domain, _, _ in LEAVES}


def inside(domain, limit=math.inf):
    """Values inside domain. A finite limit draws physical values: within
    +-limit and never subnormal, as a subnormal rate has no precision left."""
    lo, hi = max(domain.lo, -limit), min(domain.hi, limit)
    lo, hi = (None if math.isinf(lo) else lo), (None if math.isinf(hi) else hi)
    if domain.kind is int:
        return st.integers(
            None if lo is None else lo + domain.lo_open,
            None if hi is None else hi - domain.hi_open,
        )
    return st.floats(
        lo,
        hi,
        exclude_min=domain.lo_open and lo == domain.lo,
        exclude_max=domain.hi_open and hi == domain.hi,
        allow_nan=False,
        allow_infinity=False,
        allow_subnormal=None if math.isinf(limit) else False,
    )


def outside(domain):
    parts = [st.sampled_from([math.nan, math.inf, -math.inf])]
    if domain.kind is int:
        if not math.isinf(domain.lo):
            parts.append(st.integers(max_value=domain.lo - (not domain.lo_open)))
        if not math.isinf(domain.hi):
            parts.append(st.integers(min_value=domain.hi + (not domain.hi_open)))
    else:
        if not math.isinf(domain.lo):
            parts.append(st.floats(max_value=domain.lo, exclude_max=not domain.lo_open))
        if not math.isinf(domain.hi):
            parts.append(st.floats(min_value=domain.hi, exclude_min=not domain.hi_open))
    return st.one_of(parts)


def field_values(domain, default, optional):
    """In-domain values of one field; lists and mappings hold any number."""
    one = inside(domain)
    if isinstance(default, list):
        return st.lists(one, max_size=5)
    if isinstance(default, dict):
        return st.dictionaries(st.sampled_from(["a", "b", "c"]), one, max_size=3)
    return st.none() | one if optional else one


def nest(flat: dict) -> dict:
    """A config mapping from {key path: value}. The sweep grids, the only
    sections two levels deep, start from their defaults: a grid has no field
    defaults of its own."""
    data = {}
    for path, value in flat.items():
        node = data
        for depth, key in enumerate(path[:-1], 1):
            if key not in node:
                section = default_config()
                for name in path[:depth]:
                    section = getattr(section, name)
                node[key] = asdict(section) if depth == 2 else {}
            node = node[key]
        node[path[-1]] = value
    return data


def configs(sections=None):
    """Config mappings that set any subset of the numeric fields of the named
    sections (every section when None) to values inside their domains."""
    optional = {
        path: field_values(domain, default, opt)
        for path, domain, default, opt in LEAVES
        if sections is None or path[0] in sections
    }
    return st.fixed_dictionaries({}, optional=optional).map(nest)


def instances(cls, limit):
    """cls built from in-domain values of any subset of its fields; draws that
    break a cross-field rule are rejected."""
    optional = {
        f.name: inside(f.metadata["domain"], limit) for f in fields(cls) if "domain" in f.metadata
    }

    def build(kwargs):
        try:
            return cls(**kwargs)
        except ValueError:
            return None

    return st.fixed_dictionaries({}, optional=optional).map(build).filter(bool)


@pytest.mark.parametrize("leaf", LEAVES, ids=lambda leaf: ".".join(leaf[0]))
@settings(max_examples=3, **DETERMINISTIC)
@given(data=st.data())
def test_one_field_outside_its_domain_names_its_key(leaf, data):
    path, domain, default, _ = leaf
    bad = data.draw(outside(domain))
    if isinstance(default, list):
        bad_field = [bad, *default[1:]]
    elif isinstance(default, dict):
        bad_field = {**default, next(iter(default)): bad}
    else:
        bad_field = bad
    config = asdict(default_config())
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = bad_field
    key = ".".join(path)
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        from_dict(config)
    # direct construction checks the same domains
    cls = {"device": DeviceParams, "protocol": ProtocolConfig}.get(path[0])
    if cls is not None:
        with pytest.raises(ValueError):
            cls(**{path[1]: bad})


@settings(max_examples=60, **DETERMINISTIC)
@given(configs())
def test_in_domain_config_loads_or_breaks_a_cross_field_rule(data):
    try:
        from_dict(data)
    except ConfigError as exc:
        assert not isinstance(exc.__cause__, DomainError), exc


@settings(
    max_examples=15, suppress_health_check=[HealthCheck.filter_too_much], **DETERMINISTIC
)
@given(configs(("device", "protocol", "spectroscopy")))
def test_loaded_config_runs_or_fails_with_its_exit_code(data):
    try:
        from_dict(data)
    except ConfigError:
        assume(False)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/run.yaml"
        with open(path, "w") as fh:
            yaml.safe_dump(data, fh)
        for subcommand in ("spectrum", "theta-sweep", "window-sweep"):
            err = io.StringIO()
            out = Path(tmp, subcommand)
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([subcommand, "--config", path, "--out", str(out)])
            assert code in (0, 2, 3), (subcommand, err.getvalue())
            assert "Traceback" not in err.getvalue()
            if code == 0:
                # every cell of these tables is a number
                for table in out.glob("*.csv"):
                    cells = np.loadtxt(table, delimiter=",", skiprows=1, ndmin=2)
                    assert np.isfinite(cells).all(), (subcommand, table.name)
            else:
                # a failed run writes no file
                assert not out.exists(), (subcommand, err.getvalue())


@settings(max_examples=40, suppress_health_check=[HealthCheck.filter_too_much], **DETERMINISTIC)
@given(instances(DeviceParams, PHYSICAL_LIMIT), instances(ProtocolConfig, PHYSICAL_LIMIT))
def test_a_photon_never_lowers_the_click_probability(params, cfg):
    probs = fidelity_metrics(cfg, params)
    # P(e|1) - P(e|0) = p_int C >= 0; the two are summed separately, so
    # they may cross by a rounding error
    assert probs.p_e_given_1 >= probs.p_e_given_0 - 1e-15


@settings(max_examples=40, suppress_health_check=[HealthCheck.filter_too_much], **DETERMINISTIC)
@given(
    instances(DeviceParams, PHYSICAL_LIMIT),
    st.floats(-PHYSICAL_LIMIT, PHYSICAL_LIMIT),
    inside(DOMAINS[("spectroscopy", "gamma_atom_mhz")], PHYSICAL_LIMIT),
)
def test_reflection_is_passive(params, detuning, gamma_atom):
    for state in ("g", "e"):
        r = reflection_coefficient(params, params.nu_ef + detuning, state, gamma_atom)
        assert abs(r) <= 1 + 1e-12


@settings(max_examples=40, **DETERMINISTIC)
@given(
    inside(DOMAINS[("device", "gamma_source")], PHYSICAL_LIMIT),
    st.just(0.25) | inside(DOMAINS[("sweeps", "drive_ratios")], PHYSICAL_LIMIT),
)
def test_steady_state_is_a_density_matrix(gamma, ratio):
    # Omega = Gamma/4 is the Liouvillian's exceptional point
    omega_ang, gamma_ang = 2 * math.pi * ratio * gamma, 2 * math.pi * gamma
    rho = steady_state(driven_atom_model(omega_ang, gamma_ang))  # checks the state
    assert rho[1, 1].real == pytest.approx(steady_population(ratio, 1.0), abs=1e-9)
    assert np.all(np.linalg.eigvalsh(rho) >= -1e-12)
