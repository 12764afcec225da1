"""Property tests drawn from the declared field domains.

Every strategy here reads the domains from the config dataclasses' field
metadata, so a new numeric field is covered without a new test. Examples
are derandomized and no database is written, so the suite stays
deterministic.
"""

import contextlib
import io
import math
import re
import tempfile
from dataclasses import asdict, fields, is_dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir
from scipy.optimize import minimize_scalar

from qndsim import cli
from qndsim.calibration import driven_atom_model, steady_population
from qndsim.config import ConfigError, SweepConfig, default_config, from_dict
from qndsim.core import steady_state
from qndsim.device import DeviceParams, reflection_coefficient
from qndsim.domain import Domain, DomainError
from qndsim.protocol import (
    ProtocolConfig,
    fidelity_metrics,
    optimal_window,
    ramsey_coherence,
    window_sweep,
)

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


def _rule(call):
    with pytest.raises(DomainError) as exc:
        call()
    return exc.value.rule


# How the rule of each DomainError that Domain.check or Checked raises begins,
# up to the domain's interval or the offending value, drawn from domain.py
# itself so that both change together; a rule tying fields together reads
# otherwise
_UNIT, _COUNT = Domain(float, 0.0, 1.0, False, False), Domain(int, 0, 1, False, False)
DOMAIN_RULES = tuple(
    re.split(r"[\[(]|, got", _rule(call))[0]
    for call in (
        lambda: _UNIT.check("key", "x"),
        lambda: _UNIT.check("key", 2.0),
        lambda: _COUNT.check("key", 0.5),
        lambda: _UNIT.check("key", 10**400),
        lambda: SweepConfig(drive_ratios=5),
    )
)


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
    """In-domain values of one field; a list holds any number."""
    one = inside(domain)
    if isinstance(default, list):
        return st.lists(one, max_size=5)
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
    bad_field = [bad, *default[1:]] if isinstance(default, list) else bad
    config = asdict(default_config())
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = bad_field
    key = ".".join(path)
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        from_dict(config)
    # direct construction checks the same domains and names the same field
    section = default_config()
    for name in path[:-1]:
        section = getattr(section, name)
    with pytest.raises(DomainError) as exc:
        replace(section, **{path[-1]: bad_field})
    assert exc.value.key.startswith(path[-1])


# The bounds the shipped YAML's comments write as words
_BOUNDS = {"inf": math.inf, "pi": math.pi, "2**64": 2**64}


def _yaml_comments(text: str) -> dict:
    """{key path: trailing comment} of the YAML's key lines; a grid field's
    comment is its line in the grid header, under the path ("grid", name)."""
    comments, path = {}, []
    for line in text.splitlines():
        header = re.fullmatch(r"#\s{2,}(\w+): (.*)", line)
        if header:
            comments["grid", header[1]] = header[2]
            continue
        key = re.fullmatch(r"( *)(\w+):[^#]*(?:# (.*))?", line)
        if key:
            path[len(key[1]) // 2 :] = [key[2]]
            if key[3] is not None:
                comments[tuple(path)] = key[3]
    return comments


def _stated_domain(comment: str) -> Domain | None:
    """The domain a comment states: "integer" marks an integer, "in [a, b)"
    gives the interval and "any" an unbounded one. None where a rule fixes
    the value instead, as "must be 1" does."""
    kind = int if "integer" in comment else float
    interval = re.search(r"\bin ([\[(])([^,]+), ([^\])]+)([\])])", comment)
    if interval:
        lo, hi = (_BOUNDS[end] if end in _BOUNDS else float(end) for end in interval.group(2, 3))
        return Domain(kind, lo, hi, interval[1] == "(", interval[4] == ")")
    if re.search(r"\bany\b", comment):
        return Domain(kind, -math.inf, math.inf, True, True)
    return None


def test_shipped_comments_state_the_declared_domains():
    # each numeric field's comment in the shipped YAML is a second copy of
    # its declared domain; a field whose value a rule fixes (config_version,
    # device.nu_ef) states the rule and its kind
    text = resources.files("qndsim").joinpath("data/device_defaults.yaml").read_text()
    comments = _yaml_comments(text)
    wrong = []
    for path, domain, _, _ in LEAVES:
        comment = comments[("grid", path[-1]) if len(path) == 3 else path]
        stated = _stated_domain(comment)
        if stated is None:
            ok = "must" in comment and ("integer" in comment) == (domain.kind is int)
        else:
            ok = stated == domain
        if not ok:
            wrong.append(f"{'.'.join(path)}: {comment!r} against {domain}")
    assert not wrong


@settings(max_examples=60, **DETERMINISTIC)
@given(configs())
def test_in_domain_config_loads_or_breaks_a_cross_field_rule(data):
    # every rule raises a keyed DomainError, and an in-domain value breaks
    # none of the declared domains
    try:
        from_dict(data)
    except ConfigError as exc:
        assert isinstance(exc.__cause__, DomainError), exc
        assert not exc.__cause__.rule.startswith(DOMAIN_RULES), exc


@pytest.mark.filterwarnings("error")
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


def window_slope(cfg, params, objective, t):
    """d ln F/dT (objective "fidelity"), or dP(e|1)/dT divided by the Ramsey
    contrast C ("efficiency"), at a window t past the emission: from
    F = (1-L)(1-x)C and P(e|1) = 1/2 + C((1-L)(1-x) - 1/2) with
    x = exp(-G (t - t0)), G = 2 pi gamma_photon."""
    rate, delay = 2 * math.pi * cfg.gamma_photon, t - cfg.t0
    loss, t2 = params.loss_L, params.T2_star
    x = math.exp(-rate * delay)
    dlog_c = -1 / t2 if cfg.ramsey_law == "exponential" else -2 * t / t2 / t2
    if objective == "fidelity":
        # G x/(1-x), which tends to 1/delay where G delay underflows
        capture_rate = rate * x / -math.expm1(-rate * delay) if rate * delay > 0 else 1 / delay
        return capture_rate + dlog_c
    return (1 - loss) * rate * x + dlog_c * ((1 - loss) * (1 - x) - 0.5)


@settings(max_examples=100, suppress_health_check=[HealthCheck.filter_too_much], **DETERMINISTIC)
@given(
    instances(DeviceParams, PHYSICAL_LIMIT),
    instances(ProtocolConfig, PHYSICAL_LIMIT),
    st.sampled_from(["exponential", "gaussian"]),
)
def test_window_optima_are_the_maxima(params, cfg, law):
    # the slope changes sign across each optimum, within 1e-9 of its delay
    # after the emission (or 4 ulp of the window) to either side. Where the
    # contrast C there is 1e-8 or more, the optimum is also the largest
    # objective, to rounding, on a grid of +-1e-3 of its delay, and agrees
    # with minimize_scalar to 1e-9 relative in the objective's value: the
    # objective is quadratic at its maximum, so a search reading its values
    # places the maximum only to about sqrt(eps) of the delay. Below
    # C = 1e-8 the objective is flat to rounding, and the slope alone decides.
    cfg = replace(cfg, ramsey_law=law)
    for objective, name in (("efficiency", "p_e_given_1"), ("fidelity", "fidelity")):
        peak = optimal_window(cfg, params, objective)
        if objective == "efficiency" and params.loss_L >= 0.5:
            assert peak is None
            continue
        delay = peak - cfg.t0
        assert math.isfinite(peak) and delay >= 0
        step = max(1e-9 * delay, 4 * math.ulp(peak))
        assert window_slope(cfg, params, objective, peak + step) < 0
        if peak - step > cfg.t0:
            assert window_slope(cfg, params, objective, peak - step) > 0
        if ramsey_coherence(peak, params.T2_star, law) < 1e-8:
            continue

        def value(t):
            return getattr(window_sweep(cfg, params, np.atleast_1d(t)), name)

        (top,) = value(peak)
        grid = value(peak + delay * np.linspace(-1e-3, 1e-3, 201))
        assert top >= grid.max() - 2e-15 * abs(top)
        ref = minimize_scalar(
            lambda d: -value(cfg.t0 + d)[0],
            bounds=(delay / 2, 2 * delay),
            method="bounded",
            options={"xatol": 1e-12 * delay},
        )
        assert abs(top + ref.fun) <= 1e-9 * abs(top)
        assert top >= -ref.fun - 2e-15 * abs(top)
