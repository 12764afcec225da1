"""Acceptance gate: one test per shipped criterion, at its stated tolerance.

The suite drives the same evaluation as `qndsim check`: all emitters run
twice with one seed (for the byte-level determinism criterion) and the
numbered criteria are asserted from the first run. Criterion 4 gates the
fidelity optimum at 300 +- 50 ns; the efficiency optimum (393 ns under the
error model) is reported ungated (see README, "Window-sweep optimum
(criterion 4)").
"""

import math

import pytest

from qndsim import acceptance, cli, protocol
from qndsim.config import default_config, from_dict


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance")
    results = acceptance.run_check(default_config(), out)
    return {r.number: r for r in results}, out


def _assert_criterion(report, number):
    results, _ = report
    r = results[number]
    assert r.passed, f"criterion {number} ({r.title}): {r.details}"


def test_criterion_01_dispersive_shift(report):
    _assert_criterion(report, 1)


def test_criterion_02_reflection_spectrum(report):
    _assert_criterion(report, 2)


def test_criterion_03_detection_point(report):
    _assert_criterion(report, 3)


def test_criterion_04_window_sweep(report):
    _assert_criterion(report, 4)


def test_criterion_05_single_shot_composition(report):
    _assert_criterion(report, 5)


def test_criterion_06_internal_fidelity(report):
    _assert_criterion(report, 6)


def test_criterion_07_qnd_power_conservation(report):
    _assert_criterion(report, 7)


def test_criterion_08_fluorescence_pipeline(report):
    _assert_criterion(report, 8)


def test_criterion_09_stark_and_loss_pipeline(report):
    _assert_criterion(report, 9)


def test_criterion_10_engine_validation(report):
    _assert_criterion(report, 10)


def test_criterion_11_readout_statistics(report):
    _assert_criterion(report, 11)


def test_criterion_12_determinism(report):
    _assert_criterion(report, 12)


def test_report_files_written(report):
    _, out = report
    assert (out / "acceptance_report.txt").exists()
    assert (out / "acceptance_report.json").exists()
    text = (out / "acceptance_report.txt").read_text()
    assert text.count("criterion") == 12


def test_criterion_04_evaluates_the_configured_ramsey_law(monkeypatch):
    # the dark-count monotonicity check reads P(e|0) under protocol.ramsey_law
    laws = []
    coherence = protocol.ramsey_coherence

    def spy(Tw, T2_star, law):
        laws.append(law)
        return coherence(Tw, T2_star, law)

    monkeypatch.setattr(protocol, "ramsey_coherence", spy)
    cfg = from_dict({"protocol": {"ramsey_law": "gaussian"}})
    acceptance.criterion_4(cfg, cli.run_window_sweep(cfg)[1])
    assert laws and set(laws) == {"gaussian"}


def test_criterion_11_cut_ignores_the_runner_preselect_sigmas():
    # the criterion's 6% bound is stated for a fixed 3-sigma cut; the
    # readout runner's configurable cut does not move it
    default = acceptance.criterion_11(default_config()).details.split("; ")[-1]
    loose = acceptance.criterion_11(from_dict({"readout": {"preselect_sigmas": 2.0}}))
    assert loose.details.split("; ")[-1] == default
    assert "3-sigma preselection" in default


def test_check_helpers_pass_exactly_at_their_bound():
    assert acceptance._near("x", 1.5, 1.0, 0.5) == (True, "x = 1.5 vs 1.0 +- 0.5")
    assert acceptance._within("x", 1.5, 1.0, 1.5) == (True, "x = 1.5 in [1.0, 1.5]")
    assert acceptance._within("x", 1.0, 1.0, 1.5)[0]
    assert acceptance._at_most("x", 1.5, 1.5) == (True, "x = 1.5 <= 1.5")
    past = math.nextafter(1.5, 2.0)
    assert not acceptance._near("x", past, 1.0, 0.5)[0]
    assert not acceptance._within("x", past, 1.0, 1.5)[0]
    assert not acceptance._within("x", math.nextafter(1.0, 0.0), 1.0, 1.5)[0]
    assert not acceptance._at_most("x", past, 1.5)[0]


WINDOW_HEADLINE = {
    "peak_fidelity_window_us": 0.294,
    "peak_efficiency_window_us": 0.393,
    "ratio_at_100ns": 16.5,
}


@pytest.mark.parametrize(
    "key, value, fail",
    [
        ("peak_fidelity_window_us", 0.36, "FAIL: F-optimal window [us] = 0.36 in [0.25, 0.35]"),
        ("ratio_at_100ns", 12.9, "FAIL: ratio(100 ns) = 12.9 in [13, 20]"),
        # the ratio of a 100 ns window that closes before the emission
        ("ratio_at_100ns", 1.0, "FAIL: ratio(100 ns) = 1.0 in [13, 20]"),
    ],
)
def test_criterion_04_reads_the_window_sweep_headline(key, value, fail):
    result = acceptance.criterion_4(default_config(), {**WINDOW_HEADLINE, key: value})
    assert not result.passed
    assert fail in result.details
    assert acceptance.criterion_4(default_config(), WINDOW_HEADLINE).passed


def test_criterion_07_reads_the_qnd_headline():
    headline = {"expected_max_deviation": 0.0, "mc_pass_count": 95, "mc_seeds": 100}
    assert acceptance.criterion_7(headline).passed
    result = acceptance.criterion_7({**headline, "expected_max_deviation": 1e-16})
    assert not result.passed
    assert "FAIL: expected ON/OFF power deviation = 1e-16 <= 0" in result.details


def test_criterion_09_reads_the_loss_headline():
    headline = {"loss_abs_err": 0.01, "total_additive": 0.2}
    assert acceptance.criterion_9(default_config(), headline).passed
    result = acceptance.criterion_9(default_config(), {**headline, "total_additive": 0.21})
    assert not result.passed
    assert "FAIL: additive loss budget = 0.21 vs 0.2 +- 1e-12" in result.details
