"""Acceptance gate: one test per shipped criterion, at its stated tolerance.

The suite drives the same evaluation as `qndsim check`: all emitters run
twice with one seed (for the byte-level determinism criterion) and the
numbered criteria are asserted from the first run. Criterion 4 gates the
fidelity optimum at 300 +- 50 ns; the efficiency optimum (393 ns under the
error model) is reported ungated (see README, "Window-sweep optimum
(criterion 4)").
"""

import pytest

from qndsim import acceptance, protocol
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
    acceptance.criterion_4(from_dict({"protocol": {"ramsey_law": "gaussian"}}))
    assert laws and set(laws) == {"gaussian"}


def test_criterion_11_cut_ignores_the_runner_preselect_sigmas():
    # the criterion's 6% bound is stated for a fixed 3-sigma cut; the
    # readout runner's configurable cut does not move it
    default = acceptance.criterion_11(default_config()).details.split("; ")[-1]
    loose = acceptance.criterion_11(from_dict({"readout": {"preselect_sigmas": 2.0}}))
    assert loose.details.split("; ")[-1] == default
    assert "preselection discards" in default
