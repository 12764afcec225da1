import json
import math
from dataclasses import asdict, fields, is_dataclass
from importlib import resources

import numpy as np
import pytest
import yaml

from qndsim import calibration, cli, protocol
from qndsim.config import (
    ConfigError,
    GridSpec,
    config_digest,
    default_config,
    from_dict,
    load_config,
)
from qndsim.csvio import write_csv

SHIPPED_CONFIG = resources.files("qndsim").joinpath("data/device_defaults.yaml")
# A 401-digit integer: YAML loads it as an int that no float can hold.
HUGE_INT = "9" * 401


class TestGridSpec:
    def test_step_grid(self):
        grid = GridSpec(0.0, 1.0, step=0.25).to_array()
        np.testing.assert_allclose(grid, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_num_grid(self):
        grid = GridSpec(0.0, math.pi, num=5).to_array()
        assert len(grid) == 5 and grid[-1] == math.pi

    def test_exactly_one_of_step_num(self):
        with pytest.raises(ConfigError):
            GridSpec(0.0, 1.0)
        with pytest.raises(ConfigError):
            GridSpec(0.0, 1.0, step=0.1, num=5)

    @pytest.mark.parametrize(
        "start, stop, step",
        [(5985.0, 6285.0, 0.1), (0.05, 0.6, 0.005), (0.0, 300.0, 0.1), (0.0, 0.55, 0.005)],
    )
    def test_decimal_steps_divide_their_span(self, start, stop, step):
        grid = GridSpec(start, stop, step=step).to_array()
        assert grid[0] == start and grid[-1] == stop
        np.testing.assert_allclose(np.diff(grid), step, rtol=1e-9)

    def test_step_must_divide_span(self):
        with pytest.raises(ConfigError, match="does not divide"):
            GridSpec(0.0, 1.0, step=0.3)

    def test_ordering_enforced(self):
        with pytest.raises(ConfigError):
            GridSpec(1.0, 0.0, step=0.1)


class TestConfig:
    def test_roundtrip_preserves_digest(self):
        cfg = default_config()
        again = from_dict(asdict(cfg))
        assert config_digest(again) == config_digest(cfg)

    def test_shipped_fixture_matches_defaults(self):
        cfg = load_config(SHIPPED_CONFIG)
        assert config_digest(cfg) == config_digest(default_config())

    def test_shipped_fixture_names_every_field(self):
        # a field the YAML omits loads as its default, which the digest
        # comparison above cannot see; each section lists exactly its fields
        def unmatched(section, data, path):
            if isinstance(section, GridSpec):
                names = {"start", "stop", "step" if "step" in data else "num"}
            else:
                names = {f.name for f in fields(section)}
            found = [f"{path}{key}" for key in sorted(set(data) ^ names)]
            for name in names & set(data):
                value = getattr(section, name)
                if is_dataclass(value):
                    found += unmatched(value, data[name], f"{path}{name}.")
            return found

        shipped = yaml.safe_load(SHIPPED_CONFIG.read_text())
        assert unmatched(default_config(), shipped, "") == []

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key 'devices'"):
            from_dict({"devices": {}})

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError, match="device.kappa_hz"):
            from_dict({"device": {"kappa_hz": 19.0}})

    def test_invalid_device_value(self):
        with pytest.raises(ConfigError, match="device"):
            from_dict({"device": {"kappa": -1.0}})

    def test_bad_grid(self):
        with pytest.raises(ConfigError, match="sweeps.nu_mhz"):
            from_dict({"sweeps": {"nu_mhz": {"start": 0.0, "stop": 1.0}}})

    def test_bad_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            from_dict({"seed": -4})

    @pytest.mark.parametrize("version", [0, 2, 7])
    def test_unknown_config_version(self, version):
        with pytest.raises(ConfigError, match="config_version must be 1"):
            from_dict({"config_version": version})
        assert from_dict({"config_version": 1}).config_version == 1

    def test_integer_in_a_float_field_loads_as_a_float(self):
        # one number, one digest: T1: 3 and T1: 3.0 are the same config
        as_int, as_float = (from_dict({"device": {"T1": t1}}) for t1 in (3, 3.0))
        assert type(as_int.device.T1) is float
        assert config_digest(as_int) == config_digest(as_float)

    def test_digest_covers_component_order(self):
        # the budget lists the components, and sums them, in config order
        cfg = default_config()
        names = list(cfg.loss.components)
        reordered = from_dict(
            {"loss": {"components": {k: cfg.loss.components[k] for k in reversed(names)}}}
        )
        assert config_digest(reordered) != config_digest(cfg)

    @pytest.mark.parametrize(
        "section, match",
        [
            ({"n_shots": 99}, "n_shots"),
            ({"n_bins": 19}, "n_bins"),
            ({"snr": 0.0}, "readout.snr"),
            ({"snr": -5.75}, "readout.snr"),
            ({"preselect_sigmas": 0.0}, "readout.preselect_sigmas"),
        ],
    )
    def test_readout_fit_preconditions(self, section, match):
        with pytest.raises(ConfigError, match=match):
            from_dict({"readout": section})
        from_dict({"readout": {"n_shots": 100, "n_bins": 20}})

    @pytest.mark.parametrize(
        "section, match",
        [
            ({"mc_seeds": 0}, "qnd.mc_seeds"),
            ({"n_shots": 0}, "qnd.n_shots"),
            ({"n_theta": 1}, "qnd.n_theta"),
            ({"noise_var": -0.01}, "qnd.noise_var"),
            ({"noise_var": 0.0}, "qnd.noise_var"),
            ({"noise_var": math.inf}, "qnd.noise_var"),
            ({"scale": 0.0}, "qnd.scale"),
            ({"scale": 1.5}, "qnd.scale"),
            ({"gate": 0.0}, "qnd.gate"),
            ({"floor": -0.25}, "qnd.floor"),
            ({"coherence_offset": math.nan}, "qnd.coherence_offset"),
        ],
    )
    def test_qnd_limits(self, section, match):
        with pytest.raises(ConfigError, match=match):
            from_dict({"qnd": section})
        from_dict({"qnd": {"mc_seeds": 1, "n_shots": 1, "n_theta": 2, "scale": 1.0}})

    @pytest.mark.parametrize(
        "data, match",
        [
            ({"stark": {"n_points": 2}}, "stark.n_points"),
            ({"stark": {"p_max": 0.0}}, "stark.p_max"),
            ({"stark": {"p_max": -1.0}}, "stark.p_max"),
            ({"stark": {"photons_per_unit": 0.0}}, "stark.photons_per_unit"),
            ({"mollow": {"span": 1.5}}, "mollow.span"),
            ({"mollow": {"points": 1}}, "mollow.points"),
            ({"mollow": {"gain_truth": 0.0}}, "mollow.gain_truth"),
            ({"mollow": {"gain_truth": math.nan}}, "mollow.gain_truth"),
            ({"loss": {"detector_gain": 0.0}}, "loss.detector_gain"),
            ({"loss": {"detector_gain": -1.6}}, "loss.detector_gain"),
            ({"loss": {"components": {"a": 1.0}}}, "loss.components.a"),
            ({"loss": {"components": {"a": -0.1}}}, "loss.components.a"),
            ({"mollow": {"span": math.inf}}, "mollow.span"),
            ({"stark": {"p_max": math.inf}}, "stark.p_max"),
            ({"mollow": {"gain_truth": math.inf}}, "mollow.gain_truth"),
            ({"loss": {"detector_gain": math.inf}}, "loss.detector_gain"),
            ({"mollow": {"noise_frac": math.inf}}, "mollow.noise_frac"),
            ({"stark": {"photons_per_unit": math.inf}}, "stark.photons_per_unit"),
            ({"stark": {"noise_frac": math.nan}}, "stark.noise_frac"),
            ({"loss": {"noise_frac": -0.01}}, "loss.noise_frac"),
            ({"mollow": {"display_offset": math.nan}}, "mollow.display_offset"),
            ({"spectroscopy": {"gamma_atom_mhz": math.nan}}, "spectroscopy.gamma_atom_mhz"),
        ],
    )
    def test_calibration_limits(self, data, match):
        with pytest.raises(ConfigError, match=match):
            from_dict(data)
        from_dict(
            {
                "stark": {
                    "n_points": 3,
                    "p_max": 1e-3,
                    "photons_per_unit": 1e-3,
                    "noise_frac": 0.0,
                },
                "mollow": {
                    "span": 2.0,
                    "points": 2,
                    "gain_truth": 1e-3,
                    "noise_frac": 0.0,
                    "display_offset": -1.0,
                },
                "loss": {
                    "components": {"a": 0.0, "b": 0.99},
                    "detector_gain": 1e-3,
                    "noise_frac": 0.0,
                },
                "spectroscopy": {"gamma_atom_mhz": 0.0},
            }
        )

    @pytest.mark.parametrize("ratios", [[], [3.0], [2.0, 4.0], [2.0, -4.0, 6.0]])
    def test_drive_ratios_limits(self, ratios):
        with pytest.raises(ConfigError, match="sweeps.drive_ratios"):
            from_dict({"sweeps": {"drive_ratios": ratios}})
        from_dict({"sweeps": {"drive_ratios": [2.0, 4.0, 6.0]}})

    @pytest.mark.parametrize(
        "data",
        [
            {"sweeps": {"window_us": {"start": 0.02, "stop": 0.5, "num": 11}}},
            {"sweeps": {"window_us": {"start": 0.005, "stop": 0.5, "step": 0.0495}}},
            {"protocol": {"t0": 0.05}},
        ],
    )
    def test_window_grid_may_start_by_the_emission_delay(self, data):
        # the windows that close by t0 click at the dark count, and the ones
        # after it detect the photon
        cfg = from_dict(data)
        windows = cfg.sweeps.window_us.to_array()
        assert windows[0] <= cfg.protocol.t0
        fidelity = protocol.window_sweep(cfg.protocol, cfg.device, windows).fidelity
        early = windows <= cfg.protocol.t0
        np.testing.assert_array_equal(fidelity[early], 0.0)
        assert np.all(fidelity[~early] > 0)

    def test_libyaml_and_pure_python_loaders_agree(self, tmp_path, monkeypatch):
        loaders = []
        load = yaml.load

        def spy(text, Loader):
            loaders.append(Loader)
            return load(text, Loader)

        monkeypatch.setattr(yaml, "load", spy)
        libyaml = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
        fast = load_config(SHIPPED_CONFIG)
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        slow = load_config(SHIPPED_CONFIG)
        assert loaders == [libyaml, yaml.SafeLoader]
        assert fast == slow
        assert config_digest(fast) == config_digest(slow) == SHIPPED_DIGEST
        bad = tmp_path / "bad.yaml"
        bad.write_text("device: [unclosed")
        with pytest.raises(ConfigError, match="parse error"):
            load_config(bad)

    def test_yaml_error_has_context(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("device: [unclosed")
        with pytest.raises(ConfigError, match="parse error"):
            load_config(bad)

    def test_partial_override(self):
        cfg = from_dict({"device": {"loss_L": 0.3}, "seed": 9})
        assert cfg.device.loss_L == 0.3
        assert cfg.device.kappa == 19.0
        assert cfg.seed == 9


SHIPPED_DIGEST = "56e35cafe722bc4289596b94bc7f02b624ec88d0a12295166be5b959e8076a8c"

EXPECTED_HEADERS = {
    "spectrum.csv": "nu_MHz,re_rg,im_rg,re_re,im_re,delta_phi_rad",
    "theta_sweep.csv": "theta_rad,p_e",
    "window_sweep.csv": "Tw_us,p_e1,p_e0,fidelity,ratio",
    "stark.csv": "P_in,nu_q_MHz,n_p",
}


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    for name in ("spectrum", "theta-sweep", "window-sweep", "stark"):
        assert cli.main([name, "--out", str(out), "--seed", "0"]) == 0
    return out


class TestRunners:
    def test_csv_headers_stable(self, out_dir):
        for fname, header in EXPECTED_HEADERS.items():
            first = (out_dir / fname).read_text().splitlines()[0]
            assert first == header

    def test_reports_written(self, out_dir):
        report = json.loads((out_dir / "spectrum_report.json").read_text())
        assert report["subcommand"] == "spectrum"
        assert report["files"] == ["spectrum.csv"]
        assert len(report["config_digest"]) == 64

    def test_spectrum_row_at_cavity_frequency(self, out_dir):
        rows = (out_dir / "spectrum.csv").read_text().splitlines()[1:]
        data = np.array([[float(x) for x in row.split(",")] for row in rows])
        idx = np.argmin(np.abs(data[:, 0] - 6135.0))
        assert data[idx, 5] == pytest.approx(math.pi, abs=1e-6)

    def test_theta_sweep_headline(self, out_dir):
        report = json.loads((out_dir / "theta_sweep_report.json").read_text())
        assert report["headline"]["fidelity"] == pytest.approx(0.602, abs=1e-3)

    def test_identical_seeds_are_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert cli.main(["theta-sweep", "--out", str(out), "--seed", "5"]) == 0
        assert (out_a / "theta_sweep.csv").read_bytes() == (
            out_b / "theta_sweep.csv"
        ).read_bytes()
        ra = json.loads((out_a / "theta_sweep_report.json").read_text())
        rb = json.loads((out_b / "theta_sweep_report.json").read_text())
        assert ra["config_digest"] == rb["config_digest"]

    def test_mollow_fit_truth_column_mixes_int_and_floats(self, tmp_path):
        # an int gain_truth heads a column of floats; each cell keeps its own
        # format, so 3 * 1.77 reads 5.31 and not its repr 5.3100000000000005
        path = tmp_path / "run.yaml"
        path.write_text(
            yaml.safe_dump(
                {"mollow": {"gain_truth": 1}, "sweeps": {"drive_ratios": [2.0, 3.0, 4.0]}}
            )
        )
        assert cli.main(["mollow", "--config", str(path), "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "mollow_fit.csv").read_text().splitlines()[1:]
        truth = dict(row.split(",")[::2] for row in rows)
        cells = [truth["gain"], truth["gamma_MHz"], truth["omega_MHz_ratio_3"]]
        assert cells == ["1", "1.77", "5.31"]

    def test_mollow_computes_each_spectrum_once(self, monkeypatch):
        # the noisy fit data reuse the spectra written to mollow_spectra.csv
        calls = []
        spectrum = calibration.mollow_spectrum

        def counted(*args):
            calls.append(args[0])
            return spectrum(*args)

        monkeypatch.setattr(calibration, "mollow_spectrum", counted)
        cfg = default_config()
        cli.run_mollow(cfg)
        assert calls == cfg.sweeps.drive_ratios

    @pytest.mark.parametrize("subcommand", cli.RUNNERS)
    def test_every_column_is_one_write_csv_takes(self, cfg, subcommand):
        # a range, or a 1-d array whose dtype alone gives its conversion
        tables, _ = cli.RUNNERS[subcommand](cfg)
        for name, (header, columns) in tables.items():
            assert len(columns) == len(header), name
            for column in columns:
                if isinstance(column, range):
                    continue
                assert isinstance(column, np.ndarray) and column.ndim == 1, name
                kind, size = column.dtype.kind, column.dtype.itemsize
                assert kind in ("b", "i", "u", "U") or (kind == "f" and size <= 8), name

    def test_qnd_mc_passed_column(self, tmp_path):
        # the gate is applied to the array of deviations; the CSV spells the
        # numpy bools true/false and the headline counts them
        cfg = default_config()
        cfg.qnd.gate = 0.005
        tables, headline = cli.run_qnd(cfg)
        write_csv(tmp_path / "qnd_mc.csv", *tables["qnd_mc.csv"])
        rows = [row.split(",") for row in (tmp_path / "qnd_mc.csv").read_text().splitlines()[1:]]
        assert [int(index) for index, _, _ in rows] == list(range(cfg.qnd.mc_seeds))
        passed = [flag for _, _, flag in rows]
        assert {"true", "false"} == set(passed)
        assert passed == ["true" if float(dev) <= 0.005 else "false" for _, dev, _ in rows]
        assert headline["mc_pass_count"] == passed.count("true")
        assert headline["mc_seeds"] == cfg.qnd.mc_seeds

    def test_subcommands_one_by_one_give_the_run_all_tree(self, tmp_path):
        # each subcommand alone writes its report and exactly the CSV files
        # that the report lists; together they give run_all's tree, byte
        # for byte, and run_all returns the reports' headlines
        tree = tmp_path / "tree"
        headlines = cli.run_all(default_config(), tree)
        assert list(headlines) == list(cli.RUNNERS)
        written = {}
        for subcommand in cli.RUNNERS:
            out = tmp_path / subcommand
            assert cli.main([subcommand, "--out", str(out)]) == 0
            name = subcommand.replace("-", "_")
            report = json.loads((out / f"{name}_report.json").read_text())
            assert report["subcommand"] == name
            assert report["headline"] == headlines[subcommand]
            assert report["files"] == sorted(p.name for p in out.glob("*.csv"))
            assert len(list(out.iterdir())) == len(report["files"]) + 1
            written.update((p.name, p.read_bytes()) for p in out.iterdir())
        assert written == {p.name: p.read_bytes() for p in tree.iterdir()}

    def test_spectrum_window_off_the_grid_is_null(self, tmp_path):
        # a grid that reaches neither dressed frequency reports no deviation
        # there, as JSON null
        path = tmp_path / "run.yaml"
        path.write_text("sweeps: {nu_mhz: {start: 6100, stop: 6170, step: 0.1}}\n")
        assert cli.main(["spectrum", "--config", str(path), "--out", str(tmp_path)]) == 0
        headline = json.loads((tmp_path / "spectrum_report.json").read_text())["headline"]
        assert headline["pi_deviation_at_dressed_minus"] is None
        assert headline["pi_deviation_at_dressed_plus"] is None
        assert headline["delta_phi_at_cavity"] == pytest.approx(math.pi, abs=1e-6)

    def test_spectrum_cavity_off_the_grid_is_null(self, tmp_path):
        # a grid that ends 335 MHz below nu_ef reports no cavity phase
        path = tmp_path / "run.yaml"
        path.write_text("sweeps: {nu_mhz: {start: 5700.0, stop: 5800.0, step: 0.5}}\n")
        assert cli.main(["spectrum", "--config", str(path), "--out", str(tmp_path)]) == 0
        headline = json.loads((tmp_path / "spectrum_report.json").read_text())["headline"]
        assert headline["delta_phi_at_cavity"] is None

    def test_window_sweep_100ns_before_the_emission_is_dark(self, tmp_path):
        # with t0 past 100 ns a 100 ns window captures nothing, so its click
        # ratio is 1; both optima lie after the emission
        path = tmp_path / "run.yaml"
        path.write_text(
            "protocol: {t0: 0.15, Tw: 0.4}\n"
            "sweeps: {window_us: {start: 0.2, stop: 0.6, step: 0.01}}\n"
        )
        assert cli.main(["window-sweep", "--config", str(path), "--out", str(tmp_path)]) == 0
        headline = json.loads((tmp_path / "window_sweep_report.json").read_text())["headline"]
        assert headline["ratio_at_100ns"] == 1.0
        assert headline["peak_fidelity_window_us"] == pytest.approx(0.424, abs=1e-3)
        assert headline["peak_efficiency_window_us"] == pytest.approx(0.523, abs=1e-3)

    def test_loss_uses_the_mollow_grid(self, tmp_path, monkeypatch):
        # the source side of the loss round trip is fitted on the grid of
        # the mollow section, as the mollow runner's fit is
        grids = []
        fit_mollow = calibration.fit_mollow

        def spy(ratios, stacked_grids, spectra, gamma):
            grids.extend(stacked_grids)
            return fit_mollow(ratios, stacked_grids, spectra, gamma)

        monkeypatch.setattr(calibration, "fit_mollow", spy)
        path = tmp_path / "run.yaml"
        path.write_text("mollow: {span: 3.0, points: 401}\n")
        assert cli.main(["loss", "--config", str(path), "--out", str(tmp_path)]) == 0
        cfg = load_config(path)
        gamma = cfg.device.gamma_source
        assert len(grids) == len(cfg.sweeps.drive_ratios)
        for ratio, grid in zip(cfg.sweeps.drive_ratios, grids):
            half = 3.0 * ratio * gamma
            np.testing.assert_array_equal(grid, np.linspace(-half, half, 401))

    def test_mollow_fit_small_gain(self, tmp_path):
        # the fluorescence fit's gain bound scales with its start value
        path = tmp_path / "run.yaml"
        path.write_text("mollow: {gain_truth: 1.0e-7}\n")
        assert cli.main(["mollow", "--config", str(path), "--out", str(tmp_path)]) == 0
        headline = json.loads((tmp_path / "mollow_report.json").read_text())["headline"]
        assert headline["gain_est"] == pytest.approx(1.0e-7, rel=0.02)

    def test_loss_small_detector_gain(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("loss: {detector_gain: 1.0e-6}\n")
        assert cli.main(["loss", "--config", str(path), "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "loss_pipeline.csv").read_text().splitlines()[1:]
        pipeline = {name: float(value) for name, value in (row.split(",") for row in rows)}
        assert pipeline["g_d_true"] == 1.0e-6
        assert pipeline["g_d_est"] == pytest.approx(1.0e-6, rel=0.02)
        assert pipeline["g_s_est"] == pytest.approx(pipeline["g_s_true"], rel=0.02)

    def test_custom_config_file(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump({"device": {"loss_L": 0.4}, "seed": 3}))
        out = tmp_path / "out"
        assert cli.main(["theta-sweep", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "theta_sweep_report.json").read_text())
        assert report["headline"]["p_e_given_1"] < 0.6  # extra loss hurts efficiency


class TestExitCodes:
    def test_config_error_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("unknown_section: 1\n")
        assert cli.main(["spectrum", "--config", str(bad), "--out", str(tmp_path)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, key",
        [
            ("device: [1]", "device"),
            ("loss: {components: [1, 2]}", "loss.components"),
            ("loss: {components: {a: x}}", "loss.components.a"),
            ("sweeps: {drive_ratios: 5}", "sweeps.drive_ratios"),
            ("sweeps: {drive_ratios: [a]}", "sweeps.drive_ratios[0]"),
            ("sweeps: {drive_ratios: [3.0]}", "sweeps.drive_ratios"),
            ("sweeps: {theta_rad: {start: 0, stop: 1, step: 0.3}}", "sweeps.theta_rad"),
            ("sweeps: {nu_mhz: {start: 5985, stop: 6285, num: 30.5}}", "sweeps.nu_mhz.num"),
            ("sweeps: {theta_rad: {start: 0, stop: 4, num: 5}}", "sweeps.theta_rad"),
            ("sweeps: {window_us: {start: .nan, stop: 0.6, num: 5}}", "sweeps.window_us.start"),
            ("sweeps: {nu_mhz: {start: 5000, stop: 6285, step: 0.5}}", "sweeps.nu_mhz"),
            ("sweeps: {window_us: {start: 0.05, stop: 0.6, step: 5.0e-324}}", "sweeps.window_us"),
            ("protocol: {t0: -0.01, Tw: 0.0}", "protocol.Tw"),
            ("readout: {n_shots: 50}", "readout.n_shots"),
            ("readout: {n_shots: 150.5}", "readout.n_shots"),
            ("readout: {snr: 0}", "readout.snr"),
            ("readout: {snr: -5.75}", "readout.snr"),
            ("readout: {preselect_sigmas: -1}", "readout.preselect_sigmas"),
            ("readout: {snr: .inf}", "readout.snr"),
            ("qnd: {n_theta: 2.5}", "qnd.n_theta"),
            ("qnd: {mc_seeds: 0}", "qnd.mc_seeds"),
            ("qnd: {n_shots: 0}", "qnd.n_shots"),
            ("qnd: {noise_var: -0.01}", "qnd.noise_var"),
            ("qnd: {scale: 1.5}", "qnd.scale"),
            ("qnd: {n_theta: 0}", "qnd.n_theta"),
            ("qnd: {coherence_offset: .inf}", "qnd.coherence_offset"),
            ("stark: {n_points: 2}", "stark.n_points"),
            ("stark: {p_max: 0.0}", "stark.p_max"),
            ("stark: {p_max: -1.0}", "stark.p_max"),
            ("stark: {photons_per_unit: 0.0}", "stark.photons_per_unit"),
            ("mollow: {span: 1.5}", "mollow.span"),
            ("mollow: {points: 1}", "mollow.points"),
            ("mollow: {gain_truth: 0.0}", "mollow.gain_truth"),
            ("loss: {detector_gain: 0.0}", "loss.detector_gain"),
            ("loss: {components: {a: 1.0}}", "loss.components.a"),
            ("loss: {components: {a: -0.1}}", "loss.components.a"),
            ("mollow: {span: .inf}", "mollow.span"),
            ("stark: {p_max: .inf}", "stark.p_max"),
            ("mollow: {gain_truth: .inf}", "mollow.gain_truth"),
            ("loss: {detector_gain: .inf}", "loss.detector_gain"),
            ("mollow: {noise_frac: .inf}", "mollow.noise_frac"),
            ("stark: {photons_per_unit: .inf}", "stark.photons_per_unit"),
            ("stark: {noise_frac: .nan}", "stark.noise_frac"),
            ("loss: {noise_frac: -0.01}", "loss.noise_frac"),
            ("mollow: {display_offset: .nan}", "mollow.display_offset"),
            ("spectroscopy: {gamma_atom_mhz: .inf}", "spectroscopy.gamma_atom_mhz"),
            ("spectroscopy: {gamma_atom_mhz: -1.0}", "spectroscopy.gamma_atom_mhz"),
            ("seed: 1.5", "seed"),
            ("qnd: {noise_var: x}", "qnd.noise_var"),
            ("output_dir: 5", "output_dir"),
            ("device:", "device"),
            ("config_version: 7", "config_version"),
            ("config_version: true", "config_version"),
            ("seed: true", "seed"),
            ("qnd: {n_shots: true}", "qnd.n_shots"),
            ("sweeps: {drive_ratios: [true, 4.0, 6.0]}", "sweeps.drive_ratios[0]"),
            ("loss: {components: {a: false}}", "loss.components.a"),
            ("device: {kappa: .inf}", "device.kappa"),
            ("device: {g0: .nan}", "device.g0"),
            ("device: {T1: .inf}", "device.T1"),
            ("device: {delta_qc: .nan}", "device.delta_qc"),
            ("device: {p_thermal: 1.5}", "device.p_thermal"),
            ("device: {gamma_source: -1.0}", "device.gamma_source"),
            ("protocol: {Tw: .inf}", "protocol.Tw"),
            ("protocol: {gamma_photon: .nan}", "protocol.gamma_photon"),
            ("qnd: {floor: .inf}", "qnd.floor"),
            ("qnd: {gate: .inf}", "qnd.gate"),
            ("readout: {preselect_sigmas: .inf}", "readout.preselect_sigmas"),
            ("reference: {single_shot_dark: 7.0}", "reference.single_shot_dark"),
            ('loss: {components: {"circulator, isolator": 0.08}}', "loss.components"),
            (r'loss: {components: {"a\"b": 0.08}}', "loss.components"),
            (r'loss: {components: {"a\rb": 0.08}}', "loss.components"),
            (r'loss: {components: {"a\nb": 0.08}}', "loss.components"),
            ("device: {nu_ro: 4800.0}", "device.nu_ro"),
            # integers past the float range, in a list, a mapping and a scalar
            pytest.param(
                f"sweeps: {{drive_ratios: [{HUGE_INT}, 4.0, 6.0]}}",
                "sweeps.drive_ratios[0]",
                id="huge-int-drive_ratios",
            ),
            pytest.param(
                f"loss: {{components: {{a: {HUGE_INT}}}}}",
                "loss.components.a",
                id="huge-int-components",
            ),
            pytest.param(f"device: {{T1: {HUGE_INT}}}", "device.T1", id="huge-int-T1"),
        ],
    )
    def test_malformed_content_exit_1_without_traceback(self, tmp_path, capsys, text, key):
        bad = tmp_path / "bad.yaml"
        bad.write_text(text + "\n")
        assert cli.main(["theta-sweep", "--config", str(bad), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err
        assert key in err
        assert "Traceback" not in err

    def test_missing_config_exit_1(self, tmp_path):
        assert (
            cli.main(["spectrum", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)])
            == 1
        )

    def test_bad_seed_exit_1(self, tmp_path):
        assert cli.main(["spectrum", "--seed", "-1", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("subcommand", ["spectrum", "check"])
    def test_unwritable_out_exit_1_without_traceback(self, tmp_path, capsys, subcommand):
        blocker = tmp_path / "regular_file"
        blocker.write_text("")
        assert cli.main([subcommand, "--out", str(blocker)]) == 1
        err = capsys.readouterr().err
        assert f"{subcommand}: cannot write output" in err
        assert "Traceback" not in err

    def test_wide_mollow_grid_runs_on_the_closed_form(self, tmp_path, capsys):
        # the resolvent evaluates any requested detuning, so a grid of +-400
        # drive rates runs; the mollow runner writes the closed form there
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump({"mollow": {"span": 400.0}}))
        for subcommand in ("mollow", "loss"):
            assert cli.main([subcommand, "--config", str(path), "--out", str(tmp_path)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        cfg = load_config(path)
        gamma = cfg.device.gamma_source
        ratios = cfg.sweeps.drive_ratios
        rows = np.loadtxt(tmp_path / "mollow_spectra.csv", delimiter=",", skiprows=1)
        for ratio, written in zip(ratios, np.split(rows[:, 2], len(ratios))):
            half = 400.0 * ratio * gamma
            grid = np.linspace(-half, half, cfg.mollow.points)
            closed = calibration.inelastic_spectrum_model(ratio * gamma, gamma, grid)
            # 1e-12 of the peak, plus the half unit in the 12th digit of %.12g
            bound = 1e-12 * closed.max() + 5e-12 * closed
            assert np.all(np.abs(written - closed) <= bound)

    @pytest.mark.filterwarnings("error")
    def test_tiny_noise_var_runs_without_overflow(self, tmp_path, capsys):
        # the QND law is drawn without dividing by noise_var, so a variance
        # near the float floor gives finite deviations and no warning
        path = tmp_path / "run.yaml"
        path.write_text("qnd: {noise_var: 1.0e-306}\n")
        assert cli.main(["qnd", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        rows = np.loadtxt(tmp_path / "qnd_mc.csv", delimiter=",", skiprows=1, usecols=1)
        assert np.all(np.isfinite(rows))
        report = json.loads((tmp_path / "qnd_report.json").read_text())
        assert report["headline"]["mc_pass_count"] == report["headline"]["mc_seeds"] == 100

    def test_non_finite_table_exit_2_before_any_file(self, tmp_path, capsys):
        # an e-f linewidth near the float range turns the reflection
        # coefficients into nan: the run names the column and writes nothing
        path = tmp_path / "run.yaml"
        path.write_text("spectroscopy: {gamma_atom_mhz: 1.4594540347131608e+308}\n")
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning, match="invalid value"):
            assert cli.main(["spectrum", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "non-finite value in column 're_re' of spectrum.csv" in err
        assert not out.exists()

    def test_overflow_exit_2(self, tmp_path, capsys):
        # a huge but finite coupling overflows Python float arithmetic in the
        # spectrum runner: a numeric error, not a traceback
        path = tmp_path / "run.yaml"
        path.write_text("device: {g0: 1.0e+200}\n")
        assert cli.main(["spectrum", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "spectrum: " in err
        assert "Traceback" not in err

    def test_check_exit_3_on_failing_criterion(self, tmp_path, capsys):
        # g0 = 45 MHz moves chi to -3.03 MHz, outside criterion 1's
        # -2.40 +- 0.01 band; a lighter statistics block keeps this test quick
        path = tmp_path / "run.yaml"
        path.write_text(
            yaml.safe_dump(
                {
                    "device": {"g0": 45.0},
                    "qnd": {"mc_seeds": 20},
                    "readout": {"n_shots": 2000},
                }
            )
        )
        out = tmp_path / "out"
        assert cli.main(["check", "--config", str(path), "--out", str(out)]) == 3
        text = capsys.readouterr().out
        assert "[FAIL] criterion  1 - dispersive shift" in text
        report = json.loads((out / "acceptance_report.json").read_text())
        assert not report["all_passed"]
        assert not {c["number"]: c for c in report["criteria"]}[1]["passed"]

    @pytest.mark.parametrize(
        "data, number, fail",
        [
            (
                {
                    "protocol": {"t0": 0.15, "Tw": 0.4},
                    "sweeps": {"window_us": {"start": 0.2, "stop": 0.6, "step": 0.01}},
                },
                4,
                "FAIL: ratio(100 ns) = 1.0 in [13, 20]",
            ),
            (
                {"device": {"g0": 10.0}},
                2,
                "FAIL: no grid point within 2 MHz of the - dressed frequency",
            ),
            (
                {
                    "protocol": {"t0": 0.3, "Tw": 0.5},
                    "sweeps": {"window_us": {"start": 0.35, "stop": 0.6, "step": 0.01}},
                },
                3,
                "FAIL: P(e|1) = 0.0648",
            ),
        ],
    )
    def test_check_exit_3_on_an_unreachable_reference_point(
        self, tmp_path, capsys, data, number, fail
    ):
        # every runner runs on these configs, but a reference point of one
        # criterion lies outside them or before the emission: that criterion
        # fails, not the run
        path = tmp_path / "run.yaml"
        path.write_text(
            yaml.safe_dump({**data, "qnd": {"mc_seeds": 20}, "readout": {"n_shots": 2000}})
        )
        out = tmp_path / "out"
        assert cli.main(["check", "--config", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == ""
        report = json.loads((out / "acceptance_report.json").read_text())
        criterion = {c["number"]: c for c in report["criteria"]}[number]
        assert not criterion["passed"]
        assert fail in criterion["details"]

    def test_window_closing_before_the_emission_runs(self, tmp_path, capsys):
        # the operating window closes 100 ns before the photon is emitted: it
        # clicks at the dark count, the window search still finds the optima
        # after the emission, and only the criteria read at 100 and 250 ns fail
        path = tmp_path / "run.yaml"
        path.write_text("protocol: {t0: 0.3, Tw: 0.2}\n")
        load_config(path)
        assert cli.main(["window-sweep", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert cli.main(["theta-sweep", "--config", str(path), "--out", str(tmp_path)]) == 0
        out = tmp_path / "out"
        assert cli.main(["check", "--config", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == ""
        window = json.loads((tmp_path / "window_sweep_report.json").read_text())["headline"]
        assert window["ratio_at_100ns"] == 1.0
        assert window["peak_fidelity_window_us"] == pytest.approx(0.574, abs=1e-3)
        assert window["peak_efficiency_window_us"] == pytest.approx(0.673, abs=1e-3)
        theta = json.loads((tmp_path / "theta_sweep_report.json").read_text())["headline"]
        assert theta["p_e_given_1"] == theta["p_e_given_0"]
        assert theta["fidelity"] == 0.0
        report = json.loads((out / "acceptance_report.json").read_text())
        failed = [c["number"] for c in report["criteria"] if not c["passed"]]
        assert failed == [3, 4, 5]
