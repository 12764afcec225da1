"""Output checks made apart from qndsim.

Every expected value is computed here from the item's own configuration,
with numpy and the closed forms of the README "Model notes" or, for the
fluorescence spectra, a 4x4 Liouvillian resolvent. Nothing here imports
qndsim, and nothing compares against stored output.

Each check takes (out_dir, cfg, rc) and raises CheckError with a message on
the first mismatch. CHECKS lists them by workload; selftest.py shows that
each rejects a corrupted copy of its output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi

# CSV values carry 12 significant digits; closed forms agree to ~1e-12.
RTOL = 1e-9
ATOL = 1e-12
# The program's spectra come from a sampled time-domain correlator; against
# the resolvent they differ by 0.09 % of the peak at drive ratio 2 and
# 1.5 % at ratio 8.
SPECTRUM_TOL = 0.03
# Noise-driven estimates must fall within this many standard errors.
Z_MAX = 6.0
# Allowance for the bias of the fits beyond the injected noise: the
# time-domain spectra differ from the resolvent model they are fitted with.
FIT_BIAS = {"gain": 0.01, "gamma": 0.02, "omega": 0.01}


class CheckError(Exception):
    """An output of the program disagrees with the independent computation."""


def _close(name: str, got, want, rtol: float = RTOL, atol: float = ATOL) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckError(f"{name}: shape {got.shape} != expected {want.shape}")
    err = np.abs(got - want)
    bad = err > atol + rtol * np.abs(want)
    if np.any(bad):
        i = int(np.flatnonzero(bad.ravel())[0])
        raise CheckError(
            f"{name}: {float(got.ravel()[i])!r} != expected {float(want.ravel()[i])!r} at row {i}"
        )


def read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise CheckError(f"{path.name}: empty file")
    return rows[0], rows[1:]


def read_table(path: Path, header: list[str]) -> np.ndarray:
    """Numeric CSV with the expected header, as a (rows, columns) array."""
    got, rows = read_rows(path)
    if got != header:
        raise CheckError(f"{path.name}: header {got} != {header}")
    try:
        return np.array(rows, dtype=float).reshape(len(rows), len(header))
    except ValueError as exc:
        raise CheckError(f"{path.name}: {exc}") from exc


def read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path.name}: {exc}") from exc


def tree_sha256(root: Path) -> str:
    """SHA-256 over the sorted relative paths and contents of a tree."""
    digest = hashlib.sha256()
    files = sorted(p for p in root.rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def grid(spec: dict) -> np.ndarray:
    """A sweep grid as the config documents it: start/stop plus step or num."""
    if "num" in spec:
        n = int(spec["num"])
    else:
        n = int(round((spec["stop"] - spec["start"]) / spec["step"])) + 1
    return np.linspace(spec["start"], spec["stop"], n)


# ---------------------------------------------------------------- closed forms


def detection_probs(cfg: dict, windows) -> tuple[np.ndarray, np.ndarray]:
    """P(e|1), P(e|0) of README "Model notes" at the given window lengths."""
    dev, proto = cfg["device"], cfg["protocol"]
    tw = np.asarray(windows, dtype=float)
    capture = 1.0 - np.exp(-TWO_PI * proto["gamma_photon"] * (tw - proto["t0"]))
    p_int = (1.0 - dev["loss_L"]) * capture
    if proto["ramsey_law"] == "exponential":
        coherence = np.exp(-tw / dev["T2_star"])
    else:
        coherence = np.exp(-((tw / dev["T2_star"]) ** 2))
    p_e0 = (1.0 - coherence) / 2.0
    p_e1 = p_int * (1.0 + coherence) / 2.0 + (1.0 - p_int) * p_e0
    return p_e1, p_e0


def reflection(cfg: dict, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bare-cavity r_g and e-f coupled r_e of README "Model notes" (MHz units)."""
    dev = cfg["device"]
    gamma_atom = cfg["spectroscopy"]["gamma_atom_mhz"]
    d_cav = 1j * (dev["nu_ef"] - nu) + dev["kappa"] / 2
    d_atom = 1j * (dev["nu_ef"] - nu) + gamma_atom / 2
    r_g = 1 - dev["kappa"] / d_cav
    r_e = 1 - dev["kappa"] * d_atom / (d_cav * d_atom + 2 * dev["g0"] ** 2)
    return r_g, r_e


def dispersive_shift(dev: dict) -> float:
    delta, alpha = dev["delta_qc"], dev["alpha"]
    return alpha * dev["g0"] ** 2 / (delta * (delta - alpha))


def mollow_reference(ratio: float, gamma: float, detuning: np.ndarray) -> np.ndarray:
    """Inelastic fluorescence flux density (photons/us per MHz) of a
    resonantly driven two-level emitter, Omega = ratio * Gamma.

    S(d) = Gamma * 2 Re Tr[s+ (i 2 pi d - L')^-1 (s- rho - <s-> rho)], with
    L the 4x4 Liouvillian on row-major vec(rho) and L' = L - |rho><1|, which
    equals L on traceless matrices and is invertible at every detuning.
    """
    g_ang = TWO_PI * gamma
    sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    ham = ratio * g_ang / 2 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    eye = np.eye(2)
    jump = math.sqrt(g_ang) * sm
    jdj = jump.conj().T @ jump
    liou = -1j * (np.kron(ham, eye) - np.kron(eye, ham.T))
    liou += np.kron(jump, jump.conj()) - 0.5 * (np.kron(jdj, eye) + np.kron(eye, jdj.T))
    trace_row = eye.reshape(-1)
    rhs = np.zeros(5, dtype=complex)
    rhs[-1] = 1.0
    rho = np.linalg.lstsq(np.vstack([liou, trace_row]), rhs, rcond=None)[0].reshape(2, 2)
    seed = sm @ rho - np.trace(sm @ rho) * rho
    shifted = liou - np.outer(rho.reshape(-1), trace_row)
    u = 1j * TWO_PI * np.asarray(detuning, dtype=float)
    system = u[:, None, None] * np.eye(4) - shifted
    sol = np.linalg.solve(system, np.broadcast_to(seed.reshape(4, 1), (u.size, 4, 1)))
    corr = sol[..., 0].reshape(-1, 2, 2)
    return g_ang * 2.0 * np.einsum("ij,tji->t", sm.conj().T, corr).real


def mollow_grid(cfg: dict, ratio: float) -> np.ndarray:
    mc = cfg["mollow"]
    half = mc["span"] * ratio * cfg["device"]["gamma_source"]
    return np.linspace(-half, half, mc["points"])


def mollow_fit_stderr(cfg: dict, gain: float, noise_frac: float) -> np.ndarray:
    """Standard errors of (gain, Gamma, Omega_1..) of the joint least-squares
    fit to spectra carrying multiplicative noise of size noise_frac.

    Sandwich covariance (J'J)^-1 J' W J (J'J)^-1 of ordinary least squares,
    with W the noise variance of each point and J the resolvent model's
    Jacobian by central differences.
    """
    gamma = cfg["device"]["gamma_source"]
    ratios = cfg["sweeps"]["drive_ratios"]
    grids = [mollow_grid(cfg, r) for r in ratios]

    def model(p):
        g, gam, omegas = p[0], p[1], p[2:]
        return g * np.concatenate(
            [mollow_reference(om / gam, gam, x) for om, x in zip(omegas, grids)]
        )

    p0 = np.array([gain, gamma, *(r * gamma for r in ratios)])
    jac = np.empty((sum(x.size for x in grids), p0.size))
    for k in range(p0.size):
        step = 1e-6 * p0[k]
        hi, lo = p0.copy(), p0.copy()
        hi[k] += step
        lo[k] -= step
        jac[:, k] = (model(hi) - model(lo)) / (2 * step)
    sigma = noise_frac * model(p0)
    bread = np.linalg.inv(jac.T @ jac)
    meat = jac.T @ (jac * sigma[:, None] ** 2)
    return np.sqrt(np.diag(bread @ meat @ bread))


def stark_slope_stderr(stark: dict, noise_frac: float) -> float:
    """Standard error of the OLS Stark slope, relative to the slope."""
    p_in = np.linspace(0.0, stark["p_max"], stark["n_points"])
    return noise_frac * stark["p_max"] / math.sqrt(np.sum((p_in - p_in.mean()) ** 2))


# ---------------------------------------------------------------- check workload


def check_acceptance(out: Path, cfg: dict, rc: int) -> None:
    """Exit code 0 and all twelve criteria passed in the JSON report."""
    if rc != 0:
        raise CheckError(f"qndsim check exited {rc}")
    report = read_json(out / "acceptance_report.json")
    criteria = report.get("criteria", [])
    numbers = [c.get("number") for c in criteria]
    if numbers != list(range(1, 13)):
        raise CheckError(f"acceptance report lists criteria {numbers}")
    failed = [c["number"] for c in criteria if c.get("passed") is not True]
    if failed or report.get("all_passed") is not True:
        raise CheckError(f"acceptance criteria failed: {failed}")


def check_determinism(out: Path, cfg: dict, rc: int) -> None:
    """The two emitted trees hash alike, by the benchmark's own SHA-256."""
    run_a, run_b = out / "run_a", out / "run_b"
    if not run_a.is_dir() or not any(run_a.iterdir()):
        raise CheckError("run_a/ is missing or empty")
    if tree_sha256(run_a) != tree_sha256(run_b):
        raise CheckError("run_a/ and run_b/ differ")


def _run_dir(out: Path) -> Path:
    return out / "run_a" if (out / "run_a").is_dir() else out


def check_window_sweep(out: Path, cfg: dict, rc: int) -> None:
    table = read_table(_run_dir(out) / "window_sweep.csv", ["Tw_us", "p_e1", "p_e0", "fidelity", "ratio"])
    windows = grid(cfg["sweeps"]["window_us"])
    _close("window_sweep Tw_us", table[:, 0], windows)
    p_e1, p_e0 = detection_probs(cfg, windows)
    _close("window_sweep p_e1", table[:, 1], p_e1)
    _close("window_sweep p_e0", table[:, 2], p_e0)
    _close("window_sweep fidelity", table[:, 3], p_e1 - p_e0)
    _close("window_sweep ratio", table[:, 4], p_e1 / p_e0)


def check_theta_sweep(out: Path, cfg: dict, rc: int) -> None:
    table = read_table(_run_dir(out) / "theta_sweep.csv", ["theta_rad", "p_e"])
    thetas = grid(cfg["sweeps"]["theta_rad"])
    _close("theta_sweep theta_rad", table[:, 0], thetas)
    p_e1, p_e0 = detection_probs(cfg, cfg["protocol"]["Tw"])
    _close("theta_sweep p_e", table[:, 1], p_e0 + (p_e1 - p_e0) * np.sin(thetas / 2) ** 2)


def check_spectrum(out: Path, cfg: dict, rc: int) -> None:
    """r_g against the bare cavity, r_e and delta_phi against the coupled
    form, and |r| <= 1 everywhere."""
    table = read_table(
        _run_dir(out) / "spectrum.csv",
        ["nu_MHz", "re_rg", "im_rg", "re_re", "im_re", "delta_phi_rad"],
    )
    nu = grid(cfg["sweeps"]["nu_mhz"])
    _close("spectrum nu_MHz", table[:, 0], nu)
    r_g, r_e = reflection(cfg, nu)
    _close("spectrum re_rg", table[:, 1], r_g.real)
    _close("spectrum im_rg", table[:, 2], r_g.imag)
    _close("spectrum re_re", table[:, 3], r_e.real)
    _close("spectrum im_re", table[:, 4], r_e.imag)
    _close("spectrum delta_phi_rad", table[:, 5], np.abs(np.angle(r_g * np.conj(r_e))))
    modulus = np.hypot(table[:, [1, 3]], table[:, [2, 4]])
    if np.any(modulus > 1 + 1e-9):
        raise CheckError(f"spectrum: |r| reaches {modulus.max():.12g} > 1")


# ---------------------------------------------------------------- calibration


def check_mollow_spectra(out: Path, cfg: dict, rc: int) -> None:
    """Each spectrum against the resolvent, within SPECTRUM_TOL of its peak."""
    header, rows = read_rows(out / "mollow_spectra.csv")
    if header != ["drive_ratio", "delta_MHz", "psd", "psd_display"]:
        raise CheckError(f"mollow_spectra.csv: header {header}")
    table = np.array(rows, dtype=float)
    ratios = cfg["sweeps"]["drive_ratios"]
    points = cfg["mollow"]["points"]
    if table.shape != (points * len(ratios), 4):
        raise CheckError(f"mollow_spectra.csv: shape {table.shape}")
    gamma = cfg["device"]["gamma_source"]
    for k, ratio in enumerate(ratios):
        block = table[k * points : (k + 1) * points]
        _close(f"mollow ratio {ratio:g} drive_ratio", block[:, 0], np.full(points, ratio))
        detuning = mollow_grid(cfg, ratio)
        _close(f"mollow ratio {ratio:g} delta_MHz", block[:, 1], detuning, atol=1e-9)
        _close(
            f"mollow ratio {ratio:g} psd_display",
            block[:, 3],
            block[:, 2] + k * cfg["mollow"]["display_offset"],
            atol=1e-11,
        )
        ref = mollow_reference(ratio, gamma, detuning)
        gap = float(np.max(np.abs(block[:, 2] - ref)) / ref.max())
        if gap > SPECTRUM_TOL:
            raise CheckError(f"mollow ratio {ratio:g}: off the resolvent by {gap:.2%} of the peak")


def _bounded(name: str, est: float, truth: float, stderr: float, bias: float) -> None:
    tol = Z_MAX * stderr + bias * abs(truth)
    if not abs(est - truth) <= tol:
        raise CheckError(f"{name}: {est:.6g} vs truth {truth:.6g}, allowed +-{tol:.3g}")


def check_mollow_fit(out: Path, cfg: dict, rc: int) -> None:
    """Recovered gain, Gamma and drives within the noise-derived tolerance."""
    header, rows = read_rows(out / "mollow_fit.csv")
    if header != ["parameter", "estimate", "truth"]:
        raise CheckError(f"mollow_fit.csv: header {header}")
    fitted = {name: (float(est), float(truth)) for name, est, truth in rows}
    gamma = cfg["device"]["gamma_source"]
    ratios = cfg["sweeps"]["drive_ratios"]
    gain = cfg["mollow"]["gain_truth"]
    names = ["gain", "gamma_MHz", *(f"omega_MHz_ratio_{r:g}" for r in ratios)]
    if list(fitted) != names:
        raise CheckError(f"mollow_fit.csv: parameters {list(fitted)}")
    truths = [gain, gamma, *(r * gamma for r in ratios)]
    stderr = mollow_fit_stderr(cfg, gain, cfg["mollow"]["noise_frac"])
    biases = [FIT_BIAS["gain"], FIT_BIAS["gamma"], *(FIT_BIAS["omega"] for _ in ratios)]
    for name, truth, err, bias in zip(names, truths, stderr, biases):
        est, reported = fitted[name]
        _close(f"mollow_fit truth of {name}", reported, truth)
        _bounded(f"mollow_fit {name}", est, truth, err, bias)


def check_stark(out: Path, cfg: dict, rc: int) -> None:
    """The line through stark.csv recovers 2 chi within the noise, and n_p
    follows from the fitted slope."""
    table = read_table(out / "stark.csv", ["P_in", "nu_q_MHz", "n_p"])
    stark = cfg["stark"]
    chi = dispersive_shift(cfg["device"])
    _close("stark P_in", table[:, 0], np.linspace(0.0, stark["p_max"], stark["n_points"]))
    slope, _ = np.polyfit(table[:, 0], table[:, 1], 1)
    truth = 2.0 * chi * stark["photons_per_unit"]
    rel = stark_slope_stderr(stark, stark["noise_frac"])
    _bounded("stark slope", slope, truth, rel * abs(truth), 0.0)
    report = read_json(out / "stark_report.json")["headline"]
    _close("stark slope_est", report["slope_est"], slope, rtol=1e-7)
    _close("stark n_p", table[:, 2], report["slope_est"] * table[:, 0] / (2.0 * chi))


def check_loss(out: Path, cfg: dict, rc: int) -> None:
    """Loss round trip: truths as configured, the estimate within the noise."""
    header, rows = read_rows(out / "loss_pipeline.csv")
    if header != ["quantity", "value"]:
        raise CheckError(f"loss_pipeline.csv: header {header}")
    values = {name: float(v) for name, v in rows}
    loss = cfg["device"]["loss_L"]
    g_d = cfg["loss"]["detector_gain"]
    noise = cfg["loss"]["noise_frac"]
    _close("loss loss_true", values["loss_true"], loss)
    _close("loss g_d_true", values["g_d_true"], g_d)
    _close("loss g_s_true", values["g_s_true"], (1.0 - loss) * g_d)
    # relative errors: the source gain from the joint fit; the detector gain
    # from the Stark slope and the noisy flux of the 8 non-zero powers
    g_s = (1.0 - loss) * g_d
    rel_s = mollow_fit_stderr(cfg, g_s, noise)[0] / g_s
    stark = cfg["stark"]
    chi = dispersive_shift(cfg["device"])
    p_in = np.linspace(0.0, stark["p_max"], stark["n_points"])[1:]
    rel_slope = stark_slope_stderr(stark, noise)
    rel_flux = noise * math.sqrt(np.sum(p_in**4)) / np.sum(p_in**2)
    sigma = (1.0 - loss) * math.sqrt(rel_s**2 + rel_slope**2 + rel_flux**2)
    _bounded("loss loss_est", values["loss_est"], loss, sigma, 0.0)
    _close("loss loss_est", values["loss_est"], 1.0 - values["g_s_est"] / values["g_d_est"])


# ---------------------------------------------------------------- design


def check_readout(out: Path, cfg: dict, rc: int) -> None:
    """Assigned fractions of each shot file within binomial bounds of the
    composed populations, and the reported fractions as counted here."""
    dev, ro = cfg["device"], cfg["readout"]
    p_e1, p_e0 = detection_probs(cfg, cfg["protocol"]["Tw"])
    eps_ge, eps_eg = dev["eps_ge"], dev["eps_eg"]
    populations = {
        "prep_g": eps_eg,
        "prep_e": 1.0 - eps_ge,
        "photon_0": p_e0 * (1 - eps_ge) + (1 - p_e0) * eps_eg,
        "photon_1": p_e1 * (1 - eps_ge) + (1 - p_e1) * eps_eg,
    }
    snr, n = ro["snr"], ro["n_shots"]
    overlap = 0.5 * math.erfc(snr / (2 * math.sqrt(2)))
    report = read_json(out / "readout_report.json")["headline"]
    _close("readout composed_p_e_given_0", report["composed_p_e_given_0"], populations["photon_0"])
    _close("readout composed_p_e_given_1", report["composed_p_e_given_1"], populations["photon_1"])
    for name, p in populations.items():
        table = read_table(out / f"shots_{name}.csv", ["index", "q"])
        _close(f"shots_{name} index", table[:, 0], np.arange(n))
        frac = float(np.mean(table[:, 1] > snr / 2))
        expect = p * (1 - overlap) + (1 - p) * overlap
        bound = Z_MAX * math.sqrt(expect * (1 - expect) / n) + 1.0 / n
        if abs(frac - expect) > bound:
            raise CheckError(
                f"shots_{name}: assigned fraction {frac:.5f} vs {expect:.5f} +- {bound:.5f}"
            )
        key = f"assigned_e_{name}"
        if key in report and abs(report[key] - frac) > 1.5 / n:
            raise CheckError(f"readout {key} = {report[key]} but the shots give {frac}")


CHECKS = {
    "check": [
        check_acceptance,
        check_determinism,
        check_window_sweep,
        check_theta_sweep,
        check_spectrum,
    ],
    "calibration": [check_mollow_spectra, check_mollow_fit, check_stark, check_loss],
    "design": [check_spectrum, check_theta_sweep, check_window_sweep, check_readout],
}


def verify(workload: str, out: Path, cfg: dict, rc: int) -> None:
    for check in CHECKS[workload]:
        check(out, cfg, rc)
