import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qndsim
from qndsim.core._smallmat import cho_forward, cho_inverse, cho_solve, cholesky, lu_solve

SRC = str(Path(qndsim.__file__).resolve().parents[1])


def random_stack(rng, n, width):
    """(a, b): width random complex n x n systems, structure-of-arrays."""
    a = rng.standard_normal((n, n, width)) + 1j * rng.standard_normal((n, n, width))
    b = rng.standard_normal((n, width)) + 1j * rng.standard_normal((n, width))
    return a, b


def numpy_solve(a, b):
    """The reference, np.linalg.solve on the (W, n, n) view of the stack."""
    return np.linalg.solve(np.moveaxis(a, -1, 0), np.moveaxis(b, -1, 0)[..., None])[..., 0].T


def assert_matches_numpy(a, b):
    x, ref = lu_solve(a, b), numpy_solve(a, b)
    scale = np.max(np.abs(ref), axis=0)
    assert np.all(np.max(np.abs(x - ref), axis=0) <= 1e-13 * scale)


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("width", [1, 200])
def test_matches_numpy_solve(rng, n, width):
    assert_matches_numpy(*random_stack(rng, n, width))


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("width", [1, 200])
def test_zero_leading_entry_forces_a_row_exchange(rng, n, width):
    a, b = random_stack(rng, n, width)
    a[0, 0] = 0.0
    assert_matches_numpy(a, b)


def test_pivot_per_system(rng):
    # one stack mixing systems that need an exchange with systems that do not
    a, b = random_stack(rng, 4, 200)
    a[0, 0, ::2] = 0.0
    a[1, 1, 1::3] = 0.0
    assert_matches_numpy(a, b)


def test_real_stack_stays_real(rng):
    a, b = rng.standard_normal((3, 3, 10)), rng.standard_normal((3, 10))
    x = lu_solve(a, b)
    assert x.dtype == np.float64
    assert_matches_numpy(a, b)


def test_inputs_left_unchanged(rng):
    a, b = random_stack(rng, 4, 20)
    a[0, 0] = 0.0
    a0, b0 = a.copy(), b.copy()
    lu_solve(a, b)
    assert np.array_equal(a, a0) and np.array_equal(b, b0)


def test_broadcast_views_accepted(rng):
    a, b = random_stack(rng, 4, 1)
    x = lu_solve(np.broadcast_to(a, (4, 4, 5)), np.broadcast_to(b, (4, 5)))
    assert np.array_equal(x, np.repeat(lu_solve(a, b), 5, axis=1))


@pytest.mark.parametrize("shapes", [((4, 4), (4,)), ((4, 3, 5), (4, 5)), ((4, 4, 5), (4, 6))])
def test_shape_mismatch_rejected(shapes):
    with pytest.raises(ValueError, match="expected shapes"):
        lu_solve(np.ones(shapes[0]), np.ones(shapes[1]))


def random_spd(rng, n):
    """A random symmetric positive-definite n x n matrix, condition ~ 1e3."""
    q = rng.standard_normal((n, n))
    return q @ q.T + 1e-3 * n * np.eye(n)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_cholesky_matches_numpy(rng, n):
    a = random_spd(rng, n)
    low = cholesky(a)
    assert len(low) == n and all(isinstance(v, float) for row in low for v in row)
    ref = np.linalg.cholesky(a)
    np.testing.assert_allclose(np.array(low), ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    b = rng.standard_normal(n)
    np.testing.assert_allclose(cho_forward(low, b), np.linalg.solve(ref, b), rtol=1e-10)
    x, want = cho_solve(low, b), np.linalg.solve(a, b)
    assert np.max(np.abs(x - want)) <= 1e-10 * np.max(np.abs(want))
    inv, want = cho_inverse(low), np.linalg.inv(a)
    assert np.array_equal(inv, inv.T)
    assert np.max(np.abs(inv - want)) <= 1e-10 * np.max(np.abs(want))


def test_cholesky_reads_the_lower_triangle(rng):
    a = random_spd(rng, 4)
    upper_garbage = np.tril(a) + np.triu(rng.standard_normal((4, 4)), k=1)
    assert cholesky(upper_garbage) == cholesky(a)


@pytest.mark.parametrize(
    "a",
    [
        [[1.0, 2.0], [2.0, 1.0]],  # indefinite
        [[1.0, 1.0], [1.0, 1.0]],  # positive semidefinite, singular
        [[0.0]],
        [[-1.0]],
        [[np.nan]],
        [[1.0, 0.0], [0.0, np.nan]],
    ],
    ids=["indefinite", "singular", "zero", "negative", "nan", "nan_pivot"],
)
def test_cholesky_none_unless_positive_definite(a):
    assert cholesky(np.array(a)) is None


def test_inverse_diagonal_never_negative(rng):
    # near-singular: the diagonal of the inverse is a sum of squares
    q = rng.standard_normal((6, 3))
    a = q @ q.T + 1e-12 * np.eye(6)
    low = cholesky(a)
    assert low is not None
    assert np.all(np.diag(cho_inverse(low)) >= 0)


# Hashes lu_solve's solution of a fixed random stack, with a forced row
# exchange in every other system.
HASH_PROBE = """
import hashlib
import numpy as np
from qndsim.core._smallmat import lu_solve
rng = np.random.default_rng(26)
a = rng.standard_normal((4, 4, 801)) + 1j * rng.standard_normal((4, 4, 801))
b = rng.standard_normal((4, 801)) + 1j * rng.standard_normal((4, 801))
a[0, 0, ::2] = 0.0
print(hashlib.sha256(lu_solve(a, b).tobytes()).hexdigest())
"""


def outputs_per_kernel(probe, kernels):
    """The probe's stdout in one fresh interpreter per OPENBLAS_CORETYPE,
    None leaving OpenBLAS to choose for itself; the interpreters run side
    by side."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    procs = [
        subprocess.Popen([sys.executable, "-c", probe],
                         env={**env, **({"OPENBLAS_CORETYPE": kernel} if kernel else {})},
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for kernel in kernels
    ]
    outputs = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        outputs.append(out.strip())
    return outputs


def test_same_bytes_under_every_openblas_kernel():
    # the solver makes no BLAS call, so OpenBLAS's kernel choice cannot
    # reach its bytes
    hashes = outputs_per_kernel(HASH_PROBE, ("SkylakeX", "Haswell", "Sandybridge"))
    assert len(hashes[0]) == 64
    assert hashes.count(hashes[0]) == len(hashes)


# Hashes what the output path computes on the shipped config: a steady state,
# an evolution, the Stark line, one double-Gaussian readout fit with its
# standard errors and the joint Mollow fit.
OUTPUT_PROBE = """
import hashlib, math
from dataclasses import astuple
import numpy as np
from qndsim import calibration, cli, readout
from qndsim.config import default_config
from qndsim.core import evolve, steady_state
from qndsim.device import dispersive_shift
cfg = default_config()
dev = cfg.device
gamma = 2 * math.pi * dev.gamma_source
model = calibration.driven_atom_model(2.0 * gamma, gamma)
parts = [steady_state(model), evolve(model, np.diag([0.0, 1.0]), np.linspace(0.0, 2.0, 201))]
chi = dispersive_shift(dev.alpha, dev.g0, dev.delta_qc)
stark = calibration.stark_fit(*calibration.synthetic_stark_dataset(
    chi, dev.nu_ge, cfg.stark.photons_per_unit, cfg.stark.p_max, cfg.stark.n_points,
    noise_mhz=0.01 * abs(2 * chi * cfg.stark.photons_per_unit) * cfg.stark.p_max, seed=7))
parts.append([stark.slope, stark.intercept, stark.slope_err])
mix = readout.GaussianMixture(0.0, cfg.readout.snr, 1.0, 0.06)
shots = readout.sample_shots(mix, cfg.readout.n_shots, 7)
fit = readout.fit_double_gaussian(*readout.histogram_shots(shots, cfg.readout.n_bins))
parts.append([*astuple(fit.mixture), fit.rss, *fit.stderr.values()])
grids, spectra = cli._true_spectra(cfg)
dataset = calibration.synthetic_mollow_dataset(
    spectra, cfg.mollow.gain_truth, cfg.mollow.noise_frac, 7)
mollow = calibration.fit_mollow(cfg.sweeps.drive_ratios, grids, dataset, dev.gamma_source)
parts.append([mollow.gain, mollow.gamma, *mollow.omegas])
print(" ".join(hashlib.sha256(np.asarray(p).tobytes()).hexdigest()[:16] for p in parts))
"""


def test_outputs_same_bytes_under_every_openblas_kernel():
    # every solve and product on the output path goes through _smallmat,
    # einsum or np.sum, so no kernel choice reaches these values
    hashes = outputs_per_kernel(OUTPUT_PROBE, (None, "Sandybridge", "Zen", "Haswell"))
    assert len(hashes[0].split()) == 5
    assert hashes.count(hashes[0]) == len(hashes), hashes
