import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qndsim
from qndsim.core._smallmat import lu_solve

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


def test_same_bytes_under_every_openblas_kernel():
    # the solver makes no BLAS call, so OpenBLAS's kernel choice cannot
    # reach its bytes; one fresh interpreter per kernel
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    procs = [
        subprocess.Popen([sys.executable, "-c", HASH_PROBE], env={**env, "OPENBLAS_CORETYPE": kernel},
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for kernel in ("SkylakeX", "Haswell", "Sandybridge")
    ]
    hashes = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        hashes.append(out.strip())
    assert len(hashes[0]) == 64
    assert hashes.count(hashes[0]) == len(hashes)
