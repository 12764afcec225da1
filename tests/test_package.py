import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qndsim
from qndsim import calibration, device, moments, protocol, readout

SRC = str(Path(qndsim.__file__).resolve().parents[1])

# Imports qndsim.cli in a fresh interpreter and prints its thread count
# before and after the import, whether the import changed os.environ, and
# whether it loaded scipy.
PROBE = """
import json, os, sys
{prelude}
def threads():
    status = open("/proc/self/status").read().splitlines()
    return next(int(line.split()[1]) for line in status if line.startswith("Threads:"))
before = dict(os.environ)
threads_before = threads()
import qndsim.cli
print(json.dumps({{"threads_before": threads_before, "threads": threads(),
                   "environ_unchanged": dict(os.environ) == before,
                   "openblas": os.environ.get("OPENBLAS_NUM_THREADS"),
                   "scipy": "scipy" in sys.modules}}))
"""

needs_proc = pytest.mark.skipif(not Path("/proc/self/status").exists(),
                                reason="thread count is read from /proc/self/status")


# (extra environment, code run before importing qndsim) of each probe
CASES = {
    "default": ({}, ""),
    "preset_two": ({"OPENBLAS_NUM_THREADS": "2"}, ""),
    "numpy_first": ({}, "import numpy"),
}


@pytest.fixture(scope="module")
def probes():
    """Every probe's result; the interpreters run side by side."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    procs = {name: subprocess.Popen([sys.executable, "-c", PROBE.format(prelude=prelude)],
                                    env={**env, **extra}, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, text=True)
             for name, (extra, prelude) in CASES.items()}
    results = {}
    try:
        for name, proc in procs.items():
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            results[name] = json.loads(out.splitlines()[-1])
    finally:
        for proc in procs.values():
            proc.kill()
    return results


@pytest.mark.parametrize("module", ["qndsim", "qndsim.core"])
def test_public_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


@pytest.mark.parametrize(
    "path", sorted(Path(qndsim.__file__).parent.rglob("*.py")),
    ids=lambda path: str(path.relative_to(Path(qndsim.__file__).parent)),
)
def test_no_unused_imports(path):
    # an import the module neither references nor re-exports in __all__
    tree = ast.parse(path.read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in imports
        if getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    assert sorted(imported - used - exported) == []


# Calls that hand a product or a solve to BLAS or LAPACK, whose kernel choice
# would reach the bytes: small linear algebra goes through core._smallmat,
# einsum without optimize, or np.sum. The one exception is the eigvalsh that
# check_states uses as a validation gate.
BLAS_ATTRIBUTES = {"dot", "matmul", "inner", "vdot", "tensordot"}
LINALG_ALLOWED = {("core/operators.py", "check_states", "np.linalg.eigvalsh")}


def blas_routes(tree, name):
    """(module, enclosing function, expression) of each BLAS or LAPACK route."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        text = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            text = "@"
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_ATTRIBUTES:
            text = ast.unparse(node)
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            outer = getattr(node, "parent", None)  # np.linalg.<name>, or np.linalg alone
            text = ast.unparse(outer if isinstance(outer, ast.Attribute) else node)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
            if any("linalg" in n.split(".") for n in names):
                text = ast.unparse(node)
        elif isinstance(node, ast.Call) and ast.unparse(node.func).endswith("einsum") and any(
            kw.arg == "optimize" for kw in node.keywords
        ):
            text = ast.unparse(node)
        if text is not None:
            found.append((name, function, text))
        for child in ast.iter_child_nodes(node):
            child.parent = node
            visit(child, function)

    visit(tree, None)
    return found


@pytest.mark.parametrize(
    "path", sorted(Path(qndsim.__file__).parent.rglob("*.py")),
    ids=lambda path: str(path.relative_to(Path(qndsim.__file__).parent)),
)
def test_small_linear_algebra_has_one_route(path):
    name = path.relative_to(Path(qndsim.__file__).parent).as_posix()
    found = blas_routes(ast.parse(path.read_text()), name)
    assert [route for route in found if route not in LINALG_ALLOWED] == []


@pytest.mark.parametrize(
    "code",
    [
        "x = a @ b",
        "x @= b",
        "x = a.dot(b)",
        "x = np.dot(a, b)",
        "x = np.matmul(a, b)",
        "x = np.inner(a, b)",
        "x = np.vdot(a, b)",
        "x = np.linalg.solve(a, b)",
        "x = np.linalg.norm(a)",
        "from numpy import linalg",
        "import numpy.linalg",
        "x = np.einsum('ij,jk->ik', a, b, optimize=True)",
        "def check_states(rho):\n    return np.linalg.eigh(rho)",
    ],
)
def test_route_guard_flags(code):
    assert blas_routes(ast.parse(code), "core/operators.py")


def test_route_guard_allows_the_validation_gate():
    code = "def check_states(rho):\n    return np.linalg.eigvalsh(rho)"
    assert set(blas_routes(ast.parse(code), "core/operators.py")) <= LINALG_ALLOWED
    assert blas_routes(ast.parse(code), "core/dynamics.py")


def test_tracer_layers_resolve(monkeypatch):
    # perfbench/tracer.py times each layer by rebinding a function by module
    # and name, so a moved or renamed function would leave its layer
    # unbound. Its `fit` layer names scipy.optimize.least_squares, which no
    # qndsim fit calls any more; the qndsim filter leaves that one out.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    layers = [
        (module, name) for _, module, name, _ in tracer.LAYERS if module.startswith("qndsim.")
    ]
    assert len(layers) > 20
    missing = [f"{m}.{n}" for m, n in layers if not hasattr(importlib.import_module(m), n)]
    assert not missing


# Run values the config owns: the library takes each from its caller and
# keeps no default of its own.
CONFIGURED_PARAMETERS = [
    (moments.expected_moments, "scale"),
    *((moments.simulate_moment_estimates, name)
      for name in ("scale", "n_shots", "noise_var", "coherence_offset")),
    *((moments.qnd_monte_carlo, name)
      for name in ("scale", "n_shots", "noise_var", "coherence_offset")),
    (readout.histogram_shots, "n_bins"),
    (readout.preselect_threshold, "n_sigmas"),
    (calibration.true_mollow_spectrum, "span"),
    (calibration.true_mollow_spectrum, "points"),
    *((calibration.loss_calibration_roundtrip, name)
      for name in ("photons_per_unit", "p_max", "n_stark_points")),
    (device.reflection_coefficient, "gamma_atom"),
    (device.phase_difference_spectrum, "gamma_atom"),
    (protocol.optimal_window, "objective"),
]


@pytest.mark.parametrize("func, name", CONFIGURED_PARAMETERS,
                         ids=[f"{f.__name__}-{n}" for f, n in CONFIGURED_PARAMETERS])
def test_configured_parameter_has_no_default(func, name):
    assert inspect.signature(func).parameters[name].default is inspect.Parameter.empty


def test_mixture_fields_have_no_defaults():
    for f in dataclasses.fields(readout.GaussianMixture):
        assert f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING


@needs_proc
@pytest.mark.parametrize("case", sorted(CASES))
def test_import_leaves_scipy_unloaded(probes, case):
    assert probes[case]["scipy"] is False


@needs_proc
def test_import_pins_one_blas_thread_and_restores_environ(probes):
    result = probes["default"]
    assert result["threads"] == 1
    assert result["openblas"] is None
    assert result["environ_unchanged"]


@needs_proc
def test_user_blas_thread_count_wins(probes):
    result = probes["preset_two"]
    assert result["openblas"] == "2"
    assert result["environ_unchanged"]
    if len(os.sched_getaffinity(0)) >= 2:
        assert result["threads"] > 1


@needs_proc
def test_numpy_imported_first_leaves_environ_untouched(probes):
    result = probes["numpy_first"]
    assert result["openblas"] is None
    assert result["environ_unchanged"]
    # numpy's OpenBLAS is the only one qndsim loads, so numpy has already
    # started every thread there is
    assert result["threads"] == result["threads_before"]
