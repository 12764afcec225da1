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
    (moments.max_power_deviation, "floor"),
    *((moments.simulate_moment_estimates, name)
      for name in ("scale", "n_shots", "noise_var", "coherence_offset")),
    *((moments.qnd_monte_carlo, name)
      for name in ("scale", "n_shots", "noise_var", "floor", "coherence_offset")),
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
