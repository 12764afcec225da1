"""Per-layer tracing of qndsim from outside the program.

install() replaces the public functions named in LAYERS with wrappers,
everywhere a qndsim module binds them: the defining module, every module
that imported the name, and dicts such as cli.RUNNERS. cli, calibration and
acceptance call through those bindings, so the wrappers see every call. A
timed wrapper keeps a span (name, item, start, end, parent) in memory; a
counting wrapper only counts. metrics() turns spans and counts into the
per-item figures of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

# (metric prefix, defining module, function, timed); counters are added by
# the hooks below.
LAYERS = [
    ("moments.simulate_moment_estimates", "qndsim.moments", "simulate_moment_estimates", True),
    ("core.two_time_correlation", "qndsim.core.correlations", "two_time_correlation", True),
    ("core.steady_state", "qndsim.core.dynamics", "steady_state", True),
    ("core.psd", "qndsim.core.correlations", "psd", True),
    ("core.evolve", "qndsim.core.dynamics", "evolve", True),
    ("calibration.mollow_spectrum", "qndsim.calibration", "mollow_spectrum", True),
    ("calibration.true_mollow_spectrum", "qndsim.calibration", "true_mollow_spectrum", False),
    ("calibration.fit_mollow", "qndsim.calibration", "fit_mollow", True),
    ("calibration.fit_satellite_drive", "qndsim.calibration", "fit_satellite_drive", True),
    ("calibration.inelastic_spectrum_model", "qndsim.calibration", "inelastic_spectrum_model", False),
    ("calibration.loss_calibration_roundtrip", "qndsim.calibration", "loss_calibration_roundtrip", True),
    ("fit", "scipy.optimize", "least_squares", True),
    ("readout.sample_shots", "qndsim.readout", "sample_shots", True),
    ("readout.histogram_shots", "qndsim.readout", "histogram_shots", True),
    ("readout.fit_double_gaussian", "qndsim.readout", "fit_double_gaussian", True),
    ("device.phase_difference_spectrum", "qndsim.device", "phase_difference_spectrum", True),
    ("protocol.window_sweep", "qndsim.protocol", "window_sweep", True),
    ("protocol.optimal_window", "qndsim.protocol", "optimal_window", True),
    ("protocol.fidelity_metrics", "qndsim.protocol", "fidelity_metrics", False),
    ("csvio.write_csv", "qndsim.csvio", "write_csv", True),
    ("csvio.write_json", "qndsim.csvio", "write_json", True),
    ("config.load_config", "qndsim.config", "load_config", True),
    ("config.config_digest", "qndsim.config", "config_digest", True),
    *(
        (f"cli.run_{name}", "qndsim.cli", f"run_{name}", True)
        for name in ("spectrum", "theta_sweep", "window_sweep", "qnd", "mollow", "stark", "readout", "loss")
    ),
    ("acceptance.run_criteria", "qndsim.acceptance", "run_criteria", True),
    ("acceptance.run_check", "qndsim.acceptance", "run_check", True),
]


def _hooks() -> dict:
    """Counters taken from a call's bound arguments and result."""

    def moment_shots(args, result, counts):
        counts["moments.shots"] += args["n_shots"] * len(args["theta_grid"])

    def tau_points(args, result, counts):
        counts["core.tau_points"] += len(args["tau_grid"])

    def fit(args, result, counts):
        counts["fit.nfev"] += int(result.nfev)
        counts["fit.successes"] += bool(result.success)

    def shots(args, result, counts):
        counts["readout.shots"] += int(args["n"])

    def points(args, result, counts):
        counts["device.points"] += len(args["grid"])

    def file_bytes(args, result, counts):
        counts["csvio.bytes"] += os.path.getsize(args["path"])

    def csv_rows(args, result, counts):
        data = Path(args["path"]).read_bytes()
        counts["csvio.bytes"] += len(data)
        counts["csvio.rows"] += data.count(b"\n") - 1  # after the header

    return {
        "moments.simulate_moment_estimates": moment_shots,
        "core.two_time_correlation": tau_points,
        "fit": fit,
        "readout.sample_shots": shots,
        "device.phase_difference_spectrum": points,
        "csvio.write_csv": csv_rows,
        "csvio.write_json": file_bytes,
    }


class Tracer:
    """Spans and counts of one traced process; item is set by the caller."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, item, start, end, parent index]
        self.counts: Counter = Counter()
        self.item = 0
        self._stack: list[int] = []

    def _timed(self, name: str, func, hook):
        signature = inspect.signature(func)
        spans, stack, counts = self.spans, self._stack, self.counts
        key = f"{name}.calls"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            index = len(spans)
            spans.append([name, self.item, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][2:4] = start, end
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result, counts)
            return result

        return wrapper

    def _counted(self, name: str, func):
        counts = self.counts
        key = f"{name}.calls"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return func(*args, **kwargs)

        return wrapper

    def install(self) -> list[str]:
        """Wrap every binding of the LAYERS functions in qndsim's modules.

        Returns the layers that no qndsim module binds any more, so a later
        refactor shows up as missing instead of silently reading zero.
        """
        hooks = _hooks()
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "qndsim"]
        missing = []
        for name, module_name, attr, timed in LAYERS:
            func = getattr(sys.modules.get(module_name), attr, None)
            if func is None:
                missing.append(name)
                continue
            wrapper = self._timed(name, func, hooks.get(name)) if timed else self._counted(name, func)
            found = False
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is func:
                        setattr(module, key, wrapper)
                        found = True
                    elif isinstance(value, dict) and not key.startswith("__"):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is func:
                                value[dkey] = wrapper
                                found = True
            if not found:
                missing.append(name)
        return missing

    def dump_spans(self, path: Path) -> None:
        with open(path, "a") as handle:
            for name, item, start, end, parent in self.spans:
                handle.write(json.dumps([name, item, start, end, parent]) + "\n")

    def totals(self) -> dict:
        """Summed inclusive seconds per span name, self seconds of
        acceptance.run_check, and every count; mergeable across processes."""
        out: dict[str, float] = dict(self.counts)
        child_time = [0.0] * len(self.spans)
        for name, _, start, end, parent in self.spans:
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + (end - start)
            if parent >= 0:
                child_time[parent] += end - start
        for (name, _, start, end, _), covered in zip(self.spans, child_time):
            if name == "acceptance.run_check":
                out["acceptance.run_check.self_s"] = (
                    out.get("acceptance.run_check.self_s", 0.0) + (end - start) - covered
                )
        return out


def merge(totals: list[dict]) -> dict:
    out: dict[str, float] = {}
    for part in totals:
        for key, value in part.items():
            out[key] = out.get(key, 0.0) + value
    return out


def metrics(total: dict, items: int) -> dict[str, float]:
    """Per-item figures: .s and counts divided by the item count; the cache
    and fit ratios over their own bases (0 where the base is 0)."""
    out = {key: value / items for key, value in total.items() if key != "fit.successes"}
    requests = total.get("calibration.true_mollow_spectrum.calls", 0)
    computed = total.get("calibration.mollow_spectrum.calls", 0)
    out["calibration.spectrum_cache_hit_ratio"] = (requests - computed) / requests if requests else 0.0
    fits = total.get("fit.calls", 0)
    out["fit.success_ratio"] = total.get("fit.successes", 0) / fits if fits else 0.0
    return out
