"""qndsim: simulator and calibration pipeline for nondemolition detection
of itinerant microwave photons with a cavity-coupled artificial atom."""

import os as _os
import sys as _sys

# Every matrix qndsim hands to BLAS or LAPACK is tiny (4x4 Liouvillians,
# fit Jacobians, 8192x3 at most), so OpenBLAS worker threads never help and
# their start-up spin costs CPU. The first submodule import loads numpy's
# OpenBLAS, which reads OPENBLAS_NUM_THREADS once, as it loads. Pin it to 1
# for that import only, unless numpy is already loaded (too late to act) or
# the caller set it.
_pin_blas = "numpy" not in _sys.modules and "OPENBLAS_NUM_THREADS" not in _os.environ
if _pin_blas:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    from . import calibration, config, core, device, moments, protocol, readout
finally:
    if _pin_blas:
        del _os.environ["OPENBLAS_NUM_THREADS"]
del _os, _sys, _pin_blas

from .config import RunConfig, default_config, load_config
from .device import DeviceParams
from .protocol import ProtocolConfig

__version__ = "0.1.0"

__all__ = [
    "DeviceParams",
    "ProtocolConfig",
    "RunConfig",
    "calibration",
    "config",
    "core",
    "default_config",
    "device",
    "load_config",
    "moments",
    "protocol",
    "readout",
]
