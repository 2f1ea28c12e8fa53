"""Finite-rate feedback simulation for multi-antenna broadcast channels.

The package models a downlink where a transmitter with M antennas serves
K = M/N users of N antennas each through block-diagonalization (or
single-antenna zero-forcing) precoding, with the channel knowledge at the
transmitter degraded by quantized or analog feedback. It provides

* seeded ensembles of Gaussian matrices and isotropic Grassmann frames,
* random quantization codebooks, chordal distortion and its analytic bound,
* a closed-form emulation of codebook quantization whose cost does not grow
  with the bit budget,
* precoder construction, instantaneous rates and rate-loss bounds,
* feedback scaling laws relating bit budgets to SNR, and
* a deterministic Monte Carlo engine with SNR-gap estimation and a CLI.

The package is pure Python over numpy. It exports the union of its
modules' ``__all__`` lists, each the one list of that module's public
names (:mod:`grassfeed.linalg` holds internal kernels and has none), and
:data:`BACKEND`, always ``"python"``, which with
:mod:`grassfeed._backend` is kept only for the benchmark. Every argument
check raises a :class:`GrassfeedError` subclass from the shared validators
in :mod:`grassfeed.errors`.
"""

from . import ensembles, errors, grassmann, precoding, quant_emulator, scaling, simulator
from ._backend import BACKEND
from .ensembles import *
from .errors import *
from .grassmann import *
from .precoding import *
from .quant_emulator import *
from .scaling import *
from .simulator import *

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "__version__",
    *ensembles.__all__,
    *errors.__all__,
    *grassmann.__all__,
    *precoding.__all__,
    *quant_emulator.__all__,
    *scaling.__all__,
    *simulator.__all__,
]
