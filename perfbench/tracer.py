"""Per-layer self times for a ``run_experiment`` sweep, from outside the package.

The layer functions are wrapped in every ``grassfeed`` namespace that binds
them (``simulator`` imports several by name), so calls route through the
wrapper wherever they are made. Wrapping is undone on exit, and a check
confirms that no wrapper is left behind.

A function's self time is its wall time minus the wall time of the traced
functions it called, so self times over one sweep add up to the sweep's
wall time.
"""

import math
import sys
import time
from contextlib import contextmanager

from grassfeed import _backend, ensembles, linalg, precoding, quant_emulator, simulator

# (owner, attribute, metric prefix); owner is a module or, for methods, a class.
LAYER_FUNCTIONS = (
    (ensembles, "gaussian_matrix", "ensembles.gaussian_matrix"),
    (ensembles, "isotropic_frame", "ensembles.isotropic_frame"),
    (_backend, "orthonormalize", "_backend.orthonormalize"),
    (_backend, "quantize_gaussians", "_backend.quantize_gaussians"),
    (quant_emulator, "emulate_batch", "quant_emulator.emulate_batch"),
    (quant_emulator, "sample_min_d2", "quant_emulator.sample_min_d2"),
    (quant_emulator.CondEigSampler, "sample", "quant_emulator.CondEigSampler.sample"),
    (linalg, "left_nullspace_basis_batch", "linalg.left_nullspace_basis_batch"),
    (linalg, "cholesky_upper_batch", "linalg.cholesky_upper_batch"),
    (linalg, "logdet_hermitian_batch", "linalg.logdet_hermitian_batch"),
    (precoding, "bd_precoders_batch", "precoding.bd_precoders_batch"),
    (precoding, "zf_precoders_batch", "precoding.zf_precoders_batch"),
    (precoding, "rates_batch", "precoding.rates_batch"),
    (simulator, "run_experiment", "simulator.run_experiment"),
)

LAYER_NAMES = tuple(name for _, _, name in LAYER_FUNCTIONS)


def _batch_items(arr):
    return math.prod(arr.shape[:-2])


# Exact work counts taken at the layer boundary:
# name -> (args, kwargs, result) -> {counter: increment}.
def _count_gaussians(args, kwargs, result):
    return {"gaussian_elements": result.size}


def _count_scan(args, kwargs, result):
    gauss = args[1]
    return {
        "codebook_entries": _batch_items(gauss),
        "scan_bytes_computed": gauss.size * 16,
    }


def _count_nullspace(args, kwargs, result):
    return {"nullspace_qr": _batch_items(args[0])}


_COUNTERS = {
    "ensembles.gaussian_matrix": _count_gaussians,
    "_backend.quantize_gaussians": _count_scan,
    "linalg.left_nullspace_basis_batch": _count_nullspace,
}

COUNTER_NAMES = ("gaussian_elements", "codebook_entries", "scan_bytes_computed", "nullspace_qr")


class LayerTrace:
    """Accumulated calls, self seconds and work counts per layer function."""

    def __init__(self):
        self.calls = dict.fromkeys(LAYER_NAMES, 0)
        self.self_s = dict.fromkeys(LAYER_NAMES, 0.0)
        self.counts = dict.fromkeys(COUNTER_NAMES, 0)
        self._child_s = []  # one accumulator per active traced call

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - t0
                children = self._child_s.pop()
                self.calls[name] += 1
                self.self_s[name] += wall - children
                if self._child_s:
                    self._child_s[-1] += wall
            if counter is not None:
                for key, val in counter(args, kwargs, result).items():
                    self.counts[key] += val
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def active(self):
        """Route every layer call through the tracer for the ``with`` body."""
        namespaces = [
            mod for key, mod in sys.modules.items()
            if key == "grassfeed" or key.startswith("grassfeed.")
        ]
        patched = []
        try:
            for owner, attr, name in LAYER_FUNCTIONS:
                orig = vars(owner)[attr]
                wrapper = self._wrap(name, orig)
                targets = [owner] if isinstance(owner, type) else namespaces
                for ns in targets:
                    for key, val in list(vars(ns).items()):
                        if val is orig:
                            setattr(ns, key, wrapper)
                            patched.append((ns, key, orig))
            yield self
        finally:
            for ns, key, orig in reversed(patched):
                setattr(ns, key, orig)
        leftover = [
            f"{ns.__name__}.{key}" for ns, key, _ in patched
            if getattr(vars(ns)[key], "__wrapped__", None) is not None
        ]
        if leftover:
            raise RuntimeError(f"tracer left wrappers in place: {leftover}")
