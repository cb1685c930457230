"""Time the mode-sweep kernels and one end-to-end point assembly.

Synthetic stacks mimic the per-mode companion matrices (small, complex,
spectrum off the imaginary axis); the assembly is dirac3 at cutoff 48.
"""

import time

import numpy as np

from . import _kernels
from .grassmann import assemble_point
from .symbols import build_gallery


def _synthetic_stack(n_modes, dim, seed=0):
    rng = np.random.default_rng(seed)
    mats = rng.normal(size=(n_modes, dim, dim)) + 1j * rng.normal(size=(n_modes, dim, dim))
    shift = 2.5 * rng.choice([-1.0, 1.0], size=(n_modes, 1, 1))
    return mats + shift * np.eye(dim)


def _time(fn, repeat):
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_bench(n_modes=4096, dim=4, repeat=3, echo=print):
    """Best-of-``repeat`` time of every kernel; returns one row per case."""
    stack = _synthetic_stack(n_modes, dim)
    eigs = _kernels.eigvals_sweep(stack)
    dims = (eigs.real < 0).sum(axis=1).astype(np.int64)
    proj = _kernels.stable_projector_sweep(stack)
    dirac3 = build_gallery("dirac3", mu=1, v=0.3)

    cases = [
        ("eigvals_sweep", lambda: _kernels.eigvals_sweep(stack)),
        ("stable_projector_sweep", lambda: _kernels.stable_projector_sweep(stack)),
        ("svdvals_sweep", lambda: _kernels.svdvals_sweep(stack)),
        ("orthonormal_range_sweep", lambda: _kernels.orthonormal_range_sweep(proj, dims)),
        ("assemble dirac3 cutoff 48", lambda: assemble_point(dirac3, 48)),
    ]

    rows = []
    if echo:
        echo(f"kernel bench: {n_modes} modes, dim {dim}, best of {repeat}")
        echo(f"{'kernel':28s} {'time':>12s}")
    for name, fn in cases:
        seconds = _time(fn, repeat)
        rows.append({"kernel": name, "seconds": seconds})
        if echo:
            echo(f"{name:28s} {seconds * 1e3:10.2f}ms")
    return rows
