"""Deterministic seeding helpers and the Monte Carlo mean/SE reduction.

Every Monte Carlo routine derives the generator for replicate ``i`` from
``(base_seed, i)`` through ``numpy.random.SeedSequence``, so results do not
depend on how replicates are scheduled, and accumulation in fixed index
order makes runs bit-reproducible for a given seed.  Every Monte Carlo
average is reported through ``mean_se``.
"""

import numpy as np


def child_rng(base_seed: int, index: int) -> np.random.Generator:
    """Generator for replicate ``index`` derived from ``base_seed``."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))
    return np.random.default_rng(ss)


def child_seed(base_seed: int, index: int) -> int:
    """Integer seed for replicate ``index`` derived from ``base_seed``."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))
    return int(ss.generate_state(1)[0])


def gaussian_rows(base_seed: int, rows: int, cols: int) -> np.ndarray:
    """(rows, cols) matrix of N(0,1) draws, one child stream per row."""
    out = np.empty((rows, cols))
    for i in range(rows):
        out[i] = child_rng(base_seed, i).standard_normal(cols)
    return out


def mean_se(x: np.ndarray):
    """Sample mean and its standard error std(ddof=1) / sqrt(size), as floats."""
    return float(x.mean()), float(x.std(ddof=1) / np.sqrt(x.size))
