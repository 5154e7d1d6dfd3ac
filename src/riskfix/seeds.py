"""Deterministic seeding helpers and the Monte Carlo mean/SE reduction.

Every Monte Carlo routine derives the generator for replicate ``i`` from
``(base_seed, i)`` through ``numpy.random.SeedSequence``, so results do not
depend on how replicates are scheduled, and accumulation in fixed index
order makes runs bit-reproducible for a given seed.  A Gaussian matrix of
Monte Carlo rows is one such stream, ``(base_seed, 0)``, read row by row.
Every Monte Carlo average is reported through ``mean_se``.
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
    """(rows, cols) matrix of N(0,1) draws from the one stream ``(base_seed, 0)``.

    The stream fills the matrix row by row, so for equal ``cols`` the first k
    rows do not depend on ``rows``.
    """
    return child_rng(base_seed, 0).standard_normal((rows, cols))


def mean_se(x: np.ndarray):
    """Sample mean and its standard error std(ddof=1) / sqrt(size), as floats."""
    return float(x.mean()), float(x.std(ddof=1) / np.sqrt(x.size))
