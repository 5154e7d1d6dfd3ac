"""The Monte Carlo stream contract of ``seeds.gaussian_rows``.

A matrix of Gaussian rows is one seeded stream, ``child_rng(seed, 0)``, read
row by row, so a longer draw extends a shorter one.  The statistical check of
these draws against the monotone cone's exact dimension is in
``test_fixed_point.py`` (``TestSolveMonteCarlo``).
"""

import numpy as np

from riskfix.seeds import child_rng, gaussian_rows


def test_one_stream_per_matrix():
    np.testing.assert_array_equal(gaussian_rows(7, 30, 12), child_rng(7, 0).standard_normal((30, 12)))


def test_first_rows_do_not_depend_on_row_count():
    long = gaussian_rows(7, 500, 20)
    for rows in (1, 3, 250):
        np.testing.assert_array_equal(gaussian_rows(7, rows, 20), long[:rows])


def test_seeds_give_different_matrices():
    a, b = gaussian_rows(7, 50, 20), gaussian_rows(8, 50, 20)
    assert not np.any(a == b)
