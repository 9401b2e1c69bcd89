"""Pass 1's spread and the residual screen as column arrays, against the
per-column code they replaced.

:func:`score_vps` takes both statistics from one NaN-last sort per
statistic (:func:`~repro.resilience.vptrust._column_medians`).  The
per-VP ``np.median`` loop and the ``np.nanmedian(axis=0)`` screen live
on here as oracles, and on any float32 matrix the column arrays must
give their values exactly.  Equality is by value: ``+0.0`` and ``-0.0``
compare equal, because which of two tied zeros a median picks is not
defined by either code.
"""

from __future__ import annotations

import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.resilience.vptrust import _column_mads, _residuals

NAN = np.nan


def loop_spread(rtt32: np.ndarray) -> np.ndarray:
    """The per-VP loop pass 1 used: each column's MAD in float64, 0 for a
    column of fewer than two samples."""
    rtt = rtt32.astype(np.float64)
    present = ~np.isnan(rtt)
    spread = np.zeros(rtt.shape[1], dtype=np.float64)
    for j in range(rtt.shape[1]):
        column = rtt[present[:, j], j]
        if len(column) >= 2:
            spread[j] = float(np.median(np.abs(column - np.median(column))))
    return spread


def nanmedian_residuals(rtt32: np.ndarray, cleaned: np.ndarray) -> np.ndarray:
    """The ``np.nanmedian`` screen the residual check used."""
    rtt = rtt32.astype(np.float64)
    present = ~np.isnan(rtt)
    masked = np.where(present & cleaned[None, :], rtt, np.nan)
    row_has_two = (present & cleaned[None, :]).sum(axis=1) >= 2
    residual = np.zeros(rtt.shape[1], dtype=np.float64)
    if bool(row_has_two.any()):
        rows = masked[row_has_two]
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            best = np.nanmin(rows, axis=1)
            med = np.nanmedian(rows - best[:, None], axis=0)
        residual = np.where(np.isnan(med), 0.0, med)
    return residual


def column_statistics(rtt: np.ndarray, cleaned: np.ndarray):
    """``(spread, residuals)`` the way :func:`score_vps` computes them."""
    rtt = np.ascontiguousarray(rtt, dtype=np.float32)
    present = ~np.isnan(rtt)
    return _column_mads(rtt, present.sum(axis=0)), _residuals(rtt, present, cleaned)


def matrix(rows, cleaned=None):
    rtt = np.array(rows, dtype=np.float32)
    if cleaned is None:
        cleaned = np.ones(rtt.shape[1], dtype=bool)
    return rtt, np.array(cleaned, dtype=bool)


#: Finite float32 cells, with a tie-heavy pool of small values.
cells = st.one_of(
    st.floats(width=32, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 0.5, 1.5, 10.0, 10.0, -3.0, 250.0]),
)


@st.composite
def matrices(draw):
    n_rows = draw(st.integers(0, 40))
    n_cols = draw(st.integers(1, 8))
    rtt = draw(arrays(np.float32, (n_rows, n_cols), elements=cells))
    holes = draw(st.sampled_from([0.0, 0.2, 0.6, 0.95]))
    seed = draw(st.integers(0, 2**32 - 1))
    rtt[np.random.default_rng(seed).random(rtt.shape) < holes] = np.nan
    cleaned = draw(arrays(bool, (n_cols,), elements=st.booleans()))
    return rtt, cleaned


def wide_matrix():
    """More than 600 rows: ``np.nanmedian``'s per-column path, not its
    masked-array one."""
    rng = np.random.default_rng(600)
    rtt = rng.exponential(80.0, size=(650, 5)).astype(np.float32)
    rtt[rng.random(rtt.shape) < 0.3] = np.nan
    rtt[:, 2] = np.nan
    return rtt, np.array([True, True, True, False, True])


class TestColumnStatisticsEqualOracles:
    @given(case=matrices())
    # All-NaN columns, and columns of 0, 1 and 2 samples.
    @example(case=matrix([[NAN, 1.0, 2.0, 5.0], [NAN, NAN, 4.0, 7.0], [NAN, NAN, NAN, 9.0]]))
    @example(case=matrix([[NAN, NAN], [NAN, NAN]]))
    @example(case=matrix(np.zeros((0, 3))))
    # Ties and negative RTTs.
    @example(case=matrix([[10.0, -3.0, 10.0], [10.0, -3.0, 10.0], [10.0, 4.0, -250.0], [7.5, 4.0, 10.0]]))
    @example(case=matrix([[0.0, -0.0, 1.5], [-0.0, 0.0, 1.5], [1.5, 1.5, 0.0]]))
    # Rows with fewer than two cleaned samples, and a row with none.
    @example(case=matrix([[3.0, 9.0, NAN], [5.0, NAN, 8.0], [NAN, NAN, NAN]], [True, False, True]))
    @example(case=matrix([[3.0, 9.0, 4.0], [5.0, 6.0, 8.0]], [False, True, False]))
    @example(case=wide_matrix())
    @settings(max_examples=200, deadline=None)
    def test_spread_and_residuals_equal_the_oracles(self, case):
        rtt, cleaned = case
        spread, residuals = column_statistics(rtt, cleaned)
        assert spread.dtype == residuals.dtype == np.float64
        assert np.array_equal(spread, loop_spread(rtt))
        assert np.array_equal(residuals, nanmedian_residuals(rtt, cleaned))

    def test_the_values_are_the_medians(self):
        """A hand-checked column: even and odd sample counts average the
        two middle cells in float64."""
        rtt, cleaned = matrix([[1.0, 2.0], [3.0, NAN], [10.0, 8.0], [4.0, NAN]])
        spread, residuals = column_statistics(rtt, cleaned)
        # Column 0: median 3.5, deviations 2.5 0.5 6.5 0.5 -> 1.5.
        # Column 1: median 5.0, deviations 3.0 3.0 -> 3.0.
        assert spread.tolist() == [1.5, 3.0]
        # Rows 0 and 2 hold two cleaned cells: excess 0 1 / 2 0.
        assert residuals.tolist() == [1.0, 0.5]
