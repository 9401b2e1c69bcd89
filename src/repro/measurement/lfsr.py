"""Galois linear-feedback shift register for target randomization.

fastping probes "the target list in a randomized order to reduce
intrusiveness ... achieved via a Linear Feedback Shift Register (LFSR) with
Galois configuration" (Sec. 3.3/3.5).  A maximal-period LFSR of width *w*
cycles through every nonzero *w*-bit value exactly once, giving a
memoryless full permutation of up to 2^w − 1 targets — no shuffled index
array to keep in memory, which matters at O(10^7) targets.

We implement the standard Galois stepping plus the skip trick: to permute
``n`` targets, use the smallest width with 2^w − 1 ≥ n and discard states
exceeding ``n``.  :func:`lfsr_permutation` produces the stepped sequence
vectorised: a Galois step is linear over GF(2), so a w×w bit matrix jumps
≈ √period states ahead to seed that many lanes, and all lanes then step at
once (``tests/measurement/test_lfsr.py`` keeps the one-state-at-a-time
register as the oracle).
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

# Maximal-length polynomial tap masks by register width (Xilinx app-note
# XAPP052 table).  Entry w maps to the XOR mask applied on shift-out.
_TAP_MASKS = {
    2: 0b11,
    3: 0b110,
    4: 0b1100,
    5: 0b10100,
    6: 0b110000,
    7: 0b1100000,
    8: 0b10111000,
    9: 0b100010000,
    10: 0b1001000000,
    11: 0b10100000000,
    12: 0b100000101001,
    13: 0b1000000001101,
    14: 0b10000000010101,
    15: 0b110000000000000,
    16: 0b1101000000001000,
    17: 0b10010000000000000,
    18: 0b100000010000000000,
    19: 0b1000000000000100011,
    20: 0b10010000000000000000,
    21: 0b101000000000000000000,
    22: 0b1100000000000000000000,
    23: 0b10000100000000000000000,
    24: 0b111000010000000000000000,
    25: 0b1001000000000000000000000,
    26: 0b10000000000000000000100011,
    27: 0b100000000000000000000010011,
    28: 0b1001000000000000000000000000,
    29: 0b10100000000000000000000000000,
    30: 0b100000000000000000000000101001,
    31: 0b1001000000000000000000000000000,
    32: 0b10000000001000000000000000000011,
}


def width_for(n: int) -> int:
    """Smallest supported LFSR width whose period covers ``n`` values."""
    if n < 1:
        raise ValueError("n must be positive")
    for width in range(2, 33):
        if (1 << width) - 1 >= n:
            return width
    raise ValueError(f"n={n} exceeds 32-bit LFSR period")


def _apply(columns: List[int], state: int) -> int:
    """GF(2) matrix (given by its column bit masks) times a state vector."""
    out = 0
    bit = 0
    while state:
        if state & 1:
            out ^= columns[bit]
        state >>= 1
        bit += 1
    return out


def _jump_columns(width: int, mask: int, steps: int) -> List[int]:
    """Columns of the matrix that advances a Galois LFSR by ``steps``.

    One step maps basis vector ``1 << b`` to ``1 << (b - 1)`` for b > 0 and
    bit 0 to the tap mask; square-and-multiply raises it to ``steps``.
    """
    power = [mask] + [1 << (b - 1) for b in range(1, width)]
    result = [1 << b for b in range(width)]
    while steps:
        if steps & 1:
            result = [_apply(power, column) for column in result]
        power = [_apply(power, column) for column in power]
        steps >>= 1
    return result


def lfsr_permutation(n: int, seed: int = 1) -> np.ndarray:
    """A pseudo-random permutation of ``range(n)`` via the skip trick.

    States larger than ``n`` are discarded; surviving states minus one give
    indices 0..n−1, each exactly once, as an int64 array.  Deterministic in
    ``seed`` and equal, element for element, to stepping a Galois register
    of :func:`width_for` ``(n)`` bits one state at a time from start state
    ``(seed - 1) % period + 1``.
    """
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if n == 1:
        return np.zeros(1, dtype=np.int64)
    width = width_for(n)
    period = (1 << width) - 1
    mask = _TAP_MASKS[width]
    lanes = math.isqrt(period - 1) + 1
    steps = -(-period // lanes)
    # Lane i starts i * steps states into the cycle; lane-major order of
    # the (steps, lanes) table below is then the cycle itself.
    jump = _jump_columns(width, mask, steps)
    starts = [(seed - 1) % period + 1]
    for _ in range(lanes - 1):
        starts.append(_apply(jump, starts[-1]))
    state = np.array(starts, dtype=np.int64)
    table = np.empty((steps, lanes), dtype=np.int64)
    for row in table:
        row[:] = state
        state = (state >> 1) ^ ((state & 1) * mask)
    cycle = table.T.reshape(-1)[:period]
    return cycle[cycle <= n] - 1
