"""Tests for the Galois LFSR target randomization."""

from typing import Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.measurement.lfsr import _TAP_MASKS, lfsr_permutation, width_for


class GaloisLFSR:
    """A maximal-period Galois LFSR over ``width`` bits, stepped one state
    at a time: the oracle of the vectorised :func:`lfsr_permutation`.

    The state sequence visits every value in [1, 2^width − 1] exactly once
    before repeating.  State 0 is unreachable (and invalid as a seed).
    """

    def __init__(self, width: int, seed: int = 1) -> None:
        if width not in _TAP_MASKS:
            raise ValueError(f"unsupported LFSR width {width} (need 2–32)")
        period = (1 << width) - 1
        if not 1 <= seed <= period:
            raise ValueError(f"seed must be in [1, {period}], got {seed}")
        self._mask = _TAP_MASKS[width]
        self._state = seed

    def step(self) -> int:
        """Advance one step and return the new state."""
        lsb = self._state & 1
        self._state >>= 1
        if lsb:
            self._state ^= self._mask
        return self._state

    def cycle(self) -> Iterator[int]:
        """Yield the full period of states starting from the current one."""
        start = self._state
        yield start
        while True:
            nxt = self.step()
            if nxt == start:
                return
            yield nxt


class TestGaloisLFSR:
    @pytest.mark.parametrize("width", [2, 3, 4, 8, 12, 16])
    def test_full_period(self, width):
        """A maximal LFSR must visit every nonzero state exactly once."""
        lfsr = GaloisLFSR(width, seed=1)
        states = list(lfsr.cycle())
        assert len(states) == (1 << width) - 1
        assert len(set(states)) == len(states)
        assert 0 not in states

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            GaloisLFSR(1)
        with pytest.raises(ValueError):
            GaloisLFSR(33)

    def test_invalid_seed(self):
        with pytest.raises(ValueError):
            GaloisLFSR(4, seed=0)
        with pytest.raises(ValueError):
            GaloisLFSR(4, seed=16)

    def test_step_never_reaches_zero(self):
        lfsr = GaloisLFSR(6, seed=33)
        for _ in range(200):
            assert lfsr.step() != 0

    def test_deterministic(self):
        a = [GaloisLFSR(8, seed=5).step() for _ in range(1)]
        b = [GaloisLFSR(8, seed=5).step() for _ in range(1)]
        assert a == b


class TestWidthFor:
    def test_exact_boundaries(self):
        assert width_for(3) == 2
        assert width_for(4) == 3
        assert width_for(7) == 3
        assert width_for(8) == 4

    def test_one(self):
        assert width_for(1) == 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            width_for(0)


class TestPermutation:
    @given(st.integers(min_value=0, max_value=200), st.integers(min_value=1, max_value=1000))
    @settings(max_examples=40)
    def test_is_permutation(self, n, seed):
        perm = lfsr_permutation(n, seed=seed)
        assert sorted(perm) == list(range(n))

    def test_empty(self):
        perm = lfsr_permutation(0)
        assert perm.dtype == np.int64 and perm.tolist() == []

    def test_single(self):
        assert lfsr_permutation(1).tolist() == [0]

    def test_deterministic_in_seed(self):
        assert np.array_equal(lfsr_permutation(100, seed=3), lfsr_permutation(100, seed=3))

    def test_seed_varies_order(self):
        assert not np.array_equal(lfsr_permutation(100, seed=3), lfsr_permutation(100, seed=4))

    def test_not_identity(self):
        # Randomized probing order must actually shuffle.
        perm = lfsr_permutation(1000, seed=1)
        fixed = sum(1 for i, v in enumerate(perm) if i == v)
        assert fixed < 50

    def test_large_n(self):
        perm = lfsr_permutation(70_000, seed=1)
        assert len(perm) == 70_000
        assert len(set(perm)) == 70_000


def _stepped_permutation(n, seed):
    """The skip trick walked one Galois step at a time (the oracle)."""
    width = width_for(n)
    period = (1 << width) - 1
    lfsr = GaloisLFSR(width, seed=(seed - 1) % period + 1)
    return [state - 1 for state in lfsr.cycle() if state <= n]


class TestVectorisedPermutation:
    """The lane-jumping permutation equals the stepped LFSR exactly."""

    @pytest.mark.parametrize("width", range(2, 21))
    def test_matches_stepping_oracle(self, width):
        for n in ((1 << width) - 1, 1 << width):
            for seed in (1, 2, 12345):
                perm = lfsr_permutation(n, seed=seed)
                assert perm.dtype == np.int64
                assert perm.tolist() == _stepped_permutation(n, seed)

    @given(st.integers(min_value=2, max_value=5000), st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_matches_stepping_oracle_any_n(self, n, seed):
        assert lfsr_permutation(n, seed=seed).tolist() == _stepped_permutation(n, seed)
