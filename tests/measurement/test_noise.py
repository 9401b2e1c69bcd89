"""Unit tests for the campaign's noise modes.

``stream`` (the historical default) draws probe noise from one shared
RNG stream, so any change to the probing schedule reshuffles every
measurement.  ``keyed`` derives each probe's noise from (campaign seed,
census, VP, target prefix) alone — the property the longitudinal
service's incremental recompute stands on: a target whose deployment
did not change yields a byte-identical RTT row even when the rest of
the internet churned around it.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.census.combine import matrix_from_census
from repro.census.longitudinal import EvolutionConfig, evolve_catalog
from repro.internet.catalog import full_catalog
from repro.internet.topology import InternetConfig, SyntheticInternet
from repro.measurement.campaign import CensusCampaign
from repro.measurement.platform import planetlab_platform
from repro.measurement.prober import keyed_uniform

CONFIG = InternetConfig(seed=2015, n_unicast_slash24=120, tail_deployments=0)


@pytest.fixture(scope="module")
def catalog():
    return full_catalog(tail_count=0, seed=2015)[:12]


@pytest.fixture(scope="module")
def platform():
    return planetlab_platform(count=20, seed=41)


def run_census(catalog, platform, noise):
    internet = SyntheticInternet(CONFIG, catalog=list(catalog))
    campaign = CensusCampaign(internet, platform, seed=500, noise=noise)
    campaign.run_precensus()
    return campaign.run_census(availability=1.0)


class TestNoiseModes:
    def test_unknown_mode_rejected(self, catalog, platform):
        internet = SyntheticInternet(CONFIG, catalog=list(catalog))
        with pytest.raises(ValueError, match="noise"):
            CensusCampaign(internet, platform, noise="loud")

    def test_default_is_stream_and_unchanged(self, catalog, platform):
        implicit = run_census(catalog, platform, noise="stream")
        internet = SyntheticInternet(CONFIG, catalog=list(catalog))
        campaign = CensusCampaign(internet, platform, seed=500)
        campaign.run_precensus()
        default = campaign.run_census(availability=1.0)
        assert default.records.checksum() == implicit.records.checksum()

    @pytest.mark.parametrize("noise", ["stream", "keyed"])
    def test_each_mode_is_deterministic(self, catalog, platform, noise):
        a = run_census(catalog, platform, noise)
        b = run_census(catalog, platform, noise)
        assert a.records.checksum() == b.records.checksum()

    def test_modes_differ_from_each_other(self, catalog, platform):
        stream = run_census(catalog, platform, "stream")
        keyed = run_census(catalog, platform, "keyed")
        assert stream.records.checksum() != keyed.records.checksum()

    def test_keyed_draws_on_a_subset_equal_the_indexed_universe(self):
        # What lets a keyed scan draw only where a draw is used: each
        # prefix hashes independently of every other.
        prefixes = np.arange(5000, 9000, dtype=np.int64)
        idx = np.random.default_rng(3).choice(len(prefixes), size=700, replace=False)
        for salt in ("police", "loss", "emit", "jitter", "spike-gate", "spike", "degraded"):
            full = keyed_uniform(0xC0FFEE, salt, prefixes)
            assert np.array_equal(full[idx], keyed_uniform(0xC0FFEE, salt, prefixes[idx]))


_U64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def _splitmix64_oracle(x: np.ndarray) -> np.ndarray:
    """The original masked SplitMix64 finalizer, kept verbatim."""
    x = (x + np.uint64(0x9E3779B97F4A7C15)) & _U64
    x = ((x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _U64
    x = ((x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _U64
    return x ^ (x >> np.uint64(31))


def keyed_uniform_oracle(key: int, salt: str, prefixes: np.ndarray) -> np.ndarray:
    """The original out-of-place ``keyed_uniform``, kept verbatim."""
    base = (
        int(key) * 0x9E3779B97F4A7C15
        + zlib.crc32(salt.encode()) * 0xBF58476D1CE4E5B9
    ) & 0xFFFFFFFFFFFFFFFF
    x = np.asarray(prefixes).astype(np.uint64) ^ np.uint64(base)
    z = _splitmix64_oracle(_splitmix64_oracle(x))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


U32_EDGES = [0, 1, 2**31 - 1, 2**31, 2**32 - 1]


@settings(max_examples=60, deadline=None)
@given(
    key=st.one_of(
        st.integers(0, 2**64 - 1),
        st.integers(2**63, 2**64 - 1),
        st.sampled_from([0, 1, 2**63, 2**64 - 1]),
    ),
    salt=st.sampled_from(
        ["police", "loss", "emit", "jitter", "path-stretch", "path-lastmile", ""]
    ),
    prefixes=st.lists(
        st.one_of(st.integers(0, 2**32 - 1), st.sampled_from(U32_EDGES)),
        max_size=64,
    ),
)
@example(key=0, salt="police", prefixes=U32_EDGES)
@example(key=2**64 - 1, salt="loss", prefixes=U32_EDGES)
@example(key=2**63, salt="emit", prefixes=[])
def test_in_place_keyed_uniform_equals_the_masked_oracle(key, salt, prefixes):
    for dtype in (np.int64, np.uint32):
        arr = np.asarray(prefixes, dtype=dtype)
        got = keyed_uniform(key, salt, arr)
        want = keyed_uniform_oracle(key, salt, arr)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(arr, np.asarray(prefixes, dtype=dtype))  # input untouched


class TestKeyedCrossEpochStability:
    """The property incremental recompute is built on."""

    GENTLE = EvolutionConfig(
        growth_prob=0.02, max_new_sites=1, shrink_prob=0.01, new_adopters=1
    )

    def rows_by_prefix(self, census):
        matrix = matrix_from_census(census)
        raw = np.ascontiguousarray(matrix.rtt_ms, dtype="<f4")
        return {
            int(prefix): raw[i].tobytes() for i, prefix in enumerate(matrix.prefixes)
        }

    def test_unchanged_targets_keep_identical_rows(self, catalog, platform):
        evolved = evolve_catalog(catalog, seed=123, config=self.GENTLE)
        assert len(evolved) >= len(catalog)
        unchanged_asns = {
            before.asn
            for before, after in zip(catalog, evolved)
            if before == after
        }
        changed_asns = {e.asn for e in evolved} - unchanged_asns

        internet_before = SyntheticInternet(CONFIG, catalog=list(catalog))
        internet_after = SyntheticInternet(CONFIG, catalog=list(evolved))
        rows_before = self.rows_by_prefix(run_census(catalog, platform, "keyed"))
        rows_after = self.rows_by_prefix(run_census(evolved, platform, "keyed"))

        def owner_asn(internet, prefix):
            owner = internet.registry.owner_of(prefix)
            return None if owner is None else owner.asn

        stable = moved = 0
        for prefix in set(rows_before) & set(rows_after):
            asn_before = owner_asn(internet_before, prefix)
            asn_after = owner_asn(internet_after, prefix)
            if asn_before != asn_after or asn_before in changed_asns:
                continue  # ownership moved or the deployment itself changed
            # Unicast space and unchanged deployments: rows must be
            # byte-identical despite the evolved world around them.
            assert rows_before[prefix] == rows_after[prefix], prefix
            stable += 1
        for prefix in set(rows_after) - set(rows_before):
            moved += 1
        assert stable > 50, "expected a large byte-stable majority"

    def test_stream_noise_lacks_the_property(self, catalog, platform):
        evolved = evolve_catalog(catalog, seed=123, config=self.GENTLE)
        rows_before = self.rows_by_prefix(run_census(catalog, platform, "stream"))
        rows_after = self.rows_by_prefix(run_census(evolved, platform, "stream"))
        common = set(rows_before) & set(rows_after)
        identical = sum(
            1 for p in common if rows_before[p] == rows_after[p]
        )
        # With one shared stream, churn anywhere reshuffles everyone.
        assert identical < len(common) // 10
