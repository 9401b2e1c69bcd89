"""Cross-VP trust scoring: detection, neutrality, and the excision cap.

The detector's contract has three legs, each pinned here:

* **identification** — on a diverse roster every keyed-distorted VP is
  convicted (exercised across kinds and fractions, including a
  hypothesis sweep up to the supported 30% minority), and the only
  honest convictions ever made are *sole-witness collateral*: excising
  a distorted VP can vacate a region, and the remaining honest
  regional witness is observationally identical to a mis-geolocated
  fabricator — the engine stays soundness-first and may excise it too,
  always and only via the solo-violation check;
* **neutrality** — a clean roster convicts nobody and
  :func:`apply_trust` returns the very same matrix object;
* **abort over adjudication** — a roster with no coherent consensus
  (small, clustered, dense anycast) drops its solo flags rather than
  excising honest regional witnesses.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.census.analysis import analyze_matrix
from repro.census.combine import combine_censuses
from repro.geo.cities import default_city_db
from repro.internet.topology import InternetConfig, SyntheticInternet
from repro.measurement.campaign import CensusCampaign
from repro.measurement.faults import VpDistortionPlan
from repro.measurement.platform import planetlab_platform
from repro.resilience.errors import CorruptInputError
from repro.resilience.vptrust import (
    TRUST_REASON_RTT_INFLATION,
    TRUST_REASON_SOL_VIOLATION,
    TRUST_REASON_STUCK_RTT,
    TrustPolicy,
    VpTrustReport,
    VpTrustVerdict,
    apply_trust,
    score_vps,
)


@pytest.fixture(scope="module")
def world():
    """A diverse 30-VP roster over a large sparse-anycast universe."""
    db = default_city_db()
    internet = SyntheticInternet(
        InternetConfig(seed=7, n_unicast_slash24=3000, tail_deployments=5)
    )
    platform = planetlab_platform(count=30, seed=11, city_db=db)
    return db, internet, platform


def census_for(world, plan):
    _, internet, platform = world
    campaign = CensusCampaign(
        internet, platform, seed=99, noise="keyed", distortion=plan
    )
    return campaign.run_census(availability=1.0)


def matrix_for(world, plan):
    """The combined matrix plus the injected ``{vp name: kind}`` map."""
    census = census_for(world, plan)
    return combine_censuses([census]), dict(census.health.distorted_vps)


@pytest.fixture(scope="module")
def clean_matrix(world):
    matrix, injected = matrix_for(world, None)
    assert not injected
    return matrix


@pytest.fixture(scope="module")
def clean_anycast(world, clean_matrix):
    db = world[0]
    return set(analyze_matrix(clean_matrix, city_db=db).anycast_prefixes)


def assert_only_sole_witness_collateral(report, injected):
    """Every conviction is either injected or sole-witness collateral.

    An honest VP may only ever fall to the solo-violation check — the
    documented non-adjudicable sole-witness case — never to a physics
    check, it must have been a genuine statistical outlier, and only
    the roster's few regional outposts are ever exposed to it.
    """
    extras = [v for v in report.untrusted if v.name not in injected]
    assert len(extras) <= 3
    for verdict in extras:
        assert verdict.reasons == [TRUST_REASON_SOL_VIOLATION]
        assert verdict.solo_rate > TrustPolicy().solo_margin


class TestCleanNeutrality:
    def test_clean_roster_convicts_nobody(self, clean_matrix):
        report = score_vps(clean_matrix)
        assert report.untrusted_names == []
        assert not report.sol_check_aborted
        assert all(v.trusted and not v.reasons for v in report.verdicts)

    def test_apply_trust_is_identity_when_clean(self, clean_matrix):
        report = score_vps(clean_matrix)
        filtered, excised = apply_trust(clean_matrix, report)
        assert filtered is clean_matrix
        assert excised.shape == (clean_matrix.n_targets,)
        assert not excised.any()

    def test_scoring_is_deterministic(self, clean_matrix):
        assert score_vps(clean_matrix).to_doc() == score_vps(clean_matrix).to_doc()


class TestDistortedDetection:
    @pytest.mark.parametrize(
        "plan",
        [
            VpDistortionPlan(fraction=0.2, seed=4242),
            VpDistortionPlan(fraction=0.1, seed=777),
            VpDistortionPlan(fraction=0.2, seed=31337, kinds=("geo_error",)),
        ],
        ids=["mixed20", "mixed10", "geo-only"],
    )
    def test_untrusted_is_exactly_the_injected_set(self, world, plan):
        matrix, injected = matrix_for(world, plan)
        assert injected  # the plan must actually hit someone
        report = score_vps(matrix)
        assert set(report.untrusted_names) == set(injected)

    def test_reasons_name_the_failure_mode(self, world):
        plan = VpDistortionPlan.single("stuck_rtt", fraction=0.1, seed=777)
        matrix, injected = matrix_for(world, plan)
        report = score_vps(matrix)
        assert set(report.untrusted_names) == set(injected)
        for verdict in report.untrusted:
            assert TRUST_REASON_STUCK_RTT in verdict.reasons

    def test_filtered_analysis_is_sound_against_clean(
        self, world, clean_anycast
    ):
        """Filtering restores soundness; the unfiltered matrix is refused
        at the detection tier with a typed error (negative clock-skew
        RTTs are negative radii), not a crash inside geolocation."""
        db = world[0]
        matrix, injected = matrix_for(
            world, VpDistortionPlan(fraction=0.2, seed=4242)
        )
        with pytest.raises(CorruptInputError, match=r"\d+ negative-RTT cell"):
            analyze_matrix(matrix, city_db=db)
        filtered, excised = apply_trust(matrix, score_vps(matrix))
        verdicts = set(analyze_matrix(filtered, city_db=db).anycast_prefixes)
        assert verdicts <= clean_anycast
        assert len(clean_anycast - verdicts) <= 15  # recall loss stays tiny
        assert excised.any()

    def test_unfiltered_geo_distortion_fabricates_anycast(
        self, world, clean_anycast
    ):
        """Without trust filtering a mis-geolocated minority flips
        unicast prefixes to anycast; with it the verdicts match clean."""
        db, internet, _ = world
        truth = {int(p) for d in internet.deployments for p in d.prefixes}
        plan = VpDistortionPlan(fraction=0.2, seed=31337, kinds=("geo_error",))
        matrix, _ = matrix_for(world, plan)
        unfiltered = set(analyze_matrix(matrix, city_db=db).anycast_prefixes)
        assert unfiltered - truth  # fabricated verdicts
        filtered, _ = apply_trust(matrix, score_vps(matrix))
        assert (
            set(analyze_matrix(filtered, city_db=db).anycast_prefixes)
            == clean_anycast
        )

    @given(
        fraction=st.floats(min_value=0.0, max_value=0.3),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    # Convicts exactly its two injected VPs, the roster's Korean and
    # Taiwanese witnesses, and so loses 31 of 883 clean detections.
    @example(fraction=0.125, seed=16528)
    @settings(max_examples=8, deadline=None)
    def test_minority_distortion_never_corrupts_verdicts(
        self, world, clean_matrix, clean_anycast, fraction, seed
    ):
        """Property: for any minority (<= 30% of the roster) distorted
        by the non-geometric kinds, the filtered verdicts never contain
        a target the clean roster would not have called anycast.
        (``geo_error`` is excluded here: a displacement can land below
        the honest sole-witness background — the documented
        observability limit — and is pinned by the fixed-seed cases
        above instead.)  Identification is asserted to the engine's
        real contract: a stuck reporter is hard physical evidence and
        always convicted, while a skew/bloat inflation can sit below
        the absolute residual margin — such misses only *inflate* RTTs
        (bigger disks, fewer violations), so they hide detections but
        can never fabricate them, and soundness survives them.  When
        every distorted VP is convicted, recall is pinned exactly: the
        honest columns carry their clean bytes (keyed noise), so the
        filtered verdicts are those of the clean matrix minus the
        convicted columns."""
        db = world[0]
        plan = VpDistortionPlan(
            fraction=fraction,
            seed=seed,
            kinds=("clock_skew", "bufferbloat", "stuck_rtt"),
        )
        matrix, injected = matrix_for(world, plan)
        report = score_vps(matrix)
        assert_only_sole_witness_collateral(report, injected)
        missed = set(injected) - set(report.untrusted_names)
        assert all(injected[name] != "stuck_rtt" for name in missed)
        filtered, _ = apply_trust(matrix, report)
        verdicts = set(analyze_matrix(filtered, city_db=db).anycast_prefixes)
        assert verdicts <= clean_anycast
        if not missed:
            clean_minus_convicted, _ = apply_trust(clean_matrix, report)
            expected = analyze_matrix(clean_minus_convicted, city_db=db)
            assert verdicts == set(expected.anycast_prefixes)

    @given(
        fraction=st.floats(min_value=0.0, max_value=0.3),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=8, deadline=None)
    def test_honest_convictions_are_only_sole_witness_collateral(
        self, world, fraction, seed
    ):
        """Property: whatever the distorted minority looks like (all
        four kinds eligible), the physics checks — negative RTT, stuck
        column, RTT inflation — never convict an honest vantage point.
        The one honest conviction the engine is *allowed* is the
        documented sole-witness collateral: a geo liar's excision can
        vacate a region, and the honest witness left soloing over the
        vacated far catchments is observationally identical to a
        fabricator (pinned deterministically in
        ``test_sole_witness_collateral_is_solo_only``)."""
        matrix, injected = matrix_for(
            world, VpDistortionPlan(fraction=fraction, seed=seed)
        )
        assert_only_sole_witness_collateral(score_vps(matrix), injected)

    def test_sole_witness_collateral_is_solo_only(self, world):
        """The region-vacating case, pinned: four geo liars include the
        roster's only Taiwanese node, whose excision leaves the one
        Korean VP as sole witness of every Asian far catchment — an
        honest VP indistinguishable from a fabricator, excised
        soundness-first through the solo check and nothing else."""
        matrix, injected = matrix_for(
            world, VpDistortionPlan(fraction=0.25, seed=2215641)
        )
        assert "planetlab-0008-tw" in injected
        report = score_vps(matrix)
        assert set(report.untrusted_names) - set(injected) == {
            "planetlab-0005-kr"
        }
        (kr,) = [v for v in report.untrusted if v.name == "planetlab-0005-kr"]
        assert kr.reasons == [TRUST_REASON_SOL_VIOLATION]
        assert set(injected) <= set(report.untrusted_names)

    def test_co_distorted_cohort_cannot_mask_itself(self, world):
        """Five bufferbloated VPs with near-identical ~270 ms inflation
        must not widen the roster MAD enough to hide one another: the
        residual z-score scale comes from the sub-margin core of the
        cohort, so all five convict (a regression against the masking
        this seed exposed)."""
        plan = VpDistortionPlan(
            fraction=0.3,
            seed=7,
            kinds=("clock_skew", "bufferbloat", "stuck_rtt"),
        )
        matrix, injected = matrix_for(world, plan)
        bloated = {n for n, k in injected.items() if k == "bufferbloat"}
        assert len(bloated) == 5
        report = score_vps(matrix)
        assert set(report.untrusted_names) == set(injected)
        for verdict in report.untrusted:
            if verdict.name in bloated:
                assert TRUST_REASON_RTT_INFLATION in verdict.reasons


class TestExcisionCap:
    def test_incoherent_roster_aborts_instead_of_excising(self):
        """A small clustered roster over dense anycast has an honest
        solo-rate continuum the detector cannot adjudicate: it must
        drop its flags (and say so), not excise regional witnesses."""
        db = default_city_db()
        internet = SyntheticInternet(
            InternetConfig(seed=2015, n_unicast_slash24=150, tail_deployments=4)
        )
        platform = planetlab_platform(count=12, seed=41, city_db=db)
        campaign = CensusCampaign(internet, platform, seed=500, noise="keyed")
        matrix = combine_censuses([campaign.run_census(availability=1.0)])
        report = score_vps(matrix)
        assert report.sol_check_aborted
        assert report.untrusted_names == []
        doc = report.to_doc()
        assert doc["sol_check_aborted"] is True
        assert any("sol check aborted" in line for line in report.summary_lines())


class TestEdgesAndPolicy:
    def test_tiny_roster_is_never_judged(self, clean_matrix):
        from dataclasses import replace

        small = replace(
            clean_matrix,
            vp_names=clean_matrix.vp_names[:3],
            vp_locations=clean_matrix.vp_locations[:3],
            rtt_ms=np.ascontiguousarray(clean_matrix.rtt_ms[:, :3]),
            sample_count=np.ascontiguousarray(clean_matrix.sample_count[:, :3]),
        )
        report = score_vps(small)
        assert all(v.trusted for v in report.verdicts)

    def test_apply_trust_refuses_to_excise_everyone(self, clean_matrix):
        report = VpTrustReport(
            verdicts=[
                VpTrustVerdict(name=name, trusted=False, reasons=["stuck-rtt"])
                for name in clean_matrix.vp_names
            ]
        )
        with pytest.raises(ValueError):
            apply_trust(clean_matrix, report)

    def test_excised_counts_match_removed_samples(self, clean_matrix):
        victim = clean_matrix.vp_names[0]
        report = VpTrustReport(
            verdicts=[
                VpTrustVerdict(
                    name=name,
                    trusted=name != victim,
                    reasons=[] if name != victim else ["stuck-rtt"],
                )
                for name in clean_matrix.vp_names
            ]
        )
        filtered, excised = apply_trust(clean_matrix, report)
        assert victim not in filtered.vp_names
        assert filtered.n_vps == clean_matrix.n_vps - 1
        expected = (~np.isnan(clean_matrix.rtt_ms[:, 0])).astype(np.int64)
        assert np.array_equal(excised, expected)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"solo_margin": 0.0},
            {"solo_z": 0.0},
            {"solo_mad_floor": 0.0},
            {"max_excised_fraction": 0.0},
            {"residual_z": -1.0},
            {"residual_margin_ms": -1.0},
            {"min_spread_ms": -0.1},
            {"min_samples": 1},
            {"min_roster": 2},
            {"speed_km_per_ms": 0.0},
        ],
    )
    def test_policy_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrustPolicy(**kwargs)

    def test_report_doc_shape(self, clean_matrix):
        doc = score_vps(clean_matrix).to_doc()
        assert doc["kind"] == "vp-trust"
        assert doc["n_vps"] == clean_matrix.n_vps
        assert doc["n_untrusted"] == 0
        assert doc["untrusted_fraction"] == 0.0
        assert len(doc["verdicts"]) == clean_matrix.n_vps
        assert {"name", "trusted", "reasons", "solo_rate"} <= set(
            doc["verdicts"][0]
        )
