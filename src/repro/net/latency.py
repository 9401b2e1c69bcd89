"""Round-trip-time model for the synthetic Internet.

The analysis technique consumes RTTs; the synthetic substrate must produce
them with the properties real paths have:

* a hard lower bound — the great-circle propagation delay at fiber speed
  (2/3 c).  Real measurements can *never* beat this, which is precisely why
  speed-of-light-violation detection has no false positives;
* **path stretch** — fiber does not follow great circles; paths detour
  through IXPs and follow cable layouts.  We model a multiplicative stretch
  factor ≥ 1 drawn per (vantage point, target) pair;
* **last-mile and processing delay** — an additive component covering access
  links, router queues, and ICMP slow-path processing at the target;
* **jitter** — per-probe variability on top of a path's base RTT.

All generation is vectorized: a census needs O(VPs x targets) RTTs and the
model is the hot loop of the measurement simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geo.disks import FIBER_SPEED_KM_PER_MS


@dataclass(frozen=True)
class LatencyModel:
    """Parametric RTT generator.

    Parameters
    ----------
    stretch_min, stretch_mode, stretch_max:
        Triangular-distribution parameters of the multiplicative path
        stretch (unitless, ≥ 1).  Defaults give a mode of 1.3 — paths are
        typically ~30% longer than the geodesic, occasionally much worse.
    last_mile_ms_mean:
        Mean of the exponential additive delay (access + processing).
    jitter_ms_scale:
        Scale of the exponential per-probe jitter.
    spike_prob, spike_ms_scale:
        Heavy-tailed jitter component: with probability ``spike_prob`` a
        probe additionally suffers an exponential delay of scale
        ``spike_ms_scale`` (queueing bursts, ICMP slow-path processing).
        Spikes are what make single-census RTTs noticeably worse than the
        per-pair minimum over several censuses — the effect behind the
        paper's census *combination* gains (Fig. 12).
    speed_km_per_ms:
        Propagation speed on the (stretched) path; fiber speed by default.
    """

    stretch_min: float = 1.0
    stretch_mode: float = 1.3
    stretch_max: float = 2.2
    last_mile_ms_mean: float = 2.0
    jitter_ms_scale: float = 1.0
    spike_prob: float = 0.30
    spike_ms_scale: float = 40.0
    speed_km_per_ms: float = FIBER_SPEED_KM_PER_MS

    def __post_init__(self) -> None:
        if not 1.0 <= self.stretch_min <= self.stretch_mode <= self.stretch_max:
            raise ValueError(
                "stretch parameters must satisfy 1 <= min <= mode <= max, got "
                f"({self.stretch_min}, {self.stretch_mode}, {self.stretch_max})"
            )
        if self.last_mile_ms_mean < 0 or self.jitter_ms_scale < 0:
            raise ValueError("delay components must be non-negative")
        if not 0.0 <= self.spike_prob <= 1.0:
            raise ValueError("spike_prob must be in [0, 1]")
        if self.spike_ms_scale < 0:
            raise ValueError("spike_ms_scale must be non-negative")
        if self.speed_km_per_ms <= 0:
            raise ValueError("propagation speed must be positive")

    def propagation_rtt_ms(self, distance_km: np.ndarray) -> np.ndarray:
        """The physical floor: round-trip geodesic propagation delay."""
        return 2.0 * np.asarray(distance_km, dtype=np.float64) / self.speed_km_per_ms

    def path_rtt_ms(self, distance_km: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Base RTT of paths covering ``distance_km`` (any array shape).

        The result is the *per-path* baseline (stretch + last mile applied,
        no per-probe jitter); it is always ≥ the propagation floor.
        """
        shape = np.shape(distance_km)
        stretch = rng.triangular(
            self.stretch_min, self.stretch_mode, self.stretch_max, size=shape
        )
        last_mile = rng.exponential(self.last_mile_ms_mean, size=shape)
        return self.path_rtt_ms_from_draws(distance_km, stretch, last_mile)

    def path_rtt_ms_from_draws(
        self, distance_km: np.ndarray, stretch: np.ndarray, last_mile_ms: np.ndarray
    ) -> np.ndarray:
        """:meth:`path_rtt_ms` from its drawn per-path stretch and last-mile
        delay (same shape as ``distance_km``)."""
        distance_km = np.asarray(distance_km, dtype=np.float64)
        if (distance_km < 0).any():
            raise ValueError("distances must be non-negative")
        return self.propagation_rtt_ms(distance_km) * stretch + last_mile_ms

    def probe_rtt_ms(self, base_rtt_ms: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One probe's RTT given the path baseline: baseline + jitter.

        Jitter is strictly additive — a measured RTT can never undercut the
        path baseline, preserving the no-false-positive property of
        speed-of-light detection.
        """
        base_rtt_ms = np.asarray(base_rtt_ms, dtype=np.float64)
        jitter = rng.exponential(self.jitter_ms_scale, size=base_rtt_ms.shape)
        if self.spike_prob > 0.0 and self.spike_ms_scale > 0.0:
            spikes = rng.random(base_rtt_ms.shape) < self.spike_prob
            jitter = jitter + spikes * rng.exponential(
                self.spike_ms_scale, size=base_rtt_ms.shape
            )
        return base_rtt_ms + jitter

    # ------------------------------------------------------------------
    # Uniform-driven variants (keyed noise mode)
    # ------------------------------------------------------------------
    #
    # The ``rng``-driven methods above consume a positional stream: the
    # i-th target's draw depends on how many targets precede it, so adding
    # one /24 to the universe perturbs *every* RTT.  The ``*_from_uniforms``
    # variants instead map caller-supplied uniforms through the inverse
    # CDFs of the exact same distributions — callers key each uniform to
    # the target identity, making a target's RTT independent of the rest
    # of the universe (the property incremental recompute relies on).

    def _triangular_from_uniform(self, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF triangular(stretch_min, stretch_mode, stretch_max)."""
        a, c, b = self.stretch_min, self.stretch_mode, self.stretch_max
        if b == a:
            return np.full_like(u, a)
        fc = (c - a) / (b - a)
        left = a + np.sqrt(u * (b - a) * (c - a))
        right = b - np.sqrt((1.0 - u) * (b - a) * (b - c))
        return np.where(u < fc, left, right)

    @staticmethod
    def _exponential_from_uniform(u: np.ndarray, scale: float) -> np.ndarray:
        """Inverse-CDF exponential; ``log1p`` keeps u ~ 1 well-conditioned."""
        return -scale * np.log1p(-u)

    def path_rtt_ms_from_uniforms(
        self,
        distance_km: np.ndarray,
        u_stretch: np.ndarray,
        u_last_mile: np.ndarray,
    ) -> np.ndarray:
        """:meth:`path_rtt_ms` driven by per-path uniforms in [0, 1)."""
        stretch = self._triangular_from_uniform(np.asarray(u_stretch, dtype=np.float64))
        last_mile = self._exponential_from_uniform(
            np.asarray(u_last_mile, dtype=np.float64), self.last_mile_ms_mean
        )
        return self.path_rtt_ms_from_draws(distance_km, stretch, last_mile)

    def probe_rtt_ms_from_uniforms(
        self,
        base_rtt_ms: np.ndarray,
        u_jitter: np.ndarray,
        u_spike_gate: np.ndarray,
        u_spike: np.ndarray,
    ) -> np.ndarray:
        """:meth:`probe_rtt_ms` driven by per-probe uniforms in [0, 1)."""
        base_rtt_ms = np.asarray(base_rtt_ms, dtype=np.float64)
        jitter = self._exponential_from_uniform(
            np.asarray(u_jitter, dtype=np.float64), self.jitter_ms_scale
        )
        if self.spike_prob > 0.0 and self.spike_ms_scale > 0.0:
            spikes = np.asarray(u_spike_gate, dtype=np.float64) < self.spike_prob
            jitter = jitter + spikes * self._exponential_from_uniform(
                np.asarray(u_spike, dtype=np.float64), self.spike_ms_scale
            )
        return base_rtt_ms + jitter


#: Model tuned to intra-datacenter measurement (tight, for unit fixtures).
CLEAN_MODEL = LatencyModel(
    stretch_min=1.0,
    stretch_mode=1.05,
    stretch_max=1.1,
    last_mile_ms_mean=0.2,
    jitter_ms_scale=0.05,
    spike_prob=0.0,
)

#: Default wide-area model used by the census simulator.
DEFAULT_MODEL = LatencyModel()

#: Pessimistic model (congested paths, long detours) for robustness tests.
NOISY_MODEL = LatencyModel(
    stretch_min=1.0,
    stretch_mode=1.5,
    stretch_max=3.0,
    last_mile_ms_mean=8.0,
    jitter_ms_scale=5.0,
    spike_prob=0.4,
    spike_ms_scale=60.0,
)
