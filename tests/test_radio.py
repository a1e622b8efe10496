"""Radio model: pathloss, LOS, outage, coverage radii, link capacity, and
the Poisson subarea limits."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from backhaul_planner import LinkClassParams, RadioConfig
from backhaul_planner.scenario import (
    MIN_USABLE_SNR_DB,
    access_link,
    backhaul_capacity_bps,
    backhaul_link,
    coverage_radius,
    effective_snr_db,
    free_space_offset_db,
    los_probability,
    outage_probability,
    pathloss_db,
    poisson_demand_exceeds,
    subarea_capacity_limit,
)
from util import closed_form_radius, poisson_tail_oracle, reference_effective_snr_db

DEFAULT = RadioConfig()
ACCESS = access_link(DEFAULT, "sbs")


def flat_radio(exponent=2.0, shadowing=0.0, beta=0.0, **kw) -> RadioConfig:
    """Single-exponent radio with optional shadowing/blockage turned off."""
    link = LinkClassParams(exponent, exponent, shadowing, shadowing, kw.pop("bandwidth", 1e9))
    return RadioConfig(access=link, backhaul=link, blockage_per_m=beta, **kw)


class TestPathloss:
    def test_reference_distance_gives_free_space_term(self):
        loss = pathloss_db(DEFAULT, DEFAULT.reference_m, ACCESS, los=True)
        assert loss == pytest.approx(free_space_offset_db(DEFAULT), abs=1e-12)

    def test_73ghz_one_meter(self):
        # hand arithmetic: 20*log10(4*pi*1m / 4.106746mm) = 69.7142404...
        loss = pathloss_db(DEFAULT, 1.0, ACCESS, los=True)
        assert loss == pytest.approx(69.7142404242925, abs=1e-9)
        assert loss == pytest.approx(69.7, abs=0.05)

    @given(
        d=st.floats(0.01, 1e4),
        exponent=st.floats(1.5, 5.0),
    )
    def test_doubling_distance_adds_fixed_loss(self, d, exponent):
        radio = flat_radio(exponent=exponent)
        link = access_link(radio, "sbs")
        delta = pathloss_db(radio, 2 * d, link, los=False) - pathloss_db(radio, d, link, los=False)
        assert delta == pytest.approx(10.0 * exponent * math.log10(2.0), abs=1e-9)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            pathloss_db(DEFAULT, 0.0, ACCESS, los=True)
        with pytest.raises(ValueError):
            pathloss_db(DEFAULT, -3.0, ACCESS, los=False)


class TestLosProbability:
    def test_zero_distance(self):
        assert los_probability(DEFAULT, 0.0) == 1.0

    def test_hundred_meters_at_default_blockage(self):
        assert los_probability(DEFAULT, 100.0) == pytest.approx(0.010051835744633586, rel=1e-12)

    @given(d=st.floats(0, 1e5))
    def test_no_blockage_means_always_los(self, d):
        assert los_probability(flat_radio(beta=0.0), d) == 1.0


class TestOutage:
    def test_half_at_threshold_crossing(self):
        # equal LOS/NLOS exponents and shadowing: the SNR mean crosses the
        # threshold at the closed-form distance, where the outage is exactly
        # the Gaussian median.
        radio = flat_radio(exponent=2.5, shadowing=6.0, beta=0.02)
        link = access_link(radio, "sbs")
        d = closed_form_radius(
            link.tx_dbm, radio.noise_dbm, radio.snr_threshold_db, 2.5, free_space_offset_db(radio)
        )
        assert outage_probability(radio, d, link) == pytest.approx(0.5, abs=1e-9)

    def test_step_without_shadowing(self):
        radio = flat_radio(exponent=2.0, shadowing=0.0, beta=0.0)
        link = access_link(radio, "sbs")
        d = closed_form_radius(link.tx_dbm, radio.noise_dbm, radio.snr_threshold_db, 2.0, free_space_offset_db(radio))
        assert outage_probability(radio, d * (1 - 1e-6), link) == 0.0
        assert outage_probability(radio, d * (1 + 1e-6), link) == 1.0

    def test_monotone_in_distance(self):
        # numeric scan oracle over a 1000-point grid
        link = access_link(DEFAULT, "ban")
        grid = np.linspace(0.1, 500.0, 1000)
        values = [outage_probability(DEFAULT, float(d), link) for d in grid]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestCoverageRadius:
    def test_matches_closed_form_without_shadowing(self):
        radio = flat_radio(exponent=2.0, shadowing=0.0, beta=0.0)
        link = access_link(radio, "sbs")
        expected = closed_form_radius(
            link.tx_dbm, radio.noise_dbm, radio.snr_threshold_db, 2.0, free_space_offset_db(radio)
        )
        found = coverage_radius(radio, link, radio.access_outage, cap_m=1000.0)
        assert found == pytest.approx(expected, abs=0.01)

    def test_generous_outage_target_hits_cap(self):
        radio = flat_radio(shadowing=8.0)
        link = access_link(radio, "sbs")
        assert coverage_radius(radio, link, 0.9999, cap_m=250.0) == 250.0

    def test_impossible_target_gives_zero(self):
        radio = flat_radio(shadowing=0.0, snr_threshold_db=500.0)
        link = access_link(radio, "sbs")
        assert coverage_radius(radio, link, 0.1, cap_m=250.0) == 0.0

    def test_radius_shrinks_with_snr_threshold(self):
        radii = []
        for snr in np.linspace(-20, 20, 25):
            radio = RadioConfig(snr_threshold_db=float(snr))
            radii.append(coverage_radius(radio, access_link(radio, "sbs"), radio.access_outage, 600.0))
        assert all(b <= a + 1e-9 for a, b in zip(radii, radii[1:]))

    def test_radius_grows_with_outage_target(self):
        radii = []
        for target in np.linspace(0.02, 0.5, 25):
            radio = DEFAULT
            radii.append(coverage_radius(radio, access_link(radio, "sbs"), float(target), 600.0))
        assert all(b >= a - 1e-9 for a, b in zip(radii, radii[1:]))


class TestBackhaulCapacity:
    def test_one_bit_per_hertz_at_zero_db(self):
        radio = flat_radio(exponent=2.0, shadowing=0.0, beta=0.0)
        link = backhaul_link(radio, "ban")
        d = closed_form_radius(link.tx_dbm, radio.noise_dbm, 0.0, 2.0, free_space_offset_db(radio))
        assert effective_snr_db(radio, d, link, radio.backhaul_outage) == pytest.approx(0.0, abs=1e-6)
        assert backhaul_capacity_bps(radio, d, link) == pytest.approx(1e9, rel=1e-6)

    def test_zero_bandwidth(self):
        radio = flat_radio(bandwidth=0.0, shadowing=0.0, beta=0.0)
        assert backhaul_capacity_bps(radio, 5.0, backhaul_link(radio, "ban")) == 0.0

    def test_monotone_nonincreasing_in_distance(self):
        link = backhaul_link(DEFAULT, "ban")
        grid = np.linspace(1.0, 200.0, 400)
        caps = [backhaul_capacity_bps(DEFAULT, float(d), link) for d in grid]
        assert all(b <= a + 1e-3 for a, b in zip(caps, caps[1:]))

    def test_dead_link_is_exactly_zero(self):
        assert backhaul_capacity_bps(DEFAULT, 5000.0, backhaul_link(DEFAULT, "ban")) == 0.0

    @given(
        distance=st.floats(1e-6, 2000.0),
        role=st.sampled_from(["ban", "sbs"]),
        tx=st.sampled_from([10.0, 30.0, 40.0]),
        beta=st.sampled_from([0.0, 0.046, 0.3]),
        shadowing=st.sampled_from([0.0, 4.2]),
    )
    def test_effective_snr_and_capacity_equal_per_step_bisection(self, distance, role, tx, beta, shadowing):
        link = LinkClassParams(2.0, 3.5, shadowing, 7.9, 1e9)
        radio = RadioConfig(backhaul=link, blockage_per_m=beta, ban_tx_dbm=tx, sbs_tx_dbm=tx + 3.0)
        bh = backhaul_link(radio, role)
        snr = reference_effective_snr_db(radio, distance, bh, radio.backhaul_outage)
        if snr >= MIN_USABLE_SNR_DB:
            assert effective_snr_db(radio, distance, bh, radio.backhaul_outage) == snr
        else:  # the bisection stops early on a dead link
            assert effective_snr_db(radio, distance, bh, radio.backhaul_outage) < MIN_USABLE_SNR_DB
        expected = 0.0 if snr < MIN_USABLE_SNR_DB else bh.bandwidth_hz * math.log2(1.0 + 10.0 ** (snr / 10.0))
        assert backhaul_capacity_bps(radio, distance, bh) == expected


class TestSubareaLimit:
    def test_reference_point_matches_scan_oracle(self):
        # 0.02 users per subarea, 100 Mbps per user, 100 Mbps capacity,
        # 10% overload tolerance -> 26 subareas
        radio = RadioConfig()  # density 200/km^2, subarea 10 m x 10 m below
        found = subarea_capacity_limit(radio, 100e6, 100.0, 1600)
        n = 0
        while poisson_tail_oracle(0.02 * (n + 1), 1) <= radio.backhaul_outage:
            n += 1
        assert n == 26
        assert found == n

    def test_zero_subareas_always_feasible(self):
        assert subarea_capacity_limit(RadioConfig(), 0.0, 100.0, 1600) >= 0

    def test_huge_capacity_hits_cap(self):
        assert subarea_capacity_limit(RadioConfig(), 1e15, 100.0, 40) == 40

    @given(
        c1=st.floats(0, 5e8),
        c2=st.floats(0, 5e8),
    )
    def test_monotone_in_capacity(self, c1, c2):
        lo, hi = sorted((c1, c2))
        radio = RadioConfig()
        assert subarea_capacity_limit(radio, lo, 100.0, 200) <= subarea_capacity_limit(radio, hi, 100.0, 200)

    @given(
        d1=st.floats(1e-6, 1e-3),
        d2=st.floats(1e-6, 1e-3),
    )
    def test_monotone_in_user_density(self, d1, d2):
        lo, hi = sorted((d1, d2))
        low = subarea_capacity_limit(RadioConfig(user_density_per_m2=lo), 100e6, 100.0, 200)
        high = subarea_capacity_limit(RadioConfig(user_density_per_m2=hi), 100e6, 100.0, 200)
        assert high <= low

    def test_tail_stops_at_an_underflowed_term_with_the_same_bits(self):
        rate = 1e6
        for mean in (1e-3, 0.52, 5.0, 60.0, 400.0, 700.0, 745.0, 746.0, 1e4, math.inf, math.nan):
            for users in (0, 1, 7, 90, 1000, 4000):
                exact = poisson_demand_exceeds(mean, users * rate, rate)
                # every term summed; an infinite mean's sum is NaN, and its tail is 1
                full = 1.0 if mean == math.inf else max(0.0, poisson_tail_oracle(mean, users))
                assert exact.hex() == full.hex(), (mean, users)

    @pytest.mark.parametrize("capacity", [0.0, 1e6, 1e300])
    def test_an_infinite_mean_always_exceeds(self, capacity):
        """Demand from infinitely many expected users exceeds any capacity."""
        assert poisson_demand_exceeds(math.inf, capacity, 1e6) == 1.0

    def test_exact_tail_matches_monte_carlo(self):
        rng = np.random.default_rng(20240817)
        mean, capacity, rate = 0.52, 100e6, 100e6
        draws = rng.poisson(mean, size=1_000_000)
        hits = np.mean(draws * rate > capacity)
        exact = poisson_demand_exceeds(mean, capacity, rate)
        stderr = math.sqrt(max(exact * (1 - exact), 1e-12) / draws.size)
        assert abs(hits - exact) <= 3 * stderr


class TestConfigValidation:
    def test_wavelength_must_match_carrier(self):
        with pytest.raises(ValueError):
            RadioConfig(carrier_hz=60e9)  # wavelength left at the 73 GHz default

    def test_outage_bounds(self):
        with pytest.raises(ValueError):
            RadioConfig(access_outage=0.0)
        with pytest.raises(ValueError):
            RadioConfig(backhaul_outage=1.0)

    def test_compression_ratio_range(self):
        with pytest.raises(ValueError):
            RadioConfig(compression_ratio=0.0)
        with pytest.raises(ValueError):
            RadioConfig(compression_ratio=1.5)
