"""Power-split optimization, high-SNR roots, and critical-SNR solvers."""
import math

import mpmath
import pytest

import ansec.optimize
from ansec.optimize import (
    _PHI_GRID,
    _eve_on_grid,
    CriticalSnr,
    OptResult,
    critical_snr,
    critical_snr_exact,
    critical_snr_upper_bound,
    from_db,
    high_snr_optimal_z,
    optimize_phi,
    optimize_phi_adaptive,
    to_db,
)
from ansec.secrecy import (
    CsiError,
    PowerSplit,
    SystemConfig,
    capacity_eve,
    secrecy_rate,
)


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


class TestDbConversions:
    @pytest.mark.parametrize("p", [1e-6, 0.5, 1.0, 10.0, 123.456, 1e9])
    def test_round_trip(self, p):
        assert rel_err(from_db(to_db(p)), p) < 1e-12

    def test_known_points(self):
        assert to_db(1.0) == 0.0
        assert to_db(100.0) == 20.0
        assert rel_err(from_db(3.01), 10.0 ** 0.301) < 1e-15

    def test_infinity_passes_through(self):
        assert to_db(math.inf) == math.inf

    def test_domain(self):
        with pytest.raises(ValueError):
            to_db(0.0)
        with pytest.raises(ValueError):
            to_db(-3.0)


class TestOptimizePhi:
    def test_two_antennas_high_snr(self):
        res = optimize_phi(SystemConfig(na=2), 1e3)
        assert abs(res.phi_star - 0.5) <= 0.01
        assert res.converged
        assert res.iterations > 0

    def test_many_antennas_high_snr(self):
        res = optimize_phi(SystemConfig(na=64), 1e3)
        assert abs(res.phi_star - 0.55) <= 0.01

    def test_result_is_self_consistent(self):
        cfg, p = SystemConfig(na=8, ne=2), 50.0
        res = optimize_phi(cfg, p)
        assert abs(res.z_star * res.phi_star - 1.0) <= 1e-12
        again = secrecy_rate(cfg, p, PowerSplit(res.phi_star)).c
        assert rel_err(res.c_star, again) < 1e-12

    def test_matches_dense_grid_scan(self):
        # colluding-eavesdropper case favors spending more power on noise
        cfg, p = SystemConfig(na=16, ne=4), 100.0
        res = optimize_phi(cfg, p)
        assert res.phi_star < 0.5
        best_c, best_phi = -1.0, 0.0
        for i in range(1, 2000):
            phi = i / 2000.0
            c = secrecy_rate(cfg, p, PowerSplit(phi)).c
            if c > best_c:
                best_c, best_phi = c, phi
        assert abs(res.phi_star - best_phi) <= 1e-3
        assert res.c_star >= best_c - 1e-12

    def test_below_critical_power(self):
        res = optimize_phi(SystemConfig(na=2), from_db(1.0))
        assert res.c_star == 0.0
        assert not res.converged

    def test_imperfect_csi_lowers_optimum(self):
        cfg, p = SystemConfig(na=6), 100.0
        clean = optimize_phi(cfg, p)
        noisy = optimize_phi(cfg, p, err=CsiError(0.1))
        assert noisy.c_star < clean.c_star
        again = secrecy_rate(cfg, p, PowerSplit(noisy.phi_star), CsiError(0.1)).c
        assert rel_err(noisy.c_star, again) < 1e-12

    def test_power_validation(self):
        with pytest.raises(ValueError):
            optimize_phi(SystemConfig(na=4), 0.0)

    def test_beats_nearby_splits(self):
        cfg, p = SystemConfig(na=4, ne=2), 30.0
        res = optimize_phi(cfg, p)
        for d in (-0.003, -0.001, 0.001, 0.003):
            assert res.c_star >= secrecy_rate(cfg, p, PowerSplit(res.phi_star + d)).c - 1e-12


class TestAdaptiveSplit:
    def test_close_to_fixed_split_at_moderate_snr(self):
        cfg, p = SystemConfig(na=4), 10.0
        fixed = optimize_phi(cfg, p).c_star
        adaptive = optimize_phi_adaptive(cfg, p)
        assert abs(adaptive - fixed) < 0.02

    @pytest.mark.parametrize(
        "na,p_db", [(2, 20.0), (4, 10.0), (8, 20.0), (2, 5.0), (6, 15.0)]
    )
    def test_dominates_fixed_split(self, na, p_db):
        cfg, p = SystemConfig(na=na), from_db(p_db)
        fixed = optimize_phi(cfg, p).c_star
        adaptive = optimize_phi_adaptive(cfg, p)
        assert adaptive >= fixed - 1e-9

    def test_strict_gain_near_critical_power(self):
        # per-realization splitting keeps earning rate where the fixed split stalls
        cfg, p = SystemConfig(na=2), from_db(5.0)
        fixed = optimize_phi(cfg, p).c_star
        adaptive = optimize_phi_adaptive(cfg, p)
        assert adaptive > fixed + 0.05

    def test_quadrature_refinement_is_stable(self):
        cfg, p = SystemConfig(na=4), 10.0
        a64 = optimize_phi_adaptive(cfg, p, quadrature_order=64)
        a96 = optimize_phi_adaptive(cfg, p, quadrature_order=96)
        assert abs(a64 - a96) < 1e-6

    def test_order_validation(self):
        with pytest.raises(ValueError):
            optimize_phi_adaptive(SystemConfig(na=4), 10.0, quadrature_order=1)
        with pytest.raises(ValueError):
            optimize_phi_adaptive(SystemConfig(na=4), 10.0, quadrature_order=64.0)
        with pytest.raises(ValueError):
            optimize_phi_adaptive(SystemConfig(na=4), 10.0, quadrature_order=True)


class TestEveGridTable:
    @pytest.mark.parametrize("na,ne", [(2, 1), (8, 1), (64, 1), (3, 2), (8, 5)])
    def test_matches_direct_evaluation_exactly(self, na, ne):
        cfg = SystemConfig(na=na, ne=ne)
        want = [capacity_eve(cfg, PowerSplit(phi)) for phi in _PHI_GRID]
        assert list(_eve_on_grid(na, ne)) == want

    def test_adaptive_reuses_the_table(self, monkeypatch):
        calls = 0
        original = ansec.optimize.capacity_eve

        def counting(cfg, split):
            nonlocal calls
            calls += 1
            return original(cfg, split)

        _eve_on_grid.cache_clear()
        monkeypatch.setattr(ansec.optimize, "capacity_eve", counting)
        optimize_phi_adaptive(SystemConfig(2), from_db(6.3))
        # one 65-point table plus golden probes; rebuilding the table at
        # each of the 64 Laguerre nodes costs about 5.9k calls
        assert calls < 2500

    # The same 64-node Laguerre rule with every inner maximum found by a
    # 400-point log grid in z plus golden section to 1e-11, on C2 from
    # mpmath hyp2f1 at 30 digits with C(na-1, k) B(k+1, na-1-k) weights.
    ADAPTIVE_ORACLE = {
        (2, 1, 6.3): 0.84008642249550665545,
        (3, 2, 12.3): 1.8034387707621540427,
        (64, 1, 21.3): 11.212094229318830181,
    }

    @pytest.mark.parametrize(
        "na,ne,p_db,earlier",
        [
            # values of an earlier C2 kernel (direct series, log-domain beta
            # weights); the solver must stay within 1e-10 of them
            (2, 1, 6.3, 0.8400864224955047),
            (3, 2, 12.3, 1.8034387707621522),
            (64, 1, 21.3, 11.212094229318819),
        ],
    )
    def test_adaptive_values_pinned(self, na, ne, p_db, earlier):
        _eve_on_grid.cache_clear()
        got = optimize_phi_adaptive(SystemConfig(na, ne), from_db(p_db))
        # the cached C2 table gives the same bits as a freshly built one
        assert optimize_phi_adaptive(SystemConfig(na, ne), from_db(p_db)) == got
        assert abs(got - self.ADAPTIVE_ORACLE[na, ne, p_db]) <= 1e-10
        assert abs(got - earlier) <= 1e-10


class TestHighSnrRoots:
    @pytest.mark.parametrize(
        "na,want",
        [
            # geometric bisection of the stationarity condition, mpmath mp.dps=40
            (2, 2.0),
            (3, 1.9004256799883599),
            (4, 1.8677850028473809),
            (8, 1.8312494953556586),
            (64, 1.8075568083993645),
        ],
    )
    def test_single_eavesdropper_roots(self, na, want):
        got = high_snr_optimal_z(SystemConfig(na=na), "exact-ne1")
        assert abs(got - want) < 1e-9

    def test_two_antenna_closed_value(self):
        assert high_snr_optimal_z(SystemConfig(na=2), "na2-closed") == 2.0

    @pytest.mark.parametrize(
        "ne,want",
        [
            # geometric bisection of the stationarity condition, mpmath mp.dps=40
            (1, 1.8046416611221064),
            (2, 2.23112165244),
            (4, 2.84155487192),
        ],
    )
    def test_large_na_roots(self, ne, want):
        got = high_snr_optimal_z(SystemConfig(na=128, ne=ne), "large-na")
        assert abs(got - want) < 1e-8

    def test_large_na_single_eavesdropper_band(self):
        got = high_snr_optimal_z(SystemConfig(na=128), "large-na")
        assert abs(got - 1.80) <= 0.01

    @pytest.mark.parametrize("ne", [1, 2, 4, 9, 16])
    def test_asymptotic_closed_form(self, ne):
        got = high_snr_optimal_z(SystemConfig(na=64, ne=ne), "large-na-asymptotic")
        assert got == 1.0 + math.sqrt(ne)

    @pytest.mark.parametrize("na", [3, 4, 8])
    def test_root_is_a_high_snr_maximizer(self, na):
        cfg, p = SystemConfig(na=na), 1e8
        z = high_snr_optimal_z(cfg, "exact-ne1")
        best = secrecy_rate(cfg, p, PowerSplit.from_z(z)).c
        for dz in (-0.01, 0.01):
            assert best >= secrecy_rate(cfg, p, PowerSplit.from_z(z + dz)).c - 1e-9

    def test_regime_validation(self):
        with pytest.raises(ValueError):
            high_snr_optimal_z(SystemConfig(na=4), "na2-closed")
        with pytest.raises(ValueError):
            high_snr_optimal_z(SystemConfig(na=4, ne=2), "exact-ne1")
        with pytest.raises(ValueError):
            high_snr_optimal_z(SystemConfig(na=4), "no-such-regime")


class TestCriticalSnr:
    @pytest.mark.parametrize(
        "na,s2,want_db",
        [(2, 0.0, 3.01), (6, 0.1, -4.27), (10, 0.2, -6.28), (4, 0.0, -2.62)],
    )
    def test_exact_reference_points(self, na, s2, want_db):
        # two-decimal values from the reference critical-SNR table
        err = CsiError(s2) if s2 else None
        p_c = critical_snr_exact(SystemConfig(na=na), PowerSplit(0.5), err)
        assert abs(to_db(p_c) - want_db) <= 0.05

    @pytest.mark.parametrize(
        "na,s2,want_db",
        [(2, 0.0, 6.02), (4, 0.1, -1.20), (8, 0.0, -6.01), (10, 0.2, -5.96)],
    )
    def test_bound_reference_points(self, na, s2, want_db):
        # two-decimal values from the reference critical-SNR table
        err = CsiError(s2) if s2 else None
        p_c = critical_snr_upper_bound(SystemConfig(na=na), PowerSplit(0.5), err)
        assert abs(to_db(p_c) - want_db) <= 0.05

    def test_bound_goes_infinite_first(self):
        cfg, split, err = SystemConfig(na=2), PowerSplit(0.5), CsiError(0.2)
        assert math.isinf(critical_snr_upper_bound(cfg, split, err))
        exact = critical_snr_exact(cfg, split, err)
        assert math.isfinite(exact)
        assert abs(to_db(exact) - 6.99) <= 0.05

    def test_threshold_past_the_first_probe(self):
        # near phi = 1 the rate turns positive only at about 68.16 dB, past
        # the 60 dB first probe; without estimation error a finite
        # threshold always exists, so the search must go on, not return inf
        cfg, split = SystemConfig(na=2), PowerSplit(1.0 - 1e-7)
        p_c = critical_snr_exact(cfg, split)
        assert abs(to_db(p_c) - 68.16) <= 0.01
        below = secrecy_rate(cfg, p_c * 0.99, split)
        above = secrecy_rate(cfg, p_c * 1.01, split)
        assert below.c1 - below.c2 < 0.0 < above.c1 - above.c2
        assert math.isinf(critical_snr_upper_bound(cfg, split))

    @pytest.mark.parametrize(
        "na,ne,phi", [(8, 4, 0.999999), (256, 2, 0.999), (64, 16, 0.9999), (8, 7, 0.999999)]
    )
    def test_near_all_signal_against_mpmath(self, na, ne, phi):
        # z - 1 down to 1e-6: a Gauss series per eavesdropper order would
        # need millions of terms there. At 30 digits the rate changes sign
        # within 0.001 dB of the threshold.
        split = PowerSplit(phi)
        p_c = critical_snr_exact(SystemConfig(na, ne), split)
        with mpmath.workdps(30):
            z, a = mpmath.mpf(split.z), na - 1
            x = (z - na) / (z - 1)
            c2 = mpmath.fsum(
                a / ((z - 1) * (a - k)) * mpmath.hyp2f1(1, k + 1, na, x) for k in range(ne)
            )
            s = math.sqrt(na)
            pts = sorted({0.0, max(0.0, na - 1 - 12 * s), na - 1.0, na + 12 * s, na + 50 * s + 50})

            def c1(p):
                # E[ln(1 + g p/z)] with g ~ Gamma(na, 1), by quadrature
                return mpmath.quad(
                    lambda g: mpmath.log1p(g * p / z)
                    * mpmath.exp((na - 1) * mpmath.log(g) - g - mpmath.loggamma(na)),
                    pts,
                )

            step = mpmath.mpf(10) ** mpmath.mpf("0.0001")
            assert c1(p_c / step) < c2 < c1(p_c * step)

    def test_no_sign_change_raises(self):
        class _FakeSplit:
            phi = 1.0
            z = 1.0

        # C2 is infinite at z = 1, so no power gives a positive rate
        with pytest.raises(RuntimeError, match="still zero at p = "):
            critical_snr_exact(SystemConfig(na=2), _FakeSplit())

    def test_exact_infinite_when_ceiling_below_leakage(self):
        # estimation error caps Bob's rate below Eve's no matter the power
        p_c = critical_snr_exact(SystemConfig(na=2), PowerSplit(0.5), CsiError(0.5))
        assert math.isinf(p_c)

    @pytest.mark.parametrize("na", [2, 4, 6, 8, 10])
    @pytest.mark.parametrize("s2", [0.0, 0.1, 0.2])
    def test_exact_never_exceeds_bound(self, na, s2):
        err = CsiError(s2) if s2 else None
        res = critical_snr(SystemConfig(na=na), PowerSplit(0.5), err)
        assert res.p_c_exact <= res.p_c_bound

    def test_combined_result_db_properties(self):
        res = critical_snr(SystemConfig(na=2), PowerSplit(0.5))
        assert abs(res.p_c_exact_db - 3.01) <= 0.05
        assert abs(res.p_c_bound_db - 6.02) <= 0.05

    def test_infinite_db_property(self):
        res = CriticalSnr(p_c_bound=math.inf, p_c_exact=2.0)
        assert res.p_c_bound_db == math.inf
        assert abs(res.p_c_exact_db - to_db(2.0)) < 1e-12

    def test_rate_sign_flips_at_exact_threshold(self):
        cfg, split = SystemConfig(na=4), PowerSplit(0.5)
        p_c = critical_snr_exact(cfg, split, None)
        below = secrecy_rate(cfg, p_c * 0.98, split)
        above = secrecy_rate(cfg, p_c * 1.02, split)
        assert below.c1 - below.c2 < 0
        assert above.c1 - above.c2 > 0

    def test_result_invariant_validation(self):
        with pytest.raises(ValueError):
            CriticalSnr(p_c_bound=1.0, p_c_exact=2.0)


class TestOptResult:
    def test_fields(self):
        r = OptResult(phi_star=0.5, z_star=2.0, c_star=1.0, iterations=7, converged=True)
        assert r.phi_star == 0.5 and r.iterations == 7
