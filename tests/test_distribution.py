"""Sojourn-time distribution: coefficients, pdf/ccdf, quantiles, deadlines."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from sdnqueue.analytic import ControllerParams, NodeParams, UnstableSystemError, \
    mean_sojourn_openflow, rate_from_us, solve_rates
from sdnqueue.distribution import (
    SojournDistribution,
    build_distribution,
    ccdf,
    pdf,
    prob_within_deadline,
    quantile,
)

MU_L = rate_from_us(9.8)
MU_C = rate_from_us(240.0)


def make_dist(lam, mu_l, q, mu_c):
    node = NodeParams(lam, mu_l, q)
    ctrl = ControllerParams(mu_c)
    return node, ctrl, build_distribution(node, ctrl, solve_rates(node, ctrl))


def random_dist(rng):
    q = float(rng.uniform(0.05, 1.0))
    mu_l = float(10.0 ** rng.uniform(3.0, 5.5))
    mu_c = float(10.0 ** rng.uniform(3.0, 5.5))
    sup = min(mu_l / (1.0 + q), mu_c / q)
    lam = float(rng.uniform(0.1, 0.9)) * sup
    return make_dist(lam, mu_l, q, mu_c)


def partial_fraction_pdf(d: SojournDistribution, t):
    """Textbook three-term form; independent evaluation path for checks."""
    a_l, a_c = d.a_switch, d.a_controller
    return (d.b1 * a_l * np.exp(-a_l * t)
            + d.b2 * a_l * (a_l * t) * np.exp(-a_l * t)
            + d.d * a_c * np.exp(-a_c * t))


def partial_fraction_ccdf(d: SojournDistribution, t):
    a_l, a_c = d.a_switch, d.a_controller
    return ((d.b1 + d.b2) * np.exp(-a_l * t)
            + d.b2 * (a_l * t) * np.exp(-a_l * t)
            + d.d * np.exp(-a_c * t))


class TestCoefficients:
    def test_no_detour_is_pure_exponential(self):
        _, _, d = make_dist(2000.0, MU_L, 0.0, MU_C)
        assert (d.b1, d.b2, d.d) == (1.0, 0.0, 0.0)
        assert not d.degenerate

    def test_hand_case_double_rate(self):
        # effective rates 5000 and 10000 with every packet detouring:
        # substituting a_c = 2 a_l gives (b1, b2, d) = (-2, 2, 1)
        _, _, d = make_dist(1000.0, 7000.0, 1.0, 11000.0)
        assert d.a_switch == pytest.approx(5000.0)
        assert d.a_controller == pytest.approx(10000.0)
        assert d.b2 == pytest.approx(2.0, rel=1e-12)
        assert d.d == pytest.approx(1.0, rel=1e-12)
        assert d.b1 == pytest.approx(-2.0, rel=1e-12)

    def test_signed_decomposition_sums_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            _, _, d = random_dist(rng)
            if not d.degenerate:
                assert d.b1 + d.b2 + d.d == pytest.approx(1.0, abs=1e-12)

    def test_coefficient_signs(self):
        # d never goes negative; b2 takes the sign of the rate gap
        rng = np.random.default_rng(21)
        for _ in range(500):
            _, _, d = random_dist(rng)
            if d.degenerate:
                continue
            assert d.d >= 0.0
            gap = d.a_controller - d.a_switch
            assert d.b2 * gap >= 0.0

    def test_unstable_point_rejected(self):
        node = NodeParams(10000.0, MU_L, 0.5)
        ctrl = ControllerParams(MU_C)
        with pytest.raises(UnstableSystemError):
            build_distribution(node, ctrl, solve_rates(node, ctrl))


class TestPdf:
    def test_origin_value_no_detour(self):
        _, _, d = make_dist(2000.0, MU_L, 0.0, MU_C)
        assert pdf(d, 0.0) == pytest.approx(d.a_switch, rel=1e-12)

    def test_matches_partial_fraction_form(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            _, _, d = random_dist(rng)
            if d.degenerate or abs(d.a_controller - d.a_switch) < 0.2 * d.a_switch:
                continue
            ts = np.linspace(0.0, 20.0 / d.a_switch, 101)
            assert np.allclose(pdf(d, ts), partial_fraction_pdf(d, ts),
                               rtol=1e-10, atol=1e-320)

    def test_integrates_to_one(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            _, _, d = random_dist(rng)
            horizon = 50.0 / min(d.a_switch, d.a_controller)
            total, _ = quad(lambda t: pdf(d, t), 0.0, horizon, epsabs=1e-12, limit=300)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_negative_time_rejected(self):
        _, _, d = make_dist(2000.0, MU_L, 0.5, MU_C)
        with pytest.raises(ValueError):
            pdf(d, -1e-9)
        with pytest.raises(ValueError):
            ccdf(d, np.array([0.0, -1.0]))


class TestDegenerate:
    def test_equal_rates_flagged_and_finite(self):
        # mu_c = mu_l - lam makes the two effective rates exactly equal
        _, _, d = make_dist(1000.0, 10000.0, 0.5, 9000.0)
        assert d.degenerate
        assert d.a_switch == d.a_controller == 8500.0
        ts = np.linspace(0.0, 30.0 / d.a_switch, 100)
        assert np.all(np.isfinite(pdf(d, ts)))
        assert np.all(np.isfinite(ccdf(d, ts)))

    def test_equal_rates_is_erlang3_mixture(self):
        lam, mu_l, q = 1000.0, 10000.0, 0.5
        _, _, d = make_dist(lam, mu_l, q, mu_l - lam)
        a = d.a_switch
        ts = np.linspace(1e-9, 30.0 / a, 100)
        want_pdf = (1 - q) * a * np.exp(-a * ts) + q * a * (a * ts) ** 2 / 2 * np.exp(-a * ts)
        want_ccdf = np.exp(-a * ts) * ((1 - q) + q * (1 + a * ts + (a * ts) ** 2 / 2))
        assert np.allclose(pdf(d, ts), want_pdf, rtol=1e-12)
        assert np.allclose(ccdf(d, ts), want_ccdf, rtol=1e-12)

    def test_continuity_across_boundary(self):
        lam, mu_l, q = 1000.0, 10000.0, 0.5
        _, _, d_eq = make_dist(lam, mu_l, q, mu_l - lam)
        a = d_eq.a_switch
        _, _, d_near = make_dist(lam, mu_l, q, a * (1.0 + 1e-6) + q * lam)
        assert not d_near.degenerate
        ts = np.linspace(1e-9, 30.0 / a, 100)
        assert np.max(np.abs(pdf(d_near, ts) - pdf(d_eq, ts)) / pdf(d_eq, ts)) < 1e-5
        assert np.max(np.abs(ccdf(d_near, ts) - ccdf(d_eq, ts)) / ccdf(d_eq, ts)) < 1e-5


class TestCcdf:
    def test_at_zero_is_one(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            _, _, d = random_dist(rng)
            assert ccdf(d, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_no_detour_is_exponential_tail(self):
        _, _, d = make_dist(2000.0, MU_L, 0.0, MU_C)
        ts = np.linspace(0.0, 10.0 / d.a_switch, 50)
        assert np.allclose(ccdf(d, ts), np.exp(-d.a_switch * ts), rtol=1e-12)

    def test_monotone_and_vanishing(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            _, _, d = random_dist(rng)
            ts = np.linspace(0.0, 60.0 / min(d.a_switch, d.a_controller), 400)
            vals = ccdf(d, ts)
            assert np.all(np.diff(vals) <= 1e-15)
            assert vals[-1] < 1e-9

    def test_derivative_matches_pdf(self):
        # central finite differences of the ccdf reproduce -pdf
        rng = np.random.default_rng(16)
        _, _, d = random_dist(rng)
        a_max = max(d.a_switch, d.a_controller)
        h = 1e-4 / a_max
        ts = rng.uniform(h, 20.0 / d.a_switch, 50)
        for t in ts:
            density = float(pdf(d, t))
            if density <= 1e-12:
                continue
            fd = (float(ccdf(d, t - h)) - float(ccdf(d, t + h))) / (2.0 * h)
            assert fd == pytest.approx(density, rel=1e-5)

    def test_mean_identity(self):
        # integral of the tail equals the mean sojourn from the path formula
        rng = np.random.default_rng(17)
        for _ in range(5):
            node, ctrl, d = random_dist(rng)
            horizon = 50.0 / min(d.a_switch, d.a_controller)
            total, _ = quad(lambda t: ccdf(d, t), 0.0, horizon, epsabs=1e-14, limit=300)
            w = mean_sojourn_openflow(node, ctrl, solve_rates(node, ctrl))
            assert total == pytest.approx(w, rel=1e-6)
            assert d.mean() == pytest.approx(w, rel=1e-12)

    def test_mixture_mean_formula(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            _, _, d = random_dist(rng)
            if d.degenerate:
                continue
            want = d.b1 / d.a_switch + 2.0 * d.b2 / d.a_switch + d.d / d.a_controller
            assert d.mean() == pytest.approx(want, rel=1e-9)

    def test_laplace_transform_spot_check(self):
        # quadrature of e^(-st) pdf(t) against the closed transform
        _, _, d = make_dist(3000.0, MU_L, 0.7, MU_C)
        horizon = 60.0 / min(d.a_switch, d.a_controller)
        a_l, a_c, q = d.a_switch, d.a_controller, d.q_nf
        for s in (a_l / 2.0, a_l, 2.0 * a_l):
            num, _ = quad(lambda t: math.exp(-s * t) * pdf(d, t), 0.0, horizon,
                          epsabs=1e-13, limit=300)
            closed = ((1.0 - q) * a_l / (a_l + s)
                      + q * (a_l / (a_l + s)) ** 2 * (a_c / (a_c + s)))
            assert num == pytest.approx(closed, rel=1e-6)


class TestDeadlinesAndQuantiles:
    def test_deadline_edges(self):
        _, _, d = make_dist(2000.0, MU_L, 0.5, MU_C)
        assert prob_within_deadline(d, 0.0) == 0.0
        assert prob_within_deadline(d, 10.0) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            prob_within_deadline(d, -1.0)

    def test_quantile_edges_and_domain(self):
        _, _, d = make_dist(2000.0, MU_L, 0.5, MU_C)
        assert quantile(d, 0.0) == 0.0
        with pytest.raises(ValueError):
            quantile(d, 1.0)
        with pytest.raises(ValueError):
            quantile(d, -0.1)

    def test_exponential_quantile(self):
        _, _, d = make_dist(2000.0, MU_L, 0.0, MU_C)
        want = 1.0 / d.a_switch
        assert quantile(d, 1.0 - math.exp(-1.0)) == pytest.approx(want, abs=1e-9)

    def test_round_trip(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            _, _, d = random_dist(rng)
            for p in (0.01, 0.2, 0.5, 0.9, 0.99, 0.9999):
                t = quantile(d, p)
                assert prob_within_deadline(d, t) == pytest.approx(p, abs=1e-9)

    def test_quantile_monotone(self):
        _, _, d = make_dist(4000.0, MU_L, 0.8, MU_C)
        ps = np.linspace(0.0, 0.999, 40)
        ts = [quantile(d, float(p)) for p in ps]
        assert all(b >= a for a, b in zip(ts, ts[1:]))


class TestKernelAndQuantileExtremes:
    # one law per hazard: q_nf = 1 has pdf(0) = 0, so the quantile search
    # cannot take a Newton step from t = 0; equal effective rates; and a
    # controller rate far below or far above the switch rate
    LAWS = {
        "q 1": (2000.0, MU_L, 1.0, MU_C),
        "degenerate": (1000.0, 10000.0, 0.5, 9000.0),
        "a_c << a_l": (100.0, 1e6, 0.5, 1e3),
        "a_c >> a_l": (1000.0, 1e4, 0.5, 1e7),
    }
    PS = (1e-9, 1e-3, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12)

    def test_kernel_finite_when_a_c_far_below_a_l(self):
        _, _, d = make_dist(*self.LAWS["a_c << a_l"])
        assert d.a_switch > 1e3 * d.a_controller
        ts = np.array([0.0, 1.0 / d.a_switch, 0.5 / d.a_controller, 1e3 / d.a_controller])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for values in (pdf(d, ts), ccdf(d, ts)):
                assert np.all(np.isfinite(values))
                assert np.all(values >= 0.0)

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_quantile_residual_at_machine_level(self, law):
        _, _, d = make_dist(*self.LAWS[law])
        assert d.degenerate == (law == "degenerate")
        if law == "q 1":
            assert pdf(d, 0.0) == 0.0
        for p in self.PS:
            t = quantile(d, p)
            assert abs(ccdf(d, t) - (1.0 - p)) <= 1e-14, (law, p, t)


def test_law_matches_simulation_ccdf():
    # the closed-form law assumes the two switch passes are independent; at a
    # half-loaded controller the empirical CCDF of ~1e6 simulated packets
    # stays within KS distance 0.02 of it (measured ~0.0015)
    from sdnqueue.simulate import SimConfig, run_single_node
    node = NodeParams(0.5 * MU_C / 0.5, MU_L, 0.5)
    ctrl = ControllerParams(MU_C)
    d = build_distribution(node, ctrl, solve_rates(node, ctrl))
    res = run_single_node(node, ctrl,
                          SimConfig(seed=21, packets_per_replication=222_223,
                                    replications=5))
    s = res.empirical_ccdf
    cdf_vals = 1.0 - ccdf(d, s)
    i = np.arange(len(s))
    ks = max(np.max(cdf_vals - i / len(s)), np.max((i + 1) / len(s) - cdf_vals))
    assert ks < 0.02
