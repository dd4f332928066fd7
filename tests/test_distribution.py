"""Sojourn-time distribution: coefficients, pdf/ccdf, quantiles, deadlines."""

import hashlib
import itertools
import math
import os
import subprocess
import sys
import textwrap
import warnings
from decimal import Decimal, localcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from sdnqueue.analytic import ControllerParams, NodeParams, SolvedRates, \
    UnstableSystemError, mean_sojourn_openflow, rate_from_us, solve_rates
from sdnqueue import distribution, validation
from sdnqueue.distribution import (
    SojournDistribution,
    build_distribution,
    ccdf,
    pdf,
    prob_within_deadline,
    quantile,
)
from sdnqueue.validation import _criterion_3_points, _law_integrals

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
        # each block checks its own times: a negative one in any block, also
        # beside an infinity or a NaN (which hides it from the block's bounds)
        ts = np.array([0.0, 1e-3, math.inf, math.nan, 2e-3])
        for chunk in (1, 2, 1 << 14):
            with mock.patch.object(distribution, "_CHUNK", chunk):
                for where, bad in itertools.product(range(len(ts)), (-1e-9, -math.inf)):
                    with pytest.raises(ValueError, match="time must be >= 0"):
                        ccdf(d, np.where(np.arange(len(ts)) == where, bad, ts))


@pytest.mark.parametrize("name", ["mu_switch", "mu_controller"])
def test_infinite_rate_is_refused_by_name(name):
    # the effective rate would be infinite too, and the law NaN at every time
    node, ctrl = NodeParams(2000.0, MU_L, 0.5), ControllerParams(MU_C)
    if name == "mu_switch":
        node = NodeParams(2000.0, math.inf, 0.5)
    else:
        ctrl = ControllerParams(math.inf)
    with pytest.raises(ValueError, match=f"^{name} must be finite for the sojourn law, got inf"):
        build_distribution(node, ctrl, solve_rates(node, ctrl))


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


def _rule_laws():
    """Criterion 3's six integration laws, the equal-rates law of its
    continuity check, and a controller ~200 times slower than the switch."""
    laws = _criterion_3_points()[300:]
    laws.append((NodeParams(1000.0, 10000.0, 0.5), ControllerParams(9000.0)))
    laws.append((NodeParams(1000.0, 1e5, 0.5), ControllerParams(1000.0)))
    return laws


class TestCriterion3Rule:
    """Criterion 3's Gauss-Legendre rule against the closed forms, with quad
    (at criterion 3's former tolerances) as the independent reference."""

    @pytest.mark.parametrize("law", range(8))
    def test_rule_matches_closed_forms_and_quad(self, law):
        node, ctrl = _rule_laws()[law]
        d = build_distribution(node, ctrl, solve_rates(node, ctrl))
        a_l, a_c, q = d.a_switch, d.a_controller, d.q_nf
        horizon = 50.0 / min(a_l, a_c)
        s_values = (a_l / 2.0, a_l, 2.0 * a_l)
        mass, mean, laplace = _law_integrals(d, horizon, s_values)
        want_mean = (1.0 + q) / a_l + q / a_c
        checks = [(mass, 1.0, quad(lambda t: pdf(d, t), 0.0, horizon,
                                   epsabs=1e-12, limit=300)[0]),
                  (mean, want_mean, quad(lambda t: ccdf(d, t), 0.0, horizon,
                                         epsabs=1e-14, limit=300)[0])]
        for s, value in zip(s_values, laplace):
            closed = ((1.0 - q) * a_l / (a_l + s)
                      + q * (a_l / (a_l + s)) ** 2 * (a_c / (a_c + s)))
            checks.append((value, closed, quad(lambda t: math.exp(-s * t) * pdf(d, t),
                                               0.0, horizon, epsabs=1e-13, limit=300)[0]))
        for got, want, by_quad in checks:
            err = abs(got - want) / want
            assert err <= 1e-12, (got, want)
            # no farther than quad, up to a few ulps of summation rounding
            assert err <= abs(by_quad - want) / want + 4 * np.finfo(float).eps, \
                (got, by_quad, want)


class TestDeadlinesAndQuantiles:
    def test_deadline_edges(self):
        _, _, d = make_dist(2000.0, MU_L, 0.5, MU_C)
        assert prob_within_deadline(d, 0.0) == 0.0
        assert prob_within_deadline(d, 10.0) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            prob_within_deadline(d, -1.0)

    def test_nan_deadline_rejected(self):
        # as SweepSpec does: NaN fails `deadline >= 0` and is no probability's bound
        _, _, d = make_dist(2000.0, MU_L, 0.5, MU_C)
        with pytest.raises(ValueError, match="^deadline must be >= 0, got nan$"):
            prob_within_deadline(d, math.nan)

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


class TestSimulatedLaw:
    """The simulator's samples against the exact sojourn law at q_nf > 0,
    where criterion 6 checks it only at q_nf = 0 and criterion 8 at one
    deadline: the paper's grid, at the default seed and with criterion 6's
    5 x 222,223 packets, 10**6 samples kept.  Pinned digests catch a change
    to today's sample paths, but not a defect that every engine shares,
    nor one that keeps the mean and bends the law.  Where the uncorrected
    model is stable, the law at its station rates, lam / (1 - q_nf) at the
    switch, must be farther from the samples than the exact law."""

    @pytest.mark.parametrize("rho_c", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("q", [0.2, 0.5, 1.0])
    def test_samples_follow_the_exact_law(self, q, rho_c):
        from sdnqueue.simulate import SimConfig, run_single_node
        node, ctrl = validation._paper_node(q, rho_c), validation._CTRL
        cfg = SimConfig(seed=validation.DEFAULT_SEED,
                        packets_per_replication=validation._KS_PACKETS)
        s = run_single_node(node, ctrl, cfg).empirical_ccdf

        def distance(rates):
            return validation._ks_distance(s, 1.0 - ccdf(build_distribution(node, ctrl, rates), s))

        exact = distance(solve_rates(node, ctrl))
        assert exact < 0.01  # criterion 6's bound at 10**6 samples
        if q < 1.0:  # the uncorrected model has no rates at q_nf = 1
            gamma = node.lam / (1.0 - q)
            try:
                uncorrected = distance(SolvedRates(gamma, q * gamma, q, gamma / node.mu_switch,
                                                   q * gamma / ctrl.mu_controller))
            except UnstableSystemError:
                return
            assert uncorrected > exact


@st.composite
def _laws(draw):
    """(node, ctrl, law) at a random stable point: q_nf at and between its
    ends, a controller from 10^4 times slower to 10^3 times faster than the
    switch, and effective rates up to 10^-6 apart."""
    q = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    mu_l = draw(st.floats(1e3, 1e6))
    load = draw(st.floats(0.01, 0.99))
    gap = draw(st.none() | st.floats(-1e-6, 1e-6))
    if gap is None:
        mu_c = mu_l * 10.0 ** draw(st.floats(-4.0, 3.0))
        lam = load * min(mu_l / (1.0 + q), mu_c / q if q else math.inf)
    else:
        lam = load * mu_l / (1.0 + q)
        mu_c = (mu_l - (1.0 + q) * lam) * (1.0 + gap) + q * lam
    return make_dist(lam, mu_l, q, mu_c)


def _scale(d: SojournDistribution) -> float:
    """The law's slower time scale; 60 of them reach far into the tail."""
    return 1.0 / min(d.a_switch, d.a_controller)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def _vanishing_point(d: SojournDistribution) -> float:
    """The smallest time at which -a t is at or below _EXP_ZERO at both rates."""
    def gone(t):
        return max(-d.a_switch * t, -d.a_controller * t) <= distribution._EXP_ZERO

    t = -distribution._EXP_ZERO / min(d.a_switch, d.a_controller)
    while not gone(t):
        t = math.nextafter(t, math.inf)
    while gone(math.nextafter(t, 0.0)):
        t = math.nextafter(t, 0.0)
    return t


def _check_vanished(d: SojournDistribution, ts: np.ndarray, gone: list, kept: list) -> None:
    """pdf, ccdf and _pdf_ccdf are +0.0 at ts[gone], scalar and array, at
    several block sizes and with no warning; ts[kept] keep their own bits,
    and a NaN time gives NaN."""
    zeros = _bits(np.zeros(len(gone)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in ts[gone]:
            for scalar in (float(t), np.float64(t), np.array(t)):
                got = [pdf(d, scalar), ccdf(d, scalar), *distribution._pdf_ccdf(d, scalar)]
                assert all(type(v) is float for v in got) and _bits(got) == _bits([0.0] * 4), t
            assert prob_within_deadline(d, float(t)) == 1.0
        for chunk in (1, 2, 3, 1 << 14):
            with mock.patch.object(distribution, "_CHUNK", chunk):
                for k, f in enumerate((pdf, ccdf)):
                    got = f(d, ts)
                    assert _bits(got[gone]) == zeros, (f.__name__, chunk)
                    assert np.array_equal(np.isnan(got), np.isnan(ts))
                    assert _bits(got[kept]) == _bits(f(d, ts[kept]))
                    assert _bits(f(d, ts.reshape(1, -1))) == _bits(got.reshape(1, -1))
                    assert _bits(distribution._pdf_ccdf(d, ts)[k]) == _bits(got)


class TestScalarAndArrayPaths:
    """A scalar is evaluated in floats and an array in blocks of _CHUNK; both
    must give the bits of the same time inside an array."""

    @settings(max_examples=150)
    @given(law=_laws(), u=st.floats(0.0, 60.0), n=st.integers(0, 2))
    def test_scalar_matches_array_element(self, law, u, n):
        _, _, d = law
        t = u * _scale(d)
        for f in (pdf, ccdf):
            for scalar, same in ((t, t), (np.float64(t), t), (np.array(t), t), (n, n)):
                got = f(d, scalar)
                assert type(got) is float
                assert _bits(got) == _bits(f(d, np.array([same]))[0]), (f.__name__, scalar)

    @settings(max_examples=30)
    @given(law=_laws(), chunk=st.integers(1, 5000))
    def test_block_size_does_not_move_bits(self, law, chunk):
        _, _, d = law
        grids = [np.linspace(0.0, 60.0 * _scale(d), n) for n in (chunk - 1, chunk, chunk + 1)]
        grids += [grids[2].reshape(1, -1), np.zeros((0,)), np.zeros((2, 0))]
        square = np.linspace(0.0, 60.0 * _scale(d), 3 * chunk).reshape(3, chunk)
        for f in (pdf, ccdf):
            want = [f(d, ts) for ts in grids]
            with mock.patch.object(distribution, "_CHUNK", chunk):
                got = [f(d, ts) for ts in grids]
                transposed = f(d, square.T)  # not contiguous: read in C order
            assert [v.shape for v in got] == [ts.shape for ts in grids]
            assert [_bits(v) for v in got] == [_bits(v) for v in want]
            assert _bits(transposed) == _bits(f(d, square).T)

    @settings(max_examples=30)
    @given(law=_laws())
    def test_nan_passes_through(self, law):
        _, _, d = law
        for f in (pdf, ccdf):
            assert math.isnan(f(d, math.nan))
            assert np.isnan(f(d, np.array([0.0, math.nan]))[1])

    def test_nan_passes_through_at_equal_rates(self):
        # the closed-form branch divides by the rate gap, which is zero here;
        # only a non-finite time reaches it
        _, _, d = make_dist(1000.0, 10000.0, 0.5, 9000.0)
        assert d.a_controller == d.a_switch
        for f in (pdf, ccdf):
            assert math.isnan(f(d, math.nan))
            assert np.isnan(f(d, np.array([math.nan]))).all()


    @settings(max_examples=30)
    @given(law=_laws())
    def test_zero_at_infinity(self, law):
        # both laws vanish wherever both exponentials underflow, t = inf among
        # those times; past the float range of a_l t the formulas would form
        # 0 * inf.  The other times of the same array keep their bits.
        _, _, d = law
        t_v = _vanishing_point(d)
        ts = np.array([0.0, _scale(d), math.inf, 30.0 * _scale(d), math.nan,
                       t_v, 2.0 * t_v, 1e300, 1e308])
        _check_vanished(d, ts, gone=[2, 5, 6, 7, 8], kept=[0, 1, 3])

    def test_zero_at_infinity_at_equal_rates(self):
        # a_l t and a_c t overflow together here, in the series branch
        _, _, d = make_dist(1000.0, 10000.0, 0.5, 9000.0)
        assert d.a_controller == d.a_switch
        t_v = _vanishing_point(d)
        _check_vanished(d, np.array([math.inf, t_v, 2.0 * t_v, 1e300, 1e308]),
                        gone=[0, 1, 2, 3, 4], kept=[])

    # laws with a controller slower and faster than the switch, q_nf = 1 and
    # equal effective rates (where only a NaN leaves the series branch)
    BRANCH_LAWS = [(2000.0, MU_L, 0.5, MU_C), (1000.0, 1e4, 0.5, 1e7), (2000.0, MU_L, 1.0, MU_C),
                   (1000.0, 10000.0, 0.5, 9000.0)]

    @pytest.mark.parametrize("law", range(len(BRANCH_LAWS)))
    def test_branch_and_exp_cases_keep_the_bits(self, law):
        # A block picks its branch and each exp's case from its smallest and
        # largest time.  Mixed blocks, in every order and at several block
        # sizes, must give each element the bits of a scalar evaluation and of
        # the formulas with numpy's exp called on every argument.
        _, _, d = make_dist(*self.BRANCH_LAWS[law])
        a_l, a_c = d.a_switch, d.a_controller
        gap = abs(a_c - a_l)
        ts = [0.0] + [u / gap for u in (0.1, 0.4999, 0.5, 0.5001, 3.0) if gap]
        for a in (a_l, a_c):  # exp's fast range, its subnormal band, total underflow
            ts += [u / a for u in (1.0, 600.0, 699.9, 700.0, 700.1, 707.0, 708.0, 720.0, 740.0,
                                   745.0, 745.13, 745.1332, 745.2, 745.3, 800.0, 1e4)]
        ts = np.array(ts + [math.nan])
        for a in (a_l, a_c):
            assert np.sum((-a * ts > -745.13) & (-a * ts < -707.8)) >= 4  # ~130 ns each in exp
            assert np.sum(-a * ts <= -745.2) >= 3
        want = {f: [f(d, float(t)) for t in ts] for f in (pdf, ccdf)}
        assert [_bits(v) for v in want[pdf]] == [_bits(_plain_exp_law(d, t)[0]) for t in ts]
        assert [_bits(v) for v in want[ccdf]] == [_bits(_plain_exp_law(d, t)[1]) for t in ts]
        rng = np.random.default_rng(law)
        for order in (np.sort(ts), ts[np.argsort(ts)[::-1]], rng.permutation(ts)):
            for chunk in (1, 2, 5, 16, len(ts), 1 << 14):
                with mock.patch.object(distribution, "_CHUNK", chunk):
                    got = {pdf: pdf(d, order), ccdf: ccdf(d, order)}
                    pair = dict(zip((pdf, ccdf), distribution._pdf_ccdf(d, order)))
                for f in (pdf, ccdf):
                    expected = [_bits(f(d, float(t))) for t in order]
                    assert [_bits(v) for v in got[f]] == expected, (f.__name__, chunk)
                    assert [_bits(v) for v in pair[f]] == expected, (f.__name__, chunk)


def _plain_exp_law(d: SojournDistribution, t: float) -> tuple[float, float]:
    """pdf and ccdf at one time by the module's formulas, written out, with
    numpy's exp called on every argument."""
    a_l, a_c, q = d.a_switch, d.a_controller, d.q_nf
    x = (a_c - a_l) * t
    e_l = float(np.exp(-a_l * t))
    if abs(x) < 0.5:
        coeffs = [(-1.0) ** k / math.factorial(k + 2) for k in range(14)]
        phi = coeffs[-1]
        for c in coeffs[-2::-1]:
            phi = phi * x + c
        h = e_l * (a_l * t) * (a_l * t) * phi
    else:
        r = a_l / (a_c - a_l) if a_c != a_l else math.nan
        h = r * r * (float(np.exp(-a_c * t)) - e_l + x * e_l)
    return ((1.0 - q) * a_l * e_l + q * a_c * h,
            e_l * (1.0 + q * a_l * t) + q * h)


class TestLawProperties:
    @settings(max_examples=100)
    @given(law=_laws(), p=st.floats(0.0, 1.0, exclude_max=True))
    def test_law_is_a_distribution_with_the_path_mean(self, law, p):
        node, ctrl, d = law
        ts = np.concatenate([[0.0], np.geomspace(1e-9, 60.0, 400)]) * _scale(d)
        assert np.all(pdf(d, ts) >= 0.0)
        tail = ccdf(d, ts)
        assert tail[0] == ccdf(d, 0.0) == 1.0
        # At q_nf = 1 the law leaves 1 as t^3, and e_l (1 + a_l t) + q h
        # cancels to within a few ulps of 1 near t = 0: rises of up to
        # 4.4e-16 there, none below 0.999.  The bound is TestCcdf's.
        assert np.all(np.diff(tail) <= 1e-15)
        t = quantile(d, p)
        assert abs(ccdf(d, t) - (1.0 - p)) <= 1e-14, (p, t)
        assert d.mean() == mean_sojourn_openflow(node, ctrl, solve_rates(node, ctrl))


# Laws for the pinned digests: the paper's point, q_nf at both ends, equal
# and nearly equal effective rates, a controller far slower and far faster
# than the switch, and a nearly saturated switch.
PIN_LAWS = [(2000.0, MU_L, 0.5, MU_C), (2000.0, MU_L, 0.0, MU_C), (2000.0, MU_L, 1.0, MU_C),
            (1000.0, 10000.0, 0.5, 9000.0), (1000.0, 10000.0, 0.5, 9000.0 * (1.0 + 1e-7)),
            (100.0, 1e6, 0.5, 1e3), (1000.0, 1e4, 0.5, 1e7), (0.99 * MU_L / 1.3, MU_L, 0.3, 1e6)]
PIN_LEVELS = (1e-9, 1e-3, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0 - 1e-6, 1.0 - 1e-9)


def _law_digests() -> dict[str, str]:
    """SHA-256 of pdf and ccdf over a fixed grid of times, of the same
    functions at scalar times, and of quantiles at fixed levels, over PIN_LAWS."""
    parts: dict[str, list[bytes]] = {"pdf": [], "ccdf": [], "scalar": [], "quantile": []}
    for args in PIN_LAWS:
        _, _, d = make_dist(*args)
        ts = np.concatenate([np.linspace(0.0, 60.0, 1001), np.geomspace(1e-9, 60.0, 200)])
        ts *= _scale(d)
        parts["pdf"].append(_bits(pdf(d, ts)))
        parts["ccdf"].append(_bits(ccdf(d, ts)))
        parts["scalar"].append(_bits([f(d, float(t)) for t in ts[::7] for f in (pdf, ccdf)]))
        parts["quantile"].append(_bits([quantile(d, p) for p in PIN_LEVELS]))
    return {k: hashlib.sha256(b"".join(v)).hexdigest() for k, v in parts.items()}


class TestPinnedBits:
    # Recorded when every time still went through one whole-array kernel; a
    # change to any formula, its order of operations or the exp used moves
    # these bits.  They are numpy's exp on x86-64 with numpy 2.4.
    DIGESTS = {
        "pdf": "ec5f138eb4a9f7467d4724499d66cfd4b43134b7fd9a62fd9d86c0968de8eba0",
        "ccdf": "e51839ee37521d0300cb1346ab67d3d59d1a377667a11b0109e3d0b95a8fad6e",
        "scalar": "b720fae4d1989eb01e3af7211a64f9c307a96cc2933e0ae41b26e5823b2e221d",
        "quantile": "2b76298c68a24fe13728e8427f0284febb014ef814262de324a69e24c7eb59ff",
    }

    def test_law_digests_pinned(self):
        assert _law_digests() == self.DIGESTS


def _plain_quantile(d: SojournDistribution, p: float) -> float:
    """quantile's bracket, Newton step, bisection fallback and stop rules,
    written out with _plain_exp_law as the kernel: one call per time, whose
    pdf is the density and whose ccdf is the tail."""
    if p == 0.0:
        return 0.0
    target = 1.0 - p
    lo, tail, hi = 0.0, 1.0, d.mean()
    while (c := _plain_exp_law(d, hi)[1]) > target:
        lo, tail, hi = hi, c, 2.0 * hi
    t = lo
    density = _plain_exp_law(d, t)[0]
    while True:
        t_new = t + math.log(tail / target) * tail / density if density > 0.0 else math.nan
        if t_new == t:
            return t
        if not lo < t_new < hi:
            t_new = 0.5 * (lo + hi)
            if not lo < t_new < hi:
                return t
        t = t_new
        density, tail = _plain_exp_law(d, t)
        if tail > target:
            lo = t
        else:
            hi = t


class TestQuantileBits:
    """quantile forms its density and tail from constants of the law; they
    must keep the bits of the search written out over the plain formulas, at
    every law and level, not only at PIN_LAWS and PIN_LEVELS."""

    @settings(max_examples=300)
    @given(law=_laws(), p=st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from(PIN_LEVELS))
    def test_quantile_has_the_bits_of_the_plain_search(self, law, p):
        _, _, d = law
        assert _bits(quantile(d, p)) == _bits(_plain_quantile(d, p)), p


class TestEvaluationCounts:
    """The two speed properties, counted instead of timed."""

    def test_quantile_evaluates_the_kernel_once_per_time(self):
        # the search's density comes from the kernel call that gave its ccdf
        times: list[float] = []
        kernel = distribution._detour_at

        def counted(d, t):
            times.append(t)
            return kernel(d, t)

        with mock.patch.object(distribution, "_detour_at", counted):
            for args in PIN_LAWS:
                _, _, d = make_dist(*args)
                for p in PIN_LEVELS:
                    times.clear()
                    quantile(d, p)
                    assert times and len(set(times)) == len(times), (args, p, times)

    def test_exp_calls_per_time(self):
        # A scalar pdf or ccdf, and each of quantile's kernel calls, calls exp
        # once per exponential that does not vanish: at most twice, at most
        # once on the series branch, and never at or below _EXP_ZERO.
        args: list[float] = []
        per_time: list[tuple[float, int]] = []
        kernel = distribution._detour_at

        def spy(arg, *rest, **kwargs):
            args.append(arg)
            return np.exp(arg, *rest, **kwargs)

        def counted(d, t):
            before = len(args)
            at = kernel(d, t)
            per_time.append((t, len(args) - before))
            return at

        def expected(d, t):
            series = abs((d.a_controller - d.a_switch) * t) < distribution._PHI_SERIES_CUTOFF
            return ((-d.a_switch * t > distribution._EXP_ZERO)
                    + (not series and -d.a_controller * t > distribution._EXP_ZERO))

        with mock.patch.object(distribution, "_exp", spy), \
                mock.patch.object(distribution, "_detour_at", counted):
            for law in PIN_LAWS:
                _, _, d = make_dist(*law)
                ts = np.concatenate([[0.0], np.geomspace(1e-9, 1e4, 80)]) * _scale(d)
                for t, f in itertools.product(ts.tolist(), (pdf, ccdf)):
                    args.clear()
                    f(d, t)
                    assert len(args) == expected(d, t) <= 2, (law, t, f.__name__)
                    assert all(arg > distribution._EXP_ZERO for arg in args)
                for p in PIN_LEVELS:
                    per_time.clear()
                    args.clear()
                    quantile(d, p)
                    assert per_time and all(n == expected(d, t) for t, n in per_time), (law, p)
                    assert len(args) == sum(n for _, n in per_time)
                    assert all(arg > distribution._EXP_ZERO for arg in args)

    def test_exp_never_sees_an_argument_that_underflows(self):
        # numpy's exp is slow where its result is 0; every such argument is
        # answered without it
        _, _, d = make_dist(100.0, 1e6, 0.5, 1e3)
        ts = np.linspace(0.0, 20.0 * d.mean(), 100_000)
        assert np.mean(-d.a_switch * ts <= distribution._EXP_ZERO) > 0.9
        lowest: list[float] = []

        def spy(arg, *args, **kwargs):
            lowest.append(float(np.min(arg, initial=np.inf)))
            return np.exp(arg, *args, **kwargs)

        with mock.patch.object(distribution, "_exp", spy):
            tail = ccdf(d, ts)
            scalar = ccdf(d, float(ts[-1]))
        assert lowest and min(lowest) > distribution._EXP_ZERO
        assert _bits(tail) == _bits(ccdf(d, ts)) and _bits(scalar) == _bits(tail[-1])


def _exact_law(d: SojournDistribution, t: float) -> tuple[Decimal, Decimal]:
    """pdf and ccdf at t by the hypoexponential closed form, in decimal:

        pdf  = (1-q) a e^(-a t) + q c D
        ccdf = (1-q) e^(-a t) + q [e^(-a t) (1 + a t) + D]

    with a = a_l, c = a_c and D = a^2 (e^(-c t) - e^(-a t) (1 - (c-a) t)) / (c-a)^2.
    D's parts cancel to about x^2/2 of e^(-a t), x = (c-a) t, so 45 digits
    are kept beyond those.  Equal rates take the Erlang-3 limit
    D = e^(-a t) (a t)^2 / 2.
    """
    x = abs((d.a_controller - d.a_switch) * t)
    with localcontext() as ctx:
        ctx.prec = 45 + (int(-2.0 * math.log10(x)) if 0.0 < x < 1.0 else 0)
        a, c, q, t = (Decimal(v) for v in (d.a_switch, d.a_controller, d.q_nf, t))
        e_a = (-a * t).exp()
        if c == a:
            detour = e_a * (a * t) ** 2 / 2
        else:
            detour = a * a * ((-c * t).exp() - e_a * (1 - (c - a) * t)) / (c - a) ** 2
        return ((1 - q) * a * e_a + q * c * detour,
                (1 - q) * e_a + q * (e_a * (1 + a * t) + detour))


def _oracle_laws() -> list[SojournDistribution]:
    """PIN_LAWS, effective rates 1.5% apart at q_nf = 1, and 40 seeded laws:
    q_nf at 0, 1 or uniform, a controller from 10^3 times slower to 10^3
    times faster than the switch, or the two effective rates 1e-9 to 1e-6
    apart."""
    laws = [make_dist(*args)[2] for args in PIN_LAWS + [(1000.0, 1e5, 1.0, 97530.0)]]
    rng = np.random.default_rng(31)
    for i in range(40):
        q = float(rng.choice([0.0, 1.0, float(rng.uniform())]))
        mu_l = float(10.0 ** rng.uniform(3.0, 6.0))
        load = float(rng.uniform(0.05, 0.95))
        if i % 5 == 4:
            lam = load * mu_l / (1.0 + q)
            gap = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9.0, -6.0))
            mu_c = (mu_l - (1.0 + q) * lam) * (1.0 + gap) + q * lam
        else:
            mu_c = mu_l * float(10.0 ** rng.uniform(-3.0, 3.0))
            lam = load * min(mu_l / (1.0 + q), mu_c / q if q else math.inf)
        laws.append(make_dist(lam, mu_l, q, mu_c)[2])
    return laws


class TestAccuracyOracle:
    """pdf, ccdf and quantile against the closed form in decimal.

    Where ccdf >= 0.5 it is within 8 ulps (4.7 the worst seen, over 1,248
    laws).  Elsewhere, pdf and ccdf alike, the error is that of e^(-a t) at a
    rounded a t: a relative (1 + a t) 2^-53 or so, with a the larger rate,
    and up to ~11 times that just past the series cutoff, where the closed
    form's e^-x - 1 + x cancels (e^0.5 / (e^0.5 - 1.5)).  The worst seen was
    13.6 (1 + a t) 2^-53, at effective rates 1.5% apart.  It holds above
    ccdf = 1e-12 too: there, at a t = 34, ccdf was 294 ulps off.
    """

    TIMES = np.concatenate([np.linspace(0.0, 60.0, 25), np.geomspace(1e-9, 600.0, 25)])
    HEAD_ULPS = 8  # ccdf >= 0.5
    K = 32.0  # elsewhere: relative error <= K (1 + a t) 2^-53
    QUANTILE_K = 8.0  # see test_quantile; 4.2 the worst seen

    def test_pdf_and_ccdf(self):
        for d in _oracle_laws():
            a_max = max(d.a_switch, d.a_controller)
            for t in (self.TIMES * _scale(d)).tolist():
                bound = self.K * (1.0 + a_max * t) * 2.0 ** -53
                want_pdf, want_ccdf = _exact_law(d, t)
                got_pdf, got_ccdf = float(pdf(d, t)), float(ccdf(d, t))
                if want_ccdf >= Decimal(0.5):
                    ulp = Decimal(math.ulp(float(want_ccdf)))
                    assert abs(Decimal(got_ccdf) - want_ccdf) <= self.HEAD_ULPS * ulp, (d, t)
                elif want_ccdf >= Decimal(1e-290):  # normal floats
                    assert abs(Decimal(got_ccdf) - want_ccdf) <= Decimal(bound) * want_ccdf, (d, t)
                if want_pdf >= Decimal(1e-290):
                    assert abs(Decimal(got_pdf) - want_pdf) <= Decimal(bound) * want_pdf, (d, t)

    def test_quantile(self):
        # The exact tail at the returned time is within QUANTILE_K ulps of
        # 1 - p, plus the tail's change over one ulp of that time: no float t
        # can do better than the latter.
        for d in _oracle_laws():
            for p in PIN_LEVELS:
                t = quantile(d, p)
                density, tail = _exact_law(d, t)
                target = 1 - Decimal(p)
                slack = Decimal(math.ulp(float(target))) + density * Decimal(math.ulp(t))
                assert abs(tail - target) <= Decimal(self.QUANTILE_K) * slack, (d, p, t)


class TestVectorMemory:
    """An array is evaluated in fixed blocks: the peak growth of one 1e6-point
    ccdf is its 8 MB output plus the blocks' small temporaries.  Evaluated in
    one piece, its temporaries took ~55 MB."""

    SCRIPT = textwrap.dedent("""
        import resource
        import numpy as np
        from sdnqueue.analytic import ControllerParams, NodeParams, rate_from_us, solve_rates
        from sdnqueue.distribution import build_distribution, ccdf

        def peak_mb():
            try:
                with open("/proc/self/status") as fh:
                    return next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:")) / 1024
            except OSError:  # no procfs: ru_maxrss is in bytes on macOS
                return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 2 ** 20

        node, ctrl = NodeParams(2000.0, rate_from_us(9.8), 0.5), ControllerParams(rate_from_us(240.0))
        dist = build_distribution(node, ctrl, solve_rates(node, ctrl))
        ts = np.linspace(0.0, 0.01, 1_000_000)
        ccdf(dist, ts[:1000])
        base = peak_mb()
        ccdf(dist, ts)
        print(peak_mb() - base)
    """)

    BOUND_MB = 16.0  # twice the output

    def test_peak_growth_of_a_large_ccdf(self):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) <= self.BOUND_MB
