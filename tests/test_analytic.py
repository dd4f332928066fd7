"""Balance equations, corrected feedback probability, mean sojourn times."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdnqueue.analytic import (
    STABILITY_MARGIN,
    ChainModel,
    ChainSolution,
    ControllerParams,
    NodeParams,
    SolvedRates,
    UnstableSystemError,
    chain_sojourn,
    derive_q_jack,
    mean_sojourn_jackson,
    mean_sojourn_naive_jackson,
    mean_sojourn_openflow,
    rate_from_us,
    solve_chain,
    solve_rates,
)
from sdnqueue.dimensioning import max_throughput, stability_supremum, zero_load_sojourn
from sdnqueue.distribution import build_distribution, ccdf, pdf, quantile

MU_L = rate_from_us(9.8)
MU_C = rate_from_us(240.0)
CTRL = ControllerParams(MU_C)


def stable_tuple(rng):
    q = float(rng.uniform(0.0, 1.0))
    mu_l = float(10.0 ** rng.uniform(2.0, 6.0))
    mu_c = float(10.0 ** rng.uniform(2.0, 6.0))
    sup = mu_l / (1.0 + q)
    if q > 0.0:
        sup = min(sup, mu_c / q)
    lam = float(rng.uniform(0.02, 0.98)) * sup
    return NodeParams(lam, mu_l, q), ControllerParams(mu_c)


class TestDeriveQJack:
    def test_endpoints_exact(self):
        assert derive_q_jack(0.0) == 0.0
        assert derive_q_jack(1.0) == 0.5

    def test_hand_value(self):
        # 0.2 / (1 + 0.2) = 1/6
        assert derive_q_jack(0.2) == pytest.approx(1.0 / 6.0, rel=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            derive_q_jack(-0.01)
        with pytest.raises(ValueError):
            derive_q_jack(1.01)

    def test_monotone_with_bounded_range(self):
        qs = np.linspace(0.0, 1.0, 101)
        vals = [derive_q_jack(float(q)) for q in qs]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[0] == 0.0 and vals[-1] == 0.5


class TestSolveRates:
    def test_overload_point(self):
        # lam=10000/s with half the packets new flows: the switch sees the
        # externals plus the returns, the controller only the new flows.
        rates = solve_rates(NodeParams(10000.0, MU_L, 0.5), CTRL)
        assert rates.gamma_switch == 15000.0
        assert rates.gamma_controller == 5000.0
        assert rates.rho_controller == pytest.approx(1.2, rel=1e-12)
        assert not rates.stable
        assert rates.saturated_stations() == ("controller",)

    def test_nan_load_names_its_station(self):
        # infinite rates make the loads inf/inf = NaN: not stable, and every
        # NaN station is named, so the verdict and the error agree
        inf = math.inf
        rates = solve_rates(NodeParams(inf, inf, 0.5), ControllerParams(inf))
        assert math.isnan(rates.rho_switch) and math.isnan(rates.rho_controller)
        assert not rates.stable
        assert rates.saturated_stations() == ("switch", "controller")
        sol = solve_chain(ChainModel(nodes=(NodeParams(inf, inf, 0.5),),
                                     controller=ControllerParams(inf)))
        assert not sol.stable
        assert sol.saturated_stations() == ("switch[0]", "controller")
        with pytest.raises(UnstableSystemError, match="switch, controller"):
            mean_sojourn_openflow(NodeParams(inf, inf, 0.5), ControllerParams(inf), rates)

    def test_no_new_flows(self):
        rates = solve_rates(NodeParams(1000.0, MU_L, 0.0), CTRL)
        assert rates.gamma_switch == 1000.0
        assert rates.gamma_controller == 0.0
        assert rates.q_jack == 0.0
        assert rates.stable

    def test_benchmarked_controller_rate(self):
        # 4175 responses/s controller, every packet a new flow
        rates = solve_rates(NodeParams(2000.0, MU_L, 1.0), ControllerParams(4175.0))
        assert rates.gamma_controller == 2000.0
        assert rates.rho_controller == pytest.approx(2000.0 / 4175.0, rel=1e-12)
        assert rates.rho_controller == pytest.approx(0.479, abs=5e-4)

    def test_rate_conservation_property(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            node, ctrl = stable_tuple(rng)
            rates = solve_rates(node, ctrl)
            assert rates.gamma_switch - node.lam == pytest.approx(
                rates.gamma_controller, rel=1e-12, abs=1e-30)
            assert rates.gamma_controller == node.q_nf * node.lam
            assert rates.q_jack * rates.gamma_switch == pytest.approx(
                node.q_nf * node.lam, rel=1e-12, abs=1e-30)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            NodeParams(0.0, MU_L, 0.5)
        with pytest.raises(ValueError):
            NodeParams(1000.0, -1.0, 0.5)
        with pytest.raises(ValueError):
            NodeParams(1000.0, MU_L, 1.5)
        with pytest.raises(ValueError):
            ControllerParams(0.0)

    @pytest.mark.parametrize("make, name", [
        (lambda rate: NodeParams(rate, MU_L, 0.5), "lam"),
        (lambda rate: NodeParams(1000.0, rate, 0.5), "mu_switch"),
        (lambda rate: ControllerParams(rate), "mu_controller"),
    ])
    def test_rate_without_finite_mean_time_rejected(self, make, name):
        # 1/1e-310 overflows, so every simulated time would be inf
        with pytest.raises(ValueError, match=f"^{name} must have a finite mean time"):
            make(1e-310)
        make(5.6e-309)  # 1/rate = 1.79e308, still finite
        make(math.inf)  # mean time 0


class TestMeanSojourn:
    def test_equivalence_property(self):
        # the queue-length form and the per-visit path form agree everywhere
        rng = np.random.default_rng(202)
        for _ in range(1000):
            node, ctrl = stable_tuple(rng)
            rates = solve_rates(node, ctrl)
            w_net = mean_sojourn_jackson(rates, node)
            w_path = mean_sojourn_openflow(node, ctrl, rates)
            assert abs(w_net - w_path) <= 1e-12 * w_path

    def test_mm1_reduction(self):
        node = NodeParams(0.5 * MU_L, MU_L, 0.0)
        rates = solve_rates(node, CTRL)
        want = 1.0 / (MU_L - node.lam)
        assert mean_sojourn_jackson(rates, node) == pytest.approx(want, rel=1e-12)
        assert mean_sojourn_openflow(node, CTRL, rates) == pytest.approx(want, rel=1e-12)

    def test_frozen_path_value(self):
        # (1.2)/(mu_l - 18000) + 0.2/(mu_c - 3000) evaluated independently
        node = NodeParams(15000.0, MU_L, 0.2)
        rates = solve_rates(node, CTRL)
        assert mean_sojourn_openflow(node, CTRL, rates) == pytest.approx(
            0.0001857073475334767, rel=1e-12)

    def test_every_new_flow_point_is_finite_and_consistent(self):
        node = NodeParams(2000.0, MU_L, 1.0)
        rates = solve_rates(node, ControllerParams(4175.0))
        w = mean_sojourn_openflow(node, ControllerParams(4175.0), rates)
        assert math.isfinite(w) and w > 0.0
        assert w == pytest.approx(mean_sojourn_jackson(rates, node), rel=1e-12)

    def test_controller_overload_raises_naming_station(self):
        node = NodeParams(20000.0, MU_L, 1.0)
        rates = solve_rates(node, ControllerParams(4175.0))
        with pytest.raises(UnstableSystemError) as exc:
            mean_sojourn_jackson(rates, node)
        assert "controller" in str(exc.value)

    def test_switch_overload_raises_naming_station(self):
        node = NodeParams(0.9 * MU_L, MU_L, 1.0)
        rates = solve_rates(node, ControllerParams(1e9))
        with pytest.raises(UnstableSystemError) as exc:
            mean_sojourn_openflow(node, ControllerParams(1e9), rates)
        assert "switch" in str(exc.value)

    def test_divergence_toward_saturation(self):
        # the mean grows monotonically and without bound as the controller
        # load approaches 1
        vals = []
        for rho_c in (0.9, 0.99, 0.999, 0.9999):
            lam = rho_c * MU_C
            node = NodeParams(lam, MU_L, 1.0)
            vals.append(mean_sojourn_openflow(node, CTRL, solve_rates(node, CTRL)))
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 100.0 * vals[0]


class TestNaiveModel:
    def test_coincides_at_zero(self):
        node = NodeParams(3000.0, MU_L, 0.0)
        rates = solve_rates(node, CTRL)
        assert mean_sojourn_naive_jackson(node, CTRL) == pytest.approx(
            mean_sojourn_jackson(rates, node), rel=1e-12)

    def test_frozen_comparison_point(self):
        node = NodeParams(2000.0, MU_L, 0.5)
        naive = mean_sojourn_naive_jackson(node, CTRL)
        corrected = mean_sojourn_openflow(node, CTRL, solve_rates(node, CTRL))
        assert naive == pytest.approx(0.00048193812848267465, rel=1e-12)
        assert corrected == pytest.approx(0.00017304000780851779, rel=1e-12)
        assert naive > corrected

    def test_undefined_at_q_one(self):
        with pytest.raises(ValueError):
            mean_sojourn_naive_jackson(NodeParams(100.0, MU_L, 1.0), CTRL)

    def test_unstable_under_inflated_rates(self):
        # q=0.5 doubles the naive switch rate, so lam near mu_c saturates it
        node = NodeParams(0.8 * MU_C / 0.5, MU_L, 0.5)
        with pytest.raises(UnstableSystemError):
            mean_sojourn_naive_jackson(node, CTRL)

    def test_ordering_property(self):
        # the uncorrected model inflates both station rates, so whenever both
        # models are stable its mean dominates
        rng = np.random.default_rng(303)
        checked = 0
        while checked < 500:
            q = float(rng.uniform(0.01, 0.95))
            mu_l = float(10.0 ** rng.uniform(2.0, 6.0))
            mu_c = float(10.0 ** rng.uniform(2.0, 6.0))
            sup_naive = (1.0 - q) * min(mu_l, mu_c / q)
            lam = float(rng.uniform(0.05, 0.95)) * sup_naive
            node = NodeParams(lam, mu_l, q)
            ctrl = ControllerParams(mu_c)
            rates = solve_rates(node, ctrl)
            if not rates.stable:
                continue
            naive = mean_sojourn_naive_jackson(node, ctrl)
            assert naive >= mean_sojourn_openflow(node, ctrl, rates)
            checked += 1


class TestChain:
    def test_single_node_reduction_field_for_field(self):
        node = NodeParams(2500.0, MU_L, 0.4)
        chain = ChainModel(nodes=(node,), controller=CTRL)
        sol = solve_chain(chain)
        rates = solve_rates(node, CTRL)
        assert sol.nodes[0] == rates
        assert sol.gamma_controller == rates.gamma_controller
        assert sol.rho_controller == rates.rho_controller

    def test_symmetric_two_node_feedback(self):
        # equal rates and q on both nodes: node-2 correction is q/(2+q)
        lam, q = 3000.0, 0.5
        chain = ChainModel(nodes=(NodeParams(lam, MU_L, q), NodeParams(lam, MU_L, q)),
                           controller=CTRL)
        sol = solve_chain(chain)
        assert sol.nodes[1].q_jack == pytest.approx(q / (2.0 + q), rel=1e-12)
        assert sol.nodes[1].q_jack == pytest.approx(0.2, rel=1e-12)
        assert sol.nodes[1].gamma_switch == pytest.approx(lam + lam * (1.0 + q), rel=1e-12)

    def test_downstream_feedback_balance_property(self):
        rng = np.random.default_rng(404)
        for _ in range(500):
            l1, l2 = (float(10.0 ** rng.uniform(1.0, 5.0)) for _ in range(2))
            q1, q2 = (float(rng.uniform(0.0, 1.0)) for _ in range(2))
            chain = ChainModel(
                nodes=(NodeParams(l1, MU_L, q1), NodeParams(l2, MU_L, q2)),
                controller=CTRL)
            sol = solve_chain(chain)
            want = q2 * l2
            got = sol.nodes[1].q_jack * sol.nodes[1].gamma_switch
            assert got == pytest.approx(want, rel=1e-12, abs=1e-30)

    def test_pass_through_node(self):
        chain = ChainModel(nodes=(NodeParams(1000.0, MU_L, 0.3),
                                  NodeParams(500.0, MU_L, 0.0)),
                           controller=CTRL)
        sol = solve_chain(chain)
        assert sol.nodes[1].q_jack == 0.0
        assert sol.nodes[1].gamma_switch == 1500.0
        assert sol.gamma_controller == 300.0

    def test_chain_sojourn_single_node_matches(self):
        node = NodeParams(2500.0, MU_L, 0.4)
        chain = ChainModel(nodes=(node,), controller=CTRL)
        sol = solve_chain(chain)
        want = mean_sojourn_openflow(node, CTRL, solve_rates(node, CTRL))
        got = chain_sojourn(chain, sol)
        assert got.per_class == (pytest.approx(want, rel=1e-12),)
        assert got.aggregate == pytest.approx(want, rel=1e-12)

    def test_tandem_without_controller_traffic(self):
        chain = ChainModel(nodes=(NodeParams(3000.0, 10000.0, 0.0),
                                  NodeParams(2000.0, 9000.0, 0.0)),
                           controller=CTRL)
        got = chain_sojourn(chain, solve_chain(chain))
        assert got.per_class[0] == pytest.approx(0.0003928571428571429, rel=1e-12)
        assert got.per_class[1] == pytest.approx(1.0 / (9000.0 - 5000.0), rel=1e-12)

    def test_aggregate_is_arrival_weighted(self):
        chain = ChainModel(nodes=(NodeParams(2000.0, MU_L, 0.2),
                                  NodeParams(1000.0, MU_L, 1.0)),
                           controller=CTRL)
        got = chain_sojourn(chain, solve_chain(chain))
        want = (2000.0 * got.per_class[0] + 1000.0 * got.per_class[1]) / 3000.0
        assert got.aggregate == pytest.approx(want, rel=1e-15)

    def test_unstable_station_named_with_index(self):
        chain = ChainModel(nodes=(NodeParams(3000.0, MU_L, 0.2),
                                  NodeParams(3000.0, 5000.0, 0.2)),
                           controller=CTRL)
        sol = solve_chain(chain)
        with pytest.raises(UnstableSystemError) as exc:
            chain_sojourn(chain, sol)
        assert "switch[1]" in str(exc.value)

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            ChainModel(nodes=(), controller=CTRL)


def test_rate_from_us():
    assert rate_from_us(240.0) == pytest.approx(1e6 / 240.0, rel=1e-15)
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            rate_from_us(bad)


# Loads on both sides of the stability gate at 1 - STABILITY_MARGIN.  A load
# counts as saturated unless it is below the gate; NaN never is.
_GATE = 1.0 - STABILITY_MARGIN
_LOADS = [math.nan, math.inf, _GATE, math.nextafter(_GATE, 0.0), 0.0]


def _saturated_load(load: float) -> bool:
    return math.isnan(load) or load in (math.inf, _GATE)


class TestStabilityGate:
    @pytest.mark.parametrize("rho_c", _LOADS)
    @pytest.mark.parametrize("rho_l", _LOADS)
    def test_single_node(self, rho_l, rho_c):
        rates = SolvedRates(2000.0, 1000.0, 1.0 / 3.0, rho_l, rho_c)
        want = (("switch",) if _saturated_load(rho_l) else ()) + \
            (("controller",) if _saturated_load(rho_c) else ())
        assert rates.saturated_stations() == want
        assert rates.stable is (not want)
        node = NodeParams(2000.0, MU_L, 0.5)
        calls = (lambda: mean_sojourn_openflow(node, CTRL, rates),
                 lambda: mean_sojourn_jackson(rates, node),
                 lambda: build_distribution(node, CTRL, rates))
        for call in calls:
            if want:
                with pytest.raises(UnstableSystemError) as exc:
                    call()
                assert exc.value.stations == want
            else:
                call()

    @pytest.mark.parametrize("rho_c", _LOADS)
    @pytest.mark.parametrize("rho_l", _LOADS)
    def test_chain(self, rho_l, rho_c):
        head = SolvedRates(2000.0, 1000.0, 1.0 / 3.0, 0.5, rho_c)
        tail = SolvedRates(4000.0, 1000.0, 0.25, rho_l, rho_c)
        solution = ChainSolution(nodes=(head, tail), gamma_controller=2000.0,
                                 rho_controller=rho_c)
        want = (("switch[1]",) if _saturated_load(rho_l) else ()) + \
            (("controller",) if _saturated_load(rho_c) else ())
        assert solution.saturated_stations() == want
        assert solution.stable is (not want)
        chain = ChainModel(nodes=(NodeParams(2000.0, MU_L, 0.5), NodeParams(2000.0, MU_L, 0.5)),
                           controller=CTRL)
        if want:
            with pytest.raises(UnstableSystemError) as exc:
                chain_sojourn(chain, solution)
            assert exc.value.stations == want
        else:
            chain_sojourn(chain, solution)


class TestOneNodeChainProperties:
    @settings(max_examples=300)
    @given(q=st.floats(0.0, 1.0), mu_l=st.floats(2.0, 7.0).map(lambda e: 10.0 ** e),
           mu_c=st.floats(2.0, 7.0).map(lambda e: 10.0 ** e), load=st.floats(0.01, 1.2))
    def test_one_node_chain_is_the_single_node(self, q, mu_l, mu_c, load):
        # load is the busier station's, up to saturated
        lam = load * min(mu_l / (1.0 + q), mu_c / q if q else math.inf)
        node, ctrl = NodeParams(lam, mu_l, q), ControllerParams(mu_c)
        chain = ChainModel(nodes=(node,), controller=ctrl)
        sol = solve_chain(chain)
        rates = solve_rates(node, ctrl)
        assert sol.nodes == (rates,)
        assert sol.gamma_controller == rates.gamma_controller
        assert sol.rho_controller == rates.rho_controller
        if not rates.stable:
            with pytest.raises(UnstableSystemError):
                chain_sojourn(chain, sol)
            return
        # the chain form makes the single-node form's float operations
        want = mean_sojourn_openflow(node, ctrl, rates)
        got = chain_sojourn(chain, sol)
        assert got.per_class == (want,) and got.aggregate == want


def _hex(*values: float) -> list[str]:
    # float.hex, so equality is of bits: -0.0 and 0.0 differ
    return [float(v).hex() for v in values]


def _rates_times(node: NodeParams, k: int) -> NodeParams:
    return NodeParams(math.ldexp(node.lam, k), math.ldexp(node.mu_switch, k), node.q_nf)


# new-flow shares: 0, or large enough that q_nf times a rate, or a rate
# squared, stays a normal float at every k below (q_nf = 1e-311, itself
# subnormal, makes subnormal station rates, which a power of two rounds)
_SHARES = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))


@st.composite
def _scaled_chains(draw):
    """A 1-3 node chain at rates from idle to saturated, and a power of two
    k, |k| <= 300, that keeps every intermediate value a normal float: the
    law's coefficients form squares of rates, which |k| <= 500 would not."""
    n = draw(st.integers(1, 3))
    mu_l = draw(st.floats(3.0, 7.0).map(lambda e: 10.0 ** e))
    nodes = tuple(NodeParams(draw(st.floats(0.01, 1.2)) * mu_l / (2 * n), mu_l,
                             draw(_SHARES))
                  for _ in range(n))
    ctrl = ControllerParams(draw(st.floats(2.0, 6.0).map(lambda e: 10.0 ** e)))
    return ChainModel(nodes=nodes, controller=ctrl), draw(st.integers(-300, 300))


@st.composite
def _scaled_laws(draw):
    """A stable single node, its sojourn law, and a power of two k as above."""
    q = draw(_SHARES)
    mu_l = draw(st.floats(3.0, 7.0).map(lambda e: 10.0 ** e))
    mu_c = draw(st.floats(2.0, 6.0).map(lambda e: 10.0 ** e))
    lam = draw(st.floats(0.01, 0.99)) * stability_supremum(q, mu_l, mu_c)
    return NodeParams(lam, mu_l, q), ControllerParams(mu_c), draw(st.integers(-300, 300))


class TestPowerOfTwoScaling:
    """Multiplying every rate by 2**k multiplies every time by exactly 2**-k
    and leaves every load, probability and ccdf value as it is, bit for bit,
    while all values stay normal floats: each closed form is built from
    products, quotients, sums of like terms and exp of a rate times a time,
    and each commutes with the scaling."""

    @settings(max_examples=200)
    @given(case=_scaled_chains())
    def test_balance_and_mean_sojourns(self, case):
        chain, k = case
        scaled = ChainModel(tuple(_rates_times(nd, k) for nd in chain.nodes),
                            ControllerParams(math.ldexp(chain.controller.mu_controller, k)))
        sol, sol_k = solve_chain(chain), solve_chain(scaled)
        assert _hex(sol_k.gamma_controller, sol_k.rho_controller) == _hex(
            math.ldexp(sol.gamma_controller, k), sol.rho_controller)
        for r, r_k in zip(sol.nodes, sol_k.nodes, strict=True):
            assert _hex(r_k.gamma_switch, r_k.gamma_controller, r_k.q_jack, r_k.rho_switch,
                        r_k.rho_controller) == _hex(
                math.ldexp(r.gamma_switch, k), math.ldexp(r.gamma_controller, k), r.q_jack,
                r.rho_switch, r.rho_controller)
        node, node_k = chain.nodes[0], scaled.nodes[0]
        rates = solve_rates(node, chain.controller)
        rates_k = solve_rates(node_k, scaled.controller)
        assert _hex(rates_k.gamma_switch, rates_k.gamma_controller, rates_k.q_jack,
                    rates_k.rho_switch, rates_k.rho_controller) == _hex(
            math.ldexp(rates.gamma_switch, k), math.ldexp(rates.gamma_controller, k),
            rates.q_jack, rates.rho_switch, rates.rho_controller)
        if not sol.stable:
            assert not sol_k.stable
            with pytest.raises(UnstableSystemError):
                chain_sojourn(scaled, sol_k)
        else:
            want, got = chain_sojourn(chain, sol), chain_sojourn(scaled, sol_k)
            assert _hex(*got.per_class, got.aggregate) == _hex(
                *(math.ldexp(w, -k) for w in want.per_class), math.ldexp(want.aggregate, -k))
        if rates.stable:
            for mean in (lambda nd, c, r: mean_sojourn_openflow(nd, c, r),
                         lambda nd, c, r: mean_sojourn_jackson(r, nd)):
                assert _hex(mean(node_k, scaled.controller, rates_k)) == _hex(
                    math.ldexp(mean(node, chain.controller, rates), -k))

    @settings(max_examples=200)
    @given(case=_scaled_laws(), xs=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=8),
           p=st.floats(0.0, 0.9999))
    def test_law(self, case, xs, p):
        node, ctrl, k = case
        node_k, ctrl_k = _rates_times(node, k), ControllerParams(math.ldexp(ctrl.mu_controller, k))
        d = build_distribution(node, ctrl, solve_rates(node, ctrl))
        d_k = build_distribution(node_k, ctrl_k, solve_rates(node_k, ctrl_k))
        assert _hex(d_k.a_switch, d_k.a_controller, d_k.b1, d_k.b2, d_k.d) == _hex(
            math.ldexp(d.a_switch, k), math.ldexp(d.a_controller, k), d.b1, d.b2, d.d)
        assert d_k.degenerate == d.degenerate
        # times of up to 40 mean switch sojourns, where e^(-a_l t) stays normal
        t = np.array(xs) / d.a_switch
        t_k = np.ldexp(t, -k)
        assert _hex(*(pdf(d_k, s) for s in t_k)) == _hex(*(math.ldexp(pdf(d, s), k) for s in t))
        assert _hex(*(ccdf(d_k, s) for s in t_k)) == _hex(*(ccdf(d, s) for s in t))
        assert pdf(d_k, t_k).tobytes() == np.ldexp(pdf(d, t), k).tobytes()
        assert ccdf(d_k, t_k).tobytes() == ccdf(d, t).tobytes()
        assert _hex(quantile(d_k, p)) == _hex(math.ldexp(quantile(d, p), -k))

    @settings(max_examples=200)
    @given(case=_scaled_laws(), factor=st.floats(0.5, 1e4))
    def test_max_throughput(self, case, factor):
        # bounds from below the zero-load sojourn (infeasible) to far above it
        node, ctrl, k = case
        q, mu_l, mu_c = node.q_nf, node.mu_switch, ctrl.mu_controller
        bound = factor * zero_load_sojourn(q, mu_l, mu_c)
        want = max_throughput(bound, q_nf=q, mu_switch=mu_l, mu_controller=mu_c)
        got = max_throughput(math.ldexp(bound, -k), q_nf=q, mu_switch=math.ldexp(mu_l, k),
                             mu_controller=math.ldexp(mu_c, k))
        assert _hex(got.rate) == _hex(math.ldexp(want.rate, k))
        assert (got.feasible, got.note) == (want.feasible, want.note)
