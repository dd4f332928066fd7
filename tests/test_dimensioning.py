"""Throughput inversion and one-variable sweeps."""

import copy
import hashlib
import math
import pickle
import random
import re
import time
from dataclasses import FrozenInstanceError, asdict, replace
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdnqueue.analytic import _SAFE_RATE, ControllerParams, NodeParams, \
    mean_sojourn_openflow, rate_from_us, solve_rates
from sdnqueue.dimensioning import (
    _SUP_MARGIN,
    SweepSpec,
    ThroughputResult,
    default_delay_bound_grid,
    max_throughput,
    stability_supremum,
    sweep,
    zero_load_sojourn,
)
from sdnqueue.simulate import SimConfig

MU_L = rate_from_us(9.8)
MU_C = rate_from_us(240.0)
CTRL = ControllerParams(MU_C)


def model_mean(lam, q):
    node = NodeParams(lam, MU_L, q)
    return mean_sojourn_openflow(node, CTRL, solve_rates(node, CTRL))


class TestMaxThroughput:
    def test_mm1_inversion(self):
        # doubling the empty-system delay of a plain queue halves the capacity:
        # 1/(mu - lam) = 2/mu  =>  lam = mu/2
        res = max_throughput(2.0 / MU_L, q_nf=0.0, mu_switch=MU_L, mu_controller=MU_C)
        assert res.feasible
        assert res.rate == pytest.approx(MU_L / 2.0, rel=1e-5)

    def test_saturation_limit(self):
        for q in (0.2, 0.5, 1.0):
            sup = stability_supremum(q, MU_L, MU_C)
            for bound in (1e3 * zero_load_sojourn(q, MU_L, MU_C), math.inf):
                res = max_throughput(bound, q_nf=q, mu_switch=MU_L, mu_controller=MU_C)
                assert res.feasible
                assert (sup - res.rate) / sup <= 1e-3

    def test_overflowing_bound_is_the_saturation_plateau(self):
        # B w0 overflows at these bounds; the root must not collapse to 0
        plateau = max_throughput(math.inf, q_nf=0.5, mu_switch=1e-3, mu_controller=1e-3)
        assert plateau.rate == pytest.approx(stability_supremum(0.5, 1e-3, 1e-3), rel=1e-7)
        for bound in (1e307, 1.7e308):
            res = max_throughput(bound, q_nf=0.5, mu_switch=1e-3, mu_controller=1e-3)
            assert res.feasible
            assert res.rate == plateau.rate

    def test_controller_is_bottleneck_at_full_detour(self):
        sup = stability_supremum(1.0, MU_L, MU_C)
        assert sup == pytest.approx(MU_C, rel=1e-12)  # min(mu_l/2, mu_c)
        assert sup == pytest.approx(4166.6667, rel=1e-4)

    def test_infeasible_bound_flagged_not_raised(self):
        res = max_throughput(0.5 * zero_load_sojourn(0.5, MU_L, MU_C),
                             q_nf=0.5, mu_switch=MU_L, mu_controller=MU_C)
        assert res.rate == 0.0
        assert not res.feasible
        assert "infeasible" in res.note

    def test_round_trip_bound(self):
        for q, bound in ((0.2, 1e-4), (0.5, 3e-4), (1.0, 1e-3)):
            res = max_throughput(bound, q_nf=q, mu_switch=MU_L, mu_controller=MU_C)
            assert model_mean(res.rate, q) <= bound
            probe = res.rate * (1.0 + 1e-4)
            if probe < stability_supremum(q, MU_L, MU_C):
                assert model_mean(probe, q) > bound

    def test_monotone_and_bounded(self):
        for q in (0.2, 1.0):
            sup = stability_supremum(q, MU_L, MU_C)
            grid = default_delay_bound_grid(q, MU_L, MU_C, points=30)
            rates = [max_throughput(b, q_nf=q, mu_switch=MU_L,
                                    mu_controller=MU_C).rate for b in grid]
            assert all(b >= a for a, b in zip(rates, rates[1:]))
            assert all(r <= sup for r in rates)

    def test_one_point_grid_is_its_start(self):
        w0 = zero_load_sojourn(0.5, MU_L, MU_C)
        assert default_delay_bound_grid(0.5, MU_L, MU_C, points=1) == (1.05 * w0,)

    def test_bad_bound_rejected(self):
        with pytest.raises(ValueError):
            max_throughput(0.0, q_nf=0.5, mu_switch=MU_L, mu_controller=MU_C)

    @pytest.mark.parametrize("q, mu_c", [(0.0, 1.0), (0.5, math.inf)])
    def test_zero_load_sojourn_0_admits_every_rate(self, q, mu_c):
        # an infinite switch rate and no controller time: W = 0 at any rate,
        # so every bound is met by every rate (this raised ZeroDivisionError)
        assert zero_load_sojourn(q, math.inf, mu_c) == 0.0
        for bound in (1e-300, 1.0, math.inf):
            res = max_throughput(bound, q_nf=q, mu_switch=math.inf, mu_controller=mu_c)
            assert (res.rate, res.feasible) == (math.inf, True)

    @pytest.mark.parametrize("q, mu_l", [(math.nan, MU_L), (0.5, -1.0), (0.5, math.nan),
                                         (0.5, 0.0), (0.5, 1e-310)])
    def test_bad_node_parameters_rejected_as_node_params_does(self, q, mu_l):
        # checked up front, whatever the bound: these once returned a NaN or
        # negative rate, raised ZeroDivisionError or reported infeasibility
        with pytest.raises(ValueError) as want:
            NodeParams(1.0, mu_l, q)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            max_throughput(1e-3, q_nf=q, mu_switch=mu_l, mu_controller=MU_C)

    @pytest.mark.parametrize("mu_c, q, mu_l", [(math.nan, 0.5, MU_L), (-1.0, 0.5, MU_L),
                                               (0.0, 0.5, MU_L), (1e-310, 0.5, MU_L),
                                               (math.nan, math.nan, -1.0)])
    def test_bad_controller_rate_rejected_as_controller_params_does(self, mu_c, q, mu_l):
        # the controller is checked first: its error wins over a bad switch
        with pytest.raises(ValueError) as want:
            ControllerParams(mu_c)
        with pytest.raises(ValueError) as got:
            max_throughput(1e-3, q_nf=q, mu_switch=mu_l, mu_controller=mu_c)
        assert str(got.value) == str(want.value)

    def test_tiny_rates_the_constructors_accept_are_answered(self):
        # below 1e-300 the constructors check a rate exactly, and 1e-305 has a
        # finite mean time: with no detour the controller rate cannot matter
        assert ControllerParams(1e-305) and NodeParams(1.0, 1e-305, 0.0)
        bound = 3.0 / MU_L
        want = max_throughput(bound, q_nf=0.0, mu_switch=MU_L, mu_controller=MU_C)
        assert max_throughput(bound, q_nf=0.0, mu_switch=MU_L, mu_controller=1e-305) == want
        res = max_throughput(bound, q_nf=0.0, mu_switch=1e-305, mu_controller=MU_C)
        assert (res.rate, res.feasible) == (0.0, False)


def exact_root(bound, q, mu_l, mu_c):
    """Smaller root of W(lam) = bound at 50 digits, from the float inputs.

    W = p_l/(1 - p_l lam) + p_c/(1 - p_c lam) with p_l = (1+q)/mu_l and
    p_c = q/mu_c gives p_l p_c B lam^2 - (B w0 - 2 p_l p_c) lam + B - w0 = 0.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        b, q, mu_l, mu_c = (Decimal(v) for v in (bound, q, mu_l, mu_c))
        p_l, p_c = (1 + q) / mu_l, q / mu_c
        a2, a1, a0 = b * p_l * p_c, b * (p_l + p_c) - 2 * p_l * p_c, b - (p_l + p_c)
        return 2 * a0 / (a1 + (a1 * a1 - 4 * a2 * a0).sqrt())


class TestMaxThroughputExact:
    # (q_nf, mu_switch, mu_controller): no detour, full detour, equal poles
    # (1+q)/mu_l = q/mu_c, a switch bottleneck and a controller bottleneck
    CASES = {
        "q 0": (0.0, MU_L, MU_C),
        "q 1": (1.0, MU_L, MU_C),
        "equal poles": (0.5, MU_L, MU_L / 3.0),
        "switch bottleneck": (0.2, MU_L, 50.0 * MU_C),
        "controller bottleneck": (0.5, MU_L, MU_C),
    }
    # bound / w0, from the first float above w0 to the _SUP_MARGIN plateau
    FACTORS = (None, 1.0 + 1e-12, 1.0 + 1e-6, 1.05, 2.0, 10.0, 1e3, 1e6, 1e8, 1e9)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_exact_root_and_meets_bound(self, case):
        q, mu_l, mu_c = self.CASES[case]
        w0 = zero_load_sojourn(q, mu_l, mu_c)
        sup = stability_supremum(q, mu_l, mu_c)
        cap = sup * (1.0 - _SUP_MARGIN)
        ctrl = ControllerParams(mu_c)
        for factor in self.FACTORS:
            bound = math.nextafter(w0, math.inf) if factor is None else factor * w0
            res = max_throughput(bound, q_nf=q, mu_switch=mu_l, mu_controller=mu_c)
            assert res.feasible
            assert 0.0 <= res.rate <= cap
            if res.rate > 0.0:  # W(0) = w0 < bound
                node = NodeParams(res.rate, mu_l, q)
                assert mean_sojourn_openflow(node, ctrl, solve_rates(node, ctrl)) <= bound
            root = exact_root(bound, q, mu_l, mu_c)
            ulps = abs(Decimal(res.rate) - root) / Decimal(math.ulp(sup))
            if res.rate == cap:
                assert root >= Decimal(cap) - 4 * Decimal(math.ulp(sup)), (case, factor)
            else:
                assert ulps <= 4, (case, factor, float(ulps))

    def test_overflowing_pole_product_returns_promptly(self):
        # B w0 overflows, so the root is divided through by B, and there p_l p_c
        # overflows too; read as NaN, it left the rate at the cap, ~4e7 ulp
        # steps above the root
        bound, q, mu = 1e308, 0.5, 1e-300
        start = time.perf_counter()
        res = max_throughput(bound, q_nf=q, mu_switch=mu, mu_controller=mu)
        assert time.perf_counter() - start < 1.0
        assert res.feasible and res.rate > 0.0
        ctrl, node = ControllerParams(mu), NodeParams(res.rate, mu, q)
        assert mean_sojourn_openflow(node, ctrl, solve_rates(node, ctrl)) <= bound
        sup = stability_supremum(q, mu, mu)
        ulps = abs(Decimal(res.rate) - exact_root(bound, q, mu, mu)) / Decimal(math.ulp(sup))
        assert ulps <= 4

    def test_rate_below_the_safe_range_is_returned(self):
        # the root itself may be a rate whose reciprocal overflows; it is a
        # result, not an input, so NodeParams' check on a rate does not apply
        bound, mu = 1e300 * (1.0 + 1e-12), 1e-300
        res = max_throughput(bound, q_nf=0.0, mu_switch=mu, mu_controller=1.0)
        assert res.feasible and 0.0 < res.rate < 5e-309
        assert 1.0 / (mu - res.rate) <= bound
        ulps = abs(Decimal(res.rate) - exact_root(bound, 0.0, mu, 1.0)) / Decimal(math.ulp(mu))
        assert ulps <= 4

    @pytest.mark.parametrize("bound_w0, q, mu_l, mu_c", [
        (3.0, 0.5, 1.5e156, 0.5e156),
        (1.5, 0.2, 1e200, 3e199),
        (1.5, 1.0, 1e305, 1e304),
    ])
    def test_tiny_bound_matches_exact_root(self, bound_w0, q, mu_l, mu_c):
        # B w0 underflows: the unscaled root's denominator was subnormal (a
        # root ~390 ulps low, stepped down one ulp at a time) or 0
        # (ZeroDivisionError)
        bound = bound_w0 * zero_load_sojourn(q, mu_l, mu_c)
        res = max_throughput(bound, q_nf=q, mu_switch=mu_l, mu_controller=mu_c)
        assert res.feasible and res.rate > 0.0
        ctrl, node = ControllerParams(mu_c), NodeParams(res.rate, mu_l, q)
        assert mean_sojourn_openflow(node, ctrl, solve_rates(node, ctrl)) <= bound
        sup = stability_supremum(q, mu_l, mu_c)
        ulps = abs(Decimal(res.rate) - exact_root(bound, q, mu_l, mu_c)) / Decimal(math.ulp(sup))
        assert ulps <= 1, float(ulps)

    def test_tiny_bound_far_above_w0_is_the_cap(self):
        # w0 = 2e-170, so B w0 underflows to 0 (this raised ZeroDivisionError)
        q, mu = 0.5, 1e170
        res = max_throughput(1e-160, q_nf=q, mu_switch=mu, mu_controller=mu)
        assert res.feasible
        assert res.rate == stability_supremum(q, mu, mu) * (1.0 - _SUP_MARGIN)

    def test_plateau_is_reached(self):
        q, mu_l, mu_c = self.CASES["controller bottleneck"]
        sup = stability_supremum(q, mu_l, mu_c)
        res = max_throughput(1e9 * zero_load_sojourn(q, mu_l, mu_c), q_nf=q,
                             mu_switch=mu_l, mu_controller=mu_c)
        assert res.rate == sup * (1.0 - _SUP_MARGIN)


def _log_uniform(lo_exp: float, hi_exp: float):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


class TestMaxThroughputProperties:
    @settings(max_examples=300)
    @given(q=st.floats(0.0, 1.0), mu_l=_log_uniform(2.0, 7.0), mu_c=_log_uniform(2.0, 7.0),
           factors=st.lists(_log_uniform(-0.3, 10.0), min_size=2, max_size=2))
    def test_monotone_meets_bound_below_supremum(self, q, mu_l, mu_c, factors):
        # bounds from half the zero-load sojourn w0 to 1e10 w0, past the
        # _SUP_MARGIN plateau, then the largest float bounds and inf
        w0 = zero_load_sojourn(q, mu_l, mu_c)
        sup = stability_supremum(q, mu_l, mu_c)
        ctrl = ControllerParams(mu_c)
        bounds = sorted(f * w0 for f in factors) + [1.7e308, math.inf]
        rates = []
        for bound in bounds:
            res = max_throughput(bound, q_nf=q, mu_switch=mu_l, mu_controller=mu_c)
            assert res.feasible == (bound > w0)
            assert 0.0 <= res.rate < sup
            if res.rate > 0.0:
                node = NodeParams(res.rate, mu_l, q)
                assert mean_sojourn_openflow(node, ctrl, solve_rates(node, ctrl)) <= bound
            rates.append(res.rate)
        assert rates == sorted(rates)


def _throughput_scan() -> list[tuple]:
    """~2,000 seeded (bound, q_nf, mu_switch, mu_controller) points: q in
    {0, 1} or uniform; rates log-uniform over 1e-3..1e9, next to _SAFE_RATE
    or infinite; bounds from 0.7 w0 (infeasible) to 1e4 w0, and inf."""
    rng = random.Random(2028)
    edge = [math.nextafter(_SAFE_RATE, 0.0), _SAFE_RATE, math.nextafter(_SAFE_RATE, 1.0),
            math.inf]

    def rate():
        return rng.choice(edge) if rng.random() < 0.1 else 10.0 ** rng.uniform(-3.0, 9.0)

    points = []
    for _ in range(400):
        q = rng.choice((0.0, 1.0, rng.random(), rng.random()))
        mu_l, mu_c = rate(), rate()
        w0 = zero_load_sojourn(q, mu_l, mu_c)
        bounds = [10.0 ** rng.uniform(math.log10(0.7), 4.0) * (w0 or 1.0) for _ in range(4)]
        points += [(b, q, mu_l, mu_c) for b in bounds + [math.inf]]
    return points


class TestMaxThroughputPinned:
    # Recorded before the feasible path formed each reciprocal rate once and
    # built its record without the generated frozen __init__: a change to the
    # formula, its order of operations or the ulp steps moves these bits.
    DIGEST = "b11a9afb6cda0c28b8aee1029d6cb3c592727e24f24b392efa630e9dea04ee33"

    def test_scan_digest_pinned(self):
        digest = hashlib.sha256()
        for bound, q, mu_l, mu_c in _throughput_scan():
            res = max_throughput(bound, q_nf=q, mu_switch=mu_l, mu_controller=mu_c)
            digest.update(repr((res.rate.hex(), res.feasible, res.note)).encode())
        assert digest.hexdigest() == self.DIGEST

    def test_scan_agrees_with_the_public_helpers(self):
        # the fast path forms w0 and the supremum itself; these cannot drift
        infeasible = 0
        for bound, q, mu_l, mu_c in _throughput_scan():
            res = max_throughput(bound, q_nf=q, mu_switch=mu_l, mu_controller=mu_c)
            w0 = zero_load_sojourn(q, mu_l, mu_c)
            assert (res.rate == 0.0) == (bound <= w0) == (not res.feasible), (bound, q, mu_l, mu_c)
            assert res.rate <= stability_supremum(q, mu_l, mu_c), (bound, q, mu_l, mu_c)
            infeasible += not res.feasible
        assert 0 < infeasible < 400


class TestThroughputResultRecord:
    def test_construction(self):
        assert ThroughputResult(1.5, True) == ThroughputResult(rate=1.5, feasible=True)
        assert ThroughputResult(1.5, True).note == ""
        res = ThroughputResult(0.0, False, "bound infeasible")
        assert (res.rate, res.feasible, res.note) == (0.0, False, "bound infeasible")
        assert res == ThroughputResult(feasible=False, note="bound infeasible", rate=0.0)
        with pytest.raises(TypeError):
            ThroughputResult(1.5)
        with pytest.raises(TypeError):
            ThroughputResult(1.5, True, "", "extra")

    def test_frozen(self):
        res = ThroughputResult(1.5, True)
        for name in ("rate", "feasible", "note", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(res, name, 2.0)
        with pytest.raises(FrozenInstanceError):
            del res.rate
        assert res == ThroughputResult(1.5, True)

    def test_eq_hash_repr(self):
        res = ThroughputResult(1.5, True)
        assert res == ThroughputResult(1.5, True) and hash(res) == hash(ThroughputResult(1.5, True))
        assert res != ThroughputResult(1.5, False) and res != ThroughputResult(1.5, True, "x")
        assert res != (1.5, True, "")
        assert repr(res) == "ThroughputResult(rate=1.5, feasible=True, note='')"

    def test_copies_and_dataclass_helpers(self):
        res = ThroughputResult(0.0, False, "bound infeasible")
        for clone in (pickle.loads(pickle.dumps(res)), copy.copy(res), copy.deepcopy(res)):
            assert clone == res and type(clone) is ThroughputResult
            with pytest.raises(FrozenInstanceError):
                clone.rate = 1.0
        assert asdict(res) == {"rate": 0.0, "feasible": False, "note": "bound infeasible"}
        assert replace(res, rate=2.0, feasible=True) == ThroughputResult(2.0, True,
                                                                          "bound infeasible")


class TestSweepSpec:
    def test_variable_and_grid_validation(self):
        node = NodeParams(1000.0, MU_L, 0.5)
        with pytest.raises(ValueError):
            SweepSpec(variable="bogus", grid=(1.0,), node=node, controller=CTRL)
        with pytest.raises(ValueError):
            SweepSpec(variable="lambda", grid=(), node=node, controller=CTRL)
        with pytest.raises(ValueError):
            SweepSpec(variable="lambda", grid=(2.0, 1.0), node=node, controller=CTRL)
        with pytest.raises(ValueError):
            SweepSpec(variable="lambda", grid=(1.0,), node=node, controller=CTRL,
                      outputs=("nonsense",))
        # NaN fails no pairwise order test, and a one-point grid has no pair
        for grid in ((0.1, math.nan, 0.3), (math.nan,), (math.nan, 0.3), (0.1, math.nan)):
            for variable in ("lambda", "rho_controller"):
                with pytest.raises(ValueError, match="strictly increasing"):
                    SweepSpec(variable=variable, grid=grid, node=node, controller=CTRL)
        # lambda is back-solved from rho_c; the error names the rho_c given
        for grid, given in (((-0.1, 0.2), "-0.1"), ((0.0, 0.2), "0.0"), ((-math.inf,), "-inf")):
            with pytest.raises(ValueError, match=f"^rho_controller must be > 0, got {given}$"):
                SweepSpec(variable="rho_controller", grid=grid, node=node, controller=CTRL)
        SweepSpec(variable="rho_controller", grid=(5e-324, 0.2), node=node, controller=CTRL)

    def test_throughput_only_with_delay_bound(self):
        node = NodeParams(1000.0, MU_L, 0.5)
        with pytest.raises(ValueError):
            SweepSpec(variable="lambda", grid=(1.0,), node=node, controller=CTRL,
                      outputs=("throughput",))
        with pytest.raises(ValueError):
            SweepSpec(variable="delay_bound", grid=(1e-4,), node=node, controller=CTRL,
                      outputs=("analytic_mean",))

    def test_rho_sweep_needs_controller_traffic(self):
        node = NodeParams(1000.0, MU_L, 0.0)
        with pytest.raises(ValueError):
            SweepSpec(variable="rho_controller", grid=(0.5,), node=node, controller=CTRL)


class TestSweep:
    def test_single_point_reduces_to_operation(self):
        node = NodeParams(2000.0, MU_L, 0.5)
        spec = SweepSpec(variable="lambda", grid=(2000.0,), node=node, controller=CTRL,
                         outputs=("analytic_mean",))
        rows = sweep(spec)
        assert len(rows) == 1
        assert rows[0]["analytic_mean"] == pytest.approx(model_mean(2000.0, 0.5), rel=1e-15)
        assert rows[0]["status"] == "ok"

    def test_rho_back_solves_lambda(self):
        node = NodeParams(1.0, MU_L, 0.5)
        spec = SweepSpec(variable="rho_controller", grid=(0.2, 0.4), node=node,
                         controller=CTRL, outputs=("analytic_mean",))
        rows = sweep(spec)
        assert rows[0]["lambda"] == pytest.approx(0.2 * MU_C / 0.5, rel=1e-12)
        assert rows[1]["lambda"] == pytest.approx(0.4 * MU_C / 0.5, rel=1e-12)

    def test_unstable_rows_kept_with_status(self):
        node = NodeParams(1.0, MU_L, 0.5)
        spec = SweepSpec(variable="rho_controller", grid=(0.4, 0.8, 1.2), node=node,
                         controller=CTRL, outputs=("analytic_mean", "naive_mean"))
        rows = sweep(spec)
        # keys and status notes follow SWEEP_OUTPUTS, whatever the order asked
        for got in (rows, sweep(replace(spec, outputs=spec.outputs[::-1]))):
            assert [list(r) for r in got] == [["rho_controller", "lambda", "analytic_mean",
                                               "naive_mean", "status"]] * 3
            assert got[2]["status"] == ("analytic unstable: controller;"
                                        "naive unstable: controller")
        # uncorrected model doubles the controller load: saturated from 0.5 up
        assert rows[0]["naive_mean"] is not None
        assert rows[1]["naive_mean"] is None
        assert "naive unstable" in rows[1]["status"]
        # true model saturated only beyond rho_c = 1
        assert rows[2]["analytic_mean"] is None
        assert "analytic unstable" in rows[2]["status"]

    def test_deadline_prob_column_monotone(self):
        node = NodeParams(1.0, MU_L, 0.5)
        spec = SweepSpec(variable="rho_controller",
                         grid=tuple(0.1 * k for k in range(1, 10)),
                         node=node, controller=CTRL, outputs=("deadline_prob",),
                         deadline=5e-4)
        probs = [r["deadline_prob"] for r in sweep(spec)]
        assert all(p is not None for p in probs)
        assert all(b <= a for a, b in zip(probs, probs[1:]))

    def test_q_nf_and_mu_controller_variables(self):
        node = NodeParams(2000.0, MU_L, 0.5)
        by_q = sweep(SweepSpec(variable="q_nf", grid=(0.2, 0.8), node=node,
                               controller=CTRL, outputs=("analytic_mean",)))
        assert by_q[0]["analytic_mean"] < by_q[1]["analytic_mean"]
        by_mu = sweep(SweepSpec(variable="mu_controller", grid=(MU_C, 4.0 * MU_C),
                                node=node, controller=CTRL, outputs=("analytic_mean",)))
        assert by_mu[0]["analytic_mean"] > by_mu[1]["analytic_mean"]

    def test_delay_bound_sweep(self):
        node = NodeParams(1.0, MU_L, 0.5)
        grid = default_delay_bound_grid(0.5, MU_L, MU_C, points=10)
        spec = SweepSpec(variable="delay_bound", grid=grid, node=node, controller=CTRL,
                         outputs=("throughput",))
        rates = [r["throughput"] for r in sweep(spec)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_simulated_rows_reproducible(self):
        node = NodeParams(1.0, MU_L, 0.5)
        sim = SimConfig(seed=77, packets_per_replication=10_000, replications=2)
        spec = SweepSpec(variable="rho_controller", grid=(0.3, 0.6), node=node,
                         controller=CTRL, outputs=("simulated_mean",), sim=sim)
        rows1 = sweep(spec)
        rows2 = sweep(spec)
        assert rows1 == rows2
        assert all(math.isfinite(r["simulated_mean"]) for r in rows1)
        assert all(r["sim_ci_halfwidth"] >= 0 for r in rows1)
