"""Discrete-event simulator: statistics, semantics, determinism, audits."""

import hashlib
import io
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings
from collections import deque
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from sdnqueue import SimulationInvariantError, simulate
from sdnqueue.analytic import ChainModel, ControllerParams, NodeParams, rate_from_us
from sdnqueue.simulate import SimConfig, _Reservoir, run_chain, run_single_node

MU_L = rate_from_us(9.8)
MU_C = rate_from_us(240.0)
CTRL = ControllerParams(MU_C)

SMALL = SimConfig(seed=9001, packets_per_replication=20_000, replications=5)


class TestConfig:
    def test_defaults_follow_replication_plan(self):
        cfg = SimConfig()
        assert cfg.replications == 5
        assert cfg.packets_per_replication == 200_000
        assert cfg.warmup_fraction == 0.1

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(packets_per_replication=5_000)
        with pytest.raises(ValueError):
            SimConfig(replications=1)
        with pytest.raises(ValueError):
            SimConfig(warmup_fraction=0.5)
        with pytest.raises(ValueError):
            SimConfig(seed=-1)

    @pytest.mark.parametrize("field, value", [
        ("packets_per_replication", 20_000.5), ("packets_per_replication", 20_000.0),
        ("replications", 2.5), ("seed", 1.5), ("seed", True)])
    def test_non_integer_counts_and_seeds_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SimConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        SimConfig(seed=np.uint64(3), packets_per_replication=np.int64(10_000),
                  replications=np.int32(2))

    # rates with finite mean times whose run would overflow the simulated clock
    @pytest.mark.parametrize("nodes, mu_c, named", [
        ([(1e-305, MU_L, 0.5)], MU_C, "lam = 1e-305"),
        ([(2000.0, 1e-305, 0.5)], MU_C, "mu_switch = 1e-305"),
        ([(2000.0, MU_L, 0.5)], 1e-305, "mu_controller = 1e-305"),
        ([(1e-305, MU_L, 0.2), (1000.0, MU_L, 1.0)], MU_C, "nodes[0].lam = 1e-305"),
    ])
    def test_unrepresentable_run_time_rejected(self, nodes, mu_c, named):
        chain = ChainModel(tuple(NodeParams(*nd) for nd in nodes), ControllerParams(mu_c))
        cfg = SimConfig(seed=1, packets_per_replication=10_000, replications=2)
        with pytest.raises(ValueError, match="^" + re.escape(named)):
            run_chain(chain, cfg)

    # arrivals so sparse that the float spacing of the run's times is far
    # above a switch service: every sojourn would round to 0.0
    @pytest.mark.parametrize("nodes, named", [
        ([(1e-300, 1e5, 0.5)], "lam = 1e-300"),
        ([(1e-280, MU_L, 0.2), (1000.0, MU_L, 1.0)], "nodes[0].lam = 1e-280")])
    def test_unresolvable_service_time_rejected(self, nodes, named):
        chain = ChainModel(tuple(NodeParams(*nd) for nd in nodes), ControllerParams(4000.0))
        cfg = SimConfig(seed=1, packets_per_replication=10_000, replications=2)
        with pytest.raises(ValueError, match="^" + re.escape(named) + ".*float spacing"):
            run_chain(chain, cfg)

    def test_sums_past_the_float_range_keep_their_bits(self):
        # a saturated switch with mean sojourns near 1e304; scaled by 2**-12
        # every time grows by 4096, the means to ~4e307, and 9000 of them,
        # or the 5 replications' means, sum past the float range: the sums
        # are kept scaled, so every statistic is the unscaled run's times
        # 2**12, with no warning
        cfg = SimConfig(seed=1, packets_per_replication=10_000, replications=5)
        base = run_single_node(NodeParams(2000.0, 1e-300, 0.5), ControllerParams(4000.0), cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = run_single_node(NodeParams(math.ldexp(2000.0, -12), math.ldexp(1e-300, -12),
                                             0.5),
                                  ControllerParams(math.ldexp(4000.0, -12)), cfg)
        assert 1e307 < big.mean_sojourn < 1e308
        assert _scaled_bits(big, 0) == _scaled_bits(base, 12)


class TestSingleNode:
    def test_mm1_mean_within_ci(self):
        # no detours: textbook single-queue mean 1/(mu - lambda)
        node = NodeParams(0.5 * MU_L, MU_L, 0.0)
        res = run_single_node(node, CTRL, SimConfig(seed=42, packets_per_replication=40_000,
                                                    replications=5))
        assert abs(res.mean_sojourn - 1.0 / (MU_L - node.lam)) <= res.ci_halfwidth
        assert res.controller_visit_fraction == 0.0

    def test_all_new_flows_visit_once(self):
        node = NodeParams(0.4 * MU_C, MU_L, 1.0)
        res = run_single_node(node, CTRL, SMALL)
        assert res.controller_visit_fraction == 1.0

    def test_visit_fraction_binomial_concentration(self):
        q = 0.3
        node = NodeParams(2000.0, MU_L, q)
        res = run_single_node(node, CTRL, SMALL)
        n = 5 * (20_000 - 2_000)
        assert abs(res.controller_visit_fraction - q) <= 3.0 * np.sqrt(q * (1 - q) / n)

    def test_mean_matches_model_at_moderate_load(self):
        # lam=15000/s with q=0.2 against the closed-form mean
        from sdnqueue.analytic import mean_sojourn_openflow, solve_rates
        node = NodeParams(15000.0, MU_L, 0.2)
        pred = mean_sojourn_openflow(node, CTRL, solve_rates(node, CTRL))
        res = run_single_node(node, CTRL, SimConfig(seed=4243, packets_per_replication=50_000,
                                                    replications=5))
        assert abs(res.mean_sojourn - pred) <= res.ci_halfwidth

    def test_unstable_run_completes(self):
        # arrivals stop after the packet budget, so a saturated system still
        # drains and reports (large but finite) sojourns
        node = NodeParams(1.5 * MU_C, MU_L, 1.0)
        res = run_single_node(node, CTRL, SimConfig(seed=7, packets_per_replication=10_000,
                                                    replications=2))
        assert np.isfinite(res.mean_sojourn)
        assert res.mean_sojourn > 1.0 / (MU_C - 0)  # far above any stable mean

    @pytest.mark.parametrize("mu_switch", [1e-200, 1e-300])
    def test_huge_finite_means_keep_a_finite_ci(self, mu_switch):
        # a saturated switch this slow gives means near 1e204 and 1e304,
        # whose squares overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_single_node(NodeParams(2000.0, mu_switch, 0.5), CTRL,
                                  SimConfig(seed=1, packets_per_replication=10_000,
                                            replications=2))
        assert np.isfinite(res.mean_sojourn) and np.isfinite(res.ci_halfwidth)
        assert 0.0 < res.ci_halfwidth < res.mean_sojourn

    def test_result_shape(self):
        res = run_single_node(NodeParams(2000.0, MU_L, 0.5), CTRL, SMALL)
        assert len(res.per_replication_means) == 5
        assert res.ci_halfwidth >= 0.0
        measured = 5 * (20_000 - 2_000)
        assert len(res.empirical_ccdf) == measured
        assert np.all(np.diff(res.empirical_ccdf) >= 0.0)


class TestDeterminism:
    def test_bit_identical_reruns(self):
        node = NodeParams(2000.0, MU_L, 0.5)
        r1 = run_single_node(node, CTRL, SMALL)
        r2 = run_single_node(node, CTRL, SMALL)
        assert r1.mean_sojourn == r2.mean_sojourn
        assert r1.ci_halfwidth == r2.ci_halfwidth
        assert r1.per_replication_means == r2.per_replication_means
        assert r1.controller_visit_fraction == r2.controller_visit_fraction
        assert np.array_equal(r1.empirical_ccdf, r2.empirical_ccdf)

    def test_different_seeds_differ(self):
        node = NodeParams(2000.0, MU_L, 0.5)
        r1 = run_single_node(node, CTRL, SMALL)
        r2 = run_single_node(node, CTRL, SimConfig(seed=9002,
                                                   packets_per_replication=20_000,
                                                   replications=5))
        assert r1.mean_sojourn != r2.mean_sojourn

    def test_single_node_equals_one_node_chain(self):
        node = NodeParams(2000.0, MU_L, 0.5)
        single = run_single_node(node, CTRL, SMALL)
        chain = run_chain(ChainModel(nodes=(node,), controller=CTRL), SMALL)
        assert single.mean_sojourn == chain.aggregate.mean_sojourn
        assert single.per_replication_means == chain.aggregate.per_replication_means
        assert np.array_equal(single.empirical_ccdf, chain.aggregate.empirical_ccdf)
        assert chain.per_class[0].per_replication_means == single.per_replication_means

    def test_one_node_class_is_the_aggregate_over_the_cap(self, monkeypatch):
        # 18,000 measured sojourns against a 1000-sample cap: the one class
        # shares the aggregate's reservoir, whose bits were recorded before
        # the class stopped keeping a second one
        monkeypatch.setattr(simulate, "SAMPLE_CAP", 1000)
        node = NodeParams(2000.0, MU_L, 0.5)
        res = run_chain(ChainModel(nodes=(node,), controller=CTRL),
                        SimConfig(seed=5, packets_per_replication=10_000, replications=2))
        assert res.per_class == (res.aggregate,)
        assert len(res.aggregate.empirical_ccdf) == 1000
        assert (hashlib.sha256(res.aggregate.empirical_ccdf.tobytes()).hexdigest()
                == "31d5565a6d806c6f5ba304834bfe8fba5329f8e2d0b12fa92a879aa8a73bdc19")

    # Recorded from the simulator before its event loop was rewritten: any
    # change to the draw order, the heap order or the routing moves these bits.
    PINNED_PATHS = {
        "single node, q_nf 0.5": (
            (NodeParams(2000.0, MU_L, 0.5),),
            (0.0001734843895353559, 0.0001703256299922072), 0.5008888888888889,
            "dfe513fd240cb1fe76d4e56de720a6aed09a266f4774d2d8c00651450073ab88"),
        "saturated controller": (
            (NodeParams(1.3 * MU_C, MU_L, 1.0),),
            (0.2633715363622898, 0.3141414101489826), 1.0,
            "67354d93b9256bb29820c17a8d936e901826dc40a58c9929150d5ba427b2a0fb"),
        "3-node chain": (
            (NodeParams(2000.0, MU_L, 0.3), NodeParams(1500.0, MU_L, 0.8),
             NodeParams(500.0, MU_L, 0.0)),
            (0.00023168368334199133, 0.00022711786473370753), 0.4537777777777778,
            "51055a7e466e374796bdc00989a2f82c94f36c77b4dc9092b98f7ca17d7108ef"),
    }

    @pytest.mark.parametrize("audit", [False, True])
    @pytest.mark.parametrize("case", sorted(PINNED_PATHS))
    def test_sample_path_pinned(self, case, audit):
        nodes, means, visit_fraction, ccdf_sha256 = self.PINNED_PATHS[case]
        cfg = SimConfig(seed=3, packets_per_replication=10_000, replications=2)
        res = run_chain(ChainModel(nodes=nodes, controller=CTRL), cfg, audit=audit).aggregate
        assert res.per_replication_means == means
        assert res.controller_visit_fraction == visit_fraction
        assert hashlib.sha256(res.empirical_ccdf.tobytes()).hexdigest() == ccdf_sha256


class TestChainSim:
    def test_tandem_against_closed_form(self):
        chain = ChainModel(nodes=(NodeParams(3000.0, 10000.0, 0.0),
                                  NodeParams(2000.0, 9000.0, 0.0)),
                           controller=CTRL)
        res = run_chain(chain, SimConfig(seed=5, packets_per_replication=100_000,
                                         replications=5))
        want0 = 1.0 / (10000.0 - 3000.0) + 1.0 / (9000.0 - 5000.0)
        want1 = 1.0 / (9000.0 - 5000.0)
        assert abs(res.per_class[0].mean_sojourn - want0) <= res.per_class[0].ci_halfwidth
        assert abs(res.per_class[1].mean_sojourn - want1) <= res.per_class[1].ci_halfwidth

    def test_two_node_against_chain_model(self):
        from sdnqueue.analytic import chain_sojourn, solve_chain
        chain = ChainModel(nodes=(NodeParams(3000.0, MU_L, 0.5),
                                  NodeParams(3000.0, MU_L, 0.5)),
                           controller=CTRL)
        pred = chain_sojourn(chain, solve_chain(chain))
        res = run_chain(chain, SimConfig(seed=60, packets_per_replication=50_000,
                                         replications=5))
        assert abs(res.aggregate.mean_sojourn - pred.aggregate) <= res.aggregate.ci_halfwidth

    def test_marking_only_at_entry_node(self):
        # transit traffic never queries the controller: with q=(0, 1) the
        # controller only sees class-1 packets
        chain = ChainModel(nodes=(NodeParams(4000.0, MU_L, 0.0),
                                  NodeParams(1000.0, MU_L, 1.0)),
                           controller=CTRL)
        res = run_chain(chain, SMALL)
        assert res.per_class[0].controller_visit_fraction == 0.0
        assert res.per_class[1].controller_visit_fraction == 1.0
        agg = res.aggregate.controller_visit_fraction
        assert 0.0 < agg < 0.5  # roughly lam_2 / (lam_1 + lam_2)

    def test_audited_runs_hold_invariants(self):
        # audit mode checks packet conservation and per-queue FIFO order on
        # every event and, at departure, the controller visited exactly when
        # a new flow
        audit_cfg = SimConfig(seed=3, packets_per_replication=10_000, replications=2)
        run_single_node(NodeParams(2000.0, MU_L, 0.5), CTRL, audit_cfg, audit=True)
        run_single_node(NodeParams(1.3 * MU_C, MU_L, 1.0), CTRL, audit_cfg, audit=True)
        chain = ChainModel(nodes=(NodeParams(2000.0, MU_L, 0.3),
                                  NodeParams(1500.0, MU_L, 0.8),
                                  NodeParams(500.0, MU_L, 0.0)),
                           controller=CTRL)
        res = run_chain(chain, audit_cfg, audit=True)
        assert res.per_class[2].controller_visit_fraction == 0.0

    def test_audit_matches_unaudited_results(self):
        node = NodeParams(2000.0, MU_L, 0.5)
        cfg = SimConfig(seed=8, packets_per_replication=10_000, replications=2)
        plain = run_single_node(node, CTRL, cfg)
        audited = run_single_node(node, CTRL, cfg, audit=True)
        assert plain.mean_sojourn == audited.mean_sojourn
        assert np.array_equal(plain.empirical_ccdf, audited.empirical_ccdf)


class TestEngineEquivalence:
    """Without audit a single node runs the Lindley loop and a chain the
    join-ordered loop; ``audit=True`` runs the event loop.  All must give the
    same bits.  2 x 40k packets make the arrival, mark, switch and controller
    draws cross a block refill."""

    CASES = {
        "paper q 0.2, rho_c 0.5": (NodeParams(0.5 * MU_C / 0.2, MU_L, 0.2), CTRL, 0.1),
        "paper q 0.2, rho_c 0.9": (NodeParams(0.9 * MU_C / 0.2, MU_L, 0.2), CTRL, 0.1),
        "paper q 1.0, rho_c 0.5": (NodeParams(0.5 * MU_C, MU_L, 1.0), CTRL, 0.1),
        "paper q 1.0, rho_c 0.9": (NodeParams(0.9 * MU_C, MU_L, 1.0), CTRL, 0.1),
        "q 0, switch rho 0.9": (NodeParams(0.9 * MU_L, MU_L, 0.0), CTRL, 0.1),
        "q 0.5, switch rho 0.99, 10 us controller": (
            NodeParams(0.99 * MU_L / 1.5, MU_L, 0.5), ControllerParams(rate_from_us(10.0)), 0.1),
        "saturated controller": (NodeParams(1.2 * MU_C, MU_L, 1.0), CTRL, 0.1),
        "saturated switch": (
            NodeParams(1.3 * MU_L, MU_L, 0.1), ControllerParams(rate_from_us(10.0)), 0.1),
        "no warm-up": (NodeParams(2000.0, MU_L, 0.5), CTRL, 0.0),
        "warm-up 0.3": (NodeParams(2000.0, MU_L, 0.5), CTRL, 0.3),
    }

    SYMMETRIC = (NodeParams(3000.0, MU_L, 0.5), NodeParams(3000.0, MU_L, 0.5))
    FAST_CTRL = ControllerParams(rate_from_us(10.0))
    CHAIN_CASES = {
        "criterion 9 symmetric": (SYMMETRIC, CTRL, 0.1),
        "criterion 9 asymmetric": (
            (NodeParams(2000.0, MU_L, 0.2), NodeParams(1000.0, MU_L, 1.0)), CTRL, 0.1),
        # switch loads 0.33, 0.55 and 0.81
        "3 nodes, last switch rho 0.81": (
            (NodeParams(0.25 * MU_L, MU_L, 0.3), NodeParams(0.25 * MU_L, MU_L, 0.2),
             NodeParams(0.28 * MU_L, MU_L, 0.1)), FAST_CTRL, 0.1),
        "saturated controller": (
            (NodeParams(0.7 * MU_C, MU_L, 1.0), NodeParams(0.7 * MU_C, MU_L, 1.0)), CTRL, 0.1),
        # the second switch carries 0.5 + 0.6 * 1.1 = 1.16 of its rate
        "saturated switch": (
            (NodeParams(0.5 * MU_L, MU_L, 0.1), NodeParams(0.6 * MU_L, MU_L, 0.1)),
            FAST_CTRL, 0.1),
        "no warm-up": (SYMMETRIC, CTRL, 0.0),
        "warm-up 0.3": (SYMMETRIC, CTRL, 0.3),
    }

    @staticmethod
    def _assert_same_bits(fast, des):
        assert fast.per_replication_means == des.per_replication_means
        assert fast.mean_sojourn == des.mean_sojourn
        assert fast.ci_halfwidth == des.ci_halfwidth
        assert fast.controller_visit_fraction == des.controller_visit_fraction
        assert fast.empirical_ccdf.tobytes() == des.empirical_ccdf.tobytes()

    @staticmethod
    def _cfg(warmup):
        return SimConfig(seed=17, packets_per_replication=40_000, replications=2,
                         warmup_fraction=warmup)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_lindley_loop_matches_event_loop(self, case):
        node, ctrl, warmup = self.CASES[case]
        cfg = self._cfg(warmup)
        self._assert_same_bits(run_single_node(node, ctrl, cfg),
                               run_single_node(node, ctrl, cfg, audit=True))

    @pytest.mark.parametrize("case", sorted(CHAIN_CASES))
    def test_join_loop_matches_event_loop(self, case):
        nodes, ctrl, warmup = self.CHAIN_CASES[case]
        chain = ChainModel(nodes=nodes, controller=ctrl)
        cfg = self._cfg(warmup)
        fast = run_chain(chain, cfg)
        des = run_chain(chain, cfg, audit=True)
        assert len(fast.per_class) == len(des.per_class) == len(nodes)
        for f, d in zip((fast.aggregate, *fast.per_class), (des.aggregate, *des.per_class)):
            self._assert_same_bits(f, d)


class _OnGrid:
    """A generator whose exponential draws are rounded to a 10 us grid."""

    def __init__(self, rng):
        self.rng = rng

    def exponential(self, scale, size):
        return np.round(self.rng.exponential(scale, size) / 1e-5) * 1e-5


class TestTieRules:
    """Draws on a 10 us grid make exact ties common: two classes' arrivals, a
    completion and an arrival, and same-station completions of zero service.
    The join loop orders them by fixed rules (see the ``simulate`` module
    docstring), which these digests of every field of every result, recorded
    before the loop was rewritten, pin bit for bit."""

    CASES = {
        "criterion 9 symmetric": (TestEngineEquivalence.SYMMETRIC, CTRL, 5, 0.1,
                                  "b11d7ad210b65ed5c19ff67d28205685c1c93eaf8fb9a100cae9376ce761a1e8"),
        "criterion 9 asymmetric": (
            TestEngineEquivalence.CHAIN_CASES["criterion 9 asymmetric"][0], CTRL, 5, 0.1,
            "eb5bc60c7f3e57602b5ddd75fa56d88808c59d3a6e27dab7b85b1203896b4950"),
        "3 nodes": (*TestEngineEquivalence.CHAIN_CASES["3 nodes, last switch rho 0.81"][:2],
                    5, 0.1,
                    "38a98ee141900367f1de96a3b68df93dd40b64d401aa6e5d383146533558abb2"),
        # replication 0's first class-0 gap, 3.7 us, rounds to 0.0: a new flow
        # arrives at time 0.0 and, with no warm-up, its visit is counted
        "first gap 0.0, q_nf 1": (
            (NodeParams(2000.0, MU_L, 1.0), NodeParams(1000.0, MU_L, 0.5)), CTRL, 18, 0.0,
            "bf6e8c76bfbab89535bf4ee69ed9c9f1f8054d6950ded54e691c650e801222fc"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_tie_rules_pinned(self, monkeypatch, case):
        nodes, ctrl, seed, warmup, sha256 = self.CASES[case]
        exponentials, arrival_blocks = simulate._exponentials, simulate._arrival_blocks
        monkeypatch.setattr(simulate, "_cpus", lambda: 1)
        monkeypatch.setattr(simulate, "_exponentials",
                            lambda rng, scale: exponentials(_OnGrid(rng), scale))
        monkeypatch.setattr(simulate, "_arrival_blocks",
                            lambda rng, scale: arrival_blocks(_OnGrid(rng), scale))
        cfg = SimConfig(seed=seed, packets_per_replication=20_000, replications=2,
                        warmup_fraction=warmup)
        res = run_chain(ChainModel(nodes=nodes, controller=ctrl), cfg)
        if nodes[0].q_nf == 1.0:  # every class-0 packet visits, the one at 0.0 too
            assert res.per_class[0].controller_visit_fraction == 1.0
        assert hashlib.sha256(b"".join(_bits(res))).hexdigest() == sha256


@st.composite
def _chains(draw, sizes=st.integers(1, 3)):
    """Random chains of ``sizes`` (1-3) nodes, from idle to saturated switches
    and controller."""
    n = draw(sizes)
    mu_l = draw(st.floats(2e4, 2e5))
    nodes = tuple(NodeParams(draw(st.floats(0.05, 1.2)) * mu_l / n, mu_l,
                             draw(st.floats(0.0, 1.0)))
                  for _ in range(n))
    return ChainModel(nodes=nodes, controller=ControllerParams(draw(st.floats(1e3, 1e5))))


def _scaled_bits(res, k: int) -> list[bytes]:
    """Every field of every result of ``res`` (a ChainSimResult or a
    SimResult), its times multiplied by 2**k, as bytes."""
    results = (res.aggregate, *res.per_class) if hasattr(res, "aggregate") else (res,)
    return [np.ldexp(np.array([r.mean_sojourn, r.ci_halfwidth, *r.per_replication_means]),
                     k).tobytes()
            + np.ldexp(r.empirical_ccdf, k).tobytes()
            + np.float64(r.controller_visit_fraction).tobytes()
            for r in results]


def _bits(res: simulate.ChainSimResult) -> list[bytes]:
    # bytes, so a NaN compares equal to itself
    return [np.array([r.mean_sojourn, r.ci_halfwidth, r.controller_visit_fraction,
                      *r.per_replication_means]).tobytes() + r.empirical_ccdf.tobytes()
            for r in (res.aggregate, *res.per_class)]


class TestEngineProperties:
    @settings(max_examples=10)
    @given(chain=_chains(), seed=st.integers(0, 2 ** 64 - 1),
           warmup=st.floats(0.0, 0.49), block=st.integers(1, 5000))
    def test_engines_and_block_size_do_not_move_bits(self, chain, seed, warmup, block):
        # without audit a single node runs the Lindley loop and a chain the
        # join-ordered loop; with it, both run the event loop.  Every engine
        # streams its departures in blocks of _BLOCK, whose size must not
        # change any bit either
        cfg = SimConfig(seed=seed, packets_per_replication=10_000, replications=2,
                        warmup_fraction=warmup)
        want = _bits(run_chain(chain, cfg))
        assert _bits(run_chain(chain, cfg, audit=True)) == want
        with mock.patch.object(simulate, "_BLOCK", block):
            assert _bits(run_chain(chain, cfg)) == want


class TestProcessCount:
    """A run's replications run on min(replications, ``_cpus()``) processes,
    replication k on process k mod that count, except that the last
    replication, a single node's or a chain's, is cut between processes 0
    and 1 where the count leaves it over (see :class:`TestCutReplication`);
    no bit of the aggregate or of a class may depend on the count."""

    # the run's samples below, at or over the reservoir cap; over it, the
    # caller draws every replacement slot, of the aggregate and of each
    # class, in replication order, a forked replication's too
    RUNS = dict(seed=st.integers(0, 2 ** 64 - 1), warmup=st.floats(0.0, 0.49),
                block=st.integers(16, 5000), reps=st.integers(3, 4), data=st.data())
    # each example runs whole simulations at three process counts, so
    # shrinking a failure would take minutes before it reports
    NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)

    @pytest.mark.parametrize("fill", ["below", "at", "over"])
    @settings(max_examples=4, phases=NO_SHRINK)
    @given(chain=_chains(st.just(1)), **RUNS)
    def test_process_count_does_not_move_bits(self, fill, **run):
        self._assert_same_bits(audit=False, fill=fill, **run)

    @settings(max_examples=2, phases=NO_SHRINK)
    @given(chain=_chains(st.just(1)), **RUNS)
    def test_process_count_does_not_move_audited_bits(self, **run):
        self._assert_same_bits(audit=True, fill="over", **run)

    @pytest.mark.parametrize("fill", ["below", "at", "over"])
    @settings(max_examples=4, phases=NO_SHRINK)
    @given(chain=_chains(st.integers(2, 3)), **RUNS)
    def test_process_count_does_not_move_chain_bits(self, fill, **run):
        self._assert_same_bits(audit=False, fill=fill, **run)

    @settings(max_examples=2, phases=NO_SHRINK)
    @given(chain=_chains(st.integers(2, 3)), **RUNS)
    def test_process_count_does_not_move_audited_chain_bits(self, **run):
        self._assert_same_bits(audit=True, fill="over", **run)

    @staticmethod
    def _assert_same_bits(audit, fill, chain, seed, warmup, block, reps, data):
        cfg = SimConfig(seed=seed, packets_per_replication=10_000, replications=reps,
                        warmup_fraction=warmup)
        total = reps * (10_000 - int(warmup * 10_000))
        cap = {"below": total + 1000, "at": total,
               "over": data.draw(st.integers(1, total - 1))}[fill]
        bits = []
        with mock.patch.object(simulate, "SAMPLE_CAP", cap), \
                mock.patch.object(simulate, "_BLOCK", block):
            for procs in (1, 2, 3):
                with mock.patch.object(simulate, "_cpus", lambda: procs):
                    bits.append(_bits(run_chain(chain, cfg, audit=audit)))
        assert bits[1] == bits[0]
        assert bits[2] == bits[0]

    @settings(max_examples=100)
    @given(cap=st.integers(1, 300), reps=st.integers(2, 5), measured=st.integers(1, 200),
           n=st.integers(1, 2), data=st.data())
    def test_replications_applied_in_order_match_one_feed(self, cap, reps, measured, n,
                                                          data):
        # each replication is recorded in blocks in a _Record, sent in a
        # forked process's message format and received in replication order:
        # the caller's feeds must leave every reservoir, sum, count and visit
        # count as one serial feed of each replication does
        values = np.random.default_rng(cap).random(reps * measured)
        cls = np.random.default_rng(measured).integers(0, n, reps * measured)
        new = np.random.default_rng(reps).random(reps * measured) < 0.5
        stream, *class_streams = np.random.SeedSequence(reps * measured).spawn(n + 1)
        if n == 1:  # a single node's one class is the aggregate
            class_streams = []

        def reservoirs():
            return (_Reservoir(cap, np.random.default_rng(stream)),
                    [_Reservoir(cap, np.random.default_rng(s)) for s in class_streams])

        whole, whole_classes = reservoirs()
        merged, merged_classes = reservoirs()
        for k in range(reps):
            own = slice(k * measured, (k + 1) * measured)
            record = simulate._Record(n, 0)
            cuts = sorted(data.draw(st.lists(st.integers(0, measured), max_size=4)))
            for lo, hi in zip([0, *cuts], [*cuts, measured]):
                record.sojourns.extend(np.where(new[own][lo:hi], -values[own][lo:hi],
                                                values[own][lo:hi]).tolist())
                record.cls.extend(cls[own][lo:hi].tolist())
                record.flush()
            pipe = io.BytesIO()
            simulate._send(pipe, record)
            pipe.seek(0)
            received = simulate._Tally(n, 0, merged, merged_classes)
            simulate._receive(pipe, received)
            assert pipe.read() == b""
            serial = simulate._Tally(n, 0, whole, whole_classes)
            serial.feed(values[own].copy(), cls[own] if n > 1 else None,
                        np.bincount(cls[own][new[own]], minlength=n).tolist())
            assert ((received.sums, received.counts, received.visits)
                    == (serial.sums, serial.counts, serial.visits))
        assert merged.seen == whole.seen == reps * measured
        assert merged.sorted_array().tobytes() == whole.sorted_array().tobytes()
        for got, want in zip(merged_classes, whole_classes, strict=True):
            assert got.seen == want.seen
            assert got.sorted_array().tobytes() == want.sorted_array().tobytes()


def _feeds_in_caller(monkeypatch) -> list[int]:
    """Patch ``_merged_arrivals`` to count the arrivals each replication run
    in this process draws; a forked child's counts stay in the child."""
    counts: list[int] = []
    merged = simulate._merged_arrivals

    def counted(nodes, arr_rngs, mark_rngs, n_packets):
        counts.append(0)
        for chunk in merged(nodes, arr_rngs, mark_rngs, n_packets):
            if chunk[0][0] < math.inf:  # not the closing sentinel
                counts[-1] += len(chunk[0])
            yield chunk

    monkeypatch.setattr(simulate, "_merged_arrivals", counted)
    return counts


class TestCutReplication:
    """Where R mod P = 1, the last replication, a single node's or a
    chain's, is cut at an arrival that finds the system empty: process 1
    runs the tail, from arrival m on and from an empty system, and the
    caller splices it on at the first arrival in the tail's window at which
    both paths are empty, or runs the replication whole where there is
    none.  No bit may move."""

    RUNS = dict(chain=_chains(st.just(1)), seed=st.integers(0, 2 ** 64 - 1),
                warmup=st.floats(0.0, 0.49), block=st.integers(16, 5000),
                reps=st.sampled_from([3, 5, 7]), procs=st.sampled_from([2, 3]),
                data=st.data())

    @pytest.mark.parametrize("fill", ["below", "at", "over"])
    @settings(max_examples=5, phases=TestProcessCount.NO_SHRINK)
    @given(**RUNS)
    def test_cut_does_not_move_bits(self, fill, chain, seed, warmup, block, reps, procs,
                                    data):
        self._assert_same_bits(fill, chain, seed, warmup, block, reps, procs, data)

    @pytest.mark.parametrize("fill", ["below", "at", "over"])
    @settings(max_examples=5, phases=TestProcessCount.NO_SHRINK)
    @given(**dict(RUNS, chain=_chains(st.integers(2, 3))))
    def test_chain_cut_does_not_move_bits(self, fill, **run):
        self._assert_same_bits(fill, **run)

    @staticmethod
    def _assert_same_bits(fill, chain, seed, warmup, block, reps, procs, data):
        cfg = SimConfig(seed=seed, packets_per_replication=10_000, replications=reps,
                        warmup_fraction=warmup)
        total = reps * (10_000 - int(warmup * 10_000))
        cap = {"below": total + 1000, "at": total,
               "over": data.draw(st.integers(1, total - 1))}[fill]
        bits = []
        with mock.patch.object(simulate, "SAMPLE_CAP", cap), \
                mock.patch.object(simulate, "_BLOCK", block):
            for count in (1, procs):
                with mock.patch.object(simulate, "_cpus", lambda: count):
                    bits.append(_bits(run_chain(chain, cfg)))
        assert bits[1] == bits[0]

    PAPER_CFG = SimConfig(seed=5, packets_per_replication=20_000, replications=5)
    ASYMMETRIC = TestEngineEquivalence.CHAIN_CASES["criterion 9 asymmetric"][0]
    # two nodes whose new flows load the controller to 1.4
    SATURATED = TestEngineEquivalence.CHAIN_CASES["saturated controller"][0]

    def _run(self, monkeypatch, nodes, procs):
        # nodes: a chain's tuple, or one node
        monkeypatch.setattr(simulate, "_cpus", lambda: procs)
        nodes = nodes if isinstance(nodes, tuple) else (nodes,)
        return _bits(run_chain(ChainModel(nodes=nodes, controller=CTRL), self.PAPER_CFG))

    def test_splice_taken_at_a_paper_point(self, monkeypatch):
        # q_nf 0.2, rho_c 0.5: the system is empty at most arrivals, so the
        # caller splices soon after m = 11,000 and draws the arrivals of
        # the last replication only up to the block holding the splice
        node = NodeParams(0.5 * MU_C / 0.2, MU_L, 0.2)
        serial = self._run(monkeypatch, node, 1)
        counts = _feeds_in_caller(monkeypatch)
        assert self._run(monkeypatch, node, 2) == serial
        assert counts[:2] == [20_000, 20_000]  # replications 0 and 2, whole
        assert 12_000 <= counts[2] < 20_000

    def test_saturated_controller_falls_back(self, monkeypatch):
        # at rho_c = 1.2 the controller's queue grows all along, so the
        # caller's path is never empty in the window and it runs the last
        # replication to its end alone
        node = NodeParams(1.2 * MU_C, MU_L, 1.0)
        serial = self._run(monkeypatch, node, 1)
        counts = _feeds_in_caller(monkeypatch)
        assert self._run(monkeypatch, node, 2) == serial
        assert counts == [20_000] * 3

    def test_splice_checks_departures(self, monkeypatch):
        # a tail that reports one departure too many before each empty
        # arrival does not match the caller's count at the splice
        checked = simulate._Lindley.run_checked

        def miscounted(self, times, marks, first, empties, stop):
            n = len(empties)
            j = checked(self, times, marks, first, empties, stop)
            empties[n:] = [(i, d + 1) for i, d in empties[n:]]
            return j

        monkeypatch.setattr(simulate._Lindley, "run_checked", miscounted)
        with pytest.raises(SimulationInvariantError, match="splices at arrival"):
            self._run(monkeypatch, NodeParams(0.5 * MU_C / 0.2, MU_L, 0.2), 2)

    def test_chain_splice_taken_at_criterion_9(self, monkeypatch):
        # criterion 9's asymmetric chain is empty at most arrivals: the
        # caller splices soon after m = 11,000, not at the end
        serial = self._run(monkeypatch, self.ASYMMETRIC, 1)
        counts = _feeds_in_caller(monkeypatch)
        assert self._run(monkeypatch, self.ASYMMETRIC, 2) == serial
        assert counts[:2] == [20_000, 20_000]
        assert 11_000 <= counts[2] < 20_000

    def test_chain_saturated_controller_falls_back(self, monkeypatch):
        serial = self._run(monkeypatch, self.SATURATED, 1)
        counts = _feeds_in_caller(monkeypatch)
        assert self._run(monkeypatch, self.SATURATED, 2) == serial
        assert counts == [20_000] * 3

    # a light first node and a busy last one, loaded by local packets that
    # depart at their join: the heap often holds only its sentinel while the
    # last switch still serves, which is no regeneration point
    BUSY_LAST = (NodeParams(1000.0, MU_L, 0.5), NodeParams(0.8 * MU_L, MU_L, 0.0))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_chain_splice_waits_for_the_last_switch(self, monkeypatch, seed):
        cfg = SimConfig(seed=seed, packets_per_replication=10_000, replications=3)
        bits = []
        for procs in (1, 2):
            monkeypatch.setattr(simulate, "_cpus", lambda: procs)
            bits.append(_bits(run_chain(ChainModel(self.BUSY_LAST, CTRL), cfg)))
        assert bits[1] == bits[0]

    def test_chain_splice_checks_departures(self, monkeypatch):
        checked = simulate._Joins.run_checked

        def miscounted(self, times, cls, marks, first, empties, stop):
            n = len(empties)
            j = checked(self, times, cls, marks, first, empties, stop)
            empties[n:] = [(i, d + 1) for i, d in empties[n:]]
            return j

        monkeypatch.setattr(simulate._Joins, "run_checked", miscounted)
        with pytest.raises(SimulationInvariantError, match="splices at arrival"):
            self._run(monkeypatch, self.ASYMMETRIC, 2)


class TestScaleEquivariance:
    """Scaling every rate by 2**k scales every simulated time by exactly
    2**-k while all values stay normal floats: the draws are mean times
    standard draws, and sums, maxima and quotients commute with the scaling.
    So every statistic but the visit fraction must be the unscaled one times
    2**-k, bit for bit, in each engine and at P = 1 and 2 (R = 3, where a
    single node's last replication is cut)."""

    CASES = {
        "lindley": ((NodeParams(0.5 * MU_C / 0.2, MU_L, 0.2),), False),
        "joins": (TestEngineEquivalence.CHAIN_CASES["criterion 9 asymmetric"][0], False),
        "events": (TestEngineEquivalence.CHAIN_CASES["criterion 9 asymmetric"][0], True),
    }

    @pytest.mark.parametrize("procs", [1, 2])
    @pytest.mark.parametrize("engine", sorted(CASES))
    def test_power_of_two_rates_scale_every_time(self, monkeypatch, engine, procs):
        nodes, audit = self.CASES[engine]
        monkeypatch.setattr(simulate, "_cpus", lambda: procs)
        cfg = SimConfig(seed=8, packets_per_replication=10_000, replications=3)

        def run(k):
            scaled = tuple(NodeParams(math.ldexp(nd.lam, k), math.ldexp(nd.mu_switch, k),
                                      nd.q_nf) for nd in nodes)
            chain = ChainModel(nodes=scaled, controller=ControllerParams(math.ldexp(MU_C, k)))
            return run_chain(chain, cfg, audit=audit)

        base = run(0)
        for k in (-7, 5, 300):
            assert _scaled_bits(run(k), k) == _scaled_bits(base, 0), k


class TestForkedLifecycle:
    """Children of a forked run, seen from a fresh interpreter, so that no
    child of pytest's own is counted.  Each scenario forces two processes."""

    SCRIPT = textwrap.dedent("""
        import os, sys, warnings
        from collections import deque
        from sdnqueue import simulate
        from sdnqueue.analytic import ChainModel, ControllerParams, NodeParams, rate_from_us

        scenario = sys.argv[1]
        caller = os.getpid()
        simulate._cpus = lambda: 2
        fork = os.fork

        def warning_fork():
            # as CPython 3.12+ warns on forking a process that runs more than
            # one OS thread, which numpy's BLAS thread pool can make this one
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of "
                          "fork() may lead to deadlocks in the child.", DeprecationWarning)
            return fork()

        if scenario == "fork warns":
            os.fork = warning_fork

        if scenario == "child exits 3":
            send = simulate._send

            def send_and_exit(out, record):
                # the child's one replication is sent whole, then it fails
                send(out, record)
                os._exit(3)

            simulate._send = send_and_exit

        class Deque(deque):
            # serves newest first, which breaks FIFO order, in the caller only
            # or in the children only
            def popleft(self):
                lifo = (os.getpid() == caller) == scenario.endswith("caller raises")
                return self.pop() if lifo and scenario.endswith("raises") else super().popleft()

        simulate.deque = Deque
        mu_c = rate_from_us(240.0)
        # a saturated controller: one node at 1.3 times its rate, or two
        # chained at 0.7 each
        nodes = ((NodeParams(0.7 * mu_c, rate_from_us(9.8), 1.0),) * 2
                 if scenario.startswith("chain") else
                 (NodeParams(1.3 * mu_c, rate_from_us(9.8), 1.0),))
        packets = 200_000 if scenario.endswith("caller raises") else 10_000
        cfg = simulate.SimConfig(seed=3, packets_per_replication=packets, replications=2)
        try:
            simulate.run_chain(ChainModel(nodes=nodes, controller=ControllerParams(mu_c)),
                               cfg, audit=True)
            print("returned")
        except Exception as exc:
            print(type(exc).__name__ + ":", exc)
        try:
            os.waitpid(-1, os.WNOHANG)
            print("a child is left")
        except ChildProcessError:
            print("no child left")
    """)

    @pytest.mark.parametrize("scenario, outcome", [
        ("clean", "returned"),
        # run under -W error::DeprecationWarning, the fork's warning must not
        # reach the caller
        ("fork warns", "returned"),
        # replication 1 runs in the child, whose error the caller raises
        ("child raises", "SimulationInvariantError: FIFO order violated at the "),
        # replication 0 fails in the caller while the child runs 200k packets
        ("caller raises", "SimulationInvariantError: FIFO order violated at the "),
        # the same two with a 2-node chain, whose child holds class samples
        ("chain child raises", "SimulationInvariantError: FIFO order violated at the "),
        ("chain caller raises", "SimulationInvariantError: FIFO order violated at the "),
        # every result arrives, but the child's exit status says it failed
        ("child exits 3", "ChildProcessError: a replication process ended with exit codes [3]")])
    def test_no_child_outlives_the_run(self, scenario, outcome):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-W", "error::DeprecationWarning", "-c",
                               self.SCRIPT, scenario],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
        assert proc.returncode == 0, proc.stderr
        first, second = proc.stdout.splitlines()
        assert first.startswith(outcome)
        assert second == "no child left"


class TestFlatMemory:
    """The caller's peak memory does not grow with the packet budget; a
    forked process's grows by the measured samples of the replication it
    holds until sent.  The reservoir is capped at 1000 samples in each
    interpreter, so only the budget differs between its runs.  The caller's
    peak is its own VmHWM: its ``ru_maxrss`` starts at the peak of the
    process that launched it (Linux keeps it across exec), which under pytest
    hides tens of MB of growth."""

    SCRIPT = textwrap.dedent("""
        import resource, sys
        from sdnqueue import simulate
        from sdnqueue.analytic import ChainModel, ControllerParams, NodeParams, rate_from_us

        simulate.SAMPLE_CAP = 1000
        n_nodes, small, large = map(int, sys.argv[1:])
        node = NodeParams(2000.0, rate_from_us(9.8), 0.5)
        chain = ChainModel(nodes=(node,) * n_nodes, controller=ControllerParams(rate_from_us(240.0)))

        def peak_mb():
            try:
                with open("/proc/self/status") as fh:
                    return next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:")) / 1024
            except OSError:  # no procfs: ru_maxrss is in bytes on macOS
                return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 2 ** 20

        def peak_after(packets):
            cfg = simulate.SimConfig(seed=1, packets_per_replication=packets, replications=2)
            simulate.run_chain(chain, cfg)
            return peak_mb()

        base = peak_after(10_000)
        print(peak_after(small) - base, peak_after(large) - base)
    """)

    # Growth at the large budget less growth at the small one, in MB.  Kept
    # as per-replication lists, the samples made it ~74 MB at 2 x 1e6
    # single-node packets and ~22 MB at 2 x 2.5e5 chain packets.
    BOUND_MB = 5.0

    @pytest.mark.parametrize("n_nodes, small, large", [(1, 100_000, 1_000_000),
                                                        (2, 25_000, 250_000)])
    def test_peak_rss_flat_in_packet_budget(self, n_nodes, small, large):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, str(n_nodes), str(small),
                               str(large)], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)), timeout=300)
        assert proc.returncode == 0, proc.stderr
        grow_small, grow_large = map(float, proc.stdout.split())
        assert grow_large - grow_small <= self.BOUND_MB, (grow_small, grow_large)

    def test_caller_peak_flat_through_a_cut_replication(self):
        # the same runs with 3 replications on 2 processes: the caller runs
        # replication 0 and the head of replication 2, and measures the
        # tail's departures block by block as they are read; held whole, the
        # tail of 3e6 packets would add ~10.8 MB
        self._assert_flat_through_a_cut("1", "100000", "3000000")

    def test_caller_peak_flat_through_a_cut_chain_replication(self):
        # the same for a 2-node chain, whose tail of 2e6 packets, held
        # whole with its classes, would add ~8.1 MB
        self._assert_flat_through_a_cut("2", "50000", "2000000")

    def _assert_flat_through_a_cut(self, *args):
        script = self.SCRIPT.replace("replications=2", "replications=3").replace(
            "simulate.SAMPLE_CAP = 1000", "simulate.SAMPLE_CAP = 1000\nsimulate._cpus = lambda: 2")
        assert "replications=3" in script and "_cpus" in script
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", script, *args],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)), timeout=300)
        assert proc.returncode == 0, proc.stderr
        grow_small, grow_large = map(float, proc.stdout.split())
        assert grow_large - grow_small <= self.BOUND_MB, (grow_small, grow_large)

    CHILD_SCRIPT = textwrap.dedent("""
        import resource, sys
        from sdnqueue import simulate
        from sdnqueue.analytic import ChainModel, ControllerParams, NodeParams, rate_from_us

        simulate.SAMPLE_CAP = 1000
        simulate._cpus = lambda: 2
        mu_l = rate_from_us(9.8)
        n_nodes, packets = map(int, sys.argv[1:])
        # the same 4000 packets/s; in a chain, class 0 has 95% of the samples
        nodes = ((NodeParams(4000.0, mu_l, 0.5),) if n_nodes == 1 else
                 (NodeParams(3800.0, mu_l, 0.5), NodeParams(200.0, mu_l, 0.5)))
        chain = ChainModel(nodes=nodes, controller=ControllerParams(rate_from_us(240.0)))
        cfg = simulate.SimConfig(seed=1, packets_per_replication=packets, replications=2)
        simulate.run_chain(chain, cfg)
        # ru_maxrss is in kB on Linux, in bytes on macOS
        scale = 2 ** 20 if sys.platform == "darwin" else 2 ** 10
        print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / scale)
    """)

    @pytest.mark.parametrize("n_nodes", [1, 2])
    def test_forked_child_grows_by_its_measured_samples(self, n_nodes):
        # A forked replication holds its measured samples, 8 B each and 1 B
        # of class each in a chain, until it sends them: the only growth of
        # a child's peak with the budget, on top of the caller's at the fork.
        # Each budget runs in a fresh interpreter, so both children fork from
        # the same caller.  The measured growth is ~6.8 MB for one node and
        # ~8.4 MB for two against an 11.7 MB bound; a second copy of the
        # samples, as joining a replication's blocks before sending makes,
        # goes past it.
        src = Path(__file__).resolve().parents[1] / "src"

        def children_peak_mb(packets):
            proc = subprocess.run([sys.executable, "-c", self.CHILD_SCRIPT, str(n_nodes),
                                   str(packets)],
                                  capture_output=True, text=True,
                                  env=dict(os.environ, PYTHONPATH=str(src)), timeout=300)
            assert proc.returncode == 0, proc.stderr
            return float(proc.stdout)

        small, large = 25_000, 1_000_000
        extra = (large - int(0.1 * large)) - (small - int(0.1 * small))
        grow = children_peak_mb(large) - children_peak_mb(small)
        assert grow <= 8 * extra / 2 ** 20 + self.BOUND_MB, grow

    @pytest.mark.parametrize("audit", [False, True])
    def test_chain_blocks_bounded_while_draining(self, monkeypatch, audit):
        # with the controller at load 1.4, about 2,800 new flows of each
        # replication are still queued when arrivals stop, so the drain
        # alone makes several blocks: every block, the drain's too, holds at
        # most _BLOCK departures, and every admitted packet departs once.
        # The spy sees only the caller's blocks, so the replications run
        # there; a forked child runs the same engine code
        monkeypatch.setattr(simulate, "_cpus", lambda: 1)
        monkeypatch.setattr(simulate, "_BLOCK", 1000)
        sizes = []
        flush = simulate._Tally.flush

        def spy(tally):
            sizes.append(len(tally.sojourns))
            flush(tally)

        monkeypatch.setattr(simulate._Tally, "flush", spy)
        chain = ChainModel(nodes=(NodeParams(0.7 * MU_C, MU_L, 1.0),) * 2, controller=CTRL)
        run_chain(chain, SimConfig(seed=2, packets_per_replication=10_000, replications=2),
                  audit=audit)
        assert sum(sizes) == 2 * 10_000
        assert max(sizes) <= 1000


class _LifoDeque(deque):
    """A queue that serves its newest entry first: breaks every FIFO station."""

    def popleft(self):
        return self.pop()


class _LifoPacketDeque(deque):
    """A queue that serves its newest entry first when its entries are tuples
    (packets), and in order otherwise: a station that reorders its packets
    while a queue of bare stamps beside it stays in order."""

    def popleft(self):
        return self.pop() if isinstance(self[0], tuple) else super().popleft()


class TestInvariantChecks:
    def test_fifo_violation_raises(self, monkeypatch):
        monkeypatch.setattr(simulate, "deque", _LifoDeque)
        cfg = SimConfig(seed=3, packets_per_replication=10_000, replications=2)
        with pytest.raises(SimulationInvariantError, match="FIFO order violated"):
            run_single_node(NodeParams(1.3 * MU_C, MU_L, 1.0), CTRL, cfg, audit=True)

    def test_fifo_audit_checks_the_served_entry(self, monkeypatch):
        # the check must read the stamp of the entry served, not one kept apart
        monkeypatch.setattr(simulate, "deque", _LifoPacketDeque)
        cfg = SimConfig(seed=3, packets_per_replication=10_000, replications=2)
        with pytest.raises(SimulationInvariantError,
                           match="FIFO order violated at the controller"):
            run_single_node(NodeParams(1.3 * MU_C, MU_L, 1.0), CTRL, cfg, audit=True)

    def test_fifo_violation_raises_under_optimize(self):
        # `python -O` strips assert statements; the checks must not be asserts
        script = textwrap.dedent("""
            from collections import deque
            from sdnqueue import SimulationInvariantError, simulate
            from sdnqueue.analytic import ControllerParams, NodeParams, rate_from_us

            class LifoDeque(deque):
                def popleft(self):
                    return self.pop()

            simulate.deque = LifoDeque
            mu_c = rate_from_us(240.0)
            cfg = simulate.SimConfig(seed=3, packets_per_replication=10_000, replications=2)
            assert False, "assert statements must be stripped under -O"
            try:
                simulate.run_single_node(NodeParams(1.3 * mu_c, rate_from_us(9.8), 1.0),
                                         ControllerParams(mu_c), cfg, audit=True)
            except SimulationInvariantError as exc:
                print("raised:", exc)
        """)
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("raised: FIFO order violated")


class TestReservoir:
    def test_cap_respected_and_deterministic(self):
        from sdnqueue.simulate import _Reservoir
        r1 = _Reservoir(100, np.random.default_rng(1))
        r2 = _Reservoir(100, np.random.default_rng(1))
        chunks = [list(np.random.default_rng(k).random(137)) for k in range(5)]
        for c in chunks:
            r1.extend(c)
            r2.extend(c)
        assert len(r1.items) == 100
        assert r1.seen == 5 * 137
        assert np.array_equal(r1.sorted_array(), r2.sorted_array())

    def test_small_stream_kept_verbatim(self):
        from sdnqueue.simulate import _Reservoir
        r = _Reservoir(1000, np.random.default_rng(2))
        r.extend([3.0, 1.0, 2.0])
        assert list(r.sorted_array()) == [1.0, 2.0, 3.0]

    def test_over_cap_pinned(self):
        # recorded from the list-backed reservoir: the replacement draws and
        # slots must not move when the storage changes
        from sdnqueue.simulate import _Reservoir
        r = _Reservoir(1000, np.random.default_rng(7))
        for k in range(5):
            r.extend(list(np.random.default_rng(100 + k).random(737)))
        assert len(r.items) == 1000
        assert r.seen == 5 * 737
        assert (hashlib.sha256(r.sorted_array().tobytes()).hexdigest()
                == "79e059244af91e07ee500011c9b9fecf899dfc8f86823b98485d2824c0f95e2d")

    @settings(max_examples=100)
    @given(cap=st.integers(1, 300), over=st.sampled_from(["below", "at", "over"]),
           data=st.data())
    def test_chunked_feed_matches_one_call(self, cap, over, data):
        # the simulator feeds each replication in blocks, so a split of one
        # stream must keep every replacement draw and slot
        length = {"below": data.draw(st.integers(0, cap - 1)), "at": cap,
                  "over": data.draw(st.integers(cap + 1, 5 * cap))}[over]
        cuts = sorted(data.draw(st.lists(st.integers(0, length), max_size=10)))
        values = np.random.default_rng(length).random(length)
        whole = _Reservoir(cap, np.random.default_rng(cap))
        whole.extend(values)
        split = _Reservoir(cap, np.random.default_rng(cap))
        for lo, hi in zip([0, *cuts], [*cuts, length]):
            split.extend(values[lo:hi])
        assert split.seen == whole.seen == length
        assert split.sorted_array().tobytes() == whole.sorted_array().tobytes()


class TestTally:
    @pytest.mark.parametrize("n", [1, 2])
    def test_flush_counts_sign_bits_and_feeds_magnitudes(self, n):
        # an engine stores a departure that visited the controller negated,
        # so a zero sojourn is -0.0; the block straddles the warm-up (3
        # departures, two of them flagged), and only the measured flags count
        sojourns = [-1.0, 2.0, -0.0, 0.5, -0.0, -3.0, 0.0, 4.0]
        cls = [0, 1, 1, 0, 1, 0, 1, 1]
        streams = np.random.SeedSequence(0).spawn(n + 1)
        agg = _Reservoir(100, np.random.default_rng(streams[0]))
        classes = ([_Reservoir(100, np.random.default_rng(s)) for s in streams[1:]]
                   if n > 1 else [])
        tally = simulate._Tally(n, 3, agg, classes)
        tally.sojourns.extend(sojourns)
        tally.cls.extend(cls)  # the event loop fills it for one node too, and flush ignores it
        tally.flush()
        assert (tally.skip, tally.sojourns, tally.cls) == (0, [], [])
        # magnitudes only, so -0.0 arrives as +0.0
        measured = np.array([0.5, 0.0, 3.0, 0.0, 4.0])
        assert agg.items[:agg.seen].tobytes() == measured.tobytes()
        if n == 1:
            assert (tally.visits, tally.counts, tally.sums) == ([2], [5], [7.5])
        else:
            assert (tally.visits, tally.counts, tally.sums) == ([1, 1], [2, 3], [3.5, 4.0])
            assert classes[0].items[:classes[0].seen].tobytes() == measured[[0, 2]].tobytes()
            assert classes[1].items[:classes[1].seen].tobytes() == measured[[1, 3, 4]].tobytes()

    @pytest.mark.parametrize("n", [1, 2, 256])
    def test_flush_of_edge_values_matches_np_array(self, n):
        # signed zeros, subnormals, 1e308 and inf, flagged or not, must reach
        # the statistics as np.array would read the block; n = 256 puts the
        # classes in uint16
        values = [-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e308, -1e308,
                  math.inf, -math.inf, 1.5]
        sojourns = values * 30
        cls = [7 * k % n for k in range(len(sojourns))]
        skip = 5
        streams = np.random.SeedSequence(n).spawn(n + 1)
        agg = _Reservoir(1000, np.random.default_rng(streams[0]))
        classes = ([_Reservoir(1000, np.random.default_rng(s)) for s in streams[1:]]
                   if n > 1 else [])
        tally = simulate._Tally(n, skip, agg, classes)
        tally.sojourns.extend(sojourns)
        tally.cls.extend(cls)
        with np.errstate(over="ignore"):  # 1e308 + 1e308 sums to inf
            tally.flush()
        x = np.array(sojourns)[skip:]
        new = np.signbit(x)
        x = np.abs(x)
        c = np.array(cls, dtype=np.min_scalar_type(n))[skip:] if n > 1 else np.zeros(len(x), int)
        assert agg.items[:agg.seen].tobytes() == x.tobytes()
        want = [x[c == i] for i in range(n)]
        for reservoir, xi in zip(classes, want):
            assert reservoir.items[:reservoir.seen].tobytes() == xi.tobytes()
        assert tally.counts == [len(xi) for xi in want]
        assert tally.visits == [int(np.count_nonzero(new[c == i])) for i in range(n)]
        with np.errstate(over="ignore"):
            sums = [np.cumsum(xi)[-1] if len(xi) else 0.0 for xi in want]
        assert np.array(tally.sums).tobytes() == np.array(sums).tobytes()


class _TypeLog(simulate._Record):
    """A record that notes the type of every value an engine appends."""

    __slots__ = ("types",)

    def __init__(self, n: int):
        super().__init__(n, 0)
        self.types: set[type] = set()

    def flush(self) -> None:
        self.types.update(map(type, self.sojourns))
        self.types.update(map(type, self.cls))
        super().flush()


class TestPythonScalars:
    """The engines' loops run on Python floats, ints and bools read from numpy
    buffers.  Numpy scalars there would keep every bit but run several times
    slower, so no bit test would notice them."""

    def test_streams_hand_out_python_scalars(self):
        rng = np.random.default_rng(1)
        assert type(simulate._exponentials(rng, 2.0)()) is float
        assert type(simulate._draws(rng.random)()) is float
        nodes = (NodeParams(2000.0, MU_L, 0.5), NodeParams(1000.0, MU_L, 0.2))
        rngs = [np.random.default_rng(s) for s in range(4)]
        times, cls, marks = next(simulate._merged_arrivals(nodes, rngs[:2], rngs[2:], 10_000))
        assert len(times) == len(cls) == len(marks) > 0
        assert ({type(v) for v in times}, {type(v) for v in cls},
                {type(v) for v in marks}) == ({float}, {int}, {bool})
        # one class's chunk is its block as drawn, with no merge
        times, _, marks = next(simulate._merged_arrivals(nodes[:1], rngs[:1], rngs[2:3], 10_000))
        assert len(times) == len(marks) == simulate._BLOCK
        assert ({type(v) for v in times}, {type(v) for v in marks}) == ({float}, {bool})

    @pytest.mark.parametrize("engine, n", [("_run_lindley", 1), ("_run_joins", 2),
                                           ("_run_events", 2)])
    def test_engines_append_python_scalars(self, engine, n):
        chain = ChainModel(nodes=(NodeParams(2000.0, MU_L, 0.5),) * n, controller=CTRL)
        record = _TypeLog(n)
        getattr(simulate, engine)(chain, 5_000, record, np.random.SeedSequence(3))
        assert record.types == ({float} if engine == "_run_lindley" else {float, int})
