"""Discrete-event simulator: statistics, semantics, determinism, audits."""

import hashlib
import os
import subprocess
import sys
import textwrap
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from sdnqueue import SimulationInvariantError, simulate
from sdnqueue.analytic import ChainModel, ControllerParams, NodeParams, rate_from_us
from sdnqueue.simulate import SimConfig, run_chain, run_single_node

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
    """A single node without audit runs the Lindley loop; ``audit=True`` runs
    the event loop.  Both must give the same bits.  2 x 40k packets make the
    arrival, mark, switch and controller draws cross a block refill."""

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

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_lindley_loop_matches_event_loop(self, case):
        node, ctrl, warmup = self.CASES[case]
        cfg = SimConfig(seed=17, packets_per_replication=40_000, replications=2,
                        warmup_fraction=warmup)
        fast = run_single_node(node, ctrl, cfg)
        des = run_single_node(node, ctrl, cfg, audit=True)
        assert fast.per_replication_means == des.per_replication_means
        assert fast.mean_sojourn == des.mean_sojourn
        assert fast.ci_halfwidth == des.ci_halfwidth
        assert fast.controller_visit_fraction == des.controller_visit_fraction
        assert fast.empirical_ccdf.tobytes() == des.empirical_ccdf.tobytes()


class _LifoDeque(deque):
    """A queue that serves its newest entry first: breaks every FIFO station."""

    def popleft(self):
        return self.pop()


class TestInvariantChecks:
    def test_fifo_violation_raises(self, monkeypatch):
        monkeypatch.setattr(simulate, "deque", _LifoDeque)
        cfg = SimConfig(seed=3, packets_per_replication=10_000, replications=2)
        with pytest.raises(SimulationInvariantError, match="FIFO order violated"):
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
