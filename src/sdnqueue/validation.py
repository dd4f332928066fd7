"""Acceptance criteria for the whole toolkit, runnable as one suite.

Each criterion pins its tolerances and returns a pass/fail verdict with the
measured values, so both the ``validate`` CLI subcommand and the pytest
acceptance module share one implementation.  Simulation-backed criteria use a
fixed default seed; per-point confidence intervals over 5 replications cover
the true mean only ~88% of the time (normal 95% interval on 4 dof), which the
grid allowances absorb at the default seed.

Quick mode shrinks the replication size to 20k packets and rescales the
sample-count-driven tolerances by sqrt(n_full / n_quick); CI-based checks need
no rescaling because the interval itself widens.

Criterion 3 integrates the sojourn law numerically with numpy alone: one
composite 20-point Gauss-Legendre rule on geometrically growing panels
(``_law_integrals``), with no tolerance or option to tune.  The rule's nodes
and weights are computed once per process, when criterion 3 first needs them.

Criteria 1, 2, 3 and 9 check closed forms at seeded random points; each draws
all of its points in one numpy call (``_draw_points``), the same numbers a loop
of scalar draws would give.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .analytic import (
    ChainModel,
    ControllerParams,
    NodeParams,
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
from .distribution import build_distribution, ccdf, pdf, prob_within_deadline
from .dimensioning import (
    SweepSpec,
    default_delay_bound_grid,
    max_throughput,
    stability_supremum,
    sweep,
    zero_load_sojourn,
)
from .simulate import SimConfig, run_chain, run_single_node

DEFAULT_SEED = SimConfig.seed
MU_SWITCH = rate_from_us(9.8)
MU_CONTROLLER = rate_from_us(240.0)
DEADLINE = 0.5e-3

_QUICK_PACKETS = 20_000
_KS_PACKETS = 222_223    # 5 reps, 10% warmup -> ~1e6 measured samples

# the paper's operating point: its controller, and a node at controller load rho_c
_CTRL = ControllerParams(MU_CONTROLLER)


def _paper_node(q: float, rho_c: float) -> NodeParams:
    return NodeParams(rho_c * MU_CONTROLLER / q, MU_SWITCH, q)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    runtime_s: float
    budget_s: float
    details: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (f"[{tag}] criterion {self.number:2d} {self.name} "
                f"({self.runtime_s:.1f}s / budget {self.budget_s:.0f}s): {self.details}")


def _sim_cfg(seed: int, quick: bool,
             packets: int = SimConfig.packets_per_replication) -> SimConfig:
    return SimConfig(seed=seed, packets_per_replication=_QUICK_PACKETS if quick else packets)


def _point_seed(seed: int, *key: int) -> int:
    """Deterministic child seed for one grid point.

    Grid criteria give every point its own stream: with one shared seed the
    per-point CI misses are strongly correlated (common random numbers move a
    whole row together), so a single unlucky draw could wipe out many points
    at once.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint64)[0])


def _ks_distance(sorted_samples: np.ndarray, cdf_values: np.ndarray) -> float:
    n = len(sorted_samples)
    i = np.arange(n)
    return float(max(np.max(cdf_values - i / n), np.max((i + 1) / n - cdf_values)))


def _draw_points(seed: int, n: int, *bounds: tuple[float, float]) -> list[list[float]]:
    """``n`` points from a generator seeded ``seed``, coordinate j uniform on
    ``bounds[j]``, as Python floats.

    One call fills the rows from the stream in the order, and with the
    arithmetic, of a per-point loop of scalar ``rng.uniform(low, high)``
    draws, so the points are those of that loop bit for bit.
    """
    lows, highs = zip(*bounds)
    return np.random.default_rng(seed).uniform(lows, highs, (n, len(bounds))).tolist()


def _criterion_1(quick: bool, seed: int) -> tuple[bool, str]:
    ok = derive_q_jack(1.0) == 0.5 and derive_q_jack(0.0) == 0.0
    worst = 0.0
    for q, e in _draw_points(0xC1, 1000, (0.0, 1.0), (0.0, 6.0)):
        lam = 10.0 ** e
        node = NodeParams(lam, 10.0 * lam, q)
        rates = solve_rates(node, ControllerParams(10.0 * lam))
        want = q * lam
        got = rates.q_jack * rates.gamma_switch
        err = abs(got - want) / want if want else abs(got)
        worst = max(worst, err)
    ok = ok and worst <= 1e-12
    return ok, f"endpoints exact, worst feedback-balance rel err {worst:.2e} (tol 1e-12)"


def _criterion_2(quick: bool, seed: int) -> tuple[bool, str]:
    worst = 0.0
    for q, e_l, e_c, f in _draw_points(0xC2, 1000, (0.0, 1.0), (2.0, 6.0), (2.0, 6.0),
                                       (0.02, 0.98)):
        mu_l, mu_c = 10.0 ** e_l, 10.0 ** e_c
        lam = f * stability_supremum(q, mu_l, mu_c)
        node = NodeParams(lam, mu_l, q)
        ctrl = ControllerParams(mu_c)
        rates = solve_rates(node, ctrl)
        w_net = mean_sojourn_jackson(rates, node)
        w_path = mean_sojourn_openflow(node, ctrl, rates)
        worst = max(worst, abs(w_net - w_path) / w_path)
    ok = worst <= 1e-12
    return ok, f"worst |network form - path form| rel diff {worst:.2e} over 1000 stable tuples (tol 1e-12)"


def _criterion_3_points() -> list[tuple[NodeParams, ControllerParams]]:
    """Criterion 3's 306 random stable laws: 300 for the coefficient sums,
    then 6 for the integrals."""
    points = []
    for q, e_l, e_c, f in _draw_points(0xC3, 306, (0.05, 1.0), (3.0, 5.5), (3.0, 5.5),
                                       (0.1, 0.9)):
        mu_l, mu_c = 10.0 ** e_l, 10.0 ** e_c
        lam = f * stability_supremum(q, mu_l, mu_c)
        points.append((NodeParams(lam, mu_l, q), ControllerParams(mu_c)))
    return points


@functools.cache
def _gauss_legendre_20() -> tuple[np.ndarray, np.ndarray]:
    """The 20-point Gauss-Legendre nodes and weights on [-1, 1], read-only."""
    # numpy.polynomial is loaded here, not when the module is imported
    rule = np.polynomial.legendre.leggauss(20)
    for a in rule:
        a.flags.writeable = False
    return rule


def _law_integrals(d, horizon: float,
                   s_values: tuple[float, ...]) -> tuple[float, float, list[float]]:
    """Integrals over [0, horizon] of pdf, of ccdf, and of e^(-st) pdf for each s.

    A composite 20-point Gauss-Legendre rule on the panels [0, w], [w, 2w],
    [2w, 4w], ..., w = 1/(4 max(a_l, a_c)), the last clipped at the horizon:
    no panel is wider than its distance from 0 (past the first), so the panels
    stay short where the fast exponential lives and grow with the slow one.
    """
    x, wx = _gauss_legendre_20()
    w = 0.25 / max(d.a_switch, d.a_controller)
    k = math.ceil(math.log2(horizon / w)) + 1
    edges = np.append(0.0, np.minimum(w * 2.0 ** np.arange(k), horizon))
    half = np.diff(edges)[:, None] / 2.0
    t = edges[:-1, None] + half * (x + 1.0)
    weights = half * wx
    density = pdf(d, t)
    return (float(np.sum(weights * density)), float(np.sum(weights * ccdf(d, t))),
            [float(np.sum(weights * np.exp(-s * t) * density)) for s in s_values])


def _criterion_3(quick: bool, seed: int) -> tuple[bool, str]:
    points = _criterion_3_points()
    worst_sum = 0.0
    for node, ctrl in points[:300]:
        d = build_distribution(node, ctrl, solve_rates(node, ctrl))
        if not d.degenerate:
            worst_sum = max(worst_sum, abs(d.b1 + d.b2 + d.d - 1.0))
    ok = worst_sum <= 1e-12

    worst_pdf = worst_mean = worst_lap = 0.0
    for node, ctrl in points[300:]:
        rates = solve_rates(node, ctrl)
        d = build_distribution(node, ctrl, rates)
        horizon = 50.0 / min(d.a_switch, d.a_controller)
        a_l, a_c, q = d.a_switch, d.a_controller, d.q_nf
        s_values = (a_l / 2.0, a_l, 2.0 * a_l)
        total, mean_int, laplace = _law_integrals(d, horizon, s_values)
        worst_pdf = max(worst_pdf, abs(total - 1.0))
        w7 = mean_sojourn_openflow(node, ctrl, rates)
        worst_mean = max(worst_mean, abs(mean_int - w7) / w7)
        for s, num in zip(s_values, laplace):
            closed = ((1.0 - q) * a_l / (a_l + s)
                      + q * (a_l / (a_l + s)) ** 2 * (a_c / (a_c + s)))
            worst_lap = max(worst_lap, abs(num - closed) / closed)
    ok = ok and worst_pdf <= 1e-9 and worst_mean <= 1e-6 and worst_lap <= 1e-6

    # continuity across the equal-rates boundary (mu_c = mu_l - lam)
    lam, mu_l, q = 1000.0, 10000.0, 0.5
    node_eq = NodeParams(lam, mu_l, q)
    ctrl_eq = ControllerParams(mu_l - lam)
    d_eq = build_distribution(node_eq, ctrl_eq, solve_rates(node_eq, ctrl_eq))
    a = d_eq.a_switch
    mu_c_near = a * (1.0 + 1e-6) + q * lam
    node_near = NodeParams(lam, mu_l, q)
    ctrl_near = ControllerParams(mu_c_near)
    d_near = build_distribution(node_near, ctrl_near, solve_rates(node_near, ctrl_near))
    ts = np.linspace(1e-9, 30.0 / a, 100)
    cont_pdf = float(np.max(np.abs(pdf(d_near, ts) - pdf(d_eq, ts)) / pdf(d_eq, ts)))
    cont_ccdf = float(np.max(np.abs(ccdf(d_near, ts) - ccdf(d_eq, ts)) / ccdf(d_eq, ts)))
    ok = ok and d_eq.degenerate and cont_pdf <= 1e-5 and cont_ccdf <= 1e-5
    return ok, (f"coeff sum err {worst_sum:.1e} (1e-12), pdf integral err {worst_pdf:.1e} (1e-9), "
                f"mean identity err {worst_mean:.1e} (1e-6), laplace err {worst_lap:.1e} (1e-6), "
                f"degenerate continuity {max(cont_pdf, cont_ccdf):.1e} (1e-5)")


def _criterion_4(quick: bool, seed: int) -> tuple[bool, str]:
    hits = 0
    points = []
    rhos = [round(0.1 * k, 1) for k in range(1, 10)]
    for qi, q in enumerate((0.2, 1.0)):
        for ri, rho_c in enumerate(rhos):
            node = _paper_node(q, rho_c)
            pred = mean_sojourn_openflow(node, _CTRL, solve_rates(node, _CTRL))
            cfg = _sim_cfg(_point_seed(seed, 40, qi, ri), quick)
            res = run_single_node(node, _CTRL, cfg)
            inside = abs(res.mean_sojourn - pred) <= res.ci_halfwidth
            hits += inside
            if not inside:
                points.append(f"q={q},rho_c={rho_c}:"
                              f"{abs(res.mean_sojourn - pred) / res.ci_halfwidth:.2f}ci")
    ok = hits >= 16
    misses = ("; misses " + ", ".join(points)) if points else ""
    return ok, f"analytic mean inside 95% CI at {hits}/18 grid points (need >= 16){misses}"


def _criterion_5(quick: bool, seed: int) -> tuple[bool, str]:
    cfg = _sim_cfg(seed, quick)
    parts = []
    ok = True
    # (q_nf, rho_c): 0.9 is the near-extreme point where the uncorrected model
    # is still stable (it inflates the controller load tenfold); at
    # (0.5, 0.8) the uncorrected model is saturated outright.
    for q, rho_c in ((0.9, 0.09), (0.5, 0.8)):
        node = _paper_node(q, rho_c)
        rates = solve_rates(node, _CTRL)
        pred = mean_sojourn_openflow(node, _CTRL, rates)
        res = run_single_node(node, _CTRL, cfg)
        mod_dev = abs(res.mean_sojourn - pred) / res.ci_halfwidth
        try:
            naive = mean_sojourn_naive_jackson(node, _CTRL)
            naive_dev = abs(res.mean_sojourn - naive) / res.ci_halfwidth
            naive_txt = f"{naive_dev:.0f}ci"
        except UnstableSystemError:
            naive_dev = math.inf
            naive_txt = "inf (uncorrected model saturated)"
        ok = ok and naive_dev > 3.0 and mod_dev <= 3.0
        parts.append(f"q={q},rho_c={rho_c}: uncorrected dev {naive_txt}, "
                     f"corrected dev {mod_dev:.2f}ci")
    return ok, "; ".join(parts) + " (need uncorrected > 3ci, corrected <= 3ci)"


def _criterion_6(quick: bool, seed: int) -> tuple[bool, str]:
    cfg = _sim_cfg(seed, quick, _KS_PACKETS)
    ok = True
    parts = []
    for rho in (0.3, 0.6, 0.9):
        lam = rho * MU_SWITCH
        node = NodeParams(lam, MU_SWITCH, 0.0)
        res = run_single_node(node, _CTRL, cfg)
        a = MU_SWITCH - lam
        dev = abs(res.mean_sojourn - 1.0 / a) / res.ci_halfwidth
        s = res.empirical_ccdf
        ks_tol = 0.01 * math.sqrt(1e6 / len(s))  # len(s) = min(1e6, samples measured)
        ks = _ks_distance(s, 1.0 - np.exp(-a * s))
        # The KS gate applies at the low/moderate loads; at rho=0.9 the
        # sojourn autocorrelation alone pushes the sup-deviation of 1e6
        # dependent samples to ~0.01, so that load is reported, not gated.
        gate_ks = rho < 0.9
        ok = ok and dev <= 1.0 and (not gate_ks or ks < ks_tol)
        parts.append(f"rho={rho}: mean dev {dev:.2f}ci, KS {ks:.4f}"
                     + ("" if gate_ks else " (reported)"))
    return ok, "; ".join(parts) + f" (KS tol {ks_tol:.3g} at rho<0.9)"


def _criterion_7(quick: bool, seed: int) -> tuple[bool, str]:
    ok = True
    parts = []
    for q in (0.2, 0.5, 1.0):
        w0 = zero_load_sojourn(q, MU_SWITCH, MU_CONTROLLER)
        sup = stability_supremum(q, MU_SWITCH, MU_CONTROLLER)
        res = max_throughput(1e3 * w0, q_nf=q, mu_switch=MU_SWITCH,
                             mu_controller=MU_CONTROLLER)
        rel_gap = (sup - res.rate) / sup
        grid = default_delay_bound_grid(q, MU_SWITCH, MU_CONTROLLER)
        rates = [max_throughput(b, q_nf=q, mu_switch=MU_SWITCH,
                                mu_controller=MU_CONTROLLER).rate for b in grid]
        monotone = all(b >= a for a, b in zip(rates, rates[1:]))
        bounded = all(r <= sup for r in rates)
        ok = ok and rel_gap <= 1e-3 and monotone and bounded
        parts.append(f"q={q}: gap to supremum {rel_gap:.2e}, monotone={monotone}")
    return ok, "; ".join(parts) + " (gap tol 1e-3)"


def _criterion_8(quick: bool, seed: int) -> tuple[bool, str]:
    cfg = _sim_cfg(seed, quick, _KS_PACKETS)
    ok = True
    parts = []
    for q in (0.2, 0.5, 1.0):
        scan = SweepSpec("rho_controller", [0.05 * k for k in range(1, 20)],
                         _paper_node(q, 1.0), _CTRL,  # the node's lambda is swept
                         ("deadline_prob",), deadline=DEADLINE)
        probs = [row["deadline_prob"] for row in sweep(scan)]
        monotone = all(b <= a + 1e-12 for a, b in zip(probs, probs[1:]))
        ok = ok and monotone
        for rho_c in (0.3, 0.5, 0.7):
            node = _paper_node(q, rho_c)
            d = build_distribution(node, _CTRL, solve_rates(node, _CTRL))
            pred = prob_within_deadline(d, DEADLINE)
            res = run_single_node(node, _CTRL, cfg)
            # the tolerances scale with the samples kept, min(1e6, samples measured)
            scale = math.sqrt(1e6 / len(res.empirical_ccdf))
            tol_low, tol_high = 0.01 * scale, 0.03 * scale
            emp = float(np.mean(res.empirical_ccdf <= DEADLINE))
            dev = abs(pred - emp)
            tol = tol_high if rho_c >= 0.7 else tol_low
            ok = ok and dev <= tol
            flag = " (over nominal 0.01)" if rho_c >= 0.7 and dev > tol_low else ""
            parts.append(f"q={q},rho_c={rho_c}: dev {dev:.4f}{flag}")
    return ok, ("; ".join(parts)
                + f" (monotone per q; tol {tol_low:.3g}, {tol_high:.3g} at rho_c=0.7)")


def _criterion_9(quick: bool, seed: int) -> tuple[bool, str]:
    worst_alg = 0.0
    for e, q in _draw_points(0xC9, 200, (1.0, 5.0), (0.0, 1.0)):
        lam = 10.0 ** e
        chain = ChainModel(
            nodes=(NodeParams(lam, 10.0 * lam, q), NodeParams(lam, 10.0 * lam, q)),
            controller=ControllerParams(10.0 * lam))
        sol = solve_chain(chain)
        want = q * lam / (lam + lam * (1.0 + q))
        worst_alg = max(worst_alg, abs(sol.nodes[1].q_jack - want) / want if want
                        else abs(sol.nodes[1].q_jack))
        # feedback balance at node 2
        bal = sol.nodes[1].q_jack * sol.nodes[1].gamma_switch
        worst_alg = max(worst_alg, abs(bal - q * lam) / (q * lam) if q else abs(bal))
    ok = worst_alg <= 1e-12

    parts = [f"two-node feedback algebra err {worst_alg:.1e} (tol 1e-12)"]
    cases = [
        ("symmetric", ChainModel(
            nodes=(NodeParams(3000.0, MU_SWITCH, 0.5),
                   NodeParams(3000.0, MU_SWITCH, 0.5)),
            controller=_CTRL)),
        ("asymmetric", ChainModel(
            nodes=(NodeParams(2000.0, MU_SWITCH, 0.2),
                   NodeParams(1000.0, MU_SWITCH, 1.0)),
            controller=_CTRL)),
    ]
    for ci, (label, chain) in enumerate(cases):
        sol = solve_chain(chain)
        pred = chain_sojourn(chain, sol)
        res = run_chain(chain, _sim_cfg(_point_seed(seed, 9, ci), quick))
        agg_dev = abs(res.aggregate.mean_sojourn - pred.aggregate) / res.aggregate.ci_halfwidth
        cls_devs = [abs(r.mean_sojourn - p) / r.ci_halfwidth
                    for r, p in zip(res.per_class, pred.per_class)]
        ok = ok and agg_dev <= 1.0
        parts.append(f"{label}: aggregate dev {agg_dev:.2f}ci, "
                     f"per-class {', '.join(f'{d:.2f}ci' for d in cls_devs)}")
    return ok, "; ".join(parts) + " (aggregate gated at 1ci)"


def _criterion_10(quick: bool, seed: int) -> tuple[bool, str]:
    import contextlib
    import filecmp
    import io
    import tempfile
    from pathlib import Path

    from . import cli

    audit_cfg = SimConfig(seed=seed, packets_per_replication=10_000, replications=2)
    # audited runs raise on a conservation or FIFO violation, or unless the
    # controller is visited exactly when a new flow
    run_single_node(NodeParams(0.5 * MU_CONTROLLER, MU_SWITCH, 0.5), _CTRL,
                    audit_cfg, audit=True)
    run_single_node(NodeParams(1.2 * MU_CONTROLLER, MU_SWITCH, 1.0), _CTRL,
                    audit_cfg, audit=True)  # saturated controller, still legal
    run_chain(ChainModel(nodes=(NodeParams(2000.0, MU_SWITCH, 0.3),
                                NodeParams(1500.0, MU_SWITCH, 0.8)),
                         controller=_CTRL),
              audit_cfg, audit=True)

    with tempfile.TemporaryDirectory() as tmp:
        out1 = Path(tmp) / "a.csv"
        out2 = Path(tmp) / "b.csv"
        argv = ["simulate", "--lam", "2000", "--q-nf", "0.5",
                "--mu-switch-us", "9.8", "--mu-controller-us", "240",
                "--packets", "20000", "--replications", "3",
                "--seed", str(seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            rc1 = cli.main(argv + ["--output", str(out1)])
            rc2 = cli.main(argv + ["--output", str(out2)])
        identical = filecmp.cmp(out1, out2, shallow=False)
        size = out1.stat().st_size
    ok = rc1 == 0 and rc2 == 0 and identical
    return ok, (f"audited runs clean (conservation, FIFO, controller visited exactly when a new flow); "
                f"repeat CSV byte-identical={identical} ({size} bytes)")


# criterion number -> (name, check, runtime budget in seconds)
_CRITERIA = {
    1: ("feedback-correction exactness", _criterion_1, 1.0),
    2: ("mean-sojourn equivalence (two forms)", _criterion_2, 1.0),
    3: ("sojourn-distribution internal consistency", _criterion_3, 10.0),
    4: ("model vs simulation grid", _criterion_4, 180.0),
    5: ("uncorrected-model discrimination", _criterion_5, 60.0),
    6: ("M/M/1 degenerate sanity", _criterion_6, 60.0),
    7: ("throughput saturation limit", _criterion_7, 5.0),
    8: ("deadline probability vs controller load", _criterion_8, 180.0),
    9: ("two-node chain consistency", _criterion_9, 120.0),
    10: ("simulator invariants & reproducibility", _criterion_10, 60.0),
}


def criterion_numbers() -> tuple[int, ...]:
    return tuple(_CRITERIA)


def run_criterion(number: int, quick: bool = False,
                  seed: int = DEFAULT_SEED) -> CriterionResult:
    if number not in _CRITERIA:
        raise ValueError(f"unknown criterion {number}; valid: {criterion_numbers()}")
    name, fn, budget = _CRITERIA[number]
    start = time.perf_counter()
    passed, details = fn(quick, seed)
    elapsed = time.perf_counter() - start
    if not quick and elapsed >= budget:
        passed = False
        details += f"; RUNTIME {elapsed:.1f}s exceeded budget {budget:.0f}s"
    return CriterionResult(number, name, passed, elapsed, budget, details)


def run_criteria(numbers: tuple[int, ...] | None = None, quick: bool = False,
                 seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    if numbers is None:
        numbers = criterion_numbers()
    return [run_criterion(n, quick=quick, seed=seed) for n in numbers]
