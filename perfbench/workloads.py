"""Benchmark workloads: seeded inputs, the calls into the library, the checks.

Each workload turns the benchmark seed into a list of pass inputs; the library
receives only those generated inputs.  A pass is one closed loop: a single
caller in one thread makes each call, waits for its result and checks it
before making the next.  Every pass of a run draws fresh inputs, so caches
inside the library cannot turn repeated passes into repeated work.

Every timed call into the library is one operation.  It is timed, checked
against the reference arithmetic in ``checks``, and counted as failed if any
check finds a problem.  Calls made only to check a result are spanned when
tracing but are not operations.
"""

from __future__ import annotations

import contextlib
import csv
import io
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np
import sdnqueue as sq
from sdnqueue import cli, validation

import checks

PAPER_MU_SWITCH = 1e6 / 9.8      # 1 / 9.8 us
PAPER_MU_CONTROLLER = 1e6 / 240.0  # 1 / 240 us

# Inputs are drawn for at most this many passes; a run stops measuring when
# they are used up.
MAX_PASSES = 100
SIM_REPLICATIONS = 5
SIM_PACKETS = 20_000
# 5 replications of this many packets keep 1,000,005 departures after warm-up,
# just over the simulator's 10**6 retained-sample cap.
RESERVOIR_PACKETS = 222_223
# The dimension mix.  At each operating point it makes the call kinds of the
# repo's workflow demos: solve_rates and the mean (demos/01), the sojourn law
# tabulated by ccdf and pdf at TABLE_TIMES times, one deadline probability and
# a quantile (demos/02), and max_throughput at several delay bounds
# (demos/04).  demos/02 reads four quantile levels; each point draws one of
# them, since a quantile costs as much as 40 scalar ccdf calls.  The counts
# are set so that at the baseline commit each of five groups -- quantile, the
# other distribution calls, dimensioning, cli and validation -- takes 10-30%
# of a pass; a traced run records the shares it measured.
DIMENSION_POINTS = 200
DIMENSION_CHAINS = 20
TABLE_TIMES = 7
THROUGHPUT_BOUNDS = 12
QUANTILE_PS = (0.5, 0.9, 0.99, 0.999)
CLI_ROUNDS = 4
VECTOR_POINTS = 1_000_000
CRITERIA = (1, 2, 3, 7)


class Recorder:
    """Times operations, checks their results and, when tracing, records spans.

    With a ``speed.SpeedClock``, latencies are scaled to its fixed speed.
    """

    def __init__(self, tracer=None, clock=None):
        self.tracer = tracer
        self.clock = clock
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.counts: Counter = Counter()
        self.values: dict[str, list[float]] = defaultdict(list)
        self._op = -1

    def op(self, name: str, fn: Callable, *args, check=None,
           expect_unstable: tuple[str, ...] = (), **kwargs):
        """Call ``fn`` as one timed operation and check what it returns.

        ``expect_unstable`` names the saturated stations when the call must
        raise UnstableSystemError naming exactly those; otherwise the call
        must return, and ``check(result)`` lists any problems.
        """
        self._op += 1
        result = exc = None
        mark = self.clock.mark() if self.clock is not None else None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as err:  # a failed operation is counted, not fatal
            exc = err
        end = perf_counter()
        self.latencies.append(end - start if mark is None
                              else self.clock.scale(mark, end - start)[1])
        self.counts[name] += 1
        if self.tracer is not None:
            self.tracer.add(name, start, end, self._op)
            with self.tracer.span("check", self._op):
                problems = self._judge(name, result, exc, check, expect_unstable)
        else:
            problems = self._judge(name, result, exc, check, expect_unstable)
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.extend(problems)
        return result

    @staticmethod
    def _judge(name, result, exc, check, expect_unstable) -> list[str]:
        if expect_unstable:
            if (isinstance(exc, sq.UnstableSystemError)
                    and set(exc.stations) == set(expect_unstable)):
                return []
            got = repr(exc) if exc is not None else "a result"
            return [f"{name}: expected UnstableSystemError{expect_unstable}, got {got}"]
        if exc is not None:
            return [f"{name} raised {exc!r}"]
        return check(result) if check is not None else []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """A library call made by a check: spanned when tracing, not an operation."""
        if self.tracer is None:
            return fn(*args, **kwargs)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.tracer.add(name, start, perf_counter(), self._op)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable[[int], list]
    run_pass: Callable[[Recorder, object, Path], None]
    needs_scipy: bool = False


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _child_seed(seed: int, *key: int) -> int:
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


# --- simulation workloads ---------------------------------------------------

@dataclass(frozen=True)
class SimCase:
    """One simulation call: nodes as (lam, mu_switch, q_nf), shared controller."""

    label: str
    nodes: tuple[tuple[float, float, float], ...]
    mu_controller: float
    seed: int
    packets: int = SIM_PACKETS
    chain: bool = False


def sim_paper_inputs(seed: int) -> list[list[SimCase]]:
    """Fig-3 / criterion-4 grid: q_nf in {0.2, 1.0}, rho_c = 0.1 .. 0.9."""
    passes = []
    for k in range(MAX_PASSES):
        cases = []
        for qi, q in enumerate((0.2, 1.0)):
            for ri in range(1, 10):
                rho_c = ri / 10.0
                lam = rho_c * PAPER_MU_CONTROLLER / q
                cases.append(SimCase(f"q={q},rho_c={rho_c}",
                                     ((lam, PAPER_MU_SWITCH, q),),
                                     PAPER_MU_CONTROLLER, _child_seed(seed, 1, k, qi, ri)))
        passes.append(cases)
    return passes


def sim_stress_inputs(seed: int) -> list[list[SimCase]]:
    """High switch load, a saturated controller, criterion-9 chains, and one
    run large enough to fill the retained-sample reservoir."""
    mu_l, mu_c = PAPER_MU_SWITCH, PAPER_MU_CONTROLLER
    passes = []
    for k in range(MAX_PASSES):
        s = [_child_seed(seed, 2, k, i) for i in range(5)]
        passes.append([
            SimCase("switch rho=0.9, q_nf=0", ((0.9 * mu_l, mu_l, 0.0),), mu_c, s[0]),
            # the large budget goes to a high-load case, where it also
            # narrows the mean check from 5 x 5.1% to 5 x 1.5% of the mean
            SimCase("switch rho=0.9, q_nf=0.5, 10 us controller, reservoir cap",
                    ((0.9 * mu_l / 1.5, mu_l, 0.5),), 1e6 / 10.0, s[1],
                    packets=RESERVOIR_PACKETS),
            SimCase("saturated controller rho_c=1.2", ((1.2 * mu_c, mu_l, 1.0),), mu_c, s[2]),
            SimCase("chain symmetric", ((3000.0, mu_l, 0.5), (3000.0, mu_l, 0.5)),
                    mu_c, s[3], chain=True),
            SimCase("chain asymmetric", ((2000.0, mu_l, 0.2), (1000.0, mu_l, 1.0)),
                    mu_c, s[4], chain=True),
        ])
    return passes


def _stations(case: SimCase):
    """(gamma, mu) per station, and the saturated ones as the library names them."""
    stations, saturated = [], []
    upstream = 0.0
    for i, (lam, mu, q) in enumerate(case.nodes):
        gamma = upstream + lam * (1.0 + q)
        stations.append((gamma, mu))
        if gamma / mu >= 1.0 - checks.STABILITY_MARGIN:
            saturated.append(f"switch[{i}]" if case.chain else "switch")
        upstream += lam
    gamma_c = sum(lam * q for lam, _, q in case.nodes)
    if gamma_c > 0.0:
        stations.append((gamma_c, case.mu_controller))
        if gamma_c / case.mu_controller >= 1.0 - checks.STABILITY_MARGIN:
            saturated.append("controller")
    return stations, tuple(saturated)


def _chain_means(case: SimCase) -> tuple[list[float], float, list]:
    """Per-class and arrival-weighted mean sojourn of a stable chain, and its
    paths as (probability, mean sojourn): per class, with and without the
    controller detour."""
    stations, _ = _stations(case)
    delay = [1.0 / (mu - g) for g, mu in stations[:len(case.nodes)]]
    ctrl_delay = 0.0
    if len(stations) > len(case.nodes):
        gamma_c, mu_c = stations[-1]
        ctrl_delay = 1.0 / (mu_c - gamma_c)
    total = sum(lam for lam, _, _ in case.nodes)
    per_class, paths = [], []
    for i, (lam, _, q) in enumerate(case.nodes):
        direct = sum(delay[i:])
        per_class.append(direct + q * (delay[i] + ctrl_delay))
        paths += [(lam / total * (1.0 - q), direct),
                  (lam / total * q, direct + delay[i] + ctrl_delay)]
    return per_class, sum(lam * w for (lam, _, _), w in zip(case.nodes, per_class)) / total, paths


def run_sim_pass(rec: Recorder, cases: list[SimCase], tmp: Path) -> None:
    for case in cases:
        ctrl = sq.ControllerParams(case.mu_controller)
        nodes = [sq.NodeParams(*n) for n in case.nodes]
        cfg = sq.SimConfig(seed=case.seed, packets_per_replication=case.packets,
                           replications=SIM_REPLICATIONS)
        if case.chain:
            name = "simulate.run_chain"
            chain = sq.ChainModel(nodes=tuple(nodes), controller=ctrl)
            rec.op(name, sq.run_chain, chain, cfg,
                   check=lambda res: _check_chain(rec, case, chain, cfg, res))
        else:
            name = "simulate.run_single_node"
            rec.op(name, sq.run_single_node, nodes[0], ctrl, cfg,
                   check=lambda res: _check_node(rec, case, nodes[0], ctrl, cfg, res))
        rec.counts[name + ".packets"] += case.packets * SIM_REPLICATIONS


def _check_node(rec, case, node, ctrl, cfg, res) -> list[str]:
    n_measured = checks.measured_departures(cfg)
    lam, mu_l, q = case.nodes[0]
    rec.values["reservoir_samples"].append(len(res.empirical_ccdf))
    problems = checks.check_samples(case.label, res.empirical_ccdf, n_measured)
    problems += checks.check_visits(case.label, res.controller_visit_fraction, q, n_measured)
    rates = rec.call("analytic.solve_rates", sq.solve_rates, node, ctrl)
    stations, saturated = _stations(case)
    try:
        pred = rec.call("analytic.mean_sojourn_openflow", sq.mean_sojourn_openflow,
                        node, ctrl, rates)
    except sq.UnstableSystemError as exc:
        if set(exc.stations) != set(saturated):
            problems.append(f"{case.label}: analytic model raised for {exc.stations}, "
                            f"saturated are {saturated}")
        # a saturated run only shows growing delays
        elif res.mean_sojourn < 10.0 * checks.zero_load_sojourn(q, mu_l, ctrl.mu_controller):
            problems.append(f"{case.label}: saturated run mean {res.mean_sojourn:.3g} s "
                            "does not show a growing queue")
        return problems
    if saturated:
        return problems + [f"{case.label}: analytic model stable at saturated {saturated}"]
    if not checks.close(pred, checks.mean_sojourn(lam, q, mu_l, ctrl.mu_controller), 1e-12):
        problems.append(f"{case.label}: analytic mean {pred!r} disagrees with the reference")
    se = checks.mean_std_error(stations, lam, n_measured, _chain_means(case)[2])
    return problems + checks.check_sim_mean(case.label, res, pred, se)


def _check_chain(rec, case, chain, cfg, res) -> list[str]:
    n_measured = checks.measured_departures(cfg)
    agg = res.aggregate
    rec.values["reservoir_samples"].append(len(agg.empirical_ccdf))
    problems = checks.check_samples(case.label, agg.empirical_ccdf, n_measured)
    kept = sum(len(r.empirical_ccdf) for r in res.per_class)
    if n_measured <= checks.SAMPLE_CAP and kept != n_measured:
        problems.append(f"{case.label}: per-class samples {kept} != {n_measured} departures")
    total = sum(lam for lam, _, _ in case.nodes)
    q_bar = sum(lam * q for lam, _, q in case.nodes) / total
    problems += checks.check_visits(case.label, agg.controller_visit_fraction, q_bar, n_measured)
    sol = rec.call("analytic.solve_chain", sq.solve_chain, chain)
    pred = rec.call("analytic.chain_sojourn", sq.chain_sojourn, chain, sol)
    want_cls, want_agg, paths = _chain_means(case)
    if not (checks.close(pred.aggregate, want_agg, 1e-12)
            and all(checks.close(p, w, 1e-12) for p, w in zip(pred.per_class, want_cls))):
        problems.append(f"{case.label}: chain means {pred} disagree with the reference")
    stations, _ = _stations(case)
    se = checks.mean_std_error(stations, total, n_measured, paths)
    return problems + checks.check_sim_mean(case.label, agg, pred.aggregate, se)


# --- dimension workload -----------------------------------------------------

@dataclass(frozen=True)
class DimensionPass:
    points: np.ndarray    # per row: lam, q, mu_l, mu_c
    table_t: np.ndarray   # per row: TABLE_TIMES times, as fractions of the mean
    deadline: np.ndarray  # per row: deadline as a fraction of the mean
    quantile_p: np.ndarray  # per row: one of QUANTILE_PS
    bounds: np.ndarray    # per row: THROUGHPUT_BOUNDS delay bounds in s
    chains: list          # (nodes as (lam, mu, q), mu_c)
    vector_point: tuple   # stable (lam, q, mu_l, mu_c) for the 1e6-point ccdf
    sweep_rho: tuple      # (q, mu_l, mu_c, grid, deadline)
    sweep_bound: tuple    # (q, mu_l, mu_c, grid)
    cli: list             # CLI_ROUNDS dicts of command inputs


def _operating_points(rng, n: int, load_lo: float, load_hi: float,
                      q_inner: bool = False) -> np.ndarray:
    """Random nodes: q_nf in [0, 1] with a share of exact 0 and 1 (or in
    [0.05, 0.95] with ``q_inner``), switch service 5-20 us, controller service
    60-960 us, load as a fraction of the stability supremum."""
    if q_inner:
        q = rng.uniform(0.05, 0.95, n)
    else:
        q = rng.uniform(0.0, 1.0, n)
        pick = rng.random(n)
        q[pick < 0.05] = 0.0
        q[pick > 0.95] = 1.0
    mu_l = 1e6 / rng.uniform(5.0, 20.0, n)
    mu_c = 1e6 / rng.uniform(60.0, 960.0, n)
    sup = np.minimum(mu_l / (1.0 + q), np.where(q > 0.0, mu_c / np.maximum(q, 1e-300), np.inf))
    lam = rng.uniform(load_lo, load_hi, n) * sup
    return np.column_stack([lam, q, mu_l, mu_c])


def _cli_inputs(rng) -> dict:
    pt = _operating_points(rng, 3, 0.1, 0.9, q_inner=True)
    return {
        "analyze": tuple(float(x) for x in pt[0]),
        "dimension": (tuple(float(x) for x in pt[1]), float(rng.uniform(1.5, 40.0))),
        "sweep": (tuple(float(x) for x in pt[2]), float(rng.uniform(0.8, 1.3)),
                  float(rng.uniform(100.0, 2000.0))),
        "figure": (float(rng.uniform(5.0, 20.0)), float(rng.uniform(60.0, 960.0)),
                   float(rng.uniform(100.0, 2000.0))),
    }


def dimension_inputs(seed: int) -> list[DimensionPass]:
    passes = []
    n = DIMENSION_POINTS
    for k in range(MAX_PASSES):
        rng = _rng(seed, 3, k)
        # loads up to 1.15 of the supremum: about one point in eight is unstable
        points = _operating_points(rng, n, 0.05, 1.15)
        w0 = (1.0 + points[:, 1]) / points[:, 2] + points[:, 1] / points[:, 3]
        # bounds from 0.7x to 1000x the zero-load sojourn (demos/04 goes from
        # 1.2x to 1000x): about 5% infeasible
        bounds = w0[:, None] * np.exp(rng.uniform(np.log(0.7), np.log(1000.0),
                                                  (n, THROUGHPUT_BOUNDS)))
        table_t = rng.uniform(0.05, 4.0, (n, TABLE_TIMES))
        deadline = rng.uniform(0.05, 4.0, n)
        quantile_p = np.asarray(QUANTILE_PS)[rng.integers(0, len(QUANTILE_PS), n)]
        chains = []
        for _ in range(DIMENSION_CHAINS):
            n_nodes = int(rng.integers(2, 4))
            mu_c = 1e6 / rng.uniform(60.0, 960.0)
            nodes = [(float(rng.uniform(200.0, 3000.0)), 1e6 / rng.uniform(5.0, 20.0),
                      float(rng.uniform(0.0, 1.0))) for _ in range(n_nodes)]
            # scale arrivals so the busiest station sits at 0.1-1.1 load
            case = SimCase("", tuple(nodes), mu_c, 0, chain=True)
            stations, _ = _stations(case)
            scale = rng.uniform(0.1, 1.1) / max(g / mu for g, mu in stations)
            chains.append((tuple((float(lam * scale), float(mu), q) for lam, mu, q in nodes),
                           float(mu_c)))
        vec = _operating_points(rng, 1, 0.2, 0.9)[0]
        # rho_c sweeps need q_nf > 0; the uncorrected model needs q_nf < 1
        sw = _operating_points(rng, 2, 0.5, 0.5, q_inner=True)
        rho_end = rng.uniform(0.8, 1.3)
        w0b = (1.0 + sw[1, 1]) / sw[1, 2] + sw[1, 1] / sw[1, 3]
        passes.append(DimensionPass(
            points=points, table_t=table_t, deadline=deadline, quantile_p=quantile_p,
            bounds=bounds, chains=chains, vector_point=tuple(float(x) for x in vec),
            sweep_rho=(float(sw[0, 1]), float(sw[0, 2]), float(sw[0, 3]),
                       tuple(float(x) for x in np.linspace(0.1, rho_end, 12)),
                       float(rng.uniform(1.0, 8.0)) * w0b),
            sweep_bound=(float(sw[1, 1]), float(sw[1, 2]), float(sw[1, 3]),
                         tuple(float(x) for x in w0b * np.geomspace(0.8, 50.0, 10))),
            cli=[_cli_inputs(rng) for _ in range(CLI_ROUNDS)]))
    return passes


def run_dimension_pass(rec: Recorder, inp: DimensionPass, tmp: Path) -> None:
    for i, row in enumerate(inp.points):
        _query_point(rec, *(float(x) for x in row), inp.table_t[i], float(inp.deadline[i]),
                     float(inp.quantile_p[i]), inp.bounds[i])
    for nodes, mu_c in inp.chains:
        _query_chain(rec, nodes, mu_c)
    _query_vector(rec, *inp.vector_point)
    _query_sweeps(rec, inp)
    for spec in inp.cli:
        _run_cli(rec, spec, tmp)
    rec.op("validation.run_criteria", validation.run_criteria, CRITERIA,
           check=lambda res: _check_criteria(rec, res))


def _query_point(rec, lam, q, mu_l, mu_c, table_t, d_frac, p, bounds) -> None:
    node, ctrl = sq.NodeParams(lam, mu_l, q), sq.ControllerParams(mu_c)
    saturated = checks.saturated_node(lam, q, mu_l, mu_c)
    ref_gamma = lam * (1.0 + q)
    rates = rec.op("analytic.solve_rates", sq.solve_rates, node, ctrl,
                   check=lambda r: [] if checks.close(r.gamma_switch, ref_gamma, 1e-15)
                   and checks.close(r.gamma_controller, q * lam, 1e-15)
                   and tuple(r.saturated_stations()) == saturated
                   else [f"solve_rates({lam}, {q}) = {r}"])
    for bound in (float(b) for b in bounds):
        rec.op("dimensioning.max_throughput", sq.max_throughput, bound, q_nf=q,
               mu_switch=mu_l, mu_controller=mu_c,
               check=lambda r, bound=bound: checks.check_throughput(r, bound, q, mu_l, mu_c))
    if rates is None:
        return
    if saturated:
        rec.op("analytic.mean_sojourn_openflow", sq.mean_sojourn_openflow, node, ctrl, rates,
               expect_unstable=saturated)
        rec.op("distribution.build_distribution", sq.build_distribution, node, ctrl, rates,
               expect_unstable=saturated)
        return
    mean = checks.mean_sojourn(lam, q, mu_l, mu_c)
    rec.op("analytic.mean_sojourn_openflow", sq.mean_sojourn_openflow, node, ctrl, rates,
           check=lambda w: [] if checks.close(w, mean, 1e-12) else [f"mean {w!r} != {mean!r}"])
    dist = rec.op("distribution.build_distribution", sq.build_distribution, node, ctrl, rates,
                  check=lambda d: [] if checks.close(d.mean(), mean, 1e-12)
                  else [f"distribution mean {d.mean()!r} != {mean!r}"])
    if dist is None:
        return
    exact = checks.separated(lam, q, mu_l, mu_c)
    args = (lam, q, mu_l, mu_c)

    def against(ref_fn, t, lo=0.0, hi=1.0):
        def check(v):
            if exact and not checks.close(v, ref_fn(t, *args), 1e-9, 1e-10):
                return [f"{ref_fn.__name__}({t!r}) at {args}: {v!r} vs {ref_fn(t, *args)!r}"]
            return [] if lo <= v <= hi else [f"value {v!r} out of range at {args}"]
        return check

    for t in (float(x) * mean for x in table_t):
        rec.op("distribution.ccdf", sq.ccdf, dist, t, check=against(checks.ref_ccdf, t))
        rec.op("distribution.pdf", sq.pdf, dist, t,
               check=against(checks.ref_pdf, t, hi=float("inf")))
    d = d_frac * mean
    rec.op("distribution.prob_within_deadline", sq.prob_within_deadline, dist, d,
           check=lambda v: against(checks.ref_ccdf, d)(1.0 - v))
    rec.op("distribution.quantile", sq.quantile, dist, p,
           check=lambda t: _check_quantile(rec, dist, p, t, args, exact))


def _check_quantile(rec, dist, p, t, args, exact) -> list[str]:
    resid = abs(rec.call("distribution.ccdf", sq.ccdf, dist, t) - (1.0 - p))
    if resid > 1e-10:
        return [f"ccdf(quantile({p})) off by {resid:.2e} at {args}"]
    if exact and abs(checks.ref_ccdf(t, *args) - (1.0 - p)) > 1e-8:
        return [f"quantile({p}) = {t!r} disagrees with the reference law at {args}"]
    return []


def _query_chain(rec, nodes, mu_c) -> None:
    case = SimCase("chain", nodes, mu_c, 0, chain=True)
    _, saturated = _stations(case)
    chain = sq.ChainModel(nodes=tuple(sq.NodeParams(*n) for n in nodes),
                          controller=sq.ControllerParams(mu_c))
    sol = rec.op("analytic.solve_chain", sq.solve_chain, chain,
                 check=lambda s: [] if tuple(s.saturated_stations()) == saturated
                 else [f"solve_chain saturated {s.saturated_stations()} != {saturated}"])
    if sol is None:
        return
    if saturated:
        rec.op("analytic.chain_sojourn", sq.chain_sojourn, chain, sol, expect_unstable=saturated)
        return
    want_cls, want_agg, _ = _chain_means(case)
    rec.op("analytic.chain_sojourn", sq.chain_sojourn, chain, sol,
           check=lambda r: [] if checks.close(r.aggregate, want_agg, 1e-12)
           and all(checks.close(a, b, 1e-12) for a, b in zip(r.per_class, want_cls))
           else [f"chain sojourn {r} != reference {want_cls}"])


def _query_vector(rec, lam, q, mu_l, mu_c) -> None:
    node, ctrl = sq.NodeParams(lam, mu_l, q), sq.ControllerParams(mu_c)
    dist = sq.build_distribution(node, ctrl, sq.solve_rates(node, ctrl))
    ts = np.linspace(0.0, 20.0 * dist.mean(), VECTOR_POINTS)
    args = (lam, q, mu_l, mu_c)

    def check(v) -> list[str]:
        if v.shape != ts.shape or abs(v[0] - 1.0) > 1e-12:
            return [f"vector ccdf shape {v.shape} or ccdf(0) = {v[0]!r}"]
        if v.min() < -1e-15 or v.max() > 1.0 + 1e-12 or (np.diff(v) > 1e-12).any():
            return ["vector ccdf not a nonincreasing probability"]
        if checks.separated(*args):
            for i in range(0, VECTOR_POINTS, VECTOR_POINTS // 97):
                if not checks.close(v[i], checks.ref_ccdf(ts[i], *args), 1e-9, 1e-10):
                    return [f"vector ccdf[{i}] = {v[i]!r} disagrees with the reference"]
        return []
    rec.op("distribution.ccdf.vector", sq.ccdf, dist, ts, check=check)
    rec.counts["distribution.ccdf.vector.points"] += VECTOR_POINTS


def _query_sweeps(rec, inp: DimensionPass) -> None:
    q, mu_l, mu_c, grid, deadline = inp.sweep_rho
    spec = sq.SweepSpec(variable="rho_controller", grid=grid,
                        node=sq.NodeParams(1.0, mu_l, q), controller=sq.ControllerParams(mu_c),
                        outputs=("analytic_mean", "naive_mean", "deadline_prob"),
                        deadline=deadline)
    rec.op("dimensioning.sweep", sq.sweep, spec,
           check=lambda rows: _check_rho_rows(rec, rows, q, mu_l, mu_c, deadline))
    q, mu_l, mu_c, grid = inp.sweep_bound
    spec = sq.SweepSpec(variable="delay_bound", grid=grid,
                        node=sq.NodeParams(1.0, mu_l, q), controller=sq.ControllerParams(mu_c),
                        outputs=("throughput",))

    def check_bounds(rows) -> list[str]:
        _count_rows(rec, rows)
        problems = []
        for row in rows:
            res = sq.ThroughputResult(rate=row["throughput"], feasible=row["status"] == "ok")
            problems += checks.check_throughput(res, row["delay_bound"], q, mu_l, mu_c)
        return problems
    rec.op("dimensioning.sweep", sq.sweep, spec, check=check_bounds)


def _count_rows(rec, rows) -> None:
    rec.counts["dimensioning.sweep.rows"] += len(rows)
    rec.counts["dimensioning.sweep.ok_rows"] += sum(r["status"] == "ok" for r in rows)


def _check_rho_rows(rec, rows, q, mu_l, mu_c, deadline) -> list[str]:
    _count_rows(rec, rows)
    problems = []
    for row in rows:
        lam = row["rho_controller"] * mu_c / q
        saturated = checks.saturated_node(lam, q, mu_l, mu_c)
        naive = checks.naive_mean_sojourn(lam, q, mu_l, mu_c)
        ok = (row["lambda"] == lam
              and (row["analytic_mean"] is None) == bool(saturated)
              and (row["deadline_prob"] is None) == bool(saturated)
              and (row["naive_mean"] is None) == (naive is None)
              and (row["status"] == "ok") == (not saturated and naive is not None))
        if ok and not saturated:
            ok = checks.close(row["analytic_mean"], checks.mean_sojourn(lam, q, mu_l, mu_c), 1e-12)
            if checks.separated(lam, q, mu_l, mu_c):
                ok = ok and checks.close(1.0 - row["deadline_prob"],
                                         checks.ref_ccdf(deadline, lam, q, mu_l, mu_c),
                                         1e-9, 1e-10)
        if ok and naive is not None:
            ok = checks.close(row["naive_mean"], naive, 1e-9)
        if not ok:
            problems.append(f"sweep row {row} disagrees with the reference")
    return problems


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _cli(rec, name: str, argv: list[str], check) -> None:
    def call():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def judge(rc) -> list[str]:
        if rc != 0:
            rec.counts["cli.exit_nonzero"] += 1
            return [f"sdnqueue {' '.join(argv)} exited {rc}"]
        return check()
    rec.op(name, call, check=judge)


def _run_cli(rec, spec: dict, tmp: Path) -> None:
    def node_flags(lam, q, mu_l, mu_c):
        return ["--lam", repr(lam), "--q-nf", repr(q), "--mu-switch", repr(mu_l),
                "--mu-controller", repr(mu_c)]

    lam, q, mu_l, mu_c = spec["analyze"]
    out = tmp / "analyze.csv"

    def check_analyze() -> list[str]:
        row = _read_csv(out)[0]
        node, ctrl = sq.NodeParams(lam, mu_l, q), sq.ControllerParams(mu_c)
        want = rec.call("analytic.mean_sojourn_openflow", sq.mean_sojourn_openflow, node, ctrl,
                        rec.call("analytic.solve_rates", sq.solve_rates, node, ctrl))
        if float(row["mean_sojourn_path"]) != want or row["verdict"] != "stable":
            return [f"analyze CSV {row} != library mean {want!r}"]
        return []
    _cli(rec, "cli.analyze", ["analyze", *node_flags(lam, q, mu_l, mu_c),
                                  "--output", str(out)], check_analyze)

    (lam, q, mu_l, mu_c), factor = spec["dimension"]
    bound_us = factor * 1e6 * checks.zero_load_sojourn(q, mu_l, mu_c)
    out_dim = tmp / "dimension.csv"

    def check_dimension() -> list[str]:
        row = _read_csv(out_dim)[0]
        want = rec.call("dimensioning.max_throughput", sq.max_throughput, bound_us * 1e-6,
                        q_nf=q, mu_switch=mu_l, mu_controller=mu_c)
        if float(row["throughput"]) != want.rate:
            return [f"dimension CSV {row} != library rate {want.rate!r}"]
        return checks.check_throughput(want, bound_us * 1e-6, q, mu_l, mu_c)
    _cli(rec, "cli.dimension",
         ["dimension", "--q-nf", repr(q), "--mu-switch", repr(mu_l), "--mu-controller",
          repr(mu_c), "--delay-bound-us", repr(bound_us), "--output", str(out_dim)],
         check_dimension)

    (lam, q, mu_l, mu_c), rho_end, deadline_us = spec["sweep"]
    grid = [float(x) for x in np.linspace(0.1, rho_end, 9)]
    deadline = deadline_us * 1e-6
    out_sw = tmp / "sweep.csv"

    def check_sweep() -> list[str]:
        rows = []
        for r in _read_csv(out_sw):
            rows.append({"rho_controller": float(r["rho_controller"]),
                         "lambda": float(r["lambda"]),
                         **{k: float(r[k]) if r[k] else None
                            for k in ("analytic_mean", "naive_mean", "deadline_prob")},
                         "status": r["status"]})
        if len(rows) != len(grid):
            return [f"sweep CSV has {len(rows)} rows, expected {len(grid)}"]
        return _check_rho_rows(rec, rows, q, mu_l, mu_c, deadline)
    _cli(rec, "cli.sweep",
         ["sweep", *node_flags(lam, q, mu_l, mu_c), "--variable", "rho_controller",
          "--grid", ",".join(repr(g) for g in grid),
          "--outputs", "analytic_mean,naive_mean,deadline_prob",
          "--deadline", repr(deadline), "--output", str(out_sw)], check_sweep)

    us_l, us_c, deadline_us = spec["figure"]
    mu_l, mu_c = sq.rate_from_us(us_l), sq.rate_from_us(us_c)
    flags = ["--mu-switch-us", repr(us_l), "--mu-controller-us", repr(us_c)]
    out_f4, out_f6 = tmp / "fig4.csv", tmp / "fig6.csv"

    def check_fig4() -> list[str]:
        rows = _read_csv(out_f4)
        cols = [c for c in rows[0] if c.startswith("throughput_qnf_")] if rows else []
        if len(rows) != 40 or len(cols) != 3:
            return [f"fig4 CSV has {len(rows)} rows and columns {cols}"]
        problems = []
        for col, q in zip(cols, (0.2, 0.5, 1.0)):
            rates = [float(r[col]) for r in rows]
            if any(b < a for a, b in zip(rates, rates[1:])):
                problems.append(f"fig4 {col} not monotone")
            for r in (rows[0], rows[len(rows) // 2], rows[-1]):
                bound = float(r["delay_bound"])
                want = rec.call("dimensioning.max_throughput", sq.max_throughput, bound,
                                q_nf=q, mu_switch=mu_l, mu_controller=mu_c)
                if float(r[col]) != want.rate:
                    problems.append(f"fig4 {col} at {bound!r}: {r[col]} != {want.rate!r}")
                problems += checks.check_throughput(want, bound, q, mu_l, mu_c)
        return problems
    _cli(rec, "cli.figure", ["figure", "fig4", *flags, "--output", str(out_f4)], check_fig4)

    def check_fig6() -> list[str]:
        rows = _read_csv(out_f6)
        cols = [c for c in rows[0] if c.startswith("p_within_")] if rows else []
        if len(rows) != 9 or len(cols) != 3:
            return [f"fig6 CSV has {len(rows)} rows and columns {cols}"]
        problems = []
        for r in rows:
            for col, q in zip(cols, (0.2, 0.5, 1.0)):
                lam = float(r["rho_c"]) * mu_c / q
                if checks.saturated_node(lam, q, mu_l, mu_c):
                    ok = r[col] == ""
                else:
                    ref = 1.0 - checks.ref_ccdf(deadline_us * 1e-6, lam, q, mu_l, mu_c)
                    ok = r[col] != "" and (not checks.separated(lam, q, mu_l, mu_c)
                                           or checks.close(float(r[col]), ref, 1e-9, 1e-10))
                if not ok:
                    problems.append(f"fig6 {col} at rho_c={r['rho_c']}: {r[col]!r}")
        return problems
    _cli(rec, "cli.figure", ["figure", "fig6", *flags, "--deadline-us", repr(deadline_us),
                                 "--output", str(out_f6)], check_fig6)


def _check_criteria(rec, results) -> list[str]:
    problems = []
    if tuple(r.number for r in results) != CRITERIA:
        problems.append(f"ran criteria {[r.number for r in results]}, asked for {CRITERIA}")
    for r in results:
        rec.values[f"validation.criterion_{r.number}.s"].append(r.runtime_s)
        if not r.passed:
            rec.counts["validation.failed"] += 1
            problems.append(r.line())
    return problems


WORKLOADS = {
    "sim-paper": Workload(
        "sim-paper",
        "the model-validation run users make: switch load <= 0.25, so nearly all time "
        "is in simulate; where a fixed-point engine converges fastest",
        sim_paper_inputs, run_sim_pass),
    "sim-stress": Workload(
        "sim-stress",
        "simulate at high switch load, a saturated controller, two-node chains and a "
        "full 10**6 sample reservoir: a fixed-point engine's worst case, and memory",
        sim_stress_inputs, run_sim_pass),
    "dimension": Workload(
        "dimension",
        "closed-form queries, CLI commands and acceptance criteria 1,2,3,7 with no "
        "simulation: analytic, distribution, dimensioning, cli, validation",
        dimension_inputs, run_dimension_pass, needs_scipy=True),
}
