"""Tests of the benchmark's own code: inputs, self time, failure counting.

Run with ``python3 -m pytest perfbench`` from the checkout root.
"""

import dataclasses
import time

import numpy as np
import pytest

import checks
import sdnqueue
import workloads
from spans import Tracer, self_time_by_name, self_times


def _same(a, b) -> bool:
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_seed(name):
    make = workloads.WORKLOADS[name].make_inputs
    first, again, other = make(7), make(7), make(8)
    assert len(first) == workloads.MAX_PASSES
    assert _same(first, again)
    assert not _same(first[:3], other[:3])
    assert not _same(first[0], first[1])  # every pass draws fresh inputs


def test_self_time_subtracts_union_of_direct_children():
    spans = [
        ("pass", 0.0, 10.0, -1, -1),
        ("a", 1.0, 3.0, 0, 0),
        ("b", 2.0, 4.0, 0, 1),      # overlaps a: covered once
        ("c", 8.0, 12.0, 0, 2),     # sticks out of the parent: clipped
        ("d", 1.5, 2.5, 1, 0),      # grandchild: counts against a only
    ]
    st = self_times(spans)
    assert st == pytest.approx([10.0 - 3.0 - 2.0, 2.0 - 1.0, 2.0, 4.0, 1.0])
    assert self_time_by_name(spans)["pass"] == pytest.approx([5.0])


def test_tracer_links_nested_spans():
    tr = Tracer()
    with tr.span("pass"):
        tr.add("leaf", 1.0, 2.0, op=3)
        with tr.span("check", op=3):
            tr.add("inner", 1.0, 1.5, op=3)
    (_, s0, e0, p0, _), leaf, check, inner = tr.spans
    assert p0 == -1 and e0 >= s0
    assert leaf == ("leaf", 1.0, 2.0, 0, 3)
    assert check[3] == 0 and check[4] == 3
    assert inner[3] == 2


def _small_dimension_pass():
    inp = workloads.dimension_inputs(3)[0]
    n = 12
    return dataclasses.replace(inp, points=inp.points[:n], table_t=inp.table_t[:n],
                               deadline=inp.deadline[:n], quantile_p=inp.quantile_p[:n],
                               bounds=inp.bounds[:n], chains=inp.chains[:3], cli=inp.cli[:1])


def test_dimension_pass_is_correct(tmp_path):
    rec = workloads.Recorder()
    workloads.run_dimension_pass(rec, _small_dimension_pass(), tmp_path)
    assert rec.attempted > 50
    assert rec.failed == 0, rec.failures


def test_wrong_quantile_is_counted(tmp_path, monkeypatch):
    real = sdnqueue.quantile
    monkeypatch.setattr(sdnqueue, "quantile", lambda d, p: 1.01 * real(d, p))
    rec = workloads.Recorder()
    workloads.run_dimension_pass(rec, _small_dimension_pass(), tmp_path)
    assert rec.failed >= 4
    assert any("quantile" in f for f in rec.failures)


def test_missing_instability_is_counted():
    rec = workloads.Recorder()
    rec.op("analytic.mean_sojourn_openflow", lambda: 1.0, expect_unstable=("controller",))
    rec.op("analytic.mean_sojourn_openflow", _raise_unstable, expect_unstable=("switch",))
    rec.op("analytic.mean_sojourn_openflow", _raise_unstable, expect_unstable=("controller",))
    assert (rec.attempted, rec.failed) == (3, 2)


def _raise_unstable():
    raise sdnqueue.UnstableSystemError(("controller",))


def _small_sim_case():
    q, rho_c = 0.5, 0.5
    lam = rho_c * workloads.PAPER_MU_CONTROLLER / q
    return workloads.SimCase("small", ((lam, workloads.PAPER_MU_SWITCH, q),),
                             workloads.PAPER_MU_CONTROLLER, seed=11, packets=10_000)


def test_sim_pass_is_correct():
    rec = workloads.Recorder()
    workloads.run_sim_pass(rec, [_small_sim_case()], None)
    assert (rec.attempted, rec.failed) == (1, 0), rec.failures


def test_wrong_sim_mean_is_counted(monkeypatch):
    real = sdnqueue.run_single_node

    def inflated(*args, **kwargs):
        res = real(*args, **kwargs)
        res.mean_sojourn *= 1.5
        return res
    monkeypatch.setattr(sdnqueue, "run_single_node", inflated)
    rec = workloads.Recorder()
    workloads.run_sim_pass(rec, [_small_sim_case()], None)
    assert rec.failed == 1
    assert "sim mean" in rec.failures[0]


def test_reference_law_matches_library_where_separated():
    lam, q, mu_l, mu_c = 3000.0, 0.4, 1e5, 5e3
    node, ctrl = sdnqueue.NodeParams(lam, mu_l, q), sdnqueue.ControllerParams(mu_c)
    dist = sdnqueue.build_distribution(node, ctrl, sdnqueue.solve_rates(node, ctrl))
    assert checks.separated(lam, q, mu_l, mu_c)
    for t in (0.0, 1e-4, 1e-3, 5e-3):
        assert checks.ref_ccdf(t, lam, q, mu_l, mu_c) == pytest.approx(
            sdnqueue.ccdf(dist, t), abs=1e-12)
        assert checks.ref_pdf(t, lam, q, mu_l, mu_c) == pytest.approx(
            sdnqueue.pdf(dist, t), rel=1e-9)


def test_throughput_check_rejects_a_rate_below_the_maximum():
    q, mu_l, mu_c = 0.5, 1e5, 5e3
    bound = 10 * checks.zero_load_sojourn(q, mu_l, mu_c)
    res = sdnqueue.max_throughput(bound, q_nf=q, mu_switch=mu_l, mu_controller=mu_c)
    assert checks.check_throughput(res, bound, q, mu_l, mu_c) == []
    low = sdnqueue.ThroughputResult(rate=0.99 * res.rate, feasible=True)
    assert checks.check_throughput(low, bound, q, mu_l, mu_c)
    high = sdnqueue.ThroughputResult(rate=1.01 * res.rate, feasible=True)
    assert checks.check_throughput(high, bound, q, mu_l, mu_c)


def test_hd_quantile_is_a_smooth_quantile():
    import run
    rng = np.random.default_rng(5)
    x = rng.exponential(1.0, 4001)
    assert run.hd_quantile(x, 0.5) == pytest.approx(np.median(x), rel=0.02)
    assert run.hd_quantile(x, 0.99) == pytest.approx(np.quantile(x, 0.99), rel=0.05)
    # two equal clusters: the estimate sits between them, not on an edge
    assert run.hd_quantile([1.0] * 27 + [1.5] * 27, 0.5) == pytest.approx(1.25)


def test_std_error_adds_the_path_mix():
    n = 10_000
    # one station at load 0.5 and a single path: the relaxation-time term,
    # (1 / 0.5)**2 * 2 * 1.5 / (0.5**2 * n), alone
    alone = checks.mean_std_error([(0.5, 1.0)], 0.5, n, [(1.0, 2.0)])
    assert alone == pytest.approx((4.0 * 2.0 * 1.5 / (0.25 * n)) ** 0.5)
    # a 30/70 mix of paths 2 and 12 apart adds 0.3 * 0.7 * 10**2 / n
    mixed = checks.mean_std_error([(0.5, 1.0)], 0.5, n, [(0.7, 2.0), (0.3, 12.0)])
    assert mixed ** 2 - alone ** 2 == pytest.approx(0.3 * 0.7 * 100.0 / n)




def test_clock_scales_by_the_reference_time_measured_meanwhile(monkeypatch):
    import speed
    refs = iter([3.0, 5.0, 2.0])  # in units of the nominal loop time
    monkeypatch.setattr(speed, "reference_loop_s", lambda: next(refs) * speed.NOMINAL_S)
    clock = speed.SpeedClock()
    clock._sample()
    clock._sample()
    mark = clock.mark()
    # no sample since the mark: the mean of the recent ones
    assert clock.scale(mark, 1.0) == pytest.approx((1.0, 0.25))
    clock._sample()
    clock.handler_s += 0.1  # as if the signal handler had taken 0.1 s meanwhile
    assert clock.scale(mark, 1.0) == pytest.approx((0.9, 0.45))


def test_clocked_passes_are_scaled(monkeypatch):
    import run
    import speed
    monkeypatch.setattr(speed, "reference_loop_s", lambda: 4.0 * speed.NOMINAL_S)
    rec = workloads.Recorder(clock=speed.SpeedClock())
    wl = workloads.Workload("t", "", None, lambda r, inp, tmp: r.op("x", time.sleep, inp))
    with rec.clock:
        (raw,), (scaled,) = run.run_passes(wl, [0.12, 0.12], None, [rec], seconds=0.0)
    assert rec.clock.samples > 2
    assert all(w > 0.11 for w in raw) and scaled == pytest.approx([w / 4.0 for w in raw])
    assert rec.latencies == pytest.approx([0.03, 0.03], rel=0.2)
