"""Dimensioning questions: admissible throughput, parameter sweeps.

``max_throughput`` inverts the mean-delay curve: the largest external arrival
rate whose mean sojourn time stays within a delay bound.  ``sweep`` evaluates
any requested set of outputs (analytic mean, uncorrected-model mean, simulated
mean, deadline probability, throughput) over a grid of one swept variable,
emitting one row per grid point; points where a model is unstable or undefined
are emitted with a status note, never dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .analytic import (
    ControllerParams,
    NodeParams,
    UnstableSystemError,
    mean_sojourn_naive_jackson,
    mean_sojourn_openflow,
    solve_rates,
)
from .distribution import build_distribution, prob_within_deadline
from .simulate import SimConfig, run_single_node

SWEEP_VARIABLES = ("lambda", "rho_controller", "q_nf", "mu_controller", "delay_bound")
SWEEP_OUTPUTS = ("analytic_mean", "naive_mean", "simulated_mean", "deadline_prob",
                 "throughput")

# The returned rate stays this fraction of the stability supremum below it,
# so the delay formula is still evaluable there.
_SUP_MARGIN = 1e-8


@dataclass(frozen=True)
class ThroughputResult:
    """Largest admissible arrival rate for a delay bound.

    ``feasible`` is False when the bound is below the zero-load sojourn time,
    in which case ``rate`` is 0 and ``note`` says why.
    """

    rate: float
    feasible: bool
    note: str = ""


def zero_load_sojourn(q_nf: float, mu_switch: float, mu_controller: float) -> float:
    """Mean sojourn in an empty system: (1+q)/mu_l + q/mu_c."""
    return (1.0 + q_nf) / mu_switch + q_nf / mu_controller


def stability_supremum(q_nf: float, mu_switch: float, mu_controller: float) -> float:
    """Largest arrival rate keeping both stations below saturation."""
    sup = mu_switch / (1.0 + q_nf)
    if q_nf > 0.0:
        sup = min(sup, mu_controller / q_nf)
    return sup


def max_throughput(delay_bound: float, *, q_nf: float, mu_switch: float,
                   mu_controller: float) -> ThroughputResult:
    """Largest arrival rate whose mean sojourn stays within ``delay_bound``.

    With p_l = (1+q)/mu_l and p_c = q/mu_c, the reciprocal saturation rates of
    the switch and the controller, the mean sojourn is
    W(lam) = 1/(1/p_l - lam) + 1/(1/p_c - lam), and W = B at the smaller root
    of a quadratic, written so that no subtraction cancels:

        rate = (B - w0) / (B w0/2 - p_l p_c + hypot(B (p_l - p_c)/2, p_l p_c))

    where w0 = p_l + p_c is the zero-load sojourn; where B w0 overflows, the
    numerator and denominator are divided through by B.  The rate is capped
    ``_SUP_MARGIN`` of the stability supremum below it, then stepped down by
    one ulp of the supremum while :func:`mean_sojourn_openflow` puts it above
    the bound, so it always meets the bound and lies within a few such ulps
    of the exact root.  An infeasible bound (at or below the zero-load
    sojourn) yields a flagged zero-rate result rather than an exception.
    """
    if not delay_bound > 0.0:
        raise ValueError(f"delay_bound must be > 0, got {delay_bound}")
    ctrl = ControllerParams(mu_controller)
    w0 = zero_load_sojourn(q_nf, mu_switch, mu_controller)
    if delay_bound <= w0:
        return ThroughputResult(rate=0.0, feasible=False, note="bound infeasible")
    lam_sup = stability_supremum(q_nf, mu_switch, mu_controller)

    def sojourn(lam: float) -> float:
        node = NodeParams(lam, mu_switch, q_nf)
        return mean_sojourn_openflow(node, ctrl, solve_rates(node, ctrl))

    p_l, p_c, b = (1.0 + q_nf) / mu_switch, q_nf / mu_controller, delay_bound
    den = 0.5 * b * w0 - p_l * p_c + math.hypot(0.5 * b * (p_l - p_c), p_l * p_c)
    if math.isfinite(den):
        root = (b - w0) / den
    else:  # divided through by B, as at an infinite or huge bound B w0 overflows
        root = (1.0 - w0 / b) / (0.5 * w0 - p_l * p_c / b
                                 + math.hypot(0.5 * (p_l - p_c), p_l * p_c / b))
    rate = min(lam_sup * (1.0 - _SUP_MARGIN), root)
    while rate > 0.0 and sojourn(rate) > b:
        rate = max(rate - math.ulp(lam_sup), 0.0)
    return ThroughputResult(rate=rate, feasible=True)


def default_delay_bound_grid(q_nf: float, mu_switch: float, mu_controller: float,
                             points: int = 40) -> tuple[float, ...]:
    """Logarithmic delay-bound grid from just above the zero-load sojourn to
    100x it, covering both the knee and the saturation plateau."""
    w0 = zero_load_sojourn(q_nf, mu_switch, mu_controller)
    return _log_grid(1.05 * w0, 100.0 * w0, points)


def _log_grid(start: float, stop: float, points: int) -> tuple[float, ...]:
    """``points`` values from ``start`` to ``stop`` (both > 0), evenly spaced
    in log; one point is ``start`` itself."""
    if points == 1:
        return (start,)
    lo, hi = math.log(start), math.log(stop)
    return tuple(math.exp(lo + (hi - lo) * k / (points - 1)) for k in range(points))


@dataclass(frozen=True)
class SweepSpec:
    """One-variable sweep plan.

    variable   one of SWEEP_VARIABLES; the grid replaces that parameter
               point by point (sweeping rho_controller back-solves
               lambda = rho_c * mu_c / q_nf and requires q_nf > 0)
    grid       strictly increasing, nonempty
    node       fixed node parameters (the swept field is ignored)
    controller fixed controller parameters
    outputs    subset of SWEEP_OUTPUTS; "throughput" only with the
               "delay_bound" variable, and vice versa
    deadline   deadline used by the "deadline_prob" output (seconds)
    sim        replication plan for "simulated_mean"; the same seed is reused
               at every grid point (common random numbers across the sweep)
    """

    variable: str
    grid: tuple[float, ...]
    node: NodeParams
    controller: ControllerParams
    outputs: tuple[str, ...] = ("analytic_mean",)
    deadline: float = 5e-4
    sim: SimConfig = field(default_factory=SimConfig)

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(f"unknown sweep variable {self.variable!r}; "
                             f"expected one of {SWEEP_VARIABLES}")
        grid = tuple(float(g) for g in self.grid)
        object.__setattr__(self, "grid", grid)
        if not grid:
            raise ValueError("sweep grid must be nonempty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("sweep grid must be strictly increasing")
        outputs = tuple(self.outputs)
        object.__setattr__(self, "outputs", outputs)
        if not outputs:
            raise ValueError("at least one output must be requested")
        for out in outputs:
            if out not in SWEEP_OUTPUTS:
                raise ValueError(f"unknown output {out!r}; expected from {SWEEP_OUTPUTS}")
        if self.variable == "delay_bound" and set(outputs) != {"throughput"}:
            raise ValueError('sweeping "delay_bound" supports only the '
                             '"throughput" output')
        if self.variable != "delay_bound" and "throughput" in outputs:
            raise ValueError('"throughput" is only defined when sweeping '
                             '"delay_bound"')
        if self.variable == "rho_controller" and self.node.q_nf == 0.0:
            raise ValueError("cannot sweep rho_controller with q_nf = 0: "
                             "no arrival rate produces controller load")
        if not self.deadline >= 0.0:
            raise ValueError(f"deadline must be >= 0, got {self.deadline}")


def sweep(spec: SweepSpec) -> list[dict]:
    """Evaluate the sweep; one dict per grid point, in grid order.

    Every row carries the swept variable's value, the effective arrival rate
    ``lambda`` (when one exists), the requested outputs (None where a model is
    unstable or undefined, with the reason listed in ``status``), and
    ``sim_ci_halfwidth`` alongside ``simulated_mean``.  The outputs are
    evaluated, and their keys and ``status`` notes ordered, as in
    SWEEP_OUTPUTS, so a row's keys are the sweep table's columns.
    """
    return [_sweep_point(spec, value) for value in spec.grid]


def _sweep_point(spec: SweepSpec, value: float) -> dict:
    node0, ctrl = spec.node, spec.controller
    row: dict = {spec.variable: value}

    if spec.variable == "delay_bound":
        res = max_throughput(value, q_nf=node0.q_nf, mu_switch=node0.mu_switch,
                             mu_controller=ctrl.mu_controller)
        row.update(throughput=res.rate, status="ok" if res.feasible else res.note)
        return row

    mu_c = ctrl.mu_controller
    q_nf = node0.q_nf
    lam = node0.lam
    if spec.variable == "lambda":
        lam = value
    elif spec.variable == "rho_controller":
        lam = value * mu_c / node0.q_nf
    elif spec.variable == "q_nf":
        q_nf = value
    elif spec.variable == "mu_controller":
        mu_c = value

    node = NodeParams(lam, node0.mu_switch, q_nf)
    ctrl = ControllerParams(mu_c)
    rates = solve_rates(node, ctrl)
    row["lambda"] = lam
    status: list[str] = []

    for out in [o for o in SWEEP_OUTPUTS if o in spec.outputs]:
        if out == "analytic_mean":
            row[out] = _try_model(status, "analytic",
                                  lambda: mean_sojourn_openflow(node, ctrl, rates))
        elif out == "naive_mean":
            row[out] = _try_model(status, "naive",
                                  lambda: mean_sojourn_naive_jackson(node, ctrl))
        elif out == "deadline_prob":
            row[out] = _try_model(
                status, "deadline_prob",
                lambda: prob_within_deadline(build_distribution(node, ctrl, rates),
                                             spec.deadline))
        elif out == "simulated_mean":
            res = run_single_node(node, ctrl, spec.sim)
            row[out] = res.mean_sojourn
            row["sim_ci_halfwidth"] = res.ci_halfwidth
    row["status"] = ";".join(status) or "ok"
    return row


def _try_model(status: list[str], label: str, thunk):
    try:
        return thunk()
    except UnstableSystemError as exc:
        status.append(f"{label} unstable: " + ", ".join(exc.stations))
        return None
    except ValueError:
        status.append(f"{label} undefined")
        return None
