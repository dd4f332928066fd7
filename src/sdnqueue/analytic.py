"""Traffic balance and mean sojourn times for a switch/controller feedback loop.

An SDN data-plane node forwards known flows directly, but the first packet of
an unknown flow takes a detour: switch -> controller -> same switch -> out.
Only *external* arrivals can trigger that detour, and each packet takes it at
most once.  A plain Jackson feedback network routes a fixed fraction of the
*total* station input back around, so its feedback probability must be
corrected before its station rates match the real system.  This module solves
the corrected balance equations in closed form and evaluates the resulting
mean sojourn times, for a single node and for a tandem chain of nodes sharing
one controller.

All rates are events per second, all times seconds (64-bit floats).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Loads this close to 1 count as saturated: the delay formulas have a pole at
# rho = 1 and values inside the margin are numerically meaningless.
STABILITY_MARGIN = 1e-9


def _saturated(rho: float) -> bool:
    """A load not below 1 - STABILITY_MARGIN, NaN included."""
    return not rho < 1.0 - STABILITY_MARGIN


class UnstableSystemError(Exception):
    """A delay formula was evaluated at a saturated station.

    ``stations`` lists the offending stations, e.g. ``("controller",)`` or
    ``("switch[0]", "switch[2]")`` (chain switches carry their 0-based index).
    """

    def __init__(self, stations: tuple[str, ...] | list[str]):
        self.stations = tuple(stations)
        super().__init__("unstable: " + ", ".join(self.stations))


def rate_from_us(service_time_us: float) -> float:
    """Service rate (per second) for a mean service time given in microseconds."""
    if not 0.0 < service_time_us < math.inf:
        raise ValueError(f"service time must be finite and > 0, got {service_time_us}")
    return 1e6 / service_time_us


@dataclass(frozen=True)
class NodeParams:
    """One data-plane node: external arrivals, switch speed, new-flow share.

    lam        external arrival rate (packets/s)
    mu_switch  switch service rate (packets/s)
    q_nf       probability that an arriving packet opens a new flow and must
               be sent to the controller (in [0, 1])
    """

    lam: float
    mu_switch: float
    q_nf: float

    def __post_init__(self):
        if not (self.lam >= _SAFE_RATE and self.mu_switch >= _SAFE_RATE):
            _check_rate("lam", self.lam)
            _check_rate("mu_switch", self.mu_switch)
        if not 0.0 <= self.q_nf <= 1.0:
            raise ValueError(f"q_nf must be in [0, 1], got {self.q_nf}")


@dataclass(frozen=True)
class ControllerParams:
    """Controller service rate (responses/s).

    The service time is understood to include the switch-to-controller
    transmission time, so no separate link delay is modeled.
    """

    mu_controller: float

    def __post_init__(self):
        if not self.mu_controller >= _SAFE_RATE:
            _check_rate("mu_controller", self.mu_controller)


# Every rate at or above this has a finite mean time 1/rate, so the
# constructors, which closed-form searches call thousands of times, check
# only smaller ones (or NaN, or a non-number) exactly.
_SAFE_RATE = 1e-300


def _check_rate(name: str, rate: float) -> None:
    """Raise unless ``rate`` is > 0 with a finite mean time 1/rate, which a
    rate below ~5.6e-309 lacks.  An infinite rate (mean time 0) is legal."""
    if not rate > 0.0:
        raise ValueError(f"{name} must be > 0, got {rate}")
    if not math.isfinite(1.0 / float(rate)):
        raise ValueError(f"{name} must have a finite mean time 1/{name}, got {rate}")


@dataclass(frozen=True)
class SolvedRates:
    """Solution of the balance equations for one node and its controller flow.

    gamma_switch      net switch input rate (external + controller returns)
    gamma_controller  controller traffic contributed by this node's externals
    q_jack            corrected feedback probability: the fraction of the
                      switch *output* that a rate-matched Jackson model must
                      route to the controller
    rho_switch        switch load gamma_switch / mu_switch
    rho_controller    controller load; for a chain this is the load induced
                      by *all* nodes sharing the controller
    """

    gamma_switch: float
    gamma_controller: float
    q_jack: float
    rho_switch: float
    rho_controller: float

    @property
    def stable(self) -> bool:
        return not self.saturated_stations()

    def saturated_stations(self) -> tuple[str, ...]:
        out = []
        if _saturated(self.rho_switch):
            out.append("switch")
        if _saturated(self.rho_controller):
            out.append("controller")
        return tuple(out)


@dataclass(frozen=True)
class ChainModel:
    """Ordered tandem of nodes sharing one controller.

    Node i receives all traffic forwarded by node i-1 plus its own external
    arrivals; only a node's own external arrivals can trigger its controller
    query, and a packet returning from the controller re-enters the node it
    came from before continuing downstream.
    """

    nodes: tuple[NodeParams, ...]
    controller: ControllerParams

    def __post_init__(self):
        if len(self.nodes) < 1:
            raise ValueError("chain needs at least one node")
        object.__setattr__(self, "nodes", tuple(self.nodes))


@dataclass(frozen=True)
class ChainSolution:
    """Per-node balance solution plus the shared-controller totals."""

    nodes: tuple[SolvedRates, ...]
    gamma_controller: float
    rho_controller: float

    @property
    def stable(self) -> bool:
        return not self.saturated_stations()

    def saturated_stations(self) -> tuple[str, ...]:
        out = [f"switch[{i}]" for i, r in enumerate(self.nodes)
               if _saturated(r.rho_switch)]
        if _saturated(self.rho_controller):
            out.append("controller")
        return tuple(out)


@dataclass(frozen=True)
class ChainSojourn:
    """Mean sojourn per traffic class (class i enters at node i) and overall."""

    per_class: tuple[float, ...]
    aggregate: float


def derive_q_jack(q_nf: float) -> float:
    """Corrected feedback probability q_nf / (1 + q_nf).

    This is the routing probability a Jackson feedback model must use so that
    its station input rates equal those of the real system, where only the
    external fraction q_nf ever visits the controller.  The result lies in
    [0, 1/2].
    """
    if not 0.0 <= q_nf <= 1.0:
        raise ValueError(f"q_nf must be in [0, 1], got {q_nf}")
    return q_nf / (1.0 + q_nf)


def solve_rates(node: NodeParams, ctrl: ControllerParams) -> SolvedRates:
    """Solve the single-node balance equations.

    The switch sees its external arrivals once plus every new-flow packet a
    second time, so gamma_switch = lam * (1 + q_nf); the controller sees only
    the new-flow share, gamma_controller = q_nf * lam.  Stability is reported
    (via ``stable``) but not enforced here.
    """
    gamma_switch = node.lam * (1.0 + node.q_nf)
    gamma_controller = node.q_nf * node.lam
    return SolvedRates(
        gamma_switch=gamma_switch,
        gamma_controller=gamma_controller,
        q_jack=derive_q_jack(node.q_nf),
        rho_switch=gamma_switch / node.mu_switch,
        rho_controller=gamma_controller / ctrl.mu_controller,
    )


def _require_stable(rates: SolvedRates | ChainSolution) -> None:
    sat = rates.saturated_stations()
    if sat:
        raise UnstableSystemError(sat)


def mean_sojourn_jackson(rates: SolvedRates, node: NodeParams) -> float:
    """Mean sojourn time from the rate-matched Jackson network's queue lengths.

    (1/lam) * (rho_l/(1-rho_l) + rho_c/(1-rho_c)); the expected number in
    system at each station divided by the external arrival rate.
    """
    _require_stable(rates)
    return (rates.rho_switch / (1.0 - rates.rho_switch)
            + rates.rho_controller / (1.0 - rates.rho_controller)) / node.lam


def mean_sojourn_openflow(node: NodeParams, ctrl: ControllerParams,
                          rates: SolvedRates) -> float:
    """Mean sojourn time from the per-visit delays on the detour path.

    (1 + q_nf)/(mu_l - gamma_l) + q_nf/(mu_c - gamma_c): every packet makes
    one switch pass, new-flow packets add a controller visit and a second
    switch pass.  Equal to :func:`mean_sojourn_jackson` on the same inputs.
    """
    _require_stable(rates)
    w = (1.0 + node.q_nf) / (node.mu_switch - rates.gamma_switch)
    if node.q_nf > 0.0:
        w += node.q_nf / (ctrl.mu_controller - rates.gamma_controller)
    return w


def mean_sojourn_naive_jackson(node: NodeParams, ctrl: ControllerParams) -> float:
    """Mean sojourn of the *uncorrected* Jackson model, for comparison only.

    Feeds the new-flow probability straight in as the feedback probability,
    which routes a fraction q_nf of the total switch output (not just of the
    externals) to the controller: gamma_l = lam/(1 - q_nf).  This inflates
    both station rates and is exactly the mistake the corrected model fixes;
    it is kept to reproduce that comparison.
    """
    if node.q_nf >= 1.0:
        raise ValueError("naive Jackson model is undefined at q_nf = 1 "
                         "(balance equation divides by 1 - q_nf = 0)")
    gamma_switch = node.lam / (1.0 - node.q_nf)
    gamma_controller = node.q_nf * gamma_switch
    rates = SolvedRates(gamma_switch=gamma_switch, gamma_controller=gamma_controller,
                        q_jack=node.q_nf, rho_switch=gamma_switch / node.mu_switch,
                        rho_controller=gamma_controller / ctrl.mu_controller)
    return mean_sojourn_jackson(rates, node)


def solve_chain(chain: ChainModel) -> ChainSolution:
    """Solve the balance equations for a tandem chain with a shared controller.

    Node 0 behaves like the single-node case.  Node i > 0 additionally carries
    every upstream external packet exactly once, so
    gamma_i = sum_{j<i} lam_j + lam_i * (1 + q_i), and its corrected feedback
    probability is q_i * lam_i / gamma_i (only node i's own externals query
    the controller).  The controller rate is the sum of all nodes' new-flow
    rates.  Each per-node entry reports the node's own controller
    contribution as ``gamma_controller`` and the shared total load as
    ``rho_controller``; a 1-node chain therefore reproduces
    :func:`solve_rates` field for field.
    """
    mu_c = chain.controller.mu_controller
    gamma_c_total = sum(n.q_nf * n.lam for n in chain.nodes)
    rho_c = gamma_c_total / mu_c
    per_node = []
    upstream = 0.0
    for n in chain.nodes:
        gamma = upstream + n.lam * (1.0 + n.q_nf)
        feedback = n.q_nf * n.lam
        # the head node has no transit traffic; its correction reduces to the
        # single-node closed form (kept bit-identical to solve_rates)
        q_jack = derive_q_jack(n.q_nf) if upstream == 0.0 else feedback / gamma
        per_node.append(SolvedRates(
            gamma_switch=gamma,
            gamma_controller=feedback,
            q_jack=q_jack,
            rho_switch=gamma / n.mu_switch,
            rho_controller=rho_c,
        ))
        upstream += n.lam
    return ChainSolution(nodes=tuple(per_node), gamma_controller=gamma_c_total,
                         rho_controller=rho_c)


def chain_sojourn(chain: ChainModel, solution: ChainSolution) -> ChainSojourn:
    """Mean sojourn per traffic class and the arrival-weighted aggregate.

    Class i (packets entering at node i) spends (1 + q_i)/(mu_i - gamma_i) at
    its entry node plus q_i/(mu_c - gamma_c) at the controller, then one mean
    delay 1/(mu_j - gamma_j) at every downstream node j > i.  Per-class
    addition of per-station mean delays rests on the product-form station
    independence of the rate-matched network; the chain case itself is an
    extension of the single-node model (see README).

    The terms are formed and added as in :func:`mean_sojourn_openflow` (the
    downstream delays, summed from the last node back, go between the entry
    and the controller terms), and the aggregate is sum_i (lam_i/Lambda) w_i,
    so a one-node chain gives that function's value bit for bit.
    """
    _require_stable(solution)
    mu_c = chain.controller.mu_controller
    per_class = []
    downstream = 0.0  # sum of mean delays at the nodes after the current one
    for node, rates in zip(reversed(chain.nodes), reversed(solution.nodes)):
        free = node.mu_switch - rates.gamma_switch
        w = (1.0 + node.q_nf) / free + downstream
        if node.q_nf > 0.0:
            w += node.q_nf / (mu_c - solution.gamma_controller)
        per_class.append(w)
        downstream += 1.0 / free
    per_class.reverse()
    total_lam = sum(nd.lam for nd in chain.nodes)
    aggregate = sum(nd.lam / total_lam * w for nd, w in zip(chain.nodes, per_class))
    return ChainSojourn(per_class=tuple(per_class), aggregate=aggregate)
