"""Exact sojourn-time distribution for the single node with controller detour.

With stable stations the sojourn time is a signed mixture of an exponential
(rate a_l = mu_l - gamma_l, the no-detour path), an Erlang-2 stage (two switch
passes) and an exponential at the controller rate a_c = mu_c - gamma_c.  The
partial-fraction coefficients divide by (a_c - a_l)^2, so direct evaluation
loses all precision when the two effective rates approach each other; pdf and
ccdf are therefore evaluated through an algebraically identical regrouping

    pdf(t)  = a_l e^(-a_l t) (1-q) + q a_l^2 a_c t^2 phi(x) e^(-a_l t)
    ccdf(t) = e^(-a_l t) [ (1-q) + q (1 + a_l t + a_l^2 t^2 phi(x)) ]

with x = (a_c - a_l) t and phi(x) = (e^(-x) - 1 + x) / x^2, which is uniformly
stable and passes continuously through the equal-rates (Erlang-3) limit.

Both pdf and ccdf vanish at t = inf, where the formulas would form 0 * inf, so
an infinite time gives 0 without evaluating them.

A scalar time (a float, an int, a numpy scalar or a 0-d array) is evaluated
in Python float arithmetic, with numpy's exp for both exponentials; an array
is evaluated elementwise in fixed blocks of _CHUNK times, into one output of
the input's shape.  Both paths run the same formulas in the same order, so a
scalar gives the same bits as the same time inside an array, at any block
size.  (math.exp is not used: the platform's libm can differ from numpy's
exp in the last bit.)

The coefficient fields b1/b2/d keep the classical partial-fraction values and
are reported for inspection; b1 can be negative, so the mixture must never be
sampled from, only summed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import ControllerParams, NodeParams, SolvedRates, _require_stable

# Relative rate gap below which the partial-fraction coefficients are reported
# as degenerate (evaluation itself never divides by the gap).
DEGENERATE_TOL = 1e-9

# phi(x) Maclaurin coefficients 1/(k+2)! with alternating sign, |x| < 0.5,
# and the order Horner's rule takes them in after the highest.
_PHI_COEFFS = [(-1.0) ** k / math.factorial(k + 2) for k in range(14)]
_PHI_HORNER = _PHI_COEFFS[-2::-1]
_PHI_SERIES_CUTOFF = 0.5

# Times per block of an array evaluation.  Elementwise arithmetic gives the
# same bits at any block size; a block's temporaries stay small and in cache.
_CHUNK = 1 << 14


@dataclass(frozen=True)
class SojournDistribution:
    """Sojourn-time law of one node, frozen at a specific operating point.

    a_switch      effective switch rate mu_l - gamma_l (1/s)
    a_controller  effective controller rate mu_c - gamma_c (1/s)
    b1, b2, d     partial-fraction coefficients of the exponential, Erlang-2
                  and controller components; b1 + b2 + d = 1, signs follow
                  a_controller - a_switch (signed decomposition, not a
                  probability mixture)
    q_nf          new-flow probability that generated the law
    degenerate    True when the two effective rates are equal to within
                  DEGENERATE_TOL; b1/b2/d are then reported as the limiting
                  weights (1 - q_nf, 0, 0) with weight q_nf on an implicit
                  Erlang-3 component, and evaluation uses the analytic limit
    """

    a_switch: float
    a_controller: float
    b1: float
    b2: float
    d: float
    q_nf: float
    degenerate: bool

    def mean(self) -> float:
        """Mean sojourn time (1 + q)/a_l + q/a_c."""
        return (1.0 + self.q_nf) / self.a_switch + self.q_nf / self.a_controller


def build_distribution(node: NodeParams, ctrl: ControllerParams,
                       rates: SolvedRates) -> SojournDistribution:
    """Construct the sojourn law from a solved, stable operating point."""
    _require_stable(rates)
    a_l = node.mu_switch - rates.gamma_switch
    a_c = ctrl.mu_controller - rates.gamma_controller
    q = node.q_nf
    gap = a_c - a_l
    degenerate = abs(gap) <= DEGENERATE_TOL * max(a_l, a_c)
    if degenerate:
        b1, b2, d = 1.0 - q, 0.0, 0.0
    else:
        b2 = q * a_c / gap
        d = q * a_l * a_l / (gap * gap)
        b1 = 1.0 - q - q * a_l * a_c / (gap * gap)
    return SojournDistribution(a_switch=a_l, a_controller=a_c, b1=b1, b2=b2,
                               d=d, q_nf=q, degenerate=degenerate)


def _series(e_l, alt, x):
    """Detour term h = e_l alt^2 phi(x) by phi's Maclaurin series, for |x| < 0.5."""
    phi = _PHI_COEFFS[-1]
    for c in _PHI_HORNER:
        phi = phi * x + c
    return e_l * alt * alt * phi


def _closed(e_l, e_c, x, r):
    """Detour term h = r^2 (e^(-a_c t) - e_l + x e_l), r = a_l/(a_c - a_l), for |x| >= 0.5.

    It never forms e^(-x), so it cannot overflow when a_c << a_l.
    """
    return r * r * (e_c - e_l + x * e_l)


def _ratio(dist: SojournDistribution) -> float:
    """a_l/(a_c - a_l).  Equal rates give |x| >= 0.5 only at a non-finite t,
    whose value is then NaN like any other law's."""
    gap = dist.a_controller - dist.a_switch
    return dist.a_switch / gap if gap else math.nan


def _detour_at(dist: SojournDistribution, t: float) -> tuple[float, float]:
    """e^(-a_l t) and the detour term h at one time, in float arithmetic."""
    a_l, a_c = dist.a_switch, dist.a_controller
    x = (a_c - a_l) * t
    e_l = float(np.exp(-a_l * t))
    if abs(x) < _PHI_SERIES_CUTOFF:
        return e_l, _series(e_l, a_l * t, x)
    return e_l, _closed(e_l, float(np.exp(-a_c * t)), x, _ratio(dist))


def _detour_on(dist: SojournDistribution, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """e^(-a_l t) and the detour term h elementwise over a 1-d block of times."""
    a_l, a_c = dist.a_switch, dist.a_controller
    x = (a_c - a_l) * t
    e_l = np.exp(-a_l * t)
    small = np.abs(x) < _PHI_SERIES_CUTOFF
    if small.all():
        return e_l, _series(e_l, a_l * t, x)
    far = ~small
    if far.all():
        return e_l, _closed(e_l, np.exp(-a_c * t), x, _ratio(dist))
    h = np.empty_like(t)
    h[small] = _series(e_l[small], a_l * t[small], x[small])
    h[far] = _closed(e_l[far], np.exp(-a_c * t[far]), x[far], _ratio(dist))
    return e_l, h


def _evaluate(dist: SojournDistribution, t, value):
    """value(dist, t, e_l, h) at a scalar time, as a float, or elementwise over
    an array of times, in blocks of _CHUNK, into an array of t's shape."""
    if not isinstance(t, (float, int)):
        t = np.asarray(t, dtype=float)
        if t.ndim:
            return _evaluate_blocks(dist, t, value)
    t = float(t)
    if t < 0.0:
        raise ValueError("time must be >= 0")
    if t == math.inf:
        return 0.0
    return value(dist, t, *_detour_at(dist, t))


def _evaluate_blocks(dist: SojournDistribution, t: np.ndarray, value) -> np.ndarray:
    if np.any(t < 0.0):
        raise ValueError("time must be >= 0")
    at_inf = t == math.inf
    if at_inf.any():
        out = np.zeros(t.shape)
        out[~at_inf] = _evaluate_blocks(dist, t[~at_inf], value)
        return out
    out = np.empty(t.shape)
    flat_t, flat_out = t.reshape(-1), out.reshape(-1)
    for i in range(0, flat_t.size, _CHUNK):
        block = flat_t[i:i + _CHUNK]
        flat_out[i:i + _CHUNK] = value(dist, block, *_detour_on(dist, block))
    return out


def _pdf_value(dist, t, e_l, h):
    q = dist.q_nf
    return (1.0 - q) * dist.a_switch * e_l + q * dist.a_controller * h


def _ccdf_value(dist, t, e_l, h):
    q = dist.q_nf
    return e_l * (1.0 + q * dist.a_switch * t) + q * h


def pdf(dist: SojournDistribution, t):
    """Sojourn-time density at t (seconds); accepts scalars or arrays."""
    return _evaluate(dist, t, _pdf_value)


def ccdf(dist: SojournDistribution, t):
    """P(sojourn > t); 1 at t = 0, nonincreasing, -> 0 as t -> inf."""
    return _evaluate(dist, t, _ccdf_value)


def prob_within_deadline(dist: SojournDistribution, deadline: float) -> float:
    """Probability that a packet's sojourn time is at most the deadline."""
    if deadline < 0.0:
        raise ValueError("deadline must be >= 0")
    return 1.0 - float(ccdf(dist, deadline))


def quantile(dist: SojournDistribution, p: float) -> float:
    """Smallest t with P(sojourn <= t) >= p, for p in [0, 1).

    Doubling from the mean brackets the root of ccdf(t) = 1 - p.  Newton steps
    on its logarithm, which is nearly linear in the tail, then run inside the
    bracket, which every evaluation narrows; a step that would leave it (or a
    zero density, as at t = 0 with q_nf = 1) is replaced by bisection.  The
    search stops when a step no longer moves t or no float is left strictly
    inside the bracket.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"p must be in [0, 1), got {p}")
    if p == 0.0:
        return 0.0
    target = 1.0 - p  # ccdf value at the quantile
    lo, tail = 0.0, 1.0  # the bracket's left end and its ccdf
    hi = dist.mean()
    while (c := ccdf(dist, hi)) > target:
        lo, tail = hi, c
        hi *= 2.0
    t = lo
    while True:
        density = pdf(dist, t)
        t_new = t + math.log(tail / target) * tail / density if density > 0.0 else math.nan
        if t_new == t:
            return t
        if not lo < t_new < hi:
            t_new = 0.5 * (lo + hi)
            if not lo < t_new < hi:
                return t
        t = t_new
        tail = ccdf(dist, t)
        if tail > target:
            lo = t
        else:
            hi = t
