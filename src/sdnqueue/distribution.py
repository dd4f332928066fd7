"""Sojourn-time distribution for the single node with controller detour.

The law is the convolution of independent per-visit delays: two switch passes
Exp(a_l) and one controller visit Exp(a_c) with probability q_nf.  Its mean is
exact.  Its shape is not at q_nf > 0, because a new flow's two switch passes
see correlated queues: packets that arrive during its controller visit
overtake it.  At the paper's points, where the controller is 24 times slower
than the switch, its sup-norm gap to the exact law (that of a tagged-packet
Markov chain) was at most 1e-4 at the three points computed; at q_nf = 1,
switch load 0.5 and mu_c = mu_l, its Kolmogorov-Smirnov distance to the
simulator's samples was about 0.04.

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

Both pdf and ccdf are 0 where both exponentials are: a time at which -a_l t
and -a_c t are both at or below _EXP_ZERO (see below), t = inf among them,
gives 0.0 without evaluating the formulas there.  They would give 0.0 too,
but only until a product such as a_l t overflows; past it they form 0 * inf.

A scalar time (a float, an int, a numpy scalar or a 0-d array) is evaluated
in Python float arithmetic, with numpy's exp for both exponentials; an array
is evaluated elementwise in fixed blocks of _CHUNK times, into one output of
the input's shape.  The scalar kernel _detour_at is a written-out copy of the
array path's formulas (_exp_on, _series, _closed, _ratio), operation for
operation and in the same order, so that it costs only its arithmetic; a
scalar gives the same bits as the same time inside an array, at any block
size.  TestScalarAndArrayPaths holds the two paths to each other and
TestPinnedBits holds both to recorded digests.  (math.exp is not used: the
platform's libm can differ from numpy's exp in the last bit.)

Each time is evaluated once: one kernel call gives e^(-a_l t) and the detour
term h, from which pdf and ccdf are both formed where both are wanted, as in
quantile's search and the private _pdf_ccdf.  quantile forms the law's
constants (1 - q) a_l, q a_c and q a_l once per call and its density and tail
from them, in _pdf_value's and _ccdf_value's order of operations.

Every exponential goes through one rule that keeps numpy's exp off its slow
path.  numpy's SIMD exp costs 15-200 times more per element below about
-707.8, near and past the end of the normal floats, and returns +0.0 for
every argument at or below ln 2^-1075 = -745.1332...  So an argument at or
below _EXP_ZERO is given +0.0 without calling exp; a block whose arguments
all lie above _EXP_FAST calls exp once; and a block that straddles _EXP_FAST
calls it on the arguments clamped at _EXP_FAST, then overwrites the clamped
elements with +0.0 or, between _EXP_ZERO and _EXP_FAST, with exp of the
arguments themselves.  Each element thus gets the value np.exp gives it, bit
for bit.  A block's branch (series, closed or masked) and its exp cases
follow from its smallest and largest time: for t >= 0, |x| and -a t are
monotone in t, and rounding keeps them so.

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

# numpy's exp, called through this one name.  It stays on its fast path above
# about -707.8 (measured with numpy 2.4 on x86-64 with AVX-512); _EXP_FAST
# keeps a margin.  At or below _EXP_ZERO it returns +0.0, so e^(-a t) is +0.0
# where a t >= _VANISH_AT: the same test as -a t <= _EXP_ZERO, since negation
# is exact, without a negation that costs a scalar call ~10 ns (CPython 3.11,
# x86-64).
_exp = np.exp
_EXP_FAST = -700.0
_EXP_ZERO = -745.2
_VANISH_AT = -_EXP_ZERO


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
    """Construct the sojourn law from a solved, stable operating point.  An
    infinite service rate, whose effective rate is infinite too, is refused
    under its own name: the formulas would give NaN at every time."""
    _require_stable(rates)
    for name, rate in (("mu_switch", node.mu_switch), ("mu_controller", ctrl.mu_controller)):
        if rate == math.inf:
            raise ValueError(f"{name} must be finite for the sojourn law, got inf")
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


def _exp_on(arg: np.ndarray, low: float, high: float) -> np.ndarray:
    """np.exp over a 1-d block, overwriting it, given low <= arg <= high (NaN
    bounds when the block holds a NaN).  No argument at or below _EXP_ZERO
    reaches exp, and one below _EXP_FAST only when the block straddles it."""
    if low > _EXP_FAST:
        return _exp(arg, out=arg)
    if high <= _EXP_ZERO:
        arg[:] = 0.0
        return arg
    slow = arg < _EXP_FAST
    band = slow & (arg > _EXP_ZERO)
    subnormal = _exp(arg[band])
    _exp(np.maximum(arg, _EXP_FAST, out=arg), out=arg)
    arg[slow] = 0.0
    arg[band] = subnormal
    return arg


def _series(e_l, alt, x):
    """Detour term h = e_l alt^2 phi(x) by phi's Maclaurin series, for |x| < 0.5."""
    phi = _PHI_COEFFS[-1]
    for c in _PHI_HORNER:
        phi = phi * x + c
    return e_l * alt * alt * phi


def _closed(e_l, e_c, x, r):
    """Detour term h = r^2 (e^(-a_c t) - e_l + x e_l), r = a_l/(a_c - a_l), for |x| >= 0.5.

    It never forms e^(-x), so it cannot overflow when a_c << a_l.  Arrays
    e_c and x are overwritten: h is formed in e_c.
    """
    e_c -= e_l
    x *= e_l
    e_c += x
    e_c *= r * r
    return e_c


def _ratio(dist: SojournDistribution) -> float:
    """a_l/(a_c - a_l).  Equal rates give |x| >= 0.5 only at t = NaN, whose
    value is then NaN like any other law's."""
    gap = dist.a_controller - dist.a_switch
    return dist.a_switch / gap if gap else math.nan


def _detour_at(dist: SojournDistribution, t: float) -> tuple[float, float]:
    """e^(-a_l t) and the detour term h at one time, in float arithmetic:
    _exp_on, _series, _closed and _ratio written out, operation for operation.
    Each exp argument is -a * t, not -(a * t), as there: a NaN time's NaN
    then keeps its sign bit."""
    a_l, a_c = dist.a_switch, dist.a_controller
    gap = a_c - a_l
    x = gap * t
    arg = -a_l * t
    e_l = 0.0 if arg <= _EXP_ZERO else float(_exp(arg))
    if abs(x) < _PHI_SERIES_CUTOFF:
        phi = _PHI_COEFFS[-1]
        for c in _PHI_HORNER:
            phi = phi * x + c
        alt = a_l * t
        return e_l, e_l * alt * alt * phi
    arg = -a_c * t
    e_c = 0.0 if arg <= _EXP_ZERO else float(_exp(arg))
    r = a_l / gap if gap else math.nan
    return e_l, (e_c - e_l + x * e_l) * (r * r)


def _detour_on(dist: SojournDistribution, t: np.ndarray, t_min: float,
               t_max: float) -> tuple[np.ndarray, np.ndarray]:
    """e^(-a_l t) and the detour term h elementwise over a 1-d block of times
    whose smallest and largest are t_min and t_max.

    These bound x and both exp arguments, so they choose the branch; a NaN
    makes them NaN and the block masked.
    """
    a_l, a_c = dist.a_switch, dist.a_controller
    gap = a_c - a_l
    x = gap * t
    e_l = _exp_on(-a_l * t, -a_l * t_max, -a_l * t_min)
    if abs(gap * t_max) < _PHI_SERIES_CUTOFF:
        return e_l, _series(e_l, a_l * t, x)
    if abs(gap * t_min) >= _PHI_SERIES_CUTOFF:
        return e_l, _closed(e_l, _exp_on(-a_c * t, -a_c * t_max, -a_c * t_min), x, _ratio(dist))
    small = np.abs(x) < _PHI_SERIES_CUTOFF
    far = ~small
    h = np.empty_like(t)
    h[small] = _series(e_l[small], a_l * t[small], x[small])
    h[far] = _closed(e_l[far], _exp_on(-a_c * t[far], -a_c * t_max, -a_c * t_min), x[far],
                     _ratio(dist))
    return e_l, h


def _evaluate(dist: SojournDistribution, t, value, other=None):
    """value(dist, t, e_l, h) at a scalar time, as a float, or elementwise over
    an array of times, in blocks of _CHUNK, into an array of t's shape.  With
    other, the pair (value, other) from the same kernel evaluation."""
    if not isinstance(t, (float, int)):
        t = np.asarray(t, dtype=float)
        if t.ndim:
            outs = _evaluate_blocks(dist, t, (value,) if other is None else (value, other))
            return outs[0] if other is None else tuple(outs)
    t = float(t)
    if t < 0.0:
        raise ValueError("time must be >= 0")
    if dist.a_switch * t >= _VANISH_AT and dist.a_controller * t >= _VANISH_AT:
        return 0.0 if other is None else (0.0, 0.0)
    e_l, h = _detour_at(dist, t)
    if other is None:
        return value(dist, t, e_l, h)
    return value(dist, t, e_l, h), other(dist, t, e_l, h)


def _evaluate_blocks(dist: SojournDistribution, t: np.ndarray, values) -> list[np.ndarray]:
    """Each of values over t, in order, from one kernel evaluation per block.

    A block's smallest and largest time, which also choose its branch, tell
    whether it holds a negative time and whether any of its times vanish
    (both exp arguments at or below _EXP_ZERO); a NaN makes both NaN, so
    such a block is checked time by time.  A vanished time is evaluated at
    t = 0, which keeps every product finite and gives h = 0, and its
    e^(-a_l t) is then set to 0.0, from which pdf and ccdf are both 0.0.
    """
    a_l, a_c = dist.a_switch, dist.a_controller
    outs = [np.empty(t.shape) for _ in values]
    flat_t, flat_outs = t.reshape(-1), [out.reshape(-1) for out in outs]
    for i in range(0, flat_t.size, _CHUNK):
        block = flat_t[i:i + _CHUNK]
        t_min, t_max = float(block.min()), float(block.max())
        nan = t_min != t_min
        if np.any(block < 0.0) if nan else t_min < 0.0:
            raise ValueError("time must be >= 0")
        if vanish := nan or (a_l * t_max >= _VANISH_AT and a_c * t_max >= _VANISH_AT):
            with np.errstate(over="ignore"):  # a t is inf past the float range
                gone = (a_l * block >= _VANISH_AT) & (a_c * block >= _VANISH_AT)
            block = np.where(gone, 0.0, block)
            t_min, t_max = float(block.min()), float(block.max())
        e_l, h = _detour_on(dist, block, t_min, t_max)
        if vanish:
            e_l[gone] = 0.0
        for value, flat_out in zip(values, flat_outs):
            flat_out[i:i + _CHUNK] = value(dist, block, e_l, h)
    return outs


def _pdf_value(dist, t, e_l, h):
    q = dist.q_nf
    return (1.0 - q) * dist.a_switch * e_l + q * dist.a_controller * h


def _ccdf_value(dist, t, e_l, h):
    """Formed in place over arrays; it overwrites h, so it comes last."""
    q = dist.q_nf
    value = q * dist.a_switch * t
    value += 1.0
    value *= e_l
    h *= q
    value += h
    return value


def pdf(dist: SojournDistribution, t):
    """Sojourn-time density at t (seconds); accepts scalars or arrays."""
    return _evaluate(dist, t, _pdf_value)


def ccdf(dist: SojournDistribution, t):
    """P(sojourn > t); 1 at t = 0, -> 0 as t -> inf, nonincreasing to
    within rounding: at q_nf = 1 near t = 0, where it is formed within a
    few ulps of 1, it can rise by up to 4 ulps between adjacent times."""
    return _evaluate(dist, t, _ccdf_value)


def _pdf_ccdf(dist: SojournDistribution, t) -> tuple:
    """pdf(dist, t) and ccdf(dist, t), with the same bits, from one kernel evaluation."""
    return _evaluate(dist, t, _pdf_value, _ccdf_value)


def prob_within_deadline(dist: SojournDistribution, deadline: float) -> float:
    """Probability that a packet's sojourn time is at most the deadline."""
    if not deadline >= 0.0:
        raise ValueError(f"deadline must be >= 0, got {deadline}")
    return 1.0 - float(ccdf(dist, deadline))


def quantile(dist: SojournDistribution, p: float) -> float:
    """Smallest t with P(sojourn <= t) >= p, for p in [0, 1).

    Doubling from the mean brackets the root of ccdf(t) = 1 - p.  Newton steps
    on its logarithm, which is nearly linear in the tail, then run inside the
    bracket, which every evaluation narrows; a step that would leave it (or a
    zero density, as at t = 0 with q_nf = 1) is replaced by bisection.  The
    search stops when a step no longer moves t or no float is left strictly
    inside the bracket.

    The law's constants (1 - q) a_l, q a_c and q a_l are formed once; density
    and tail are formed from them and the kernel's (e_l, h) in _pdf_value's
    and _ccdf_value's order of operations, so with their bits.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"p must be in [0, 1), got {p}")
    if p == 0.0:
        return 0.0
    q = dist.q_nf
    pdf_l, pdf_c = (1.0 - q) * dist.a_switch, q * dist.a_controller
    ccdf_l = q * dist.a_switch
    target = 1.0 - p  # ccdf value at the quantile
    # the bracket's left end, its ccdf, and its (e_l, h) once evaluated
    lo, tail, kernel = 0.0, 1.0, None
    hi = dist.mean()
    e_l, h = at_hi = _detour_at(dist, hi)
    while (c := (ccdf_l * hi + 1.0) * e_l + h * q) > target:
        lo, tail, kernel = hi, c, at_hi
        hi *= 2.0
        e_l, h = at_hi = _detour_at(dist, hi)
    t = lo
    e_l, h = kernel or _detour_at(dist, t)
    while True:
        density = pdf_l * e_l + pdf_c * h
        t_new = t + math.log(tail / target) * tail / density if density > 0.0 else math.nan
        if t_new == t:
            return t
        if not lo < t_new < hi:
            t_new = 0.5 * (lo + hi)
            if not lo < t_new < hi:
                return t
        t = t_new
        e_l, h = _detour_at(dist, t)
        tail = (ccdf_l * t + 1.0) * e_l + h * q
        if tail > target:
            lo = t
        else:
            hi = t
