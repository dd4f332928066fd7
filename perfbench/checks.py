"""Reference arithmetic and result checks for the benchmark.

The formulas here are written out independently of the library (balance
equations, mean sojourn, the sojourn law by partial fractions), so a check
compares the library against a second derivation rather than against itself.
Every check returns a list of problems; an empty list means the result is
correct.
"""

from __future__ import annotations

import math

# Load at or above 1 - margin counts as saturated, as documented by the
# library's stability contract.
STABILITY_MARGIN = 1e-9
# Retained sojourn samples per run are capped at 10**6 (documented contract).
SAMPLE_CAP = 1_000_000

# A simulated mean passes when it is within MEAN_SIGMAS standard errors of
# the analytic mean, the standard error predicted from the stations' loads and
# the packets' path mix, or within MEAN_CI_WIDTHS of the run's own 95% CI
# half-widths.  At a load near 1 a short run's mean is skewed: one long busy
# period can put a correct run 5 predicted errors high, and then its
# replications disagree and its CI widens with it.  The CI alone is no test:
# it rests on 5 replications (4 degrees of freedom) with a normal quantile,
# so 2.5 half-widths fail a correct run about once in 120 checks.
MEAN_SIGMAS = 5.0
MEAN_CI_WIDTHS = 2.5
# Binomial allowance for the controller-visit fraction, in standard errors.
VISIT_SIGMAS = 7.0
# Rate gaps below this relative size make the partial-fraction reference
# cancel too much to be a fair judge; such points get range checks only.
SEPARATION = 0.05


def saturated_node(lam: float, q: float, mu_l: float, mu_c: float) -> tuple[str, ...]:
    """Stations of one node that are saturated, named as the library names them."""
    out = []
    if lam * (1.0 + q) / mu_l >= 1.0 - STABILITY_MARGIN:
        out.append("switch")
    if q * lam / mu_c >= 1.0 - STABILITY_MARGIN:
        out.append("controller")
    return tuple(out)


def mean_sojourn(lam: float, q: float, mu_l: float, mu_c: float) -> float:
    """(1+q)/(mu_l - (1+q) lam) + q/(mu_c - q lam) for a stable node."""
    w = (1.0 + q) / (mu_l - (1.0 + q) * lam)
    if q > 0.0:
        w += q / (mu_c - q * lam)
    return w


def naive_mean_sojourn(lam: float, q: float, mu_l: float, mu_c: float) -> float | None:
    """Uncorrected Jackson mean (feedback q on total output); None if unstable."""
    g_l = lam / (1.0 - q)
    rho_l, rho_c = g_l / mu_l, q * g_l / mu_c
    if rho_l >= 1.0 - STABILITY_MARGIN or rho_c >= 1.0 - STABILITY_MARGIN:
        return None
    return (rho_l / (1.0 - rho_l) + rho_c / (1.0 - rho_c)) / lam


def zero_load_sojourn(q: float, mu_l: float, mu_c: float) -> float:
    return (1.0 + q) / mu_l + q / mu_c


def stability_supremum(q: float, mu_l: float, mu_c: float) -> float:
    sup = mu_l / (1.0 + q)
    return min(sup, mu_c / q) if q > 0.0 else sup


def _rates(lam, q, mu_l, mu_c):
    return mu_l - (1.0 + q) * lam, mu_c - q * lam


def separated(lam: float, q: float, mu_l: float, mu_c: float) -> bool:
    """True where the partial-fraction reference is accurate."""
    a, c = _rates(lam, q, mu_l, mu_c)
    return q == 0.0 or abs(a - c) > SEPARATION * max(a, c)


def ref_ccdf(t: float, lam: float, q: float, mu_l: float, mu_c: float) -> float:
    """P(sojourn > t): (1-q) Exp(a) + q [Erlang-2(a) * Exp(c)], a != c."""
    a, c = _rates(lam, q, mu_l, mu_c)
    ea = math.exp(-a * t)
    if q == 0.0:
        return ea
    g = (-(a * c) / (a - c) ** 2 * ea + (a * c) / (c - a) * (t + 1.0 / a) * ea
         + a * a / (a - c) ** 2 * math.exp(-c * t))
    return (1.0 - q) * ea + q * g


def ref_pdf(t: float, lam: float, q: float, mu_l: float, mu_c: float) -> float:
    a, c = _rates(lam, q, mu_l, mu_c)
    ea = math.exp(-a * t)
    if q == 0.0:
        return a * ea
    k = a * a * c
    g = -k / (a - c) ** 2 * ea + k / (c - a) * t * ea + k / (a - c) ** 2 * math.exp(-c * t)
    return (1.0 - q) * a * ea + q * g


def close(got, want, rel: float, abs_: float = 0.0) -> bool:
    return got is not None and abs(got - want) <= max(abs_, rel * abs(want))


# --- simulation -------------------------------------------------------------

def measured_departures(cfg) -> int:
    """Departures a run keeps for statistics: warm-up departures are dropped."""
    per_rep = cfg.packets_per_replication - int(cfg.warmup_fraction * cfg.packets_per_replication)
    return cfg.replications * per_rep


def mean_std_error(stations, total_lam: float, n_measured: int, paths) -> float:
    """Standard error of a simulated mean sojourn.

    ``stations`` holds (gamma, mu) per station.  Each station adds
    (gamma/total_lam) / (mu - gamma) to the mean sojourn; the time average of
    an M/M/1 queue at load rho over n visits has relative variance
    2 (1 + rho) / ((1 - rho)^2 n) (relaxation-time approximation).  On top,
    each packet draws its path independently: ``paths`` holds (probability,
    mean sojourn) per path, and the spread of the path means adds its
    variance over n packets.
    """
    var = 0.0
    for gamma, mu in stations:
        rho = gamma / mu
        visits = n_measured * gamma / total_lam
        term = (gamma / total_lam) / (mu - gamma)
        var += term * term * 2.0 * (1.0 + rho) / ((1.0 - rho) ** 2 * visits)
    mean = sum(p * m for p, m in paths)
    var += max(0.0, sum(p * m * m for p, m in paths) - mean * mean) / n_measured
    return math.sqrt(var)


def check_sim_mean(label: str, res, pred: float, std_error: float) -> list[str]:
    dev = abs(res.mean_sojourn - pred)
    if dev <= MEAN_SIGMAS * std_error or dev <= MEAN_CI_WIDTHS * res.ci_halfwidth:
        return []
    return [f"{label}: sim mean {res.mean_sojourn:.6g} vs analytic {pred:.6g} "
            f"({dev / std_error:.1f} standard errors, {dev / res.ci_halfwidth:.1f} CI "
            "half-widths)"]


def check_visits(label: str, fraction: float, q: float, n: int) -> list[str]:
    allowance = VISIT_SIGMAS * math.sqrt(q * (1.0 - q) / n) + 1e-12
    if abs(fraction - q) <= allowance:
        return []
    return [f"{label}: controller-visit fraction {fraction:.6f} vs q_nf {q} "
            f"(allowance {allowance:.2g})"]


def check_samples(label: str, samples, n_measured: int) -> list[str]:
    problems = []
    want = min(SAMPLE_CAP, n_measured)
    if len(samples) != want:
        problems.append(f"{label}: {len(samples)} retained samples, expected {want}")
    if len(samples) and (samples[0] < 0.0 or (samples[1:] < samples[:-1]).any()):
        problems.append(f"{label}: empirical ccdf samples not sorted and nonnegative")
    return problems


# --- dimensioning -----------------------------------------------------------

def check_throughput(res, bound: float, q: float, mu_l: float, mu_c: float) -> list[str]:
    """The returned rate meets the bound and a rate just above it does not."""
    w0 = zero_load_sojourn(q, mu_l, mu_c)
    if bound <= w0:
        if res.feasible or res.rate != 0.0:
            return [f"bound {bound:.6g} <= zero-load {w0:.6g} reported feasible"]
        return []
    if not res.feasible:
        return [f"feasible bound {bound:.6g} reported infeasible"]
    sup = stability_supremum(q, mu_l, mu_c)
    if not 0.0 <= res.rate < sup or mean_sojourn(res.rate, q, mu_l, mu_c) > bound * (1 + 1e-12):
        return [f"rate {res.rate:.9g} misses bound {bound:.6g}"]
    above = res.rate + 1.01e-6 * sup
    if above < sup * (1.0 - 1e-8) and mean_sojourn(above, q, mu_l, mu_c) <= bound:
        return [f"rate {res.rate:.9g} not maximal for bound {bound:.6g}"]
    return []
