"""Closed-form evaluators for the analytical misclassification bounds.

Everything here is a pure function of scalars or a region's shape constants,
so the bounds can be tabulated and unit-tested without running a simulation.
Expected counts refer to the majority vote with neighborhood radius r over a
Poisson field of intensity lam on the unit square.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import convex_and_round


def majority_tail_exact(n: int, p: float) -> float:
    """Probability of at least ceil(n/2) successes among n Bernoulli(p) trials.

    B(0) = 1: zero required successes are achieved vacuously. Summed from
    exact integer binomial coefficients for moderate n, in log space above.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if n == 0:
        return 1.0
    m = (n + 1) // 2
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    q = 1.0 - p
    if n <= 60:
        terms = [math.comb(n, k) * p**k * q ** (n - k) for k in range(m, n + 1)]
        return min(1.0, math.fsum(terms))
    lp, lq = math.log(p), math.log(q)
    logs = [
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1) + k * lp + (n - k) * lq
        for k in range(m, n + 1)
    ]
    top = max(logs)
    return min(1.0, math.exp(top) * math.fsum(math.exp(v - top) for v in logs))


def majority_tail_bounds(n: int, p: float) -> tuple[float, float]:
    """Chernoff-style bracket sqrt(pq)/(2n) * (2 sqrt(pq))^n <= B(n) <= (2 sqrt(pq))^n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 <= p <= 0.5:
        raise ValueError("p must lie in [0, 1/2]")
    s = math.sqrt(p * (1.0 - p))
    upper = (2.0 * s) ** n
    lower = s / (2.0 * n) * upper
    return lower, upper


def thm1_bounds(lam: float, p: float, r: float, area_outside: float) -> tuple[float, float]:
    """(lower, upper) on expected misclassified sensors outside the band Z_r."""
    if not 0.0 <= p <= 0.5:
        raise ValueError("p must lie in [0, 1/2]")
    if lam <= 0 or r <= 0 or area_outside <= 0:
        raise ValueError("lam, r, and area_outside must be positive")
    s = math.sqrt(p * (1.0 - p))
    nu = lam * math.pi * r * r  # expected neighbor count
    decay = math.exp(-(1.0 - 2.0 * s) * nu)
    upper = 2.0 * lam * s * decay * area_outside
    # decay - exp(-nu) = decay * (1 - exp(-2 s nu)): keeps its digits where nu is small,
    # and cannot overflow where nu is large
    lower = s / (4.0 * math.pi * r * r) * decay * -math.expm1(-2.0 * s * nu) * area_outside
    return lower, upper


def thm2_upper(lam: float, r: float, peri: float, components: int) -> float:
    """Expected misclassified sensors in Z_r for a general region (area bound)."""
    if lam <= 0 or r <= 0 or peri <= 0 or components < 1:
        raise ValueError("arguments must be positive")
    return 2.0 * lam * r * peri + lam * math.pi * r * r * components


def thm3_upper(lam: float, p: float, r: float, peri: float) -> float:
    """Expected misclassified sensors in Z_r for a convex region with curvature radius >= r."""
    if not 0.0 <= p < 0.5:
        raise ValueError("p must lie in [0, 1/2); the bound is vacuous at p = 1/2")
    if lam <= 0 or r <= 0:
        raise ValueError("lam and r must be positive")
    if peri <= r:
        raise ValueError("peri must exceed r")
    good = math.pi * math.sqrt(lam) / (math.sqrt(2.0) * (1.0 - 2.0 * p)) * peri
    bad = 3.0 * lam * math.pi * r * r * math.log(peri / r)
    return good + bad


@dataclass(frozen=True)
class BoundReport:
    """Every analytical bound evaluated for one (lam, p, r, region) cell."""

    lam: float
    p: float
    r: float
    peri: float
    components: int
    zr_area: float
    area_outside: float
    thm1_lower: float
    thm1_upper: float
    thm2_upper: float
    thm3_upper: float
    combined_upper: float


def _report(lam: float, p: float, r: float, peri: float, components: int, zr_area: float,
            thm3: float) -> BoundReport:
    """The bound report of one cell, with Theorem 3's value (nan where it does not apply)."""
    area_outside = 1.0 - zr_area
    lower, upper = thm1_bounds(lam, p, r, area_outside)
    if lower > upper:
        raise AssertionError("thm1 lower exceeded upper")
    return BoundReport(
        lam=lam, p=p, r=r, peri=peri, components=components,
        zr_area=zr_area, area_outside=area_outside,
        thm1_lower=lower, thm1_upper=upper,
        thm2_upper=thm2_upper(lam, r, peri, components),
        thm3_upper=thm3, combined_upper=upper + thm3,
    )


def combined_upper(lam: float, p: float, r: float, peri: float, components: int,
                   zr_area: float) -> BoundReport:
    """Sum of the outside-band and convex inside-band upper bounds.

    Valid for convex regions with curvature radius >= r; bound_report
    checks that geometric precondition.
    """
    return _report(lam, p, r, peri, components, zr_area, thm3_upper(lam, p, r, peri))


def bound_report(region, lam: float, p: float, r: float, zr_area: float) -> BoundReport:
    """The bounds that apply to one (region, lam, p, r) cell; nan where one does not.

    Theorem 3, and with it the combined bound, needs a convex region with
    curvature radius >= r and p < 1/2. zr_area is the area of Z_r within Y.
    """
    peri, components = region.perimeter, region.components
    applies = convex_and_round(region, r) and p < 0.5
    thm3 = thm3_upper(lam, p, r, peri) if applies else math.nan
    return _report(lam, p, r, peri, components, zr_area, thm3)


def lemma_good0_prob(lam: float, area_a: float, p: float, alpha: float) -> float:
    """Misclassification bound exp(-lam*area(A)*(1-2p)^2*(2a-1)^2 / 2) for alpha >= 1/2."""
    if not 0.0 <= p <= 0.5:
        raise ValueError("p must lie in [0, 1/2]")
    if alpha < 0.5:
        raise ValueError("alpha must be at least 1/2")
    if lam <= 0 or area_a <= 0:
        raise ValueError("lam and area_a must be positive")
    return math.exp(-0.5 * lam * area_a * (1.0 - 2.0 * p) ** 2 * (2.0 * alpha - 1.0) ** 2)


def lemma_good1_prob(lam: float, area_a: float, p: float, delta: float) -> float:
    """Misclassification bound for a good band sensor at depth fraction delta."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    if not 0.0 <= p <= 0.5:
        raise ValueError("p must lie in [0, 1/2]")
    if lam <= 0 or area_a <= 0:
        raise ValueError("lam and area_a must be positive")
    return math.exp(-(2.0 / math.pi**2) * lam * area_a * (1.0 - 2.0 * p) ** 2 * delta**2)


def _circle_segment_integral(a: float) -> float:
    """Closed form of integral_0^a sqrt(1-x^2) dx."""
    return 0.5 * (a * math.sqrt(1.0 - a * a) + math.asin(a))


def beta_fraction(delta: float) -> float:
    """Normalized overlap area r^-2 * area(A cap B) of the tangent-disk bound.

    beta(delta) = pi/2 + 2*(pi/4 - 2*integral_0^{(1-delta)/2} sqrt(1-x^2) dx);
    beta(1) = pi exactly and beta(0) equals the unit-disk lens area
    2*pi/3 - sqrt(3)/2.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    a = (1.0 - delta) / 2.0
    return math.pi / 2.0 + 2.0 * (math.pi / 4.0 - 2.0 * _circle_segment_integral(a))


def beta_inverse(target: float, tol: float = 1e-12) -> float:
    """Invert beta_fraction by bisection on [0, 1]."""
    lo_val, hi_val = beta_fraction(0.0), beta_fraction(1.0)
    if not lo_val - tol <= target <= hi_val + tol:
        raise ValueError(f"target {target} outside [beta(0), beta(1)]")
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if beta_fraction(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bad_segment_length_upper(r: float, delta: float, peri: float) -> float:
    """Bound on the total length of bad segments on the inner parallel curve C_delta."""
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    if r <= 0:
        raise ValueError("r must be positive")
    if peri <= 2.0 * math.pi * delta * r:
        raise ValueError("peri must exceed the inner curve collapse threshold")
    return min(3.0 * math.pi * r / delta, peri - 2.0 * math.pi * delta * r)
