"""A 50-digit reference for the explicit formula, with Python's decimal module.

For log-gaussian data n0(y) = mass exp(-(y - mu)^2 / (2 sigma^2)) / (sigma sqrt(2 pi))
the pure-fragmentation solution is

    v(t, x) = e^{-t} x^{-2} sum_{k >= 0} n0(log x + k log alpha) t^k / k!,

a sum of positive terms, so it can be summed to any precision.  The terms
that count are chosen in floats (those within 1e-70 of the largest; the
log-terms are concave in k), and then summed in decimal arithmetic from the
exact binary values of t, x, alpha and the profile's fields.  Nothing from
gflab is used but the profile's fields.
"""

import math
from decimal import Decimal, localcontext

DIGITS = 50

# pi to 64 digits
_PI = Decimal("3.141592653589793238462643383279502884197169399375105820974944592")

# a term below this share of the largest one cannot move 50 digits
_LOG_NEGLIGIBLE = math.log(1e-70)


def _term_range(p, alpha: float, t: float, x: float) -> tuple[int, int]:
    """First and last k whose term is within 1e-70 of the largest one."""
    la, lx, lt = math.log(alpha), math.log(x), math.log(t)

    def log_term(k: int) -> float:
        return -((lx + k * la - p.mu) ** 2) / (2.0 * p.sigma**2) + k * lt - math.lgamma(k + 1)

    # the terms are log-concave in k: walk up to the largest, then out to both ends
    k = 0
    while log_term(k + 1) > log_term(k):
        k += 1
    floor = log_term(k) + _LOG_NEGLIGIBLE
    lo, hi = k, k
    while lo > 0 and log_term(lo - 1) > floor:
        lo -= 1
    while log_term(hi + 1) > floor:
        hi += 1
    return lo, hi


def v_log_gaussian(p, alpha: float, t: float, x: float) -> Decimal:
    """v(t, x) to DIGITS significant digits, for t > 0 and x > 0."""
    lo, hi = _term_range(p, alpha, t, x)
    with localcontext() as ctx:
        ctx.prec = DIGITS + 15
        big_t, big_x = Decimal(t), Decimal(x)
        log_x, log_alpha = big_x.ln(), Decimal(alpha).ln()
        mu, two_var = Decimal(p.mu), 2 * Decimal(p.sigma) ** 2
        weight = Decimal(1)                      # t^k / k!
        for k in range(1, lo + 1):
            weight = weight * big_t / k
        total = Decimal(0)
        for k in range(lo, hi + 1):
            if k > lo:
                weight = weight * big_t / k
            y = log_x + k * log_alpha
            total += (-(y - mu) ** 2 / two_var).exp() * weight
        n0_scale = Decimal(p.mass) / (Decimal(p.sigma) * (2 * _PI).sqrt())
        value = (-big_t).exp() * n0_scale * total / (big_x * big_x)
    return value
