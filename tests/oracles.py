"""Closed-form oracles for the family laws, shared by the test modules.

Each is derived from the family's formulas, independently of the library's
solvers, and the mpmath ones evaluate at the caller's working precision
unless they say otherwise:

* Bernoulli(p), f(s) = 1 - p + p s: G(s) = s (1-p) / (1 - p s), finite below
  s* = 1/p, progeny law pi_k = p^{k-1} (1-p);
* geometric(a), p_h = (1-a) a^h: G(s) = 2 (1-a) s / (1 + sqrt(1 - 4a(1-a)s)),
  s* = 1/(4a(1-a)), pi_k = C(2k-2, k-1) a^{k-1} (1-a)^k / k;
* Poisson(lam): G(s) = -W(-lam s e^{-lam}) / lam on the principal branch of
  Lambert W, s* = 1/(lam e^{1-lam}), the Borel law
  pi_k = e^{-lam k} (lam k)^{k-1} / k!;

the tails P(Y > k) of the geometric and Poisson laws, and the Cramer rates
I(x) of the three offspring laws.
"""

import mpmath
import numpy as np

from gwldp import pmf_from_family

FAMILY_PARAM = {"bernoulli": "p", "geometric": "a", "poisson": "lambda"}


def family_law(family, param, K):
    return pmf_from_family(family, {FAMILY_PARAM[family]: param}, truncation_K=K)


def exact_offspring_rate(family, param, x):
    """Cramer rate I(x) of the untruncated family at 50 digits, as an mpf."""
    with mpmath.workdps(50):
        x, a = mpmath.mpf(x), mpmath.mpf(param)

        def xlog(u, v):   # u log v with 0 log 0 = 0
            return mpmath.mpf(0) if u == 0 else u * mpmath.log(v)

        if family == "bernoulli":
            return xlog(x, x / a) + xlog(1 - x, (1 - x) / (1 - a))
        if family == "poisson":
            return xlog(x, x / a) - x + a
        return (xlog(x, x / (a * (1 + x))) - mpmath.log(1 - a)
                - mpmath.log(1 + x))


def exact_progeny_pgf(family, param):
    """G(s) from its closed form at the working precision (Bernoulli and
    geometric in a form without cancellation at small s, Poisson through
    Lambert W)."""
    a = mpmath.mpf(param)

    def G(s):
        if family == "bernoulli":
            return s * (1 - a) / (1 - a * s)
        if family == "geometric":
            return 2 * (1 - a) * s / (1 + mpmath.sqrt(1 - 4 * a * (1 - a) * s))
        return -mpmath.re(mpmath.lambertw(-a * s * mpmath.exp(-a))) / a
    return G


def progeny_domain_edge(family, param):
    """s*, the largest s with G(s) finite, at the working precision."""
    a = mpmath.mpf(param)
    if family == "bernoulli":
        return 1 / a
    if family == "geometric":
        return 1 / (4 * a * (1 - a))
    return 1 / (a * mpmath.exp(1 - a))


def exact_progeny_law(family, param, k_max):
    """Closed-form pi_1..pi_k_max at 50 digits for the untruncated family."""
    with mpmath.workdps(50):
        x = mpmath.mpf(param)
        if family == "bernoulli":
            terms = [x ** (k - 1) * (1 - x) for k in range(1, k_max + 1)]
        elif family == "poisson":
            terms = [mpmath.exp(-x * k) * (x * k) ** (k - 1) / mpmath.factorial(k)
                     for k in range(1, k_max + 1)]
        else:
            terms = [mpmath.binomial(2 * k - 2, k - 1) * x ** (k - 1)
                     * (1 - x) ** k / k for k in range(1, k_max + 1)]
        return np.array([float(t) for t in terms])


def exact_progeny_tail(family, param, k_max):
    """P(Y > k_max) of the untruncated family at 30 digits, as an mpf.

    Sums pi_k for k > k_max term by term, each term the previous one times
    the ratio pi_{k+1} / pi_k: 2 (2k-1) a (1-a) / (k+1) for geometric,
    lam e^{-lam} (1 + 1/k)^{k-1} for Poisson (Bernoulli has the closed form
    p^k_max).  The ratios rise to a limit L < 1 for a subcritical law, so
    what is left after a term t is at most t L / (1 - L), and the sum stops
    once that is below 1e-32 of it.
    """
    with mpmath.workdps(30):
        x, k = mpmath.mpf(param), k_max + 1
        if family == "geometric":
            term = (mpmath.binomial(2 * k - 2, k - 1) * x ** (k - 1)
                    * (1 - x) ** k / k)
            limit = 4 * x * (1 - x)
            ratio = lambda k: 2 * (2 * k - 1) * x * (1 - x) / (k + 1)
        else:
            term = mpmath.exp(-x * k) * (x * k) ** (k - 1) / mpmath.factorial(k)
            limit = x * mpmath.exp(1 - x)
            ratio = lambda k: x * mpmath.exp(-x) * (1 + mpmath.mpf(1) / k) ** (k - 1)
        total = mpmath.mpf(0)
        while term * limit / (1 - limit) >= total * mpmath.mpf("1e-32"):
            total += term
            term *= ratio(k)
            k += 1
        return total
