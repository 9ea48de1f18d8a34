"""Helpers shared by the test modules."""

import math

from taildep import Generator, clayton_generator


def generator_without_proof(theta: float) -> Generator:
    """The Clayton generator's callables in a plain handle, which proves
    nothing about x psi'(x) and has no log kernel, so its Archimedean
    copula takes the generic psi/psi_inv route."""
    g = clayton_generator(theta)
    return Generator("clayton", g.psi, g.psi_prime, g.psi_second, g.psi_inv)


def log_closed_forms(a: float, b: float, u: float) -> dict:
    """log pi* and the log maximizers of Marshall-Olkin(a, b) and of its
    mixture at level u, by family name, exact where u^2 and the maximizers
    are below the double range.  MO: log pi* = kappa* log u at
    log x* = 2b/(a+b) log u.  The mixture: half the sum of its two MO
    components, the smaller one u^delta times the larger,
    delta = 2 min(a, b) |a - b| / (a + b), with maximizers at
    2b/(a+b) log u and 2a/(a+b) log u."""
    lu, s = math.log(u), a + b
    log_pi = (2.0 - 2.0 * a * b / s) * lu
    delta = 2.0 * min(a, b) * abs(a - b) / s
    log_mix = log_pi + math.log(0.5) + math.log1p(math.exp(delta * lu))
    return {"marshall_olkin": (log_pi, [2.0 * b / s * lu]),
            "mixture_mo": (log_mix, [2.0 * b / s * lu, 2.0 * a / s * lu])}
