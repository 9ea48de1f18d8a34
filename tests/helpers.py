"""Helpers shared by the test modules."""

from taildep import Generator, clayton_generator


def generator_without_proof(theta: float) -> Generator:
    """The Clayton generator's callables in a plain handle, which proves
    nothing about x psi'(x) and has no log kernel, so its Archimedean
    copula takes the generic psi/psi_inv route."""
    g = clayton_generator(theta)
    return Generator("clayton", g.psi, g.psi_prime, g.psi_second, g.psi_inv)
