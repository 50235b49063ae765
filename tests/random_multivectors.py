"""Seeded random multivectors for the tests, and the dense product's oracle.

The tests multiply these as oracles of the dense product's bilinear
extension, alongside the basis-blade proofs that ``verify`` runs.
"""

from random import Random

from contextuality_lab.ga import APPROX, BLADE_COUNT, EXACT, Multivector, blade_product

#: Bound of the integer coefficients drawn by :func:`random_multivector`.
RANDOM_SPAN = 3


def random_multivector(rng: Random, mode: str = EXACT) -> Multivector:
    """A multivector with integer coefficients in [-RANDOM_SPAN, RANDOM_SPAN]
    drawn from ``rng``."""
    values = [rng.randint(-RANDOM_SPAN, RANDOM_SPAN) for _ in range(BLADE_COUNT)]
    if mode == EXACT:
        return Multivector(tuple(values), EXACT)
    return Multivector(tuple(float(v) for v in values), APPROX)


def dense_product(a: Multivector, b: Multivector) -> tuple:
    """The coefficients of ``a * b`` from the blade rule, term by term: for
    each nonzero coefficient of ``a`` in mask order, each nonzero one of
    ``b`` in mask order adds ``a_i * b_j * sign`` to its mask.  This is the
    summation order of the dense product, so approx coefficients must equal
    these bit for bit."""
    acc = [0 if a.mode == EXACT else 0.0] * BLADE_COUNT
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            if x and y:
                sign, mask = blade_product(i, j)
                acc[mask] = acc[mask] + x * y * sign
    return tuple(acc)
