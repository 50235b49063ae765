"""Seeded random multivectors for the tests.

The tests multiply these as oracles of the dense product's bilinear
extension, alongside the basis-blade proofs that ``verify`` runs.
"""

from random import Random

from contextuality_lab.ga import APPROX, BLADE_COUNT, EXACT, Multivector

#: Bound of the integer coefficients drawn by :func:`random_multivector`.
RANDOM_SPAN = 3


def random_multivector(rng: Random, mode: str = EXACT) -> Multivector:
    """A multivector with integer coefficients in [-RANDOM_SPAN, RANDOM_SPAN]
    drawn from ``rng``."""
    values = [rng.randint(-RANDOM_SPAN, RANDOM_SPAN) for _ in range(BLADE_COUNT)]
    if mode == EXACT:
        return Multivector(tuple(values), EXACT)
    return Multivector(tuple(float(v) for v in values), APPROX)
