"""Seed data and the backward operator for the four exceptional families.

A seed is a gauge factor times a polynomial of degree l0; four gauge classes
(types 1-4) are admissible.  The polynomial is P_l0 at (alpha, beta) for types
1 and 3 and at (-beta, -alpha) for types 2 and 4; types 3 and 4 take it in
1/z, so the stored `p_poly` is its reversal z^l0 P_l0(1/z), and the genuine
Laurent object is recovered by shifting the exponent down by l0.  A seed is
therefore defined exactly where that P_l0 is.

The backward operator sends a transformed eigenfunction to a classical
polynomial with parameters shifted to (alpha+1, beta-1).  It is a first-order
differential expression followed by an exact Laurent division by the seed's
A, and it is applied here to an n-free pair (a, b), the input a P_n' + b P_n
at every n at once; non-divisibility is a meaningful outcome (the input is
then outside the transformed family's span) and is reported with the
remainder as witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from functools import lru_cache

from .exact_core import Poly
from .hr_classical import ParameterPoleError, Params, hr_poly, pair_derivative

__all__ = [
    "SeedType",
    "Seed",
    "make_seed",
    "seed_theta",
    "psi_hat",
    "backward_pair",
    "xi",
]


class SeedType(IntEnum):
    """The four admissible gauge classes of seed eigenfunctions."""

    T1 = 1
    T2 = 2
    T3 = 3
    T4 = 4


@dataclass(frozen=True)
class Seed:
    """Full table entry for one (type, l0) seed at concrete parameters.

    `p_poly` is P_l0 at (alpha, beta) for type 1 and at (-beta, -alpha) for
    type 2; types 3 and 4 store the reversal z^l0 P_l0(1/z) of the type-1
    and type-2 polynomial, a true polynomial of degree at most l0.
    `darboux_pair` is (Q p, -Q p' - P p), with P and Q the type's gauge
    factors and p = `p_poly` shifted down by l0 for types 3 and 4:
    `psi_hat` is A P_n' + B P_n, `backward_pair` divides by A.
    """

    j0: SeedType
    l0: int
    p_poly: Poly
    darboux_pair: tuple[Poly, Poly]


def seed_theta(j0: SeedType, l0: int, params: Params) -> Fraction:
    """Seed eigenvalue: l0, l0-a-b, -l0-1-a-b, -l0-1 for types 1-4.

    Defined for every parameter pair, unlike the seed polynomial itself.
    """
    j0 = SeedType(j0)
    if j0 == SeedType.T1:
        return Fraction(l0)
    if j0 == SeedType.T4:
        return Fraction(-l0 - 1)
    if j0 == SeedType.T2:
        return l0 - params.alpha - params.beta
    return -l0 - 1 - params.alpha - params.beta


# psi_hat, backward_pair and the darboux and xhr records ask for the same
# few seeds over and over within one parameter pair
@lru_cache(maxsize=256)
def make_seed(j0: SeedType, l0: int, params: Params) -> Seed:
    """Construct the seed table entry for (j0, l0) at the given parameters."""
    j0 = SeedType(j0)
    if l0 < 1:
        raise ValueError("l0 must be a positive integer")
    laurent = p = hr_poly(l0, params if j0 in (SeedType.T1, SeedType.T3) else params.negated())
    if j0 in (SeedType.T3, SeedType.T4):
        p = p.reversed(l0)
        laurent = p.shifted(-l0)
    a, b = params.alpha, params.beta
    if j0 == SeedType.T1:
        p_factor, q_factor = Poly.zero(), Poly.one()
    elif j0 == SeedType.T2:
        p_factor, q_factor = Poly((a + b,)), Poly((1, -1))
    elif j0 == SeedType.T3:
        p_factor, q_factor = Poly((1 + a,)), Poly((0, -1))
    else:
        p_factor, q_factor = Poly((-1 + b, 1 + a)), Poly((0, 1, -1))
    pair = (q_factor * laurent, -q_factor * laurent.derivative() - p_factor * laurent)
    return Seed(j0, l0, p, pair)


def psi_hat(j0: SeedType, l0: int, n: int, params: Params) -> Poly:
    """Transformed eigenfunction A P_n' + B P_n, (A, B) the seed's `darboux_pair`.

    For types 1 and 2 this is the exceptional polynomial itself; for types 3
    and 4 the exceptional polynomial is z^l0 times this value (which has a
    pole of order at most l0 at the origin).  Only the excluded type-1 member
    n = l0 vanishes identically; any other member that does is a parameter
    pole, named by its leading factor l0-n-alpha-beta for type 2 as in
    `xhr.x_poly`.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    seed = make_seed(j0, l0, params)
    p_n = hr_poly(n, params)
    left, right = seed.darboux_pair
    out = left * p_n.derivative() + right * p_n
    if out.is_zero and not (seed.j0 == SeedType.T1 and n == l0):
        if seed.j0 == SeedType.T2 and l0 - n - params.alpha - params.beta == 0:
            raise ParameterPoleError(
                f"l0-n-alpha-beta = 0 at l0={l0}, n={n}: the type-2 member vanishes"
            )
        raise ParameterPoleError(f"the type-{int(seed.j0)} member vanishes at l0={l0}, n={n}")
    return out


def _first_order_coefficient(j0: SeedType, l0: int, params: Params) -> Poly:
    """The linear multiplier of p in the backward operator's numerator."""
    a, b = params.alpha, params.beta
    if j0 == SeedType.T1:
        return Poly((1 - b - l0, l0 - a - 2))
    if j0 == SeedType.T2:
        return Poly((1 + a - l0, l0 - a - 1))
    if j0 == SeedType.T3:
        return Poly((l0, -(l0 + a + b + 1)))
    return Poly((l0, -l0))


def backward_pair(j0: SeedType, l0: int, pair: tuple, params: Params) -> tuple:
    """The backward operator on a P_n' + b P_n at every n at once: (image pair, remainder).

    (a, b) does not depend on n.  With (U_n, V_n) = `pair_derivative`(a, b, n),
    the operator's numerator z(1-z) F' + ell F of F = a P_n' + b P_n is
    (U_n + ell a) P_n' + (V_n + ell b) P_n, ell the type's linear multiplier.
    `pair_derivative` is linear in n, so the numerator's pair is its value at
    n = 0 plus n times the difference of its values at n = 1 and 0.  Each of
    those four n-free entries is divided by the A of the seed's
    `darboux_pair`, and the image pair ((E0, E1), (F0, F1)) gives the image
    (E0 + n E1) P_n'(.; alpha, beta) + (F0 + n F1) P_n(.; alpha, beta) of
    every member.  Division is linear too, so when all four divisions are
    exact, the numerator is divisible by A at every n.  The remainder is
    the first nonzero one of the four, or zero; it is returned as the
    witness rather than raised.
    """
    a, b = pair
    # the pair's A = Q p; for type 3 this is -z p, where the sign matters
    # for the image to land on xi_n * P_n(.; alpha+1, beta-1)
    divisor = make_seed(j0, l0, params).darboux_pair[0]
    ell = _first_order_coefficient(j0, l0, params)
    (u0, v0), (u1, v1) = (pair_derivative(a, b, n, params) for n in (0, 1))
    entries = (u0 + ell * a, u1 - u0, v0 + ell * b, v1 - v0)
    quotients, remainders = zip(*(divmod(entry, divisor) for entry in entries))
    remainder = next((r for r in remainders if not r.is_zero), Poly.zero())
    return (quotients[:2], quotients[2:]), remainder


def xi(j0: SeedType, l0: int, n: int, params: Params) -> Fraction:
    """Backward-image eigenvalue -(n - theta)(n + alpha + 1)."""
    return -(n - seed_theta(j0, l0, params)) * (n + params.alpha + 1)

