"""The four exceptional HR families: compact constructors, partners, norms.

Each family is labelled by (j0, l0, n) with j0 the seed type, l0 the seed
degree and n the classical index.  Degree sequences have gaps: the degree is
n + l0 - 1 for type 1 and n + l0 + 1 for type 4, so these families are not
graded bases of all polynomials, which is what makes their recurrence
relations nontrivial.

`XIndex.is_admissible` decides which members exist, and `x_poly` builds
every one of them as X_n = A P_n' + B P_n, from one classical polynomial and
the compact pair (A, B) of `_member_pair`, which does not depend on n.  The
seed's Darboux pair in `darboux` is the same pair up to `compact_darboux_sign`
and z^l0 for types 3 and 4; verify's xhr/construction record compares the two
pairs once per (j0, l0), which covers every member.  Type 4 also has the added
state n = -l0-1, the constant member of degree 0 that closes its recurrences
over the full window.  It has no pair form, so `x_poly` returns it directly;
it has no exact norm yet, so `x_norm_ratio` refuses it.

The family's weight is the classical weight times kappa * z^m * (z-1)^(+-1)
/ eta^2, with eta the seed polynomial of `make_seed` (`x_weight_factor`).
The same kappa is the prefactor of the type-3 and type-4 compact pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .darboux import SeedType, make_seed, seed_theta
from .exact_core import Poly
from .hr_classical import (
    CertificationError,
    ParameterPoleError,
    Params,
    hr_poly,
    norm_ratio,
    pochhammer,
)

__all__ = [
    "InadmissibleIndexError",
    "XIndex",
    "WeightFactor",
    "x_poly",
    "x_partner",
    "x_norm_ratio",
    "x_weight_factor",
    "compact_darboux_sign",
]


class InadmissibleIndexError(ValueError):
    """The (j0, l0, n) label lies outside the family's index set."""


@dataclass(frozen=True)
class XIndex:
    """Label of one exceptional polynomial."""

    j0: SeedType
    l0: int
    n: int

    def __init__(self, j0, l0: int, n: int):  # noqa: D107
        object.__setattr__(self, "j0", SeedType(j0))
        object.__setattr__(self, "l0", int(l0))
        object.__setattr__(self, "n", int(n))
        if self.l0 < 1:
            raise ValueError("l0 must be a positive integer")

    @property
    def is_admissible(self) -> bool:
        """Membership in the family's index set.

        Type 1 excludes n = l0 (the member degenerates to zero); types 2 and 3
        admit all n >= 0; type 4 additionally admits the added state n = -l0-1,
        the constant member.  `x_poly` builds every admissible index.
        """
        if self.j0 == SeedType.T1:
            return self.n >= 0 and self.n != self.l0
        if self.j0 == SeedType.T4:
            return self.n >= 0 or self.n == -self.l0 - 1
        return self.n >= 0

    def require_admissible(self) -> "XIndex":
        if not self.is_admissible:
            raise InadmissibleIndexError(
                f"index (j0={int(self.j0)}, l0={self.l0}, n={self.n}) is not admissible"
            )
        return self

    @property
    def degree(self) -> int:
        """n + l0 - [j0=1] + [j0=4]."""
        return (
            self.n
            + self.l0
            - (1 if self.j0 == SeedType.T1 else 0)
            + (1 if self.j0 == SeedType.T4 else 0)
        )


# keyed and bounded like make_seed; the counts are in hr_classical's cache comment
@lru_cache(maxsize=256)
def _member_pair(j0: SeedType, l0: int, params: Params) -> tuple:
    """The n-free pair (A, B) of the compact form X_n = A * P_n' + B * P_n.

    Built from classical polynomials at derived pairs and the prefactor
    `_kappa`, independently of the seed data of `make_seed`: type 1's B is
    -l0 P_(l0-1)(alpha+1, beta), where the Darboux pair has -P_l0'.
    """
    a, b = params.alpha, params.beta
    if j0 == SeedType.T1:
        p_l0 = hr_poly(l0, params)
        return p_l0, -l0 * hr_poly(l0 - 1, params.shifted(1, 0))
    if j0 == SeedType.T2:
        left = Poly((1, -1)) * hr_poly(l0, params.negated())
        return left, (l0 - a - b) * hr_poly(l0, Params(-b, -a - 1))
    pref = _kappa(j0, l0, params)
    if j0 == SeedType.T3:
        left = pref * Poly.x() * hr_poly(l0, Params(b - 1, a + 1))
        return left, pref * (a + 1) * hr_poly(l0, Params(b - 1, a + 2))
    left = pref * Poly((0, -1, 1)) * hr_poly(l0, Params(-a - 1, -b + 1))
    return left, pref * (a + 1) * hr_poly(l0 + 1, Params(-a - 2, -b + 1))


# certify's whole-member route (thm11, and thm12 below n = 4l0+5) builds each
# window member once per (j0, l0, pair) through this cache; consecutive n
# share all but one member of their windows
@lru_cache(maxsize=256)
def x_poly(idx: XIndex, params: Params) -> Poly:
    """Exceptional polynomial A P_n' + B P_n from the compact pair, with degree check.

    `_member_parts` refuses the member's parameter poles before it is built.
    The added state of type 4 (n = -l0-1) has no pair form: normalised by
    z^l0 it is the constant compact_darboux_sign(4) = -1, of degree
    0 = idx.degree.
    """
    idx.require_admissible()
    if idx.n < 0:
        return Poly((compact_darboux_sign(idx.j0),))
    p_n, (left, right) = _member_parts(idx, params)
    poly = left * p_n.derivative() + right * p_n
    if poly.degree != idx.degree:
        raise CertificationError(
            f"degree mismatch for {idx}: declared {idx.degree}, actual {poly.degree}",
            residual=poly,
        )
    return poly


def _member_parts(idx: XIndex, params: Params) -> tuple:
    """(P_n, (A, B)) of a member of pair form, once its parameter poles are refused.

    A vanishing leading factor is refused by name, then P_n is built (where
    it has a pole, its message names the member's index), then the pair.
    `x_poly` and certify's top terms of a member both start here, so they
    refuse the same member with the same message.
    """
    factor = _vanishing_leading_factor(idx, params)
    if factor is not None:
        raise ParameterPoleError(
            f"{factor} = 0 at l0={idx.l0}, n={idx.n}: "
            f"the leading coefficient of the type-{int(idx.j0)} member vanishes"
        )
    p_n = hr_poly(idx.n, params)
    return p_n, _member_pair(idx.j0, idx.l0, params)


def _vanishing_leading_factor(idx: XIndex, params: Params) -> str | None:
    """The first named factor of the member's z^degree coefficient that vanishes, or None.

    A and B are built from monic classical polynomials, so the leading
    coefficient is the prefactor times the leading terms' linear
    combination.  The rising factorial (x)_l0 vanishes exactly at an integer
    x in (-l0, 0], so it is read off x without being formed.
    """
    n, l0 = idx.n, idx.l0
    a, b = params.alpha, params.beta
    if idx.j0 == SeedType.T1:
        return "n-l0" if n == l0 else None
    if idx.j0 == SeedType.T2:
        return "l0-n-alpha-beta" if a + b == l0 - n else None
    name, x = ("(beta)_l0", b) if idx.j0 == SeedType.T3 else ("(-alpha)_l0", -a)
    if x.denominator == 1 and -l0 < x.numerator <= 0:
        return name
    if a.denominator == 1 and a.numerator == -n - 1:
        return "n+alpha+1"
    return None


def x_partner(idx: XIndex, params: Params) -> Poly:
    """Biorthogonal partner: the same constructor at (beta-1, alpha+1)."""
    return x_poly(idx, Params(params.beta - 1, params.alpha + 1))


def compact_darboux_sign(j0: SeedType) -> int:
    """Sign relating the compact pair to the seed's Darboux pair.

    The compact pair equals the Darboux pair (times z^l0 for types 3
    and 4) up to a type-dependent sign: +1 for types 1 and 2, -1 for
    types 3 and 4.  The minus trace back to the -z factor in the type-3/4
    gauges; the type-4 derivative factorisation and the backward-image law
    each pin one side, which fixes the signs empirically.
    """
    return -1 if SeedType(j0) in (SeedType.T3, SeedType.T4) else 1


def x_norm_ratio(idx: XIndex, params: Params) -> Fraction:
    """Diagonal norm of the family in units of the classical zeroth norm.

    Equals the classical norm ratio times the quadratic prefactor
    (theta_seed - n)(n + beta) in n; the quadrature suite checks the product
    numerically.
    """
    idx.require_admissible()
    if idx.n < 0:
        raise InadmissibleIndexError("norms are defined for n >= 0 members")
    n = idx.n
    theta = seed_theta(idx.j0, idx.l0, params)
    return (theta - n) * (n + params.beta) * norm_ratio(n, params)


@dataclass(frozen=True)
class WeightFactor:
    """Structured form of (exceptional weight)/(classical weight).

    ratio(z) = kappa * z^m * (z-1)^(+-1) / eta(z)^2: constant_ratio is kappa,
    monomial_power is m, linear_power is +1 for (z-1) and -1 for 1/(1-z),
    and denominator_base is the seed polynomial eta.  Stored structurally so
    the exact modules never evaluate a weight; only the quadrature module
    turns this into numbers.
    """

    constant_ratio: Fraction
    monomial_power: int
    linear_power: int  # +1 or -1
    denominator_base: Poly  # the seed polynomial eta, of degree l0, squared


def _kappa(j0: SeedType, l0: int, params: Params) -> Fraction:
    """(beta)_l0/(alpha+1)_l0 for types 1 and 3, (-alpha)_l0/(1-beta)_l0 for types 2 and 4.

    The weight's constant, and the prefactor of the type-3 and type-4 compact
    pairs.  A zero denominator is refused; types 3 and 4 refuse a zero
    numerator first, where their reversed seed loses its degree.
    """
    a, b = params.alpha, params.beta
    if j0 in (SeedType.T1, SeedType.T3):
        num, den = ("beta", pochhammer(b, l0)), ("alpha+1", pochhammer(a + 1, l0))
    else:
        num, den = ("-alpha", pochhammer(-a, l0)), ("1-beta", pochhammer(1 - b, l0))
    for name, value in ((num, den) if j0 in (SeedType.T3, SeedType.T4) else (den,)):
        if value == 0:
            raise ParameterPoleError(f"({name})_{l0} = 0")
    return num[1] / den[1]


def x_weight_factor(j0: SeedType, l0: int, params: Params) -> WeightFactor:
    """kappa * z^m * (z-1)^(+-1) / eta^2 for (j0, l0), eta = make_seed(j0, l0, params).p_poly.

    Types 1 and 3 take m = l0 and (z-1); types 2 and 4 take m = l0+1 and
    1/(1-z).  `_kappa` refuses a pole before the seed is built.
    """
    j0 = SeedType(j0)
    m, linear = (l0, 1) if j0 in (SeedType.T1, SeedType.T3) else (l0 + 1, -1)
    return WeightFactor(_kappa(j0, l0, params), m, linear, make_seed(j0, l0, params).p_poly)
