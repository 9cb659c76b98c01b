"""Classical Hendriksen-van Rossum (HR) polynomials and their identity catalog.

The family P_n(z; alpha, beta) is a monic degree-n polynomial given by a
terminating hypergeometric sum; Q_n swaps the two parameters.  This module
builds P_n from that sum's coefficient product and provides the three-term
recurrence coefficients, exact moments of the unit-circle weight normalised
so the zeroth moment is 1, parameter-twist expansions, and a catalog of
verifiable polynomial identities.  The second route to P_n through the
recurrence and the term-by-term inner product are reference routes of the
test suite (tests/reference.py).

All identities are checked as exact polynomial (or Laurent polynomial)
equalities after clearing denominators, so a passing check is a proof at the
given parameter values.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul
from typing import Union

from .exact_core import Poly

__all__ = [
    "CertificationError",
    "ParameterPoleError",
    "Params",
    "MomentTable",
    "pochhammer",
    "hr_poly",
    "hr_partner",
    "ttrr_coeffs",
    "ttrr_d",
    "ttrr_b",
    "moments",
    "norm_ratio",
    "dk_bk_sequence",
    "twisted_coeffs",
    "expand_in_hr_basis",
    "apply_l1",
    "apply_l2",
    "pair_derivative",
    "IdentityTag",
    "verify_identity",
]


class ParameterPoleError(ValueError):
    """A parameter combination makes a required denominator vanish.

    The message names the offending factor, e.g. "n+alpha+1 at n=3 = 0".
    """


class CertificationError(RuntimeError):
    """A certification step failed; carries the offending residual if any."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True, eq=False)
class Params:
    """The rational parameter pair (alpha, beta) of the HR family.

    Every cache in the package is keyed on Params, so the hash is computed
    once (the value the dataclass would compute) and equality compares the
    four integers of the two reduced fractions.
    """

    alpha: Fraction
    beta: Fraction

    def __init__(self, alpha, beta):  # noqa: D107 -- coerce to Fraction
        alpha, beta = Fraction(alpha), Fraction(beta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(
            self, "_key", (alpha.numerator, alpha.denominator, beta.numerator, beta.denominator)
        )
        object.__setattr__(self, "_hash", hash((alpha, beta)))

    def __eq__(self, other):
        if other.__class__ is not Params:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def shifted(self, d_alpha: int, d_beta: int) -> "Params":
        """(alpha + d_alpha, beta + d_beta), one object per shift while it is cached."""
        return _shifted_params(self, d_alpha, d_beta)

    def swapped(self) -> "Params":
        """Partner parameters (beta, alpha), one object while it is cached."""
        return _swapped_params(self)

    def negated(self) -> "Params":
        """(-beta, -alpha), as used by the type-2 and type-4 seed data."""
        return Params(-self.beta, -self.alpha)

    @property
    def is_positive(self) -> bool:
        """Positivity needed by the quadrature module only."""
        return self.alpha > -1 and self.beta > -1 and self.alpha + self.beta > -1

    def __str__(self) -> str:
        return f"(alpha={self.alpha}, beta={self.beta})"


# the identities, partners and c-vectors of one pair ask for the same few
# related pairs over and over; one object per pair lets the caches keyed on
# it match by identity
@lru_cache(maxsize=1024)
def _shifted_params(params: Params, d_alpha: int, d_beta: int) -> Params:
    return Params(params.alpha + d_alpha, params.beta + d_beta)


@lru_cache(maxsize=1024)
def _swapped_params(params: Params) -> Params:
    return Params(params.beta, params.alpha)


def pochhammer(x: Union[Fraction, int], n: int) -> Fraction:
    """Rising factorial x(x+1)...(x+n-1); the empty product is 1."""
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    out = Fraction(1)
    x = Fraction(x)
    for k in range(n):
        out *= x + k
    return out


def _require_nonzero(value: Fraction, factor: str) -> Fraction:
    if value == 0:
        raise ParameterPoleError(f"{factor} = 0")
    return value


# Every cache in the package is bounded so that a long-lived process stops
# growing.  One full run of each workload in bench/ (seeds 1-5, quad-circle
# 1-3) left at most these entries with the bounds lifted: hr_poly 6004
# (verify-small; certify-sweep 655), ttrr_b 685 (verify-small; certify-sweep
# reads none), ttrr_d 429, _shifted_params 363, _swapped_params 289,
# _generating_terms 510 (verify-small; certify-sweep 447),
# recurrence._c_top 1914 (verify-small; certify-sweep 364),
# recurrence._c_vector 110 (verify-small; certify-sweep 58),
# xhr.x_poly 2554 (verify-small; certify-sweep 168),
# recurrence._member_top 432 (certify-sweep; verify-small reads none),
# recurrence._pair_numerators 24, darboux.make_seed 264,
# recurrence._image_pair and _image_numerators 264, xhr._member_pair 262,
# recurrence.q_poly 264, moments 297,
# cli.build_parser 1, and quadrature._node_geometry 113, _node_modulus 558
# and _node_phase 1051 (quad-circle, 938 at seeds 1-2, and 857 to 1131 over
# seeds 11-20, where seed 14 also reached 193 geometries and 638 moduli;
# `verify --suite quadrature` at (3/5, 1/2) and (7/3, -1/4) left 193 and 89
# node geometries, 363 and 251 moduli, and 282 and 170 phases).
# The polynomial, recurrence-coefficient, related-pair, generating-term,
# c-row, c-vector and quadrature bounds are at least twice that, so those
# runs never evict them.  The seed, image-pair, member-pair, member,
# member-top, left-factor and moment bounds hold the working set of a few
# parameter pairs (one verify-small pair uses 8 seeds, 8 image pairs,
# 8 member pairs, 74 members, 8 left factors and 9 moment tables, and no
# member top at n <= 8),
# and a certify-sweep step reads a member top again only within its own
# (n, n+1): a run that moves on to a new pair never reads the old entries
# again, and on those runs the smaller bounds lost no cache hit while
# keeping peak RSS lower.
@lru_cache(maxsize=16384)
def hr_poly(n: int, params: Params) -> Poly:
    """P_n(z; alpha, beta), monic of degree n.

    The hypergeometric sum's z^k coefficient ((beta)_n/(alpha+1)_n)
    ((-n)_k (alpha+1)_k) / ((1-beta-n)_k k!) is, as P_n is monic, the product
    over k <= i < n of ((1-beta-n+i)(i+1)) / ((i-n)(alpha+1+i)), with no beta
    in any denominator.  So the poles are alpha in {-n, ..., -1}, raised with
    the recurrence route's message; integer beta is not a pole.  The factors
    (i+1)/(i-n) multiply to (-1)^(n-k) binom(n, k), so the numerators are
    that binomial times integer running products of the other factors, over
    prod_{i<n} (alpha+1+i) alone, and the content gcd of the canonical form
    works on integers without the n!^2 of the separate factors.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    pa, qa = params.alpha.numerator, params.alpha.denominator
    pb, qb = params.beta.numerator, params.beta.denominator
    # alpha+1+i vanishes for at most one i, and only at an integer alpha
    if qa == 1 and 0 <= -pa - 1 < n:
        raise ParameterPoleError(
            "alpha+1 = 0" if pa == -1 else f"n+alpha+1 at n={-pa - 1} = 0"
        )
    # alpha+1+i = up[i]/qa and 1-beta-n+i = down[i]/qb
    up = [pa + (1 + i) * qa for i in range(n)]
    down = [(1 - n + i) * qb - pb for i in range(n)]
    # c_k = (-1)^(n-k) binom(n, k) prod_{k<=i<n} down[i] qa / (up[i] qb), so over
    # prod_{i<n} up[i] qb numerator k is that binomial times
    # prod_{i<k} up[i] qb * prod_{i>=k} down[i] qa
    suffix = [1] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] * down[i] * qa
    nums = []
    prefix = 1
    binom = -1 if n % 2 else 1
    for k in range(n + 1):
        nums.append(binom * prefix * suffix[k])
        if k < n:
            prefix *= up[k] * qb
            binom = -binom * (n - k) // (k + 1)
    return Poly.from_numerators(nums, prefix)


def hr_partner(n: int, params: Params) -> Poly:
    """Q_n(z; alpha, beta) = P_n(z; beta, alpha), the biorthogonal partner."""
    return hr_poly(n, params.swapped())


# the identities and connection polynomials of one pair read the same
# recurrence coefficients many times
@lru_cache(maxsize=1024)
def ttrr_d(n: int, params: Params) -> Fraction:
    """Recurrence coefficient d_n = -(n+beta)/(n+alpha+1)."""
    return -(n + params.beta) / _require_nonzero(
        n + params.alpha + 1, f"n+alpha+1 at n={n}"
    )


@lru_cache(maxsize=2048)
def ttrr_b(n: int, params: Params) -> Fraction:
    """Recurrence coefficient b_n = -n(n+alpha+beta)/((n+alpha)(n+alpha+1)).

    b_0 = 0 by the vanishing numerator, returned without touching the
    denominator (which can itself vanish at alpha = 0).
    """
    if n == 0:
        return Fraction(0)
    a = params.alpha
    den = _require_nonzero(n + a, f"n+alpha at n={n}") * _require_nonzero(
        n + a + 1, f"n+alpha+1 at n={n}"
    )
    return -n * (n + a + params.beta) / den


def ttrr_coeffs(n: int, params: Params) -> tuple:
    """(d_n, b_n) for positive n, both exact."""
    if n < 1:
        raise ValueError("recurrence coefficients are indexed from n = 1")
    return ttrr_d(n, params), ttrr_b(n, params)


@dataclass(frozen=True)
class MomentTable:
    """Moments of the weight, normalised so the zeroth moment is 1.

    The transcendental common factor of the raw moments cancels from every
    biorthogonality statement, so storing the ratios keeps all inner products
    rational.  values[k - k_min] is moment k, and consecutive moments obey
    m(k+1)(k+1+alpha) = m(k)(k-beta).
    """

    k_min: int
    k_max: int
    values: tuple


# keyed on the exact range, so a range that reaches a pole raises every time
@lru_cache(maxsize=64)
def moments(params: Params, k_min: int, k_max: int) -> MomentTable:
    """Moment table on [k_min, k_max] from the two-sided ratio recurrence."""
    if k_min > 0 or k_max < 0:
        raise ValueError("table range must contain 0")
    a, b = params.alpha, params.beta
    vals = {0: Fraction(1)}
    for k in range(0, k_max):
        den = _require_nonzero(k + 1 + a, f"k+1+alpha at k={k}")
        vals[k + 1] = vals[k] * (k - b) / den
    for k in range(0, k_min, -1):
        # forward relation solved backward: m(k-1)(k-1-beta) = m(k)(k+alpha)
        den = _require_nonzero(k - 1 - b, f"k-beta at k={k - 1}")
        vals[k - 1] = vals[k] * (k + a) / den
    return MomentTable(k_min, k_max, tuple(vals[k] for k in range(k_min, k_max + 1)))


def _moment_weights(f: Poly, table: MomentTable, count: int) -> tuple:
    """(weights, den): weights[j]/den = sum_i f_i m(i - j) for 0 <= j < count, m the moments.

    <w f, g-bar> = sum_j g_j weights[j]/den for a polynomial g of degree
    below count, so one weighting of f serves every such g with one integer
    dot product each (`_paired`).  The moments are put over one denominator.
    """
    scale = lcm(*(v.denominator for v in table.values))
    mom = [v.numerator * (scale // v.denominator) for v in table.values]
    lo = f.min_exp - table.k_min
    if lo < count - 1 or f.degree - table.k_min >= len(mom):
        raise ValueError("moment table does not cover the weights")
    return [sum(map(mul, f.numerators, mom[lo - j :])) for j in range(count)], f.denominator * scale


def _paired(weights: tuple, g: Poly) -> Fraction:
    """<w f, g-bar> in units of the zeroth moment, from f's `_moment_weights`."""
    nums, den = weights
    if g.min_exp < 0 or g.degree >= len(nums):
        raise ValueError("g lies outside the weighted range")
    return Fraction(sum(map(mul, g.numerators, nums[g.min_exp :])), den * g.denominator)


def norm_ratio(n: int, params: Params) -> Fraction:
    """h_n/h_0: the diagonal inner product value in units of the zeroth norm.

    The product over k < n of (k+1)(alpha+beta+1+k) / ((alpha+1+k)(beta+1+k)),
    built from integer running products and reduced once.
    """
    pa, qa = params.alpha.numerator, params.alpha.denominator
    pb, qb = params.beta.numerator, params.beta.denominator
    num = den = 1
    for k in range(n):
        # alpha+1+k = ua/qa, beta+1+k = ub/qb, alpha+beta+1+k = (...)/(qa qb)
        ua = _require_nonzero(pa + (1 + k) * qa, f"alpha+1+k at k={k}")
        ub = _require_nonzero(pb + (1 + k) * qb, f"beta+1+k at k={k}")
        num *= (k + 1) * (pa * qb + pb * qa + (1 + k) * qa * qb)
        den *= ua * ub
    return Fraction(num, den)


def dk_bk_sequence(k: int, n: int, params: Params) -> tuple:
    """Connection polynomials (D_0..D_k, B_0..B_k) linking P_{n+j+1} to P_{n+1}, P_n.

    D_j and B_j both satisfy X_j = (z - d_{n+j}) X_{j-1} + b_{n+j} z X_{j-2}
    with starts D_0 = 1, D_{-1} = 0 and B_0 = 0, B_{-1} = 1.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    z = Poly.x()
    ds = [Poly.one()]
    bs = [Poly.zero()]
    d_prev, b_prev = Poly.zero(), Poly.one()
    for j in range(1, k + 1):
        d_c, b_c = ttrr_coeffs(n + j, params)
        zd = z - Poly((d_c,))
        ds.append(zd * ds[-1] + b_c * z * d_prev)
        bs.append(zd * bs[-1] + b_c * z * b_prev)
        d_prev, b_prev = ds[-2], bs[-2]
    return ds, bs


def _raise_twist_pole(n: int, j: int, x: int, side: str) -> None:
    """Raise at the zero factor k+x, x an integer, that the twist recurrence meets first.

    The recurrence builds the j-fold twist level by level.  Level t reads
    b_m at (alpha+t-1, beta-t+1) for m = n-j+t, ..., n on the P side, and at
    (beta-t, alpha+t) for m = n, n-1, ..., n-t+1 on the Q side; each b_m
    checks its factor n+alpha, then n+alpha+1, and is reported as `ttrr_b`
    reports it.
    """
    for t in range(1, j + 1):
        if side == "P":
            ms, offset = range(n - j + t, n + 1), t - 1
        else:
            ms, offset = range(n, n - t, -1), -t
        for m in ms:
            if m + x + offset == 0:
                raise ParameterPoleError(f"n+alpha at n={m} = 0")
            if m + x + offset + 1 == 0:
                raise ParameterPoleError(f"n+alpha+1 at n={m} = 0")


def twisted_coeffs(n: int, j: int, params: Params, side: str = "P") -> list:
    """Expansion coefficients between plain and j-fold twisted families.

    side="P": C with P_n(z; alpha+j, beta-j) = P_n + sum C^(l) P_{n-l}.
    side="Q": E with Q_n(z) = Q_n(z; alpha+j, beta-j) + sum E^(l) Q_{n-l}(z; alpha+j, beta-j).
    Returns [coef_1, ..., coef_j].  With [x]_l = x(x-1)...(x-l+1),
        C^(l) = (-1)^l binom(j, l) [n]_l [n+alpha+beta]_l / ([n+alpha]_l [n+alpha+j]_l),
    and E^(l) is the same with beta for alpha and n+beta-j for n+alpha+j.
    The denominators' factors over l = 1..j are k+alpha for n-j < k <= n+j
    (P) and k+beta for n-2j < k <= n (Q): exactly the factors of the b's the
    two-level twist recurrence reads, so the poles are the same, and each is
    reported as the factor that recurrence meets first (`_raise_twist_pole`).
    The running product is built in integers, one Fraction per coefficient.
    """
    if not 1 <= j <= n:
        raise ValueError("need 1 <= j <= n")
    if side not in ("P", "Q"):
        raise ValueError("side must be 'P' or 'Q'")
    # x = p/q is alpha (P) or beta (Q); the last factor is n+x+shift
    x, shift = (params.alpha, j) if side == "P" else (params.beta, -j)
    p, q = x.numerator, x.denominator
    if q == 1:
        _raise_twist_pole(n, j, p, side)
    s, r = (params.alpha + params.beta).as_integer_ratio()
    out = []
    num = den = 1
    for l in range(1, j + 1):
        # coefficient l is coefficient l-1 times
        # -(j-l+1)/l * k (k+alpha+beta) / ((k+x)(k+x+shift)), k = n-l+1
        k = n - l + 1
        num *= -(j - l + 1) * k * (k * r + s) * q * q
        den *= l * r * (k * q + p) * ((k + shift) * q + p)
        out.append(Fraction(num, den))
    return out


@lru_cache(maxsize=8192)
def _generating_terms(k: int, params: Params) -> tuple:
    """(A_k, w_k, a_lcm, w_lcm, d_lcm) for the basis expansion.

    A_k = (alpha+1)_k/k! and w_k = (-beta)_k/k! are the z^k t^k and t^k
    coefficients of (1-zt)^(-alpha-1) and (1-t)^beta.  a_lcm is the lcm of
    A_0..A_k's numerators, w_lcm that of w_0..w_k's denominators and d_lcm
    that of A_0..A_k's denominators.  Entry k extends entry k-1 by one
    factor; `expand_in_hr_basis` fills the entries in ascending k, so the
    recursive call is a cache hit unless the entry was evicted.  An entry
    exists only while A_1..A_k are nonzero: a zero factor alpha+k is a pole
    of the expansion, reported as the recurrence route reports it.
    """
    if k == 0:
        return Fraction(1), Fraction(1), 1, 1, 1
    a_prev, w_prev, a_lcm, w_lcm, d_lcm = _generating_terms(k - 1, params)
    up = _require_nonzero(
        params.alpha + k, "alpha+1" if k == 1 else f"n+alpha+1 at n={k - 1}"
    )
    a_k = a_prev * up / k
    w_k = w_prev * (k - 1 - params.beta) / k
    return (
        a_k,
        w_k,
        lcm(a_lcm, a_k.numerator),
        lcm(w_lcm, w_k.denominator),
        lcm(d_lcm, a_k.denominator),
    )


def expand_in_hr_basis(poly: Poly, params: Params, rows=None) -> tuple:
    """(numerators, denominator) with poly = sum_k numerators[k]/denominator P_k(z; params).

    The family has the generating function
        sum_n A_n P_n(z) t^n = (1-zt)^(-alpha-1) (1-t)^(-beta),
    A_n = (alpha+1)_n/n!, so A_n P_n = sum_{k<=n} A_k z^k (beta)_{n-k}/(n-k)!.
    Multiplying by (1-t)^beta = sum_m w_m t^m, w_m = (-beta)_m/m!, inverts it:
    A_k z^k = sum_{n<=k} w_{k-n} A_n P_n.  So poly = sum_n f_n z^n has
        e_k = A_k sum_{n>=k} (f_n/A_n) w_{n-k},
    and no basis polynomial is built (Andrews, Askey and Roy, *Special
    Functions*, 1999, ch. 7).  Each inner sum is an integer dot product, with
    f_n/A_n and w_m each over their least common denominator, and A_k is
    taken over the lcm of the A denominators.  So every e_k is an integer
    over the one denominator poly.denominator * a_lcm * w_lcm * d_lcm, which
    is not reduced; no Fraction is built.  The zero polynomial gives ([], 1).
    The expansion needs A_n != 0 for n <= deg(poly), which is exactly where
    P_0..P_deg exist.

    `rows`, if given, lists the indices k <= deg(poly) of the entries to
    compute, and the numerators come back in that order over the same
    denominator.  Each entry is one dot product, so a few rows of a degree-D
    polynomial cost O(D) each instead of the O(D^2) of the whole expansion.
    """
    if poly.is_zero:
        return [], 1
    degree = poly.degree
    terms = [_generating_terms(k, params) for k in range(degree + 1)]
    _, _, a_lcm, w_lcm, d_lcm = terms[-1]
    nums = [0] * poly.min_exp + list(poly.numerators)
    # f_n/A_n = g[n] / (denominator a_lcm) and w_m = ws[m] / w_lcm
    g = [f * a.denominator * (a_lcm // a.numerator) for f, (a, *_) in zip(nums, terms)]
    ws = []
    for _, w, *_ in terms:
        if not w:
            break  # (-beta)_m = 0 from here on
        ws.append(w.numerator * (w_lcm // w.denominator))
    # A_k = (a.numerator * (d_lcm // a.denominator)) / d_lcm
    out = []
    for k in range(degree + 1) if rows is None else rows:
        a = terms[k][0]
        out.append(a.numerator * (d_lcm // a.denominator) * sum(map(mul, g[k:], ws)))
    return out, poly.denominator * a_lcm * w_lcm * d_lcm


def _pearson_b1(params: Params) -> Poly:
    """B1 = (1-beta) - (2+alpha)z: the weight's Pearson pair with A1 = z(1-z)."""
    return Poly((1 - params.beta, -(2 + params.alpha)))


def apply_l1(p: Poly, params: Params) -> Poly:
    """z(1-z) p'' + B1 p', with B1 = (1-beta) - (2+alpha)z."""
    z = Poly.x()
    return z * (1 - z) * p.derivative().derivative() + _pearson_b1(params) * p.derivative()


def apply_l2(p: Poly, params: Params) -> Poly:
    """(1-z) p' - (alpha+1) p."""
    return Poly((1, -1)) * p.derivative() - (params.alpha + 1) * p


def pair_derivative(a: Poly, b: Poly, n, params: Params) -> tuple:
    """(U, V) with z(1-z)(A P_n' + B P_n)' = U P_n' + V P_n, by the ODE.

    The ODE z(1-z) P_n'' = (n(1-z) - B1) P_n' - n(alpha+1) P_n removes P_n'':
    U = z(1-z)(A' + B) + A (n(1-z) - B1) and V = z(1-z) B' - n(alpha+1) A,
    both linear in n when A and B do not depend on n.
    """
    z1z = Poly((0, 1, -1))
    u = z1z * (a.derivative() + b) + a * (Poly((n, -n)) - _pearson_b1(params))
    return u, z1z * b.derivative() - n * (params.alpha + 1) * a


# ---------------------------------------------------------------------------
# Identity catalog
# ---------------------------------------------------------------------------


class IdentityTag(str, Enum):
    """Verifiable exact identities of the classical family."""

    REVERSAL = "reversal"
    DERIVATIVE = "derivative"
    LOG_DERIVATIVE_SWAPPED = "log-derivative-swapped"
    LOG_DERIVATIVE_NEGATED = "log-derivative-negated"
    MONOMIAL_SHIFT = "monomial-shift"
    DERIVATIVE_DOWNSHIFT = "derivative-downshift"
    SHIFTED_DOWNSHIFT = "shifted-downshift"
    ANTIDERIVATIVE = "antiderivative"
    LADDER_RAISE = "ladder-raise"
    MONOMIAL_EXPANSION = "monomial-expansion"
    TWIST_UP_TIMES_Z = "twist-up-times-z"
    TWIST_DOWN = "twist-down"
    TWIST_DOWN_ITERATED = "twist-down-iterated"
    MULTI_TWIST_P = "multi-twist-p"
    MULTI_TWIST_Q = "multi-twist-q"
    SPAN_WINDOW = "span-window"
    MONIC_COMPLETION = "monic-completion"
    PEARSON = "pearson"
    ODE = "ode"
    L1_SHIFT = "l1-shift"
    L2_SHIFT = "l2-shift"


def _check_reversal(n, params):
    lhs = hr_poly(n, params).reversed(n)
    pref = pochhammer(params.beta, n) / _require_nonzero(
        pochhammer(params.alpha + 1, n), "(alpha+1)_n"
    )
    rhs = pref * hr_poly(n, Params(params.beta - 1, params.alpha + 1))
    return lhs - rhs


def _check_derivative(n, params):
    lhs = hr_poly(n, params).derivative()
    rhs = n * hr_poly(n - 1, params.shifted(1, 0)) if n >= 1 else Poly.zero()
    return lhs - rhs


def _check_log_derivative_swapped(n, params):
    # cleared form: z(n-1+beta)P'_n(.;beta-1,alpha+1)
    #   = n[(n-1+beta)P_n(.;beta-1,alpha+1) - (1+alpha)P_{n-1}(.;beta-1,alpha+2)]
    if n < 1:
        return Poly.zero()
    fac = _require_nonzero(n - 1 + params.beta, "n-1+beta")
    p_main = hr_poly(n, Params(params.beta - 1, params.alpha + 1))
    p_aux = hr_poly(n - 1, Params(params.beta - 1, params.alpha + 2))
    lhs = fac * Poly.x() * p_main.derivative()
    rhs = n * (fac * p_main - (1 + params.alpha) * p_aux)
    return lhs - rhs


def _check_log_derivative_negated(n, params):
    # cleared by z^2 P_n(z;-a-1,1-b) P_n(1/z;-b,-a); all terms Laurent
    if n < 1:
        return Poly.zero()
    p_neg = hr_poly(n, Params(-params.alpha - 1, -params.beta + 1))
    rev_n = hr_poly(n, params.negated()).inverted()
    rev_n1 = hr_poly(n - 1, Params(-params.beta + 1, -params.alpha)).inverted()
    z = Poly.x()
    lhs = z * z * p_neg.derivative() * rev_n
    rhs = n * (z * p_neg * rev_n - p_neg * rev_n1)
    return lhs - rhs


def _check_monomial_shift(n, params):
    lhs = Poly.x() * hr_poly(n, params) - hr_poly(n + 1, params)
    coef = ttrr_d(n, params) - ttrr_b(n, params)
    rhs = coef * hr_poly(n, params.shifted(-1, 1))
    return lhs - rhs


def _check_derivative_downshift(n, params):
    if n < 1:
        return Poly.zero()
    lhs = Poly((-1, 1)) * hr_poly(n, params).derivative()
    ratio = (n + params.alpha + params.beta) / _require_nonzero(
        n + params.alpha, "n+alpha"
    )
    rhs = n * (hr_poly(n, params) - ratio * hr_poly(n - 1, params))
    return lhs - rhs


def _check_shifted_downshift(n, params):
    if n < 1:
        return Poly.zero()
    lhs = Poly((-1, 1)) * hr_poly(n - 1, params.shifted(1, 0))
    ratio = (n + params.alpha + params.beta) / _require_nonzero(
        n + params.alpha, "n+alpha"
    )
    rhs = hr_poly(n, params) - ratio * hr_poly(n - 1, params)
    return lhs - rhs


def _check_antiderivative(n, params):
    lhs = hr_poly(n + 1, params.shifted(-1, 0)).derivative()
    rhs = (n + 1) * hr_poly(n, params)
    return lhs - rhs


def _check_ladder_raise(n, params):
    # (A1 d/dz + B1) applied to the beta-fixed upshifted member raises the
    # index while twisting both parameters
    p = hr_poly(n, params.shifted(1, 0))
    lhs = Poly((0, 1, -1)) * p.derivative() + _pearson_b1(params) * p
    rhs = (-(n + params.alpha + 2)) * hr_poly(n + 1, params.shifted(1, -1))
    return lhs - rhs


def _check_monomial_expansion(n, params):
    rhs = hr_poly(n + 1, params)
    signed_prod = Fraction(1)  # (-1)^(n-j) b_n b_{n-1} ... b_{j+1}
    for j in range(n, -1, -1):
        d_j, b_j = ttrr_d(j, params), ttrr_b(j, params)
        rhs = rhs + signed_prod * (d_j - b_j) * hr_poly(j, params)
        signed_prod *= -b_j
    return Poly.x() * hr_poly(n, params) - rhs


def _check_twist_up_times_z(n, params):
    lhs = Poly.x() * hr_poly(n, params.shifted(1, -1))
    rhs = hr_poly(n + 1, params) + ttrr_d(n, params) * hr_poly(n, params)
    return lhs - rhs


def _check_twist_down(n, params):
    down = params.shifted(-1, 1)
    lhs = hr_poly(n, params)
    rhs = hr_poly(n, down)
    if n >= 1:
        rhs = rhs + ttrr_b(n, down) * hr_poly(n - 1, down)
    return lhs - rhs


def _check_twist_down_iterated(n, params):
    down = params.shifted(-1, 1)
    rhs = hr_poly(n, params)
    # signed_prods[n - j] = (-1)^(n-j) b_n b_{n-1} ... b_{j+1} at `down`
    signed_prods = [Fraction(1)]
    for i in range(n, 0, -1):
        signed_prods.append(-signed_prods[-1] * ttrr_b(i, down))
    for j in range(n):
        rhs = rhs + signed_prods[n - j] * hr_poly(j, params)
    return hr_poly(n, down) - rhs


def _check_multi_twist_p(n, params):
    for j in range(1, n + 1):
        coeffs = twisted_coeffs(n, j, params, side="P")
        rhs = hr_poly(n, params)
        for l, c in enumerate(coeffs, start=1):
            rhs = rhs + c * hr_poly(n - l, params)
        diff = hr_poly(n, params.shifted(j, -j)) - rhs
        if not diff.is_zero:
            return diff
    return Poly.zero()


def _check_multi_twist_q(n, params):
    for j in range(1, n + 1):
        coeffs = twisted_coeffs(n, j, params, side="Q")
        twisted = params.shifted(j, -j).swapped()
        rhs = hr_poly(n, twisted)
        for l, c in enumerate(coeffs, start=1):
            rhs = rhs + c * hr_poly(n - l, twisted)
        diff = hr_partner(n, params) - rhs
        if not diff.is_zero:
            return diff
    return Poly.zero()


def _check_span_window(n, params):
    # q of degree l0+1 with z | q, paired against the partner family through
    # the moment functional: all components below the window must vanish, so
    # they are the difference's coefficients.  lhs is weighted by the
    # moments once per l0, and each partner is one dot product
    bad = []
    for l0 in range(1, min(3, n - 1) + 1):
        q = Poly((0,) + (1,) * (l0 + 1))
        a = [Fraction(1)] + twisted_coeffs(n, l0 + 1, params, side="P")
        lhs = Poly.zero()
        for l, c in enumerate(a):
            lhs = lhs + c * hr_poly(n - l, params)
        lhs = q * lhs
        table = moments(params, -(n + l0 + 2), n + l0 + 2)
        weights = _moment_weights(lhs, table, n - l0)
        for m in range(0, n - l0):
            bad.append(_paired(weights, hr_partner(m, params)))
    return Poly(bad)


def _check_monic_completion(n, params):
    # For a monic C_k there is a Q_{k+1} with
    #   Q_{k+1} P_{n+1} + b_{n+1}(d_n - b_n) C_k P_n(.; alpha-1, beta+1)
    # lying in span{P_{n+2}, ..., P_{n+k+2}}; built via the connection
    # polynomials and checked by exact basis expansion.
    b_next = _require_nonzero(ttrr_b(n + 1, params), "b_{n+1}")
    shift_c = ttrr_d(n, params) - ttrr_b(n, params)
    down = params.shifted(-1, 1)
    # one sequence holds the connection polynomials of every k below.  Past
    # the b_{n+1} check its only poles are those of d_{n+2}, d_{n+3} and
    # d_{n+4} (alpha = -n-3, -n-4, -n-5), where the steps of the smaller k
    # are still regular, so it reports the pole that building its prefixes
    # k by k would report first
    ds, bs = dk_bk_sequence(4, n, params)
    for k in range(0, 4):
        c_k = Poly((1,) * k + (1,)) if k else Poly.one()
        # write C_k over the family B_{j+1}/(b_{n+1} z), descending degree;
        # B_{j+1} has no constant term and leading term b_{n+1} z^{j+1}, so
        # each member is monic of degree j and the expansion always closes
        cs = [Fraction(0)] * (k + 1)  # cs[i] multiplies B_{k+1-i}, i=1..k
        rem = c_k
        for i in range(0, k + 1):
            deg = k - i
            mono = Poly(bs[deg + 1].coeffs[1:]) * (1 / b_next)  # B/(b z), monic deg
            lead = rem.coeff(deg)
            if i > 0:
                cs[i] = lead
            rem = rem - lead * mono
        q_poly = ds[k + 1] + b_next * c_k
        for i in range(1, k + 1):
            q_poly = q_poly + cs[i] * ds[k + 1 - i]
        lhs = q_poly * hr_poly(n + 1, params) + b_next * shift_c * c_k * hr_poly(n, down)
        nums, den = expand_in_hr_basis(lhs, params)
        diff = Poly.from_numerators(nums[: n + 2], den)
        if not diff.is_zero:
            return diff
    return Poly.zero()


def _check_pearson(n, params):
    # (A1 w)' = B1 w cleared by z(1-z):
    #   z(1-z)A1' + A1(-beta(1-z) - (alpha+beta)z) - z(1-z)B1 = 0
    a, b = params.alpha, params.beta
    a1 = Poly((0, 1, -1))
    zz = Poly((0, 1, -1))
    log_w_cleared = Poly((-b, b - (a + b)))  # z(1-z) * w'/w
    return zz * a1.derivative() + a1 * log_w_cleared - zz * _pearson_b1(params)


def _check_ode(n, params):
    p = hr_poly(n, params)
    return apply_l1(p, params) - n * apply_l2(p, params)


def _check_l1_shift(n, params):
    lhs = apply_l1(hr_poly(n, params), params)
    rhs = (-n * (n + params.alpha + 1)) * hr_poly(n, params.shifted(1, -1))
    return lhs - rhs


def _check_l2_shift(n, params):
    lhs = apply_l2(hr_poly(n, params), params)
    rhs = (-(n + params.alpha + 1)) * hr_poly(n, params.shifted(1, -1))
    return lhs - rhs


_CHECKS = {
    IdentityTag.REVERSAL: _check_reversal,
    IdentityTag.DERIVATIVE: _check_derivative,
    IdentityTag.LOG_DERIVATIVE_SWAPPED: _check_log_derivative_swapped,
    IdentityTag.LOG_DERIVATIVE_NEGATED: _check_log_derivative_negated,
    IdentityTag.MONOMIAL_SHIFT: _check_monomial_shift,
    IdentityTag.DERIVATIVE_DOWNSHIFT: _check_derivative_downshift,
    IdentityTag.SHIFTED_DOWNSHIFT: _check_shifted_downshift,
    IdentityTag.ANTIDERIVATIVE: _check_antiderivative,
    IdentityTag.LADDER_RAISE: _check_ladder_raise,
    IdentityTag.MONOMIAL_EXPANSION: _check_monomial_expansion,
    IdentityTag.TWIST_UP_TIMES_Z: _check_twist_up_times_z,
    IdentityTag.TWIST_DOWN: _check_twist_down,
    IdentityTag.TWIST_DOWN_ITERATED: _check_twist_down_iterated,
    IdentityTag.MULTI_TWIST_P: _check_multi_twist_p,
    IdentityTag.MULTI_TWIST_Q: _check_multi_twist_q,
    IdentityTag.SPAN_WINDOW: _check_span_window,
    IdentityTag.MONIC_COMPLETION: _check_monic_completion,
    IdentityTag.PEARSON: _check_pearson,
    IdentityTag.ODE: _check_ode,
    IdentityTag.L1_SHIFT: _check_l1_shift,
    IdentityTag.L2_SHIFT: _check_l2_shift,
}


def verify_identity(tag: IdentityTag, n: int, params: Params) -> Poly | None:
    """Check one catalog identity at index n; both sides built independently.

    Returns None when the identity holds and the nonzero difference (Laurent)
    polynomial when it fails; span-window's difference is the polynomial whose
    coefficients are its inner products, in order.  An identity checked at
    several twist levels j or degrees k returns the first failing one's
    difference, so that two wrong terms cannot cancel.  Raises
    ParameterPoleError when the identity touches a parameter pole.
    """
    diff = _CHECKS[IdentityTag(tag)](n, params)
    return None if diff.is_zero else diff

