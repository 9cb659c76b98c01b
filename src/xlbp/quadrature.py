"""Floating-point validation of the unit-circle integral statements.

Everything else in the package is exact; this module is the one place that
evaluates weights numerically, as a cross-check of the moment-based inner
products and the only practical route to the exceptional biorthogonality
integrals.

Every integral is (1/2pi) times the integral over x = arg z in (0, 2pi) of a
polynomial or rational integrand f(z, 1/z) against the weight w(e^{ix}).
Folding x -> 2pi - x turns it into (1/2pi) times the integral over y in
(0, pi) of f(y) w(y) + f(2pi - y) w(2pi - y), which puts the weight's
algebraic branch point at z = 1 on the endpoint y = 0.  All coefficients are
rational, so the two folded values are complex conjugates and one evaluation
per node gives both.  The folded integral is evaluated by the tanh-sinh rule
(Takahasi and Mori, 1974), y = pi / (1 + exp(-pi sinh t)), whose nodes crowd
double-exponentially into both endpoints; the distance from a node to its
endpoint is computed directly, so the nodes near the branch point keep their
full relative precision.  Level 0 takes t in steps of 1/2 outwards from 0, on
each side until a term falls below 2^-prec times the sum of the term sizes so
far or |t| reaches a cap; each later level halves the step and evaluates only
the new odd nodes, reusing the previous sum.  A node's geometry (its circle
point, 2 sin(y/2), y - pi and the Jacobian) depends only on t and the
working precision, so it is computed once per precision and kept in a
bounded table; each integrand pays only for the weight's powers and its own
terms.

Values are divided by the closed-form zeroth moment
Gamma(1+alpha+beta) / (Gamma(1+alpha) Gamma(1+beta)).  The error estimate is
the last level difference, plus the outermost terms of level 0 (the
truncation), plus the rounding bound N 2^-prec sum |terms| of a sum of N
terms, all divided by that moment.  Taking the last level difference as the
error of the finer level is the usual tanh-sinh heuristic, not a rigorous
bound; one would need the integrand's strip of analyticity (Tanaka,
Sugihara, Murota and Mori, 2009).  Before integrating an exceptional
integrand, its exponent at z = 1 is computed exactly and a divergent integral
is refused.  Working precision is configurable and defaults to well beyond
double because the exceptional weights carry squared denominators that
amplify cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from .exact_core import Poly
from .hr_classical import Params, hr_partner, hr_poly
from .xhr import WeightFactor, XIndex, x_partner, x_poly, x_weight_factor

__all__ = [
    "QuadConfig",
    "QuadResult",
    "QuadratureConvergenceError",
    "DenominatorNearZeroError",
    "weight_on_circle",
    "classical_quad",
    "exceptional_quad",
]

# level-0 step and the largest |t| any level reaches; at 128 bits the cap
# leaves the left walk unfinished only for exponents at z = 1 within 0.02 of -1
_H0 = 0.5
_T_CAP = 8
# nodes kept in the node table over all precisions: every node one integral
# can reach at 7 levels, about 1.4 kB each at 128 bits
_NODE_TABLE_SIZE = 1 + 2**7 * 2 * int(_T_CAP / _H0)
# the denominator guard: points on the circle, and the smallest min/max ratio
# of |denominator| it lets through
_GUARD_SAMPLES = 512
_GUARD_THRESHOLD = 1e-3


class QuadratureConvergenceError(RuntimeError):
    """The integral diverges, or the refinement budget ran out before the tolerance."""


class DenominatorNearZeroError(RuntimeError):
    """The exceptional weight's denominator nearly vanishes on the contour."""


@dataclass(frozen=True)
class QuadConfig:
    refinement_levels: int = 6
    tolerance: float = 1e-9
    precision_bits: int = 128

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.refinement_levels < 1:
            raise ValueError("need at least one refinement level")


@dataclass(frozen=True)
class QuadResult:
    """Converged value with its error estimate.

    `estimates` holds the difference between consecutive levels, and
    `num_points_used` counts the circle points evaluated (two per node).
    """

    value: mp.mpf
    error_estimate: mp.mpf
    num_points_used: int
    estimates: tuple = field(default=())


def _mpf(x) -> mp.mpf:
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / mp.mpf(x.denominator)
    return mp.mpf(x)


def weight_on_circle(x, params: Params):
    """w(e^{ix}) for x in (0, 2pi) under the fixed branch choices.

    The branches are arg z in (0, 2pi), with (-z)^(-beta) positive real at
    arg z = pi, and arg(1-z) in (-pi, pi), with (1-z)^(alpha+beta) positive
    real at arg(1-z) = 0.  With arg(-z) = x - pi and arg(1-z) = (x - pi)/2
    both inside these ranges, the weight collapses to
    (2 sin(x/2))^(alpha+beta) * exp(i (x-pi)(alpha-beta)/2).
    """
    a, b = _mpf(params.alpha), _mpf(params.beta)
    return (2 * mp.sin(x / 2)) ** (a + b) * mp.expj((x - mp.pi) * ((a - b) / 2))


def _zeroth_moment(params: Params) -> mp.mpf:
    """(1/2pi) * integral of w: the Cauchy-Dyson beta integral in closed form."""
    a, b = _mpf(params.alpha), _mpf(params.beta)
    return mp.gamma(1 + a + b) / (mp.gamma(1 + a) * mp.gamma(1 + b))


def _mp_coeffs(poly):
    return [_mpf(c) for c in poly.coeffs]


def _horner(coeffs, z):
    """sum_k coeffs[k] z^k for nonempty coeffs, started at the leading coefficient."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return acc


@lru_cache(maxsize=_NODE_TABLE_SIZE)
def _node_geometry(prec, level, i):
    """The weight-free part of tanh-sinh node t = i h0 / 2^level at `prec` bits.

    Returns z = e^{iy}, its conjugate, 2 sin(y/2), y - pi, and the scale
    dy/dt / (2 pi), doubled for the conjugate folded value.
    """
    with mp.workprec(prec):
        t = mp.mpf(_H0) * i / 2**level
        e = mp.exp(-mp.pi * mp.sinh(abs(t)))
        d = mp.pi * e / (1 + e)  # distance from y to the endpoint t moves to
        y = d if t < 0 else mp.pi - d
        z = mp.expj(y)
        return z, mp.conj(z), 2 * mp.sin(y / 2), y - mp.pi, mp.pi * mp.cosh(t) * e / (1 + e) ** 2


def _integrate_levels(make_term, params, cfg):
    """(1/2pi) * integral of term(x) w(x) dx over (0, 2pi) by nested tanh-sinh.

    `make_term(z, zbar)` supplies the weightless part of the integrand; its
    value at (zbar, z) must be the conjugate of its value at (z, zbar), which
    holds for every polynomial with rational coefficients.  Returns (value,
    per-level differences, circle points evaluated, error estimate).
    """
    prec = mp.mp.prec
    eps = mp.ldexp(1, -prec)
    a, b = _mpf(params.alpha), _mpf(params.beta)
    gamma, phase = a + b, (a - b) / 2

    def node(level, i):
        """Term of node t = i h0 / 2^level without the step h, and its size."""
        z, zbar, s, y_minus_pi, scale = _node_geometry(prec, level, i)
        # the weight of weight_on_circle at y, from the tabulated parts
        value = s**gamma * mp.expj(y_minus_pi * phase) * make_term(z, zbar)
        return scale * value.real, scale * abs(value)

    h0 = h = mp.mpf(_H0)
    total, size = node(0, 0)
    points = 2
    ends = []
    for side in (-1, 1):
        k = 0
        while True:
            k += 1
            term, term_size = node(0, side * k)
            total += term
            size += term_size
            points += 2
            if term_size <= eps * size or k * h >= _T_CAP:
                break
        ends.append((k, term_size))
    (left, left_size), (right, right_size) = ends

    value = h * total
    diffs = []
    for level in range(1, cfg.refinement_levels + 1):
        h /= 2
        for i in range(1 - 2**level * left, 2**level * right, 2):
            term, term_size = node(level, i)
            total += term
            size += term_size
            points += 2
        previous, value = value, h * total
        diffs.append(abs(value - previous))
        if diffs[-1] <= cfg.tolerance * max(1, abs(value)):
            truncation = h0 * (left_size + right_size)
            rounding = eps * points * h * size
            return value, diffs, points, diffs[-1] + truncation + rounding
    raise QuadratureConvergenceError(
        f"no convergence to {cfg.tolerance} within {cfg.refinement_levels} refinements "
        f"(last difference {mp.nstr(diffs[-1], 5)})"
    )


def classical_quad(n: int, m: int, params: Params, cfg: QuadConfig | None = None) -> QuadResult:
    """Numeric inner product of member n against partner m, self-normalised.

    Approximates the circle integral of P_n(z) Q_m(1/z) w(z) divided by the
    zeroth moment, so the exact counterpart is norm_ratio(n) * delta_{nm}.
    """
    cfg = cfg or QuadConfig()
    if not params.is_positive:
        raise ValueError("positivity (alpha, beta, alpha+beta > -1) required")
    with mp.workprec(cfg.precision_bits):
        p_c = _mp_coeffs(hr_poly(n, params))
        q_c = _mp_coeffs(hr_partner(m, params))
        num, diffs, pts, err = _integrate_levels(
            lambda z, zbar: _horner(p_c, z) * _horner(q_c, zbar), params, cfg
        )
        den = _zeroth_moment(params)
        return QuadResult(num / den, err / abs(den), pts, tuple(diffs))


@lru_cache(maxsize=4)
def _roots_of_unity(prec):
    """The guard's points e^{2 pi i k / _GUARD_SAMPLES} on the circle at `prec` bits."""
    with mp.workprec(prec):
        return tuple(mp.expj(2 * mp.pi * k / _GUARD_SAMPLES) for k in range(_GUARD_SAMPLES))


@lru_cache(maxsize=256)
def _extremes_on_circle(poly: Poly, prec):
    """(min, max) of |poly| over the guard's points on the circle, at `prec` bits."""
    with mp.workprec(prec):
        coeffs = _mp_coeffs(poly)
        mags = [abs(_horner(coeffs, z)) for z in _roots_of_unity(prec)]
        return min(mags), max(mags)


def _ratio_on_circle(factor: WeightFactor):
    """`factor.ratio_at` with its Fractions converted once, for one integral.

    The Fractions are converted as mpmath converts them inside `ratio_at`,
    and `_horner`'s first step is exact, so every value rounds as before.
    """
    constant = mp.mpmathify(factor.constant_ratio)
    base = [mp.mpmathify(c) for c in factor.denominator_base.coeffs]
    power, linear = factor.monomial_power, factor.linear_power

    def ratio_at(z):
        den = _horner(base, z)
        value = constant * z**power / (den * den)
        return value * (z - 1) if linear == 1 else value / (1 - z)

    return ratio_at


def _denominator_guard(base_poly):
    lo, hi = _extremes_on_circle(base_poly, mp.mp.prec)
    if lo < _GUARD_THRESHOLD * hi:
        raise DenominatorNearZeroError(
            f"weight denominator nearly vanishes on the contour "
            f"(min |p| = {mp.nstr(lo, 5)}, max |p| = {mp.nstr(hi, 5)})"
        )


def _order_at_one(poly: Poly) -> int:
    """Multiplicity of z = 1 as a root of a nonzero polynomial, exactly."""
    for order in range(poly.degree + 1):
        if poly(1) != 0:
            return order
        poly = poly.derivative()
    raise ValueError("the zero polynomial has no order at z = 1")


def exceptional_quad(
    idx_n: XIndex, idx_m: XIndex, params: Params, cfg: QuadConfig | None = None
) -> QuadResult:
    """Numeric exceptional biorthogonality integral in units of the zeroth moment.

    The exact counterpart is x_norm_ratio(idx_n) * delta_{nm}.  Refuses to
    integrate when the squared denominator of the exceptional weight comes
    close to zero on the contour, and when the integrand's exponent at z = 1
    makes the integral diverge (both reported, not silently mis-integrated).
    """
    cfg = cfg or QuadConfig()
    if (idx_n.j0, idx_n.l0) != (idx_m.j0, idx_m.l0):
        raise ValueError("indices must share the same family (j0, l0)")
    if not params.is_positive:
        raise ValueError("positivity (alpha, beta, alpha+beta > -1) required")
    idx_n.require_admissible()
    idx_m.require_admissible()
    with mp.workprec(cfg.precision_bits):
        factor = x_weight_factor(idx_n.j0, idx_n.l0, params)
        _denominator_guard(factor.denominator_base)
        p = x_poly(idx_n, params).poly
        q = x_partner(idx_m, params).poly
        # |1 - z|^exponent near z = 1, where the guard keeps the denominator nonzero
        exponent = (
            params.alpha + params.beta + factor.linear_power + _order_at_one(p) + _order_at_one(q)
        )
        if exponent <= -1:
            raise QuadratureConvergenceError(
                f"the integral diverges: the integrand behaves like |1-z|^({exponent}) "
                f"at z = 1, and the exponent is <= -1"
            )
        p_c, q_c = _mp_coeffs(p), _mp_coeffs(q)
        ratio_at = _ratio_on_circle(factor)

        def term(z, zbar):
            return ratio_at(z) * _horner(p_c, z) * _horner(q_c, zbar)

        num, diffs, pts, err = _integrate_levels(term, params, cfg)
        den = _zeroth_moment(params)
        return QuadResult(num / den, err / abs(den), pts, tuple(diffs))
