"""Floating-point validation of the unit-circle integral statements.

Everything else in the package is exact; this module is the one place that
evaluates weights numerically, as a cross-check of the moment-based inner
products and the only practical route to the exceptional biorthogonality
integrals.

Every integral is (1/2pi) times the integral over x = arg z in (0, 2pi) of a
polynomial or rational integrand f(z, 1/z) against the weight
w(e^{ix}) = (2 sin(x/2))^(alpha+beta) e^{i(x-pi)(alpha-beta)/2}, on the
branches arg(-z) = x - pi and arg(1-z) = (x - pi)/2.  Folding x -> 2pi - x
turns it into (1/2pi) times the integral over y in (0, pi) of
f(y) w(y) + f(2pi - y) w(2pi - y), which puts the weight's algebraic
branch point at z = 1 on the endpoint y = 0.  All coefficients are
rational, so the two folded values are complex conjugates and one evaluation
per node gives both.  The folded integral is evaluated by the tanh-sinh rule
(Takahasi and Mori, 1974), y = pi / (1 + exp(-pi sinh t)), whose nodes crowd
double-exponentially into both endpoints; the distance from a node to its
endpoint is computed directly, so the nodes near the branch point keep their
full relative precision.  Level 0 takes t in steps of 1/2 outwards from 0, on
each side until a term falls below 2^-cut times the sum of the term sizes so
far or |t| reaches a cap, where cut = ceil(-log2 tolerance) + 10 bits, at
most prec: further terms would refine digits that the tolerance test never
reads (Bailey, Jeyabalan and Li, 2005, truncate the rule at the target
accuracy likewise).  Each later level halves the step over the same t-range
and evaluates only the new odd nodes, reusing the previous sum.  The working
precision is fixed at prec = 128 bits, well beyond double, because the
exceptional weights carry squared denominators that amplify cancellation.
A node's geometry therefore depends only on t, so it is computed once and
kept in a bounded table: z = e^{iy} as fixed-point integers at
bits = prec + 32, and log s with s = 2 sin(y/2), y - pi and the Jacobian as
mpf values at prec + 10 bits.

The integrand is evaluated on integers.  With P = P'/d_P, Q = Q'/d_Q and the
exceptional denominator B = B'/d_B over integer numerators, Horner's rule runs
on the numerators at the fixed-point z, Q(1/z) is the conjugate of Q(z), and
the exceptional term z^p P'(z) conj(Q'(z)) / B'(z)^2 is one Gaussian-integer
division.  The rational constant left over (1/(d_P d_Q), times the weight
ratio's constant and d_B^2 for an exceptional integral, times the sign of the
weight's whole turns below) is the integral's unit: the integer sums are
multiplied by it once per level, so values, level differences and the
tolerance test are on the scale of the integrand itself.  The ratio's linear
factor, (z - 1) or 1/(1 - z), is never evaluated near its zero or pole:
since 1 - z = s e^{i(y - pi)/2}, it moves into the weight as -s e^{i(y-pi)/2}
or s^-1 e^{-i(y-pi)/2}.  The weight is then
s^(alpha+beta+l) e^{it(y-pi)} with the turn t = (alpha-beta+l)/2, for a
linear power l (0 when there is no such factor).  Its whole turns leave it:
with q = floor(t) and f = t - q in [0, 1), e^{i(y-pi)} = -z on the branch
above gives e^{it(y-pi)} = (-1)^q z^q e^{if(y-pi)} exactly, so z^q joins the
integrand as a monomial shift of P, or of Q when the integrand's total
monomial power is negative (on the circle z^-k Q(1/z) is the conjugate of
z^k Q(z)), and (-1)^q joins the unit.  What is left is the product of two
factors, each kept in a bounded table: the modulus s^(alpha+beta+l) times
the node's scale, one exp per node keyed on the exact exponent alpha+beta+l,
and the phase e^{if(y-pi)} as fixed-point cos and sin, one cos_sin per node
keyed on the exact fraction f.  So every integral at one alpha+beta+l shares
the modulus, and those whose turns also differ by a whole number share the
phase.  The weight's product with the term's real part and with the term's
size |term| (an integer square root), and both running sums, are integers at
2^-bits.

Values are divided by the closed-form zeroth moment
Gamma(1+alpha+beta) / (Gamma(1+alpha) Gamma(1+beta)).  The error estimate is
the last level difference, plus the outermost terms of level 0 (the
truncation), plus the rounding part, all divided by that moment.  A level
converges when its difference plus the truncation is at most the tolerance
times max(1, |value|), both before that division, so a converged integral's
estimate meets the tolerance up to the rounding part.  The
rounding part is the bound N 2^-prec sum |terms| for N points, which covers
the weight's relative rounding, plus the fixed-point error: h sum_k W_k E_k,
with W_k the node's weight and E_k the bound below on its term's error, plus
two units of 2^-bits per node for the floors of the weighting.  For a
polynomial with integer coefficients of absolute sum N and degree n, at a z
within 2 units of the circle, Horner's rule with floored products is off by
at most E = 3 n (N + 1) units; a floored product of two such values (absolute
sums N_P, N_Q, errors E_P, E_Q) by at most E_P (N_Q + 1) + N_P E_Q + 2.  For
the exceptional quotient, with E_X that bound for z^p P' conj(Q'),
N_X = N_P N_Q, E_B the bound for B', L = |B'(z)|^2 - E_B (2 N_B + 1) 2^-bits
a lower bound on |B'|^2 at both the computed and the true point, and 2 units
for the final floors, the error is at most E_X / L + N_X E_B (2 N_B + 1) / L^2
+ 2 (in units, with L in real terms).  These bounds hold while n (N + 1) stays
far below 2^bits, and they put the fixed-point error about 2^-30 below the
working precision.  The whole turns leave both parts of the bound intact:
the Horner bound counts the shifted, longer coefficient tuple, whose degree
is the n above, and the fractional phase comes from the same cos_sin at the
same precision as the whole turn's phase did, so the weight's rounding stays
inside the N 2^-prec budget.  Taking the last level difference as the error
of the finer level is the usual tanh-sinh heuristic, not a rigorous bound;
one would need the integrand's strip of analyticity (Tanaka, Sugihara,
Murota and Mori, 2009).

An exceptional integral takes the weight ratio kappa z^m (z-1)^(+-1) / eta^2
from `xhr.x_weight_factor`, so B is the seed polynomial eta.  Before
integrating, B is refused exactly when it has a root on the circle
(`exact_core.unit_circle_roots`), since the integral does not exist then, and
the integrand's exponent at z = 1 is computed exactly and a divergent
integral is refused with QuadratureDivergenceError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import ceil, isqrt, log2

import mpmath as mp
from mpmath.libmp import from_rational, mpf_cos_sin, mpf_exp, mpf_mul, mpf_pos, to_fixed

from .exact_core import Poly, unit_circle_roots
from .hr_classical import Params, hr_partner, hr_poly
from .xhr import XIndex, x_partner, x_poly, x_weight_factor

__all__ = [
    "QuadConfig",
    "QuadResult",
    "QuadratureConvergenceError",
    "QuadratureDivergenceError",
    "DenominatorNearZeroError",
    "classical_quad",
    "exceptional_quad",
]

# working precision in bits
_PREC = 128
# level-0 step and the largest |t| any level reaches; with the walk cut at
# 128 bits the cap leaves the left walk unfinished only for exponents at z = 1
# within 0.02 of -1, and with a 40-bit cut within 0.006
_H0 = 0.5
_T_CAP = 8
# nodes kept in the node table: every node one integral can reach at 7
# levels, about 1 kB each with its key
_NODE_TABLE_SIZE = 1 + 2**7 * 2 * int(_T_CAP / _H0)
# weight factors kept per (exponent, node) and per (fractional turn, node),
# about 0.3 kB each; hr_classical's cache comment gives the sizes they are set
# against
_MODULUS_TABLE_SIZE = 2048
_PHASE_TABLE_SIZE = 4096
# bits by which the level-0 walk's cut lies below the tolerance
_CUT_GUARD_BITS = 10
# fractional bits of the fixed-point kernel beyond the working precision, and
# extra bits of the weight's mpf steps
_GUARD_BITS = 32
_WEIGHT_BITS = 10


class QuadratureConvergenceError(RuntimeError):
    """The refinement budget ran out before the tolerance, or the integral diverges."""


class QuadratureDivergenceError(QuadratureConvergenceError):
    """The integral does not exist: the integrand's exponent at z = 1 is <= -1."""


class DenominatorNearZeroError(RuntimeError):
    """The weight denominator has a root on the circle, or is not bounded from 0 at a node."""


@dataclass(frozen=True)
class QuadConfig:
    """Refinement budget and convergence tolerance of one integral; the precision is `_PREC`.

    The tolerance bounds the last level difference plus the truncation,
    relative to the value where that exceeds 1, and it also sets how far the
    level-0 walk goes: a term 10 bits below it ends each side.
    """

    refinement_levels: int = 6
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.refinement_levels < 1:
            raise ValueError("need at least one refinement level")


@dataclass(frozen=True)
class QuadResult:
    """Converged value with its error estimate.

    `estimates` holds the difference between consecutive levels, divided by
    |zeroth moment| as `value` and `error_estimate` are, and
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


def _zeroth_moment(params: Params) -> mp.mpf:
    """(1/2pi) * integral of w: the Cauchy-Dyson beta integral in closed form."""
    a, b = _mpf(params.alpha), _mpf(params.beta)
    return mp.gamma(1 + a + b) / (mp.gamma(1 + a) * mp.gamma(1 + b))


def _fixed_point(x, bits):
    """A complex x as the nearest integers to Re x 2^bits and Im x 2^bits."""
    return tuple(to_fixed(part._mpf_, bits + 1) + 1 >> 1 for part in (mp.re(x), mp.im(x)))


def _shift(x: int, k: int) -> int:
    """floor(x / 2^k) for an integer k of either sign."""
    return x >> k if k >= 0 else x << -k


def _dense(poly: Poly, power: int = 0) -> tuple:
    """Integer numerators of z^power * poly from z^0 upward, over poly.denominator."""
    return (0,) * (poly.min_exp + power) + poly.numerators


def _norm(nums) -> int:
    """Sum of absolute values: a bound on |sum_k nums[k] z^k| on the unit circle."""
    return sum(map(abs, nums))


def _evaluation_bound(nums) -> int:
    """Bound, in units of 2^-bits, on the error of `_evaluate(nums, z, bits)` on the circle."""
    return 3 * (len(nums) - 1) * (_norm(nums) + 1)


def _evaluate(nums, z, bits):
    """sum_k nums[k] z^k by Horner's rule at the fixed-point point z = (x, y).

    Everything is an integer at 2^-bits, and each product is floored.
    """
    x, y = z
    re, im = nums[-1] << bits, 0
    for c in nums[-2::-1]:
        re, im = (re * x - im * y >> bits) + (c << bits), re * y + im * x >> bits
    return re, im


def _product_kernel(p: Poly, q: Poly, power: int = 0):
    """make_term for z^power P(z) Q(1/z), in units of 1/(d_P d_Q), with its error bound.

    A negative power shifts Q instead of P: on the circle z^-k Q(1/z) is the
    conjugate of z^k Q(z).
    """
    pn, qn = _dense(p, max(power, 0)), _dense(q, max(-power, 0))
    bound = _evaluation_bound(pn) * (_norm(qn) + 1) + _norm(pn) * _evaluation_bound(qn) + 2

    def make_term(z, bits):
        pr, pi = _evaluate(pn, z, bits)
        qr, qi = _evaluate(qn, z, bits)
        return pr * qr + pi * qi >> bits, pi * qr - pr * qi >> bits, bound

    return make_term


def _ratio_kernel(p: Poly, q: Poly, base: Poly, power: int):
    """make_term for z^power P(z) Q(1/z) / B(z)^2 over the numerators of P, Q and B.

    The power may be negative, as in `_product_kernel`.  The error bound
    depends on |B'(z)|, so it is formed at each node.
    """
    numerator = _product_kernel(p, q, power)
    bn = _dense(base)
    # a bound on |z^power P'(z) Q'(1/z)| on the circle
    magnitude = _norm(p.numerators) * _norm(q.numerators)
    # |B'|^2 >= |B'(z)|^2 - spread 2^-bits at the true and the computed point
    spread = _evaluation_bound(bn) * (2 * _norm(bn) + 1)

    def make_term(z, bits):
        xr, xi, bound = numerator(z, bits)
        br, bi = _evaluate(bn, z, bits)
        square = br * br + bi * bi
        low = square - (spread << bits)
        if low <= 0:
            raise DenominatorNearZeroError("weight denominator vanishes at a quadrature node")
        sr, si = br * br - bi * bi, 2 * br * bi
        den = square * square
        error = ((bound * low + (magnitude * spread << 2 * bits)) << 2 * bits) // (low * low) + 2
        re = ((xr * sr + xi * si) << 2 * bits) // den
        return re, ((xi * sr - xr * si) << 2 * bits) // den, error

    return make_term


@lru_cache(maxsize=_NODE_TABLE_SIZE)
def _node_geometry(level, i):
    """The weight-free part of tanh-sinh node t = i h0 / 2^level.

    Returns z = e^{iy} as a fixed-point pair at _PREC + _GUARD_BITS bits, and,
    as raw mpf values at _PREC + _WEIGHT_BITS bits, log(2 sin(y/2)), y - pi
    and the scale dy/dt / (2 pi), doubled for the conjugate folded value.
    """
    bits, wp = _PREC + _GUARD_BITS, _PREC + _WEIGHT_BITS
    with mp.workprec(bits + 10):
        t = mp.mpf(_H0) * i / 2**level
        e = mp.exp(-mp.pi * mp.sinh(abs(t)))
        d = mp.pi * e / (1 + e)  # distance from y to the endpoint t moves to
        y = d if t < 0 else mp.pi - d
        return (
            _fixed_point(mp.expj(y), bits),
            mpf_pos(mp.log(2 * mp.sin(y / 2))._mpf_, wp),
            mpf_pos((y - mp.pi)._mpf_, wp),
            mpf_pos((mp.pi * mp.cosh(t) * e / (1 + e) ** 2)._mpf_, wp),
        )


# The two weight factors are keyed on a fraction in lowest terms as its
# numerator and denominator: integer keys hash and compare in C, where a
# Fraction key would cost two Python-level calls on every hit.
@lru_cache(maxsize=_MODULUS_TABLE_SIZE)
def _node_modulus(num, den, level, i):
    """s^(num/den) times the scale of node (level, i), as the mantissa and exponent of an mpf.

    The value is rounded to _PREC + _WEIGHT_BITS bits and is positive.
    """
    wp = _PREC + _WEIGHT_BITS
    _, log_s, _, scale = _node_geometry(level, i)
    power = from_rational(num, den, wp)
    _, man, exp, _ = mpf_mul(scale, mpf_exp(mpf_mul(power, log_s, wp), wp), wp)
    return man, exp


@lru_cache(maxsize=_PHASE_TABLE_SIZE)
def _node_phase(num, den, level, i):
    """cos and sin of (num/den) (y - pi) at node (level, i), as integers at 2^-wp.

    num/den is the fractional part of a weight turn, in [0, 1); the whole
    turns are in the integrand (`_split_turn`).  wp = _PREC + _WEIGHT_BITS,
    as for the modulus.
    """
    wp = _PREC + _WEIGHT_BITS
    _, _, y_minus_pi, _ = _node_geometry(level, i)
    angle = mpf_mul(from_rational(num, den, wp), y_minus_pi, wp)
    return tuple(to_fixed(part, wp) for part in mpf_cos_sin(angle, wp))


def _split_turn(params: Params, linear: int = 0) -> tuple:
    """The weight's turn (alpha - beta + linear)/2 as whole turns q and a fraction in [0, 1).

    Since e^{i(y-pi)} = -z, e^{i turn (y-pi)} = (-1)^q z^q e^{i (turn-q)(y-pi)}
    exactly.
    """
    return divmod(Fraction(params.alpha - params.beta + linear, 2), 1)


def _integrate_levels(make_term, params, cfg, unit, linear=0):
    """(1/2pi) * integral of unit * term(x) (1-z)^linear (-z)^-q w(x) over (0, 2pi) by tanh-sinh.

    `make_term(z, bits)` takes a node's circle point as a fixed-point pair and
    returns the weightless part of the integrand in units of `unit` as a
    fixed-point pair at `bits`, with a bound on its error in units of
    2^-bits; its conjugate is the value at the conjugate point, which holds
    for every polynomial with rational coefficients.  `linear` is 0, or +-1
    for the factor (1-z)^(+-1) that the weight takes over.  The weight's q
    whole turns (`_split_turn`) are the caller's: z^q belongs in the term and
    (-1)^q in `unit`.  Returns (value, per-level differences, circle points
    evaluated, error estimate).
    """
    bits, wp = _PREC + _GUARD_BITS, _PREC + _WEIGHT_BITS
    # the weight s^(alpha+beta) e^{i(y-pi)(alpha-beta)/2}, times s^linear
    # e^{i linear (y-pi)/2}, less its whole turns
    exponent = Fraction(params.alpha + params.beta + linear).as_integer_ratio()
    fraction = _split_turn(params, linear)[1].as_integer_ratio()

    def node(level, i):
        """Term of node t = i h0 / 2^level without the step h, its size and its error bound."""
        man, exp = _node_modulus(*exponent, level, i)
        cos, sin = _node_phase(*fraction, level, i)
        re, im, error = make_term(_node_geometry(level, i)[0], bits)
        real = (cos * re - sin * im) * man
        return (
            _shift(real, wp - exp),
            _shift(isqrt(re * re + im * im) * man, -exp),
            _shift(error * man, -exp) + 2,
        )

    # the walk's relative cut in bits, a shift of 0 to _PREC
    cut = min(max(ceil(-log2(cfg.tolerance)) + _CUT_GUARD_BITS, 0), _PREC)
    total, size, fixed = node(0, 0)
    points = 2
    ends = []
    for side in (-1, 1):
        k = 0
        while True:
            k += 1
            term, term_size, term_fixed = node(0, side * k)
            total += term
            size += term_size
            fixed += term_fixed
            points += 2
            if term_size << cut <= size or k * _H0 >= _T_CAP:
                break
        ends.append((k, term_size))
    (left, left_size), (right, right_size) = ends

    # the value of one integer unit of the sums at level 0, step included
    step = mp.ldexp(mp.mpf(_H0) * _mpf(unit), -bits)
    truncation = abs(step) * (left_size + right_size)
    value = step * total
    diffs = []
    for level in range(1, cfg.refinement_levels + 1):
        step /= 2
        previous = total
        for i in range(1 - 2**level * left, 2**level * right, 2):
            term, term_size, term_fixed = node(level, i)
            total += term
            size += term_size
            fixed += term_fixed
            points += 2
        value = step * total
        diffs.append(abs(step * (total - 2 * previous)))
        if diffs[-1] + truncation <= cfg.tolerance * max(1, abs(value)):
            rounding = abs(step) * (mp.ldexp(points * size, -_PREC) + fixed)
            return value, diffs, points, diffs[-1] + truncation + rounding
    raise QuadratureConvergenceError(
        f"no convergence to {cfg.tolerance} within {cfg.refinement_levels} refinements "
        f"(last difference {mp.nstr(diffs[-1], 5)}, truncation {mp.nstr(truncation, 5)})"
    )


def _normalised(params: Params, value, diffs, points, estimate) -> QuadResult:
    """The result of `_integrate_levels` divided by the zeroth moment, differences included."""
    moment = _zeroth_moment(params)
    scale = abs(moment)
    return QuadResult(value / moment, estimate / scale, points, tuple(d / scale for d in diffs))


def classical_quad(n: int, m: int, params: Params, cfg: QuadConfig | None = None) -> QuadResult:
    """Numeric inner product of member n against partner m, self-normalised.

    Approximates the circle integral of P_n(z) Q_m(1/z) w(z) divided by the
    zeroth moment, so the exact counterpart is norm_ratio(n) * delta_{nm}.
    """
    cfg = cfg or QuadConfig()
    if not params.is_positive:
        raise ValueError("positivity (alpha, beta, alpha+beta > -1) required")
    with mp.workprec(_PREC):
        p, q = hr_poly(n, params), hr_partner(m, params)
        whole, _ = _split_turn(params)
        return _normalised(
            params,
            *_integrate_levels(
                _product_kernel(p, q, whole),
                params,
                cfg,
                Fraction((-1) ** (whole % 2), p.denominator * q.denominator),
            ),
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
    integrate when the squared denominator of the exceptional weight has a
    root on the contour, and when the integrand's exponent at z = 1 makes the
    integral diverge (both reported, not silently mis-integrated).
    """
    cfg = cfg or QuadConfig()
    if (idx_n.j0, idx_n.l0) != (idx_m.j0, idx_m.l0):
        raise ValueError("indices must share the same family (j0, l0)")
    if not params.is_positive:
        raise ValueError("positivity (alpha, beta, alpha+beta > -1) required")
    idx_n.require_admissible()
    idx_m.require_admissible()
    with mp.workprec(_PREC):
        factor = x_weight_factor(idx_n.j0, idx_n.l0, params)
        base = factor.denominator_base
        if roots := unit_circle_roots(base):
            raise DenominatorNearZeroError(
                f"the weight denominator has {roots} root{'s' * (roots > 1)} on |z| = 1: "
                "the integral does not exist"
            )
        p = x_poly(idx_n, params)
        q = x_partner(idx_m, params)
        linear = factor.linear_power
        # |1 - z|^exponent near z = 1, where the denominator has no root
        exponent = params.alpha + params.beta + linear + _order_at_one(p) + _order_at_one(q)
        if exponent <= -1:
            raise QuadratureDivergenceError(
                f"the integral diverges: the integrand behaves like |1-z|^({exponent}) "
                f"at z = 1, and the exponent is <= -1"
            )
        whole, _ = _split_turn(params, linear)
        # z - 1 = -(1 - z) and 1/(1 - z): the sign -linear stays in the unit,
        # as does the sign of the whole turns
        unit = -linear * (-1) ** (whole % 2) * factor.constant_ratio * Fraction(
            base.denominator**2, p.denominator * q.denominator
        )
        return _normalised(
            params,
            *_integrate_levels(
                _ratio_kernel(p, q, base, factor.monomial_power + whole), params, cfg, unit, linear
            ),
        )
