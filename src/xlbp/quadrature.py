"""Floating-point validation of the unit-circle integral statements.

Everything else in the package is exact; this module is the one place that
evaluates weights numerically, as a cross-check of the moment-based inner
products and the only practical route to the exceptional biorthogonality
integrals.

Integration uses the uniform trapezoidal rule on the periodic integrand,
which converges fast once the integrand is smooth enough; when the algebraic
branch point at z = 1 is too strong (exponent <= 2) the rule switches to a
midpoint rule under the clustering substitution x = pi(1 - cos t).  Working
precision is configurable and defaults to well beyond double because the
exceptional weights carry squared denominators that amplify cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp

from .hr_classical import Params, hr_partner, hr_poly_robust
from .xhr import XIndex, x_partner, x_poly, x_weight_factor

__all__ = [
    "QuadConfig",
    "QuadResult",
    "QuadratureConvergenceError",
    "DenominatorNearZeroError",
    "weight_on_circle",
    "classical_quad",
    "exceptional_quad",
]


class QuadratureConvergenceError(RuntimeError):
    """Refinement budget exhausted before reaching the requested tolerance."""


class DenominatorNearZeroError(RuntimeError):
    """The exceptional weight's denominator nearly vanishes on the contour."""


@dataclass(frozen=True)
class QuadConfig:
    num_points: int = 256
    refinement_levels: int = 6
    tolerance: float = 1e-9
    precision_bits: int = 128

    def __post_init__(self):
        if self.num_points < 16:
            raise ValueError("num_points must be at least 16")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.refinement_levels < 1:
            raise ValueError("need at least one refinement level")


@dataclass(frozen=True)
class QuadResult:
    """Converged value with the refinement-difference error estimate."""

    value: complex
    error_estimate: float
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
    a = _mpf(params.alpha)
    b = _mpf(params.beta)
    s = 2 * mp.sin(x / 2)
    return s ** (a + b) * mp.exp(1j * (x - mp.pi) * (a - b) / 2)


def _pairwise_sum(values):
    """Fixed-order pairwise summation for reproducibility."""
    n = len(values)
    if n == 0:
        return mp.mpc(0)
    if n == 1:
        return values[0]
    mid = n // 2
    return _pairwise_sum(values[:mid]) + _pairwise_sum(values[mid:])


def _mp_coeffs(poly):
    return [_mpf(c) for c in poly.coeffs]


def _horner(coeffs, z):
    acc = mp.mpc(0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


_GRID_CACHE: dict = {}


def _weight_grid(params: Params, rule: str, n_points: int, extra=None):
    """(z, conj z, weight-like factor) at the rule's nodes, with node weights.

    For the plain rule the nodes are x_k = 2 pi k / N (the k = 0 node is the
    branch point where the integrand vanishes, so it is dropped); for the
    substituted rule they are midpoints in t with the sin t Jacobian folded
    into the node weight.  Cached per (parameters, rule, N, precision).
    """
    key = (params.alpha, params.beta, rule, n_points, mp.mp.prec, extra)
    hit = _GRID_CACHE.get(key)
    if hit is not None:
        return hit
    nodes = []
    if rule == "plain":
        for k in range(1, n_points):
            x = 2 * mp.pi * k / n_points
            z = mp.expj(x)
            nodes.append((z, mp.conj(z), weight_on_circle(x, params), mp.mpf(1) / n_points))
    else:
        for k in range(n_points):
            t = (k + mp.mpf("0.5")) * mp.pi / n_points
            x = mp.pi * (1 - mp.cos(t))
            z = mp.expj(x)
            node_w = mp.pi * mp.sin(t) / (2 * n_points)  # (1/2pi) dx = pi sin(t) dt / 2pi
            nodes.append((z, mp.conj(z), weight_on_circle(x, params), node_w))
    _GRID_CACHE[key] = nodes
    return nodes


def _integrate_levels(make_term, params, gamma, cfg):
    """Refine (1/2pi) * integral of term(x) w(x) dx until tolerance is met.

    `make_term(z, zbar)` supplies the weightless part of the integrand.
    Returns (value, per-level refinement differences, points used).
    """
    rule = "plain" if gamma > 2 else "substituted"
    values = []
    diffs = []
    n = cfg.num_points
    for level in range(cfg.refinement_levels + 1):
        nodes = _weight_grid(params, rule, n)
        terms = [w_node * make_term(z, zbar) * nw for (z, zbar, w_node, nw) in nodes]
        values.append(_pairwise_sum(terms))
        if level > 0:
            diffs.append(abs(values[-1] - values[-2]))
            if diffs[-1] <= cfg.tolerance * max(1, abs(values[-1])):
                return values[-1], diffs, n
        n *= 2
    raise QuadratureConvergenceError(
        f"no convergence to {cfg.tolerance} within {cfg.refinement_levels} refinements "
        f"(last difference {diffs[-1] if diffs else 'n/a'})"
    )


def _zeroth_moment(params: Params, cfg: QuadConfig):
    gamma = _mpf(params.alpha + params.beta)
    value, _, _ = _integrate_levels(lambda z, zbar: 1, params, gamma, cfg)
    return value


def classical_quad(n: int, m: int, params: Params, cfg: QuadConfig | None = None) -> QuadResult:
    """Numeric inner product of member n against partner m, self-normalised.

    Approximates the circle integral of P_n(z) Q_m(1/z) w(z) divided by the
    same integral at n = m = 0, so the exact counterpart is
    norm_ratio(n) * delta_{nm}.
    """
    cfg = cfg or QuadConfig()
    if not params.is_positive:
        raise ValueError("positivity (alpha, beta, alpha+beta > -1) required")
    with mp.workprec(cfg.precision_bits):
        gamma = _mpf(params.alpha + params.beta)
        p_c = _mp_coeffs(hr_poly_robust(n, params))
        q_c = _mp_coeffs(hr_partner(m, params))
        den = _zeroth_moment(params, cfg)
        num, diffs, pts = _integrate_levels(
            lambda z, zbar: _horner(p_c, z) * _horner(q_c, zbar), params, gamma, cfg
        )
        ratio = num / den
        est = diffs[-1] / abs(den)
    return QuadResult(ratio, est, pts, tuple(diffs))


def _denominator_guard(base_poly, threshold=1e-3, samples=512):
    coeffs = _mp_coeffs(base_poly)
    mags = []
    for k in range(samples):
        z = mp.expj(2 * mp.pi * k / samples)
        mags.append(abs(_horner(coeffs, z)))
    lo, hi = min(mags), max(mags)
    if lo < threshold * hi:
        raise DenominatorNearZeroError(
            f"weight denominator nearly vanishes on the contour "
            f"(min |p| = {mp.nstr(lo, 5)}, max |p| = {mp.nstr(hi, 5)})"
        )


def exceptional_quad(
    idx_n: XIndex, idx_m: XIndex, params: Params, cfg: QuadConfig | None = None
) -> QuadResult:
    """Numeric exceptional biorthogonality integral in units of the zeroth moment.

    The exact counterpart is x_norm_ratio(idx_n) * delta_{nm}.  Refuses to
    integrate when the squared denominator of the exceptional weight comes
    close to zero on the contour (reported, not silently mis-integrated).
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
        # z = 1 exponent of the full exceptional weight
        shift = 1 if factor.linear_power == 1 else -1
        gamma = _mpf(params.alpha + params.beta) + shift
        p_c = _mp_coeffs(x_poly(idx_n, params).poly)
        q_c = _mp_coeffs(x_partner(idx_m, params).poly)
        const = _mpf(factor.constant_ratio)
        base_c = _mp_coeffs(factor.denominator_base)
        power = factor.monomial_power
        plus = factor.linear_power == 1

        def term(z, zbar):
            den = _horner(base_c, z)
            lin = (z - 1) if plus else 1 / (1 - z)
            ratio = const * z**power * lin / (den * den)
            return ratio * _horner(p_c, z) * _horner(q_c, zbar)

        den_int = _zeroth_moment(params, cfg)
        num, diffs, pts = _integrate_levels(term, params, gamma, cfg)
        ratio = num / den_int
        est = diffs[-1] / abs(den_int)
    return QuadResult(ratio, est, pts, tuple(diffs))
