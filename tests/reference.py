"""Reference routes that only the tests use: the package computes none of these.

  build_via_ttrr   P_n from the three-term recurrence, the second route that
                   `hr_poly` is compared with
  moment_value and inner_product
                   one normalised moment of a `moments` table, and the
                   pairing <w f, g-bar> summed term by term, which the
                   integer weighting `_moment_weights` is compared with
  is_monic         a nonzero polynomial with leading coefficient 1
  reference_twisted_coeffs
                   the twist coefficients from the two-level recurrence in
                   the b's of shifted pairs, which the closed product form
                   of `twisted_coeffs` is compared with
  long_division    quotient and remainder of two polynomials by Fraction
                   long division, which `divmod` on `Poly` is compared with
  stacked_expansion
                   the coefficients sum_l a_l c_{n-l,m} of a left side's
                   backward images, summed as Fractions over the full
                   expansion rows, which certify's one residual replaces
  shifted_family_residual
                   certify's residual with its right side summed over the
                   window's P_j(.; alpha+1, beta-1), each weighted by
                   b_j xi_j, which the one L2 of `_image_residual` over the
                   P_j at (alpha, beta) is compared with
  weight_factor_by_type
                   the exceptional-to-classical weight ratio written out per
                   type, with a classical P_l0 as the squared base and a
                   constant of its own, which `x_weight_factor`'s
                   kappa z^m (z-1)^(+-1) / eta^2 is compared with
  example_a_oracles and example3_middle_coefficient_as_published
                   the published left-side coefficients of the l0 = 1, n = 5
                   reference cases, and the published (wrong) sign of the
                   type-3 middle right-side coefficient
  darboux_route_poly and xp4_derivative_factor
                   one member from the seed's Darboux pair through `psi_hat`,
                   and the type-4 derivative law at one n, member by member:
                   the per-n routes of the laws that verify proves once per
                   seed on the n-free pairs
  backward_apply   the backward operator on one expanded (Laurent)
                   polynomial, with one long division per input: the
                   member-by-member route of the image pair `backward_pair`
                   gives once per seed
"""

from fractions import Fraction

from xlbp.exact_core import Poly
from xlbp.darboux import SeedType, _first_order_coefficient, make_seed, psi_hat, xi
from xlbp.hr_classical import ParameterPoleError, Params, hr_poly, pochhammer, ttrr_b, ttrr_coeffs
from xlbp.recurrence import _c_row, _c_vector, example_oracles
from xlbp.xhr import InadmissibleIndexError, WeightFactor, XIndex, x_poly


def build_via_ttrr(n: int, params: Params) -> Poly:
    """P_n built from P_{k+1} = z(P_k + b_k P_{k-1}) - d_k P_k.

    Must agree with `hr_poly` in value, or raise the same pole message, at
    every (n, alpha, beta).
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n == 0:
        return Poly.one()
    if params.alpha + 1 == 0:
        raise ParameterPoleError("alpha+1 = 0")
    z = Poly.x()
    prev = Poly.one()
    cur = z + Poly((params.beta / (params.alpha + 1),))
    for k in range(1, n):
        d_k, b_k = ttrr_coeffs(k, params)
        nxt = z * (cur + b_k * prev) - d_k * cur
        prev, cur = cur, nxt
    return cur


def is_monic(p: Poly) -> bool:
    return not p.is_zero and p.leading == 1


def reference_twisted_coeffs(n: int, j: int, params: Params, side: str) -> list:
    """Twist coefficients from the two-level recurrence, the table rebuilt per call.

    Level t of the P side combines entries (m, t-1) and (m-1, t-1) with b_m
    at (alpha+t-1, beta-t+1), m ascending; the Q side keeps n fixed and
    picks up b_{n-l+1} at (beta-t, alpha+t).  A parameter pole is raised by
    the first b that reads a zero factor, and the closed form
    `twisted_coeffs` must name that same factor.
    """
    if side == "P":
        table = {}
        for m in range(n - j + 1, n + 1):
            if m < 0:
                continue
            table[(m, 0)] = {}
        for t in range(1, j + 1):
            for m in range(n - (j - t), n + 1):
                if m < 0:
                    continue
                shift_b = ttrr_b(m, params.shifted(t - 1, -(t - 1)))
                prev = table.get((m, t - 1), {})
                prev_down = table.get((m - 1, t - 1), {})
                cur = {}
                for l in range(1, min(t, m) + 1):
                    up = prev.get(l, Fraction(0))
                    down = Fraction(1) if l == 1 else prev_down.get(l - 1, Fraction(0))
                    cur[l] = up + shift_b * down
                table[(m, t)] = cur
        final = table[(n, j)]
    else:
        final = {0: Fraction(1)}
        for t in range(1, j + 1):
            swapped = Params(params.beta - t, params.alpha + t)
            nxt = {0: Fraction(1)}
            for l in range(1, t + 1):
                up = final.get(l, Fraction(0))
                down = final.get(l - 1, Fraction(0))
                nxt[l] = up + ttrr_b(n - l + 1, swapped) * down
            final = nxt
    return [final.get(l, Fraction(0)) for l in range(1, j + 1)]


_EXAMPLE_A = {
    1: lambda a, b: [
        Fraction(1),
        -10 * (5 + a + b) / ((5 + a) * (7 + a)),
        20 * (4 + a + b) * (5 + a + b) / ((4 + a) * (5 + a) * (6 + a) * (7 + a)),
    ],
    2: lambda a, b: [
        Fraction(1),
        -10 * (5 + a + b) / ((5 + a) * (7 + a)),
        20 * (4 + a + b) * (5 + a + b) / ((4 + a) * (5 + a) * (6 + a) * (7 + a)),
    ],
    3: lambda a, b: [
        Fraction(1),
        -10 * (5 + a + b) * (7 + a + b) / ((5 + a) * (8 + a) * (6 + a + b)),
        20 * (4 + a + b) * (7 + a + b) / ((4 + a) * (5 + a) * (7 + a) * (8 + a)),
    ],
    4: lambda a, b: [
        Fraction(1),
        -35 * (5 + a + b) / (3 * (5 + a) * (8 + a)),
        28 * (4 + a + b) * (5 + a + b) / ((4 + a) * (5 + a) * (7 + a) * (8 + a)),
    ],
}


def example_a_oracles(example_id: int, params: Params) -> list:
    """Golden left-side coefficients for the reference cases (l0=1, n=5)."""
    if example_id not in _EXAMPLE_A:
        raise ValueError("example_id must be 1, 2, 3 or 4")
    return [Fraction(v) for v in _EXAMPLE_A[example_id](params.alpha, params.beta)]


def example3_middle_coefficient_as_published(params: Params) -> Fraction:
    """The type-3 reference case's j = 5 coefficient with its published sign.

    The published value violates the certified relation; its negation, which
    `example_oracles` stores, satisfies it exactly.
    """
    return -example_oracles(3, params)[5]


def long_division(a: dict, a_lo: int, b: dict, b_lo: int) -> tuple:
    """Long division of sum a[e] z^(e-a_lo) by sum b[e] z^(e-b_lo), both true polynomials.

    a and b map exponents to nonzero Fractions.  Returns the quotient and
    remainder as such dicts, shifted back by z^(a_lo-b_lo) and z^a_lo
    respectively.
    """
    num = [a.get(a_lo + k, Fraction(0)) for k in range(max(a) - a_lo + 1)]
    den = [b.get(b_lo + k, Fraction(0)) for k in range(max(b) - b_lo + 1)]
    quot = {}
    for i in range(len(num) - 1, len(den) - 2, -1):
        c = num[i] / den[-1]
        if c:
            quot[a_lo - b_lo + i - len(den) + 1] = c
        for j, v in enumerate(den):
            num[i - len(den) + 1 + j] -= c * v
    return quot, {a_lo + k: c for k, c in enumerate(num) if c}


def stacked_expansion(idx, a, params: Params) -> list:
    """sum_l a_l c_{n-l,m} for m = 0..n+l0+1, as Fractions from the full rows `_c_row`.

    At n = 2*l0+1 the type-1 left side reaches down to the member n-l = l0,
    which vanishes identically: its row is empty and its slot unconstrained.
    """
    j0, l0, n = idx.j0, idx.l0, idx.n
    rows = [
        _c_row(j0, l0, n - l, params) if XIndex(j0, l0, n - l).is_admissible else ((), 1)
        for l in range(len(a))
    ]
    return [
        sum(
            (a_l * Fraction(nums[m], den) for a_l, (nums, den) in zip(a, rows) if m < len(nums)),
            Fraction(0),
        )
        for m in range(n + l0 + 2)
    ]


def shifted_family_residual(idx, a, b: dict, params: Params) -> Poly:
    """sum_l a_l I_{n-l} - sum_j b_j xi_j P_j(.; alpha+1, beta-1), one P_j per window index.

    The type-4 added state j = -l0-1 sits at theta, so its xi_j is zero and
    it is skipped, as is every zero b_j; the type-1 member at n-l = l0 has
    no image.
    """
    j0, l0, n = idx.j0, idx.l0, idx.n
    shifted = params.shifted(1, -1)
    out = Poly.zero()
    for l, a_l in enumerate(a):
        if a_l and XIndex(j0, l0, n - l).is_admissible:
            out = out + Fraction(a_l) * _c_vector(j0, l0, n - l, params)[0]
    for j, v in b.items():
        weight = v * xi(j0, l0, j, params)
        if weight:
            out = out - weight * hr_poly(j, shifted)
    return out


def weight_factor_by_type(j0, l0: int, params: Params) -> WeightFactor:
    """(exceptional weight)/(classical weight) for (j0, l0), one branch per type.

    Types 1 and 2 square the seed polynomial P_l0 at (alpha, beta) and at
    (-beta, -alpha); types 3 and 4 square P_l0 at (beta-1, alpha+1) and at
    (-alpha-1, 1-beta) and take the reciprocal constants.  Each branch refuses
    the zero denominator of its own constant.
    """
    j0 = SeedType(j0)
    a, b = params.alpha, params.beta
    if j0 is SeedType.T1:
        den = pochhammer(a + 1, l0)
        if den == 0:
            raise ParameterPoleError(f"(alpha+1)_{l0} = 0")
        return WeightFactor(pochhammer(b, l0) / den, l0, 1, hr_poly(l0, params))
    if j0 is SeedType.T2:
        den = pochhammer(-b + 1, l0)
        if den == 0:
            raise ParameterPoleError(f"(1-beta)_{l0} = 0")
        return WeightFactor(pochhammer(-a, l0) / den, l0 + 1, -1, hr_poly(l0, params.negated()))
    if j0 is SeedType.T3:
        den = pochhammer(b, l0)
        if den == 0:
            raise ParameterPoleError(f"(beta)_{l0} = 0")
        return WeightFactor(pochhammer(a + 1, l0) / den, l0, 1, hr_poly(l0, Params(b - 1, a + 1)))
    den = pochhammer(-a, l0)
    if den == 0:
        raise ParameterPoleError(f"(-alpha)_{l0} = 0")
    return WeightFactor(
        pochhammer(-b + 1, l0) / den, l0 + 1, -1, hr_poly(l0, Params(-a - 1, -b + 1))
    )


def moment_value(table, k: int) -> Fraction:
    """Moment k of a `moments` table; an index outside its range is a ValueError."""
    if not table.k_min <= k <= table.k_max:
        raise ValueError(f"moment index {k} outside table range [{table.k_min}, {table.k_max}]")
    return table.values[k - table.k_min]


def inner_product(f, g, table) -> Fraction:
    """<w f, g-bar> in units of the zeroth moment.

    Both arguments may have poles at 0.  Equals the sum over k of the z^k
    coefficient of f(z) g(1/z) times the normalised moment k.
    """
    return sum((v * moment_value(table, e) for e, v in (f * g.inverted()).items()), Fraction(0))


def darboux_route_poly(idx: XIndex, params: Params) -> Poly:
    """z^l0-normalised transformed eigenfunction as a true polynomial.

    Built from the seed's Darboux pair, not the compact pair; equals
    compact_darboux_sign(j0) * x_poly(idx, params).  The added state has no
    such route and is refused.
    """
    idx.require_admissible()
    if idx.n < 0:
        raise InadmissibleIndexError("the added state is not a polynomial")
    ph = psi_hat(idx.j0, idx.l0, idx.n, params)
    if idx.j0 in (SeedType.T3, SeedType.T4):
        ph = ph.shifted(idx.l0)
    return ph.require_polynomial()


def xp4_derivative_factor(l0: int, n: int, params: Params) -> Poly | None:
    """Common-factor law for type-4 derivatives at one n.

    (P^(4,l0,n))' = (n+l0+1)(n+alpha+1) * [z^l0 p_l0] * P_n(z; alpha+1, beta-1)
    where z^l0 p_l0 is the rescaled seed polynomial.  Exact coefficientwise
    comparison: None when the law holds, else the nonzero residual lhs - rhs.
    """
    lhs = x_poly(XIndex(SeedType.T4, l0, n), params).derivative()
    seed = make_seed(SeedType.T4, l0, params)
    rhs = (n + l0 + 1) * (n + params.alpha + 1) * seed.p_poly * hr_poly(n, params.shifted(1, -1))
    diff = lhs - rhs
    return None if diff.is_zero else diff


def backward_apply(j0: SeedType, l0: int, p: Poly, params: Params) -> tuple:
    """Apply the backward operator to a (Laurent) polynomial: (image, remainder).

    Forms z(1-z) p' + (type-specific linear) p and divides it by the
    A of the seed's `darboux_pair`, returning `divmod`'s quotient and remainder.
    The input is in the transformed family's span exactly when the remainder
    is zero; a nonzero remainder is returned as the witness rather than
    raised.
    """
    j0 = SeedType(j0)
    if p.is_zero:
        raise ValueError("backward operator input must be nonzero")
    divisor = make_seed(j0, l0, params).darboux_pair[0]
    numerator = Poly((0, 1, -1)) * p.derivative() + _first_order_coefficient(j0, l0, params) * p
    return divmod(numerator, divisor)
