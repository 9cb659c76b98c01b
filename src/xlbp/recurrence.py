"""Construction and exact certification of the exceptional recurrence relations.

For each family the product of a fixed degree-(l0+1) polynomial q with a short
linear combination of consecutive family members re-expands inside a sliding
window of 2l0+2 members, giving a relation with 3l0+4 distinct terms.  The
certification pipeline:

  1. apply the backward operator to q * (transformed eigenfunction) of each
     member m: the image I_m, whose coefficients c_{m,j} in the classical
     basis P_j(.; alpha+1, beta-1) are integer numerators over one
     denominator per member.  The operator runs once per seed, on the
     n-free pair q (A, B) of the seed's Darboux pair (A, B); the image pair
     it leaves gives I_m = (E0 + m E1) P_m' + (F0 + m F1) P_m.  Row j of
     the expansion reads only the image's terms of degree j and above, so
     the 2l0+4 rows j = m-2l0-3..m come from the top 3l0+5 terms of I_m,
     taken from the top of P_m and the integer image pair, with no image
     built;
  2. solve the exact nullspace condition for the left-side a coefficients
     (authoritative route) on the integer numerator columns of the l0+3
     window-vanishing rows just below the window, which those rows of the
     members n-l0-1..n hold, rescaling each nullspace component by its
     column's denominator.  A rank-deficient block is solved again on the
     bottom l0+3 rows, from built images, and then on every row from the
     full expansions.  The closed formula route is cross-checked;
  3. expand the left side over the window members for the right-side b
     coefficients: the members have distinct degrees, so back-substitution
     from the top degree down finds b.  The window is every admissible
     index in its range, so the index set alone decides its members.  A
     sharp window's members take every degree of its own range, the top
     2l0+2 of the left side, so from n = 4l0+5 on b is found there alone,
     from each member's top terms, built from the top of P_j and the
     n-free member pair (A, B) without building the member; the relation
     is then proved at every degree as the integer residual
     A (q S1' - S2') + B (q S1 - S2) = 0, S1 = sum_l a_l P_{n-l} and
     S2 = sum_j b_j P_j.  Below that, and over the thm11 window,
     `xhr.x_poly` builds each whole member, the type-4 added state
     included, and what back-substitution leaves over is the residual,
     which must be the zero polynomial;
  4. apply the backward operator to the relation itself: with xi_j the
     backward eigenvalues, the residual
         R = sum_l a_l I_{n-l} - sum_{j in window} b_j xi_j P_j(.; alpha+1, beta-1)
     must be the zero polynomial (the type-4 added state j = -l0-1 is the
     seed eigenvalue theta, so its xi_j is zero and its term drops).  The
     P_j are independent, so R = 0 exactly when e_j = sum_l a_l c_{n-l,j}
     equals b_j xi_j at every j: the b cross-route e_j / xi_j = b_j where
     xi_j != 0, e_j = 0 where xi_j = 0, and every window-vanishing row, so
     the a of step 2 holds on the rows it was not solved on.  The left side
     is E0 S1' + E1 T1' + F0 S1 + F1 T1 in the image pair's n-free entries,
     with S1 = sum_l a_l P_{n-l} and T1 = sum_l a_l (n-l) P_{n-l}, so no
     member's image is built.  By l2-shift the right side is L2 S, with
     L2 p = (1-z) p' - (alpha+1) p and S = sum_j b_j (j-theta) P_j over the
     window's P_j at (alpha, beta), so nothing is built at
     (alpha+1, beta-1).  R is accumulated as integer numerators over one
     denominator, in both modes; only a nonzero R is expanded, to name the
     first j where the routes disagree.

A certificate is only produced when every step succeeds exactly; failures
raise CertificationError rather than degrade.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import lcm
from operator import add, mul, sub

from .darboux import SeedType, backward_pair, make_seed, psi_hat, seed_theta, xi
from .exact_core import Poly, _mul, solve_exact
from .hr_classical import (
    CertificationError,
    ParameterPoleError,
    Params,
    expand_in_hr_basis,
    hr_poly,
    twisted_coeffs,
)
from .xhr import XIndex, _member_pair, _member_parts, x_poly

__all__ = [
    "CertificationError",
    "RecurrenceCertificate",
    "SolverOutcome",
    "q_poly",
    "a_coeffs_formula",
    "a_coeffs_solver",
    "certify",
    "example_oracles",
]


# every certificate and c-vector of one (j0, l0, pair) shares this factor
@lru_cache(maxsize=64)
def q_poly(j0: SeedType, l0: int, params: Params) -> Poly:
    """The fixed left factor: degree l0+1 (less where the seed's drops), divisible by z.

    The antiderivative of the seed polynomial `make_seed(...).p_poly` (the
    z^l0-rescaled one for types 3 and 4) with q(0) = 0, so it is defined
    exactly where the seed is.
    """
    p = make_seed(j0, l0, params).p_poly
    return Poly((0,) + tuple(c / (k + 1) for k, c in enumerate(p.coeffs)))


def _block_rows(l0: int) -> int:
    """How many window-vanishing rows each block of the solver holds: l0 + 3.

    l0 + 2 unknowns with a one-dimensional solution space need rank l0 + 1;
    a block reaches it within l0 + 2 rows except at non-generic parameters,
    which the fallbacks to the other block and to every row handle.
    """
    return l0 + 3


# one entry per seed, like make_seed's
@lru_cache(maxsize=256)
def _image_pair(j0: SeedType, l0: int, params: Params) -> tuple:
    """((E0, E1), (F0, F1)): I_m = (E0 + m E1) P_m' + (F0 + m F1) P_m at every m.

    The backward operator applied once to the n-free pair q (A, B), with
    (A, B) the seed's Darboux pair, so that q (A P_m' + B P_m) = q psi_hat_m.
    The image is built from the seed and P_m alone, never from the members
    that the b-route expands, so the cross-route stays independent of it.
    """
    q = q_poly(j0, l0, params)
    a, b = make_seed(j0, l0, params).darboux_pair
    pair, remainder = backward_pair(j0, l0, (q * a, q * b), params)
    if not remainder.is_zero:
        raise CertificationError(
            "backward image of q * psi_hat is not in the family span",
            residual=remainder,
        )
    return pair


# one entry per seed, like _image_pair's
@lru_cache(maxsize=256)
def _image_numerators(j0: SeedType, l0: int, params: Params) -> tuple | None:
    """((E0, E1, F0, F1), D): `_image_pair` over one denominator (`_numerators`).

    None where an entry has a pole at 0: a member's image can still be a
    polynomial there, and only `_c_vector`, which builds it, decides.
    """
    (e0, e1), (f0, f1) = _image_pair(j0, l0, params)
    entries = (e0, e1, f0, f1)
    if min(p.min_exp for p in entries) < 0:
        return None
    return _numerators(entries)


# bounded like the polynomial caches in hr_classical: one full run of any
# workload in bench/ leaves at most 110 entries.  An entry is the image and
# l0+3 expansion rows, so its size grows with m only through the image,
# which the seed's cached image pair builds from P_m
@lru_cache(maxsize=256)
def _c_vector(j0: SeedType, l0: int, m: int, params: Params) -> tuple:
    """(image, numerators, denominator) for member m: its whole image and bottom rows.

    image is the backward image I_m of q * psi_hat_m, of degree at most
    m+l0+1, built from the seed's `_image_pair` and P_m, and
    numerators[j]/denominator = c_{m,j} is its coefficient of
    P_j(.; alpha+1, beta-1) for the bottom rows j < l0+3, which the solver
    reads where the rows below the window (`_c_top`) leave a too large
    solution space (zero above the image's degree).  The full rows
    (`_c_row`) expand the image, and so does `_c_top` where the top terms
    cannot decide a member.  A vanishing member has a zero image, and only
    then is psi_hat built: it names the parameter pole, and the excluded
    type-1 member, which vanishes identically, is no input at all.
    """
    (e0, e1), (f0, f1) = _image_pair(j0, l0, params)
    p_m = hr_poly(m, params)
    image = (e0 + m * e1) * p_m.derivative() + (f0 + m * f1) * p_m
    if image.is_zero and psi_hat(j0, l0, m, params).is_zero:
        raise ValueError("backward operator input must be nonzero")
    image = image.require_polynomial()
    block = _block_rows(l0)
    # the image has degree m+l0+1 unless a parameter value lowers it
    rows = range(min(block, image.degree + 1))
    values, den = expand_in_hr_basis(image, params.shifted(1, -1), rows)
    return image, tuple(values) + (0,) * (block - len(values)), den


def _c_row(j0: SeedType, l0: int, m: int, params: Params) -> tuple:
    """(numerators, denominator) of the full expansion c_{m,0..m+l0+1} of member m."""
    image, _, den = _c_vector(j0, l0, m, params)
    nums, _ = expand_in_hr_basis(image, params.shifted(1, -1))
    return tuple(nums) + (0,) * (m + l0 + 2 - len(nums)), den


# bounded like the polynomial caches in hr_classical: one full run of any
# workload in bench/ leaves at most 1914 entries, each 2l0+4 rows.  n and
# n+1 read the rows of the members they share
@lru_cache(maxsize=4096)
def _c_top(j0: SeedType, l0: int, m: int, params: Params) -> tuple:
    """(numerators, denominator): c_{m,j} = numerators[j-m+2l0+3]/denominator, j = m-2l0-3..m.

    The solver's first block is the l0+3 window-vanishing rows just below
    the window, and these 2l0+4 rows are all it reads of member m at every
    n whose left side holds m (rows below 0 read as zero).  Row j of the
    expansion reads only the image's terms of degree j and above
    (`_top_expansion`), so the top 3l0+5 terms of I_m = (E0 + m E1) P_m' +
    (F0 + m F1) P_m, from the top of P_m and the seed's integer image pair
    (`_pair_top`), give them, and no image is built.  Where the top terms
    cannot decide, `_c_vector` builds the image and its checks decide: a
    pair with a pole at 0, no term of degree m-2l0-3 or above (a vanishing
    member among them), and an expansion pole, alpha+1+k = 0 for some
    k <= deg I_m, which the top rows never divide by.
    """
    pair = _image_numerators(j0, l0, params)
    p_m = hr_poly(m, params)
    start = m - 2 * l0 - 3
    lo = max(0, start)
    top = []
    if pair is not None:
        (e0, e1, f0, f1), pair_den = pair
        e = [u + m * v for u, v in zip(e0, e1)]
        f = [u + m * v for u, v in zip(f0, f1)]
        top = _pair_top(e, f, p_m, lo)
        while top and not top[-1]:
            top.pop()
    shifted = params.shifted(1, -1)
    k = -shifted.alpha  # the expansion's pole, alpha+1+k = 0
    if not top or (k.denominator == 1 and 0 < k < lo + len(top)):
        image = _c_vector(j0, l0, m, params)[0]
        rows, den = expand_in_hr_basis(image, shifted, range(lo, min(m, image.degree) + 1))
    else:
        rows, den = _top_expansion(top, lo, m, shifted)
        den *= pair_den * p_m.denominator
    return (0,) * (lo - start) + tuple(rows) + (0,) * (m + 1 - lo - len(rows)), den


def _top_expansion(f: list, lo: int, hi: int, params: Params) -> tuple:
    """(numerators, D): rows lo..hi of `expand_in_hr_basis` (fewer above f's top), from f.

    f[i] is the z^(lo+i) coefficient, and no term below lo is read: row j
    is e_j = A_j sum_{t>=j} (f_t/A_t) w_{t-j}.  With alpha = p/r and
    beta = s/u, A_t/A_(t-1) = (p+tr)/(tr) and w_d/w_(d-1) = ((d-1)u-s)/(du),
    so A_j/A_t and w_d over the degrees lo..top are short products of small
    integers, where the whole expansion takes lcms over A_0..A_top.  The
    rows are not reduced; D > 0.  Needs p+kr != 0 for lo < k <= top.
    """
    p, r = params.alpha.numerator, params.alpha.denominator
    s, u = params.beta.numerator, params.beta.denominator
    size = len(f)
    hi = min(hi, lo + size - 1)
    # f_t/A_t = g_t / (A_lo up), g_t = f_t prod_{lo<k<=t} kr prod_{t<k<=top} (p+kr)
    ks = range(lo + 1, lo + size)
    down = _prefix_products([k * r for k in ks])
    up = _prefix_products([p + k * r for k in reversed(ks)])
    g = [v * down[i] * up[size - 1 - i] for i, v in enumerate(f)]
    # w_d = ws[d] / w_den, ws[d] = prod_{i<=d} ((i-1)u-s) prod_{d<i<size} iu
    rising = _prefix_products([(i - 1) * u - s for i in range(1, size)])
    w_den = _prefix_products([i * u for i in range(size - 1, 0, -1)])
    ws = [rising[d] * w_den[size - 1 - d] for d in range(size)]
    # A_j/A_lo = h_j / h_den, h_j = prod_{lo<k<=j} (p+kr) prod_{j<k<=hi} kr
    rows = hi - lo + 1
    h_num = _prefix_products([p + k * r for k in range(lo + 1, hi + 1)])
    h_den = _prefix_products([k * r for k in range(hi, lo, -1)])
    out = [h_num[i] * h_den[rows - 1 - i] * sum(map(mul, g[i:], ws)) for i in range(rows)]
    total = h_den[-1] * up[-1] * w_den[-1]
    if total < 0:
        return [-v for v in out], -total
    return out, total


def _prefix_products(terms: list) -> list:
    """prod(terms[:i]) for i = 0..len(terms)."""
    out = [1] * (len(terms) + 1)
    for i, v in enumerate(terms):
        out[i + 1] = out[i] * v
    return out


def a_coeffs_formula(idx: XIndex, params: Params) -> list:
    """Closed-form left-side coefficients, a_0 = 1.

    Types 1, 2: the (l0+1)-fold twist coefficients at (alpha, beta).
    Types 3, 4: the same coefficients at (alpha+1, beta-1), scaled by the ratio
    xi(n)/xi(n-l) of the full backward eigenvalues -(m-theta)(m+alpha+1).
    The twist coefficients come from their closed product form
    (`twisted_coeffs`), so this is a route independent of the c-route
    solver it cross-checks.
    """
    j0, l0, n = idx.j0, idx.l0, idx.n
    if n < 2 * l0 + 1:
        raise ValueError("closed-form a coefficients require n >= 2*l0 + 1")
    if j0 in (SeedType.T1, SeedType.T2):
        return [Fraction(1)] + twisted_coeffs(n, l0 + 1, params, side="P")
    base = twisted_coeffs(n, l0 + 1, params.shifted(1, -1), side="P")
    num = xi(j0, l0, n, params)
    out = [Fraction(1)]
    for l, c in enumerate(base, start=1):
        den = xi(j0, l0, n - l, params)
        if den == 0:
            raise ParameterPoleError(f"backward eigenvalue vanishes at n-l = {n - l}")
        out.append(c * num / den)
    return out


def _accumulate(terms: list, size: int) -> tuple:
    """(numerators, Q) of sum c p over (Fraction c, Poly p) terms, unreduced.

    numerators[k]/Q is the z^k coefficient, k < size, and Q is the lcm of
    the terms' denominators.
    """
    den = lcm(*(c.denominator * p.denominator for c, p in terms))
    acc = [0] * size
    for c, p in terms:
        weight = c.numerator * (den // (c.denominator * p.denominator))
        lo = p.min_exp
        hi = lo + len(p.numerators)
        acc[lo:hi] = map(add, acc[lo:hi], map(weight.__mul__, p.numerators))
    return acc, den


def _image_sum(idx: XIndex, a, params: Params) -> tuple:
    """(numerators, Q): sum_l a_l I_{n-l}, numerators[k]/Q its z^k coefficient, k < n+l0+2.

    With the seed's image pair, I_m = (E0 + m E1) P_m' + (F0 + m F1) P_m,
    so the sum is E0 S1' + E1 T1' + F0 S1 + F1 T1 with S1 = sum_l a_l
    P_{n-l} and T1 = sum_l a_l (n-l) P_{n-l}, integer numerators over one
    lcm: no image is built.  Each member's top rows
    (`_c_top`) are read first, so a member is refused as `_c_vector`
    refuses it; where the image pair has a pole at 0, the images built
    there are summed.  The type-1 member at n-l = l0 vanishes and has no
    image; its slot contributes nothing.
    """
    j0, l0, n = idx.j0, idx.l0, idx.n
    size = n + l0 + 2
    left = [(a_l, n - l) for l, a_l in enumerate(a) if a_l and XIndex(j0, l0, n - l).is_admissible]
    for _, m in left:
        _c_top(j0, l0, m, params)
    pair = _image_numerators(j0, l0, params)
    if pair is None:
        return _accumulate([(c, _c_vector(j0, l0, m, params)[0]) for c, m in left], size)
    (e0, e1, f0, f1), pair_den = pair
    # S1 and T1 over one denominator, the P_{n-l} of degree n at most
    left = [(c, m, hr_poly(m, params)) for c, m in left]
    den = lcm(*(c.denominator * p.denominator for c, _, p in left))
    s1, t1 = [0] * (n + 1), [0] * (n + 1)
    for c, m, p in left:
        weight = c.numerator * (den // (c.denominator * p.denominator))
        lo, hi = p.min_exp, p.min_exp + len(p.numerators)
        s1[lo:hi] = map(add, s1[lo:hi], map(weight.__mul__, p.numerators))
        weight *= m
        t1[lo:hi] = map(add, t1[lo:hi], map(weight.__mul__, p.numerators))
    # the z^(i-1) coefficient of E0 S1' + F0 S1 takes s1[j] (F0[i-1-j] +
    # j E0[i-j]) at each j, and that of E1 T1' + F1 T1 the same of t1[j]
    def linear(u, v):
        """u + v j for j = 0..n."""
        return range(u, u + v * (n + 1), v) if v else repeat(u, n + 1)

    out = [0] * (len(e0) + n + 1)
    for i, (u0, v0, u1, v1) in enumerate(zip([0, *f0], [*e0, 0], [0, *f1], [*e1, 0])):
        if u0 or v0 or u1 or v1:
            row = map(add, map(mul, s1, linear(u0, v0)), map(mul, t1, linear(u1, v1)))
            out[i : i + n + 1] = map(add, out[i : i + n + 1], row)
    return (out[1:] + [0] * size)[:size], den * pair_den


def _image_residual(idx: XIndex, a, b: dict, params: Params) -> tuple:
    """(numerators, Q): sum_l a_l I_{n-l} - sum_j b_j xi_j P_j(.; alpha+1, beta-1).

    numerators[k]/Q is the z^k coefficient, k = 0..n+l0+1.  By l2-shift,
    xi_j P_j(.; alpha+1, beta-1) = (j-theta) L2 P_j with L2 p = (1-z) p' -
    (alpha+1) p, so the right side is L2 S for S = sum_j b_j (j-theta) P_j,
    built from the P_j at (alpha, beta) that the members were built from.
    The left side (`_image_sum`), S and L2 S are integer numerators over
    lcms of their denominators; nothing is reduced, so R is zero exactly
    when every numerator is.  The type-4 added state j = -l0-1 is the seed
    eigenvalue theta, so its image is zero and its term drops.
    """
    j0, l0, n = idx.j0, idx.l0, idx.n
    size = n + l0 + 2
    images, image_den = _image_sum(idx, a, params)
    theta = seed_theta(j0, l0, params)
    # the added state is the only negative index
    s, s_den = _accumulate(
        [(v * (j - theta), hr_poly(j, params)) for j, v in b.items() if v and j >= 0],
        size + 1,
    )
    # coefficient k of L2 S, alpha+1 = p/r: (r((k+1) s_{k+1} - k s_k) - p s_k) / (s_den r)
    p, r = (params.alpha + 1).numerator, (params.alpha + 1).denominator
    rhs = [r * ((k + 1) * s[k + 1] - k * s[k]) - p * s[k] for k in range(size)]
    rhs_den = s_den * r
    den = lcm(image_den, rhs_den)
    left, right = den // image_den, den // rhs_den
    return [left * u - right * v for u, v in zip(images, rhs)], den


def _dense(p: Poly, den: int, size: int = 0) -> list:
    """p's numerators over den, a multiple of p.denominator, from z^0 up to size at least."""
    scale = den // p.denominator
    nums = [0] * p.min_exp + [scale * v for v in p.numerators]
    return nums + [0] * (size - len(nums))


def _numerators(polys) -> tuple:
    """(numerator lists, D): each of polys from z^0 over one denominator D, all of one length.

    With one length, a product with P' is never longer than one with P,
    whichever entry vanishes or has the lower degree.
    """
    den = lcm(*(p.denominator for p in polys))
    size = max(1, *(p.degree + 1 for p in polys))
    return tuple(_dense(p, den, size) for p in polys), den


# one entry per seed, like _member_pair's
@lru_cache(maxsize=256)
def _pair_numerators(j0: SeedType, l0: int, params: Params) -> tuple:
    """(A numerators, B numerators, D): `_member_pair` over one denominator (`_numerators`)."""
    (a, b), den = _numerators(_member_pair(j0, l0, params))
    return a, b, den


def _pair_top(a: list, b: list, p_m: Poly, bottom: int) -> list:
    """Numerators of a P_m' + b P_m from z^bottom up, over the pair's denominator times P_m's.

    a and b are integer numerators from z^0 of one length w, so a z^k
    coefficient reads P_m only from z^(k-w+1) up: the top of P_m gives
    these terms without building the product.
    """
    start = max(0, bottom - len(b) + 1)
    skip = start - p_m.min_exp
    p = list(p_m.numerators[skip:]) if skip >= 0 else [0] * -skip + list(p_m.numerators)
    dp = [(start + t) * v for t, v in enumerate(p[1:], start=1)]
    top = _mul(b, p)
    if dp:
        top[: len(top) - 1] = map(add, top, _mul(a, dp))
    return top[bottom - start :]


# bounded like x_poly, whose role it takes in thm12 mode from n = 4l0+5 on:
# a window and the next n's share all but one member
@lru_cache(maxsize=256)
def _member_top(j0: SeedType, l0: int, m: int, params: Params) -> Poly:
    """X_m's terms of degree deg X_m - 2l0 - 1 and above: all a sharp window reads of it.

    X_m = A P_m' + B P_m, so the top of P_m and the integer pair give
    these terms without building X_m (`_pair_top`).  The pole checks are x_poly's
    (`_member_parts`).  A top whose degree is not the member's declared one
    can only come from a wrong pair; x_poly then builds the whole member and
    names its degree.
    """
    idx = XIndex(j0, l0, m)
    p_m, _ = _member_parts(idx, params)
    a, b, den = _pair_numerators(j0, l0, params)
    bottom = max(0, idx.degree - 2 * l0 - 1)
    top = Poly.from_numerators(_pair_top(a, b, p_m, bottom), den * p_m.denominator)
    top = top.shifted(bottom)
    if top.degree != idx.degree:
        return _cut(x_poly(idx, params), bottom)
    return top


def _cut(p: Poly, bottom: int) -> Poly:
    """p's terms of degree bottom and above."""
    drop = bottom - p.min_exp
    if drop <= 0:
        return p
    return Poly.from_numerators(p.numerators[drop:], p.denominator).shifted(bottom)


def _relation_residual(idx: XIndex, left: dict, b: dict, params: Params) -> tuple:
    """(numerators, Q): q sum_j left_j X_j - sum_j b_j X_j, left_j = a_l at j = n-l.

    numerators[k]/Q is the z^k coefficient.  Every member is A P_j' + B P_j
    with the n-free pair (A, B), so the relation's residual is
    A (q S1' - S2') + B (q S1 - S2) with S1 = sum_j left_j P_j and
    S2 = sum_j b_j P_j, each integer numerators over one lcm (`_accumulate`).
    Nothing is reduced, so the relation holds exactly when every numerator
    is zero.  Every member here has pair form: `left` omits the vanishing
    type-1 member, and a sharp window holds no added state.
    """
    j0, l0, n = idx.j0, idx.l0, idx.n
    size = n + l0 + 2
    s1, d1 = _accumulate([(c, hr_poly(j, params)) for j, c in left.items() if c], size)
    s2, d2 = _accumulate([(v, hr_poly(j, params)) for j, v in b.items() if v], size)
    q = q_poly(j0, l0, params)
    qn = _dense(q, q.denominator)
    den = lcm(q.denominator * d1, d2)
    w1, w2 = den // (q.denominator * d1), den // d2
    # q S1 - S2 and q S1' - S2', over den
    v = [w1 * u for u in _mul(qn, s1)]
    v[:size] = map(sub, v, (w2 * u for u in s2))
    ds1 = [k * u for k, u in enumerate(s1[1:], start=1)]
    u = [w1 * t for t in _mul(qn, ds1)]
    u[: size - 1] = map(sub, u, (k * w2 * t for k, t in enumerate(s2[1:], start=1)))
    a_nums, b_nums, pair_den = _pair_numerators(j0, l0, params)
    out = _mul(b_nums, v)
    out[: len(out) - 1] = map(add, out, _mul(a_nums, u))
    return out, den * pair_den


@dataclass(frozen=True)
class SolverOutcome:
    """Nullspace solve for the a coefficients: solution and space dimension.

    a and nullity are those of the rows solved: the bottom block, or every
    window-vanishing row after a rank-deficient block.  A block's vector is
    not checked on the other rows here; certify's residual proves it there.
    """

    a: tuple | None
    nullity: int


def a_coeffs_solver(idx: XIndex, params: Params) -> SolverOutcome:
    """Left-side coefficients from the exact window-vanishing conditions.

    The conditions are sum_l a_l c_{n-l,m} = 0 for 0 <= m <= n-l0-1, a
    homogeneous system over (a_0..a_{l0+1}).  Column l holds the integer
    numerators of c_{n-l}, which are D_l times the c values; that scales
    nullspace component l by 1/D_l, so each component is multiplied back by
    D_l before normalising.  A unique normalised solution exists when the
    nullspace is one-dimensional with a nonzero leading component.

    The solve runs on the l0+3 rows just below the window first, read from
    each member's top rows (`_c_top`).  The full nullspace lies in a
    block's, so a block of nullity 0 or 1 leaves at most its own vector,
    which certify's residual then proves on every other row.  A block of
    nullity 2 or more is solved again on the bottom l0+3 rows
    (`_c_vector`), and if that block too leaves two or more dimensions, on
    every row from the full expansions.  The nullity reported is the full
    system's wherever the closed-form a lies in it, whichever block found
    it.

    At n = 2*l0+1 for type 1 the last slot multiplies the identically-zero
    member; the solve runs on the remaining columns (where uniqueness is
    meaningful) and that slot is filled from the closed formula.
    """
    j0, l0, n = idx.j0, idx.l0, idx.n
    if n < 2 * l0 + 1:
        raise ValueError("solver route requires n >= 2*l0 + 1")
    active = [l for l in range(l0 + 2) if XIndex(j0, l0, n - l).is_admissible]
    # the rows n-2l0-3..n-l0-1, or every row where there are no more; the
    # top rows of member n-l start at n-l-2l0-3
    first = max(0, n - 2 * l0 - 3)
    columns = [_c_top(j0, l0, n - l, params) for l in active]
    solution = solve_exact(
        [
            [nums[j - n + l + 2 * l0 + 3] for l, (nums, _) in zip(active, columns)]
            for j in range(first, n - l0)
        ]
    )
    if len(solution.nullspace) > 1 and first:
        columns = [_c_vector(j0, l0, n - l, params)[1:] for l in active]
        solution = solve_exact([[nums[j] for nums, _ in columns] for j in range(_block_rows(l0))])
    if len(solution.nullspace) > 1 and first:
        # member n-l has n-l+l0+2 > n-l0 coefficients, so every row index exists
        columns = [_c_row(j0, l0, n - l, params) for l in active]
        solution = solve_exact([[nums[j] for nums, _ in columns] for j in range(n - l0)])
    nullity = len(solution.nullspace)
    if nullity != 1:
        return SolverOutcome(None, nullity)
    vec = [v * den for v, (_, den) in zip(solution.nullspace[0], columns)]
    if vec[0] == 0:
        return SolverOutcome(None, 1)
    solved = {l: v / vec[0] for l, v in zip(active, vec)}
    if len(solved) < l0 + 2:
        solved = {**dict(enumerate(a_coeffs_formula(idx, params))), **solved}
    return SolverOutcome(tuple(solved[l] for l in range(l0 + 2)), 1)


@dataclass(frozen=True)
class RecurrenceCertificate:
    """Machine-checkable witness of one certified recurrence instance."""

    index: XIndex
    q: Poly
    a: tuple
    b: dict  # j -> Fraction over the window, insertion-ordered ascending j
    window: tuple  # (lo, hi) inclusive
    residual_zero: bool
    b_unique: bool
    method_tags: tuple

    @property
    def term_count(self) -> int:
        """Distinct family members appearing: len(a) + len(b)."""
        return len(self.a) + len(self.b)

    def to_json_dict(self) -> dict:
        return {
            "index": {
                "j0": int(self.index.j0),
                "l0": self.index.l0,
                "n": self.index.n,
            },
            "q": [str(c) for c in self.q.coeffs],
            "a": [str(c) for c in self.a],
            "b": {str(j): str(v) for j, v in self.b.items()},
            "window": list(self.window),
            "residual_zero": self.residual_zero,
            "b_unique": self.b_unique,
            "method_tags": list(self.method_tags),
        }


def _solve_b(lhs: Poly, members: dict) -> dict:
    """Coefficients b with lhs = sum_j b_j members[j], exact.

    The members have distinct degrees, so this is back-substitution from the
    top degree down; what is left over is the residual lhs - sum_j b_j
    members[j], which must be the zero polynomial.  Returns b in the members'
    order.
    """
    if len({p.degree for p in members.values()}) != len(members):
        raise CertificationError("window members share a degree")
    order = sorted(members, key=lambda j: members[j].degree, reverse=True)
    b = {}
    rem = lhs
    for j in order:
        member = members[j]
        if rem.degree > member.degree:
            break  # no member left can cancel the top term of rem
        if rem.degree == member.degree:
            b[j] = rem.leading / member.leading
            rem = rem - b[j] * member
        else:
            b[j] = Fraction(0)
    if not rem.is_zero:
        raise CertificationError(
            "window expansion is inconsistent: the relation fails", residual=rem
        )
    return {j: b[j] for j in members}


def certify(
    idx: XIndex,
    params: Params,
    mode: str = "thm12",
    k: int | None = None,
    a_input=None,
) -> RecurrenceCertificate:
    """Certify the recurrence at one index; every check is exact.

    mode="thm12": the sharp window n-l0..n+l0+1 with solver-route a
    (cross-checked against the closed formulas); requires n >= 2*l0+1.
    mode="thm11": arbitrary left coefficients over l = 0..k (defaults to all
    ones), right window -l0-1..n+l0+1; requires n >= k.
    Both windows hold the admissible indices of their range and nothing
    else, so the thm11 window starts at 0 for types 1-3 and at the added
    state -l0-1 for type 4.
    """
    idx.require_admissible()
    j0, l0, n = idx.j0, idx.l0, idx.n
    tags = [mode]
    if mode == "thm12":
        if n < 2 * l0 + 1:
            raise ValueError("thm12 mode requires n >= 2*l0 + 1")
        outcome = a_coeffs_solver(idx, params)
        a = a_coeffs_formula(idx, params)
        if outcome.a is not None:
            if list(outcome.a) != a:
                raise CertificationError("closed-form a disagrees with solver route")
            tags.append("a-solver")
            tags.append(
                "a-formula-agrees"
                if j0 in (SeedType.T1, SeedType.T2)
                else "a-formula-full-xi-agrees"
            )
        else:
            # non-generic parameters can collapse the window-vanishing rows
            # (e.g. proportional conditions), leaving the solver without a
            # unique normalisation; the closed formula then picks a canonical
            # member of the solution space and the cross-checks below still
            # verify it vanishes on the excluded window
            tags.append(f"a-formula-fallback(nullspace-dim={outcome.nullity})")
        lo = n - l0
    elif mode == "thm11":
        if k is None:
            raise ValueError("thm11 mode needs k")
        if not 1 <= k <= n:
            raise ValueError("thm11 mode requires 1 <= k <= n")
        a = [Fraction(1)] * (k + 1) if a_input is None else [Fraction(v) for v in a_input]
        if len(a) != k + 1 or a[0] != 1:
            raise ValueError("a vector must have length k+1 and a_0 = 1")
        tags.append(f"k={k}")
        lo = -l0 - 1
    else:
        raise ValueError("mode must be 'thm12' or 'thm11'")
    window = [j for j in range(lo, n + l0 + 2) if XIndex(j0, l0, j).is_admissible]

    q = q_poly(j0, l0, params)
    # the type-1 member at n-l = l0 is identically zero and contributes nothing
    left = {n - l: a_l for l, a_l in enumerate(a) if XIndex(j0, l0, n - l).is_admissible}
    # each member once, the left side's first: the first parameter pole met
    # names a skipped verify record
    order = dict.fromkeys([*left, *window])
    # a sharp window's members take every degree from X_{n-l0}'s up to the
    # left side's top, so back-substitution on those 2l0+2 degrees alone
    # finds b, from each member's top terms, and the relation's residual
    # then proves every degree.  This is the route from n = 4l0+5 on, where
    # the window's degrees are under a third of the left side's n+2l0+2;
    # below that the whole members are short enough to cost no more, and
    # the thm11 window reaches degree 0.  Back-substitution on whole members
    # leaves the relation's residual itself
    top_route = mode == "thm12" and n >= 4 * l0 + 5
    if top_route:
        members = {j: _member_top(j0, l0, j, params) for j in order}
        bottom = members[window[0]].degree
    else:
        members = {j: x_poly(XIndex(j0, l0, j), params) for j in order}
        bottom = 0
    lhs = q * sum((c * members[j] for j, c in left.items()), Poly.zero())
    b = _solve_b(_cut(lhs, bottom), {j: _cut(members[j], bottom) for j in window})
    if top_route:
        nums, den = _relation_residual(idx, left, b, params)
        if any(nums):
            raise CertificationError(
                "window expansion is inconsistent: the relation fails",
                residual=Poly.from_numerators(nums, den),
            )

    # cross-route: the backward operator maps the relation onto
    # sum_l a_l I_{n-l} = sum_j b_j xi_j P_j(.; alpha+1, beta-1), so the
    # residual R is zero exactly when b_j xi_j is the stacked expansion
    # coefficient e_j at every j.  The right side is built as L2 of one sum
    # over the window's P_j at (alpha, beta), so no P_j(.; alpha+1, beta-1)
    # is built and xi_j is read only at a failure; only a failure expands R,
    # to name its first nonzero row
    nums, den = _image_residual(idx, a, b, params)
    if any(nums):
        residual = Poly.from_numerators(nums, den)
        rows, rows_den = expand_in_hr_basis(residual, params.shifted(1, -1))
        j = next(j for j, v in enumerate(rows) if v)
        xi_j = xi(j0, l0, j, params)
        if xi_j == 0:
            raise CertificationError(f"stacked expansion does not vanish at excluded index j={j}")
        expected = b.get(j, Fraction(0))
        c_tilde = Fraction(rows[j], rows_den) + expected * xi_j
        raise CertificationError(
            f"b cross-route mismatch at j={j}: {c_tilde / xi_j} != {expected}"
        )
    tags.append("b-cross-route-agrees")

    return RecurrenceCertificate(
        index=idx,
        q=q,
        a=tuple(a),
        b=b,
        window=(window[0], window[-1]),
        residual_zero=True,
        # members of distinct degrees are independent, so b is unique
        b_unique=True,
        method_tags=tuple(tags),
    )


_EXAMPLE_B = {
    1: lambda a, b: {
        7: Fraction(1, 3),
        6: -(3 + 3 * a - 5 * b) / ((1 + a) * (7 + a)),
        5: -(-10 + 89 * b + 21 * b**2 + a * (-10 + 9 * b + b**2))
        / (2 * (1 + a) * (6 + a) * (7 + a)),
        4: 5 * b * (3 + b) * (5 + a + b) / ((1 + a) * (5 + a) * (6 + a) * (7 + a)),
    },
    2: lambda a, b: {
        7: (4 + a + b) / (2 * (6 + a + b)),
        6: (3 + 6 * a + a**2 - 2 * b - b**2) / ((7 + a) * (b - 1)),
        5: (-10 + 3 * b + 6 * b**2 + b**3 - 24 * a * (4 + b) - 2 * a**2 * (9 + b))
        / (2 * (6 + a) * (7 + a) * (b - 1)),
        4: 5 * a * (3 + b) * (5 + a + b) / ((5 + a) * (6 + a) * (7 + a) * (b - 1)),
    },
    3: lambda a, b: {
        7: (6 + a) * b / (2 * (1 + a) * (8 + a)),
        6: (6 + a) * (7 + a + b) * (7 + 8 * a + a**2 - 4 * b - b**2)
        / ((1 + a) * (7 + a) * (8 + a) * (6 + a + b)),
        # sign corrected relative to the published display: with the published
        # sign the relation itself fails (nonzero residual at every valid
        # parameter pair), while this value is pinned by two independent
        # routes, which the tests check.
        5: -(140 + 8 * b - 9 * b**2 - b**3 + 4 * a * (40 + 7 * b) + 2 * a**2 * (10 + b))
        / (2 * (1 + a) * (7 + a) * (8 + a)),
        4: 5 * (4 + b) * (5 + a + b) * (7 + a + b)
        / ((5 + a) * (7 + a) * (8 + a) * (6 + a + b)),
    },
    4: lambda a, b: {
        7: a * (6 + a) / (2 * (8 + a) * (b - 1)),
        6: -7 * (6 + a) * (7 + 5 * a - 7 * b) / (6 * (7 + a) * (8 + a) * (b - 1)),
        5: -(-140 + 112 * b + 28 * b**2 + a * (-40 + 11 * b + b**2))
        / (2 * (7 + a) * (8 + a) * (b - 1)),
        4: 35 * (4 + b) * (5 + a + b) / (6 * (5 + a) * (7 + a) * (8 + a)),
    },
}


def example_oracles(example_id: int, params: Params) -> dict:
    """Golden right-side coefficients for the reference cases (l0=1, n=5).

    These are the published closed forms for each family type, hard-coded as
    rational functions of the parameters and evaluated exactly.  One erratum:
    the published type-3 middle coefficient (j = 5) carries a sign typo; the
    stored value is the negated form, which is forced by the relation itself
    (the tests demonstrate the refutation of the published sign).
    """
    if example_id not in _EXAMPLE_B:
        raise ValueError("example_id must be 1, 2, 3 or 4")
    a, b = params.alpha, params.beta
    values = _EXAMPLE_B[example_id](a, b)
    return {j: Fraction(v) for j, v in sorted(values.items(), reverse=True)}
