from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xlbp.exact_core import (
    LinearSolution,
    Poly,
    format_rational,
    parse_rational,
    solve_exact,
    unit_circle_roots,
)

from reference import is_monic, long_division

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
small_polys = st.lists(rationals, min_size=0, max_size=7).map(Poly)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero)


def laurent(min_exp, coeffs):
    return Poly(coeffs).shifted(min_exp)


class TestPolyBasics:
    def test_derivative_power_rule(self):
        assert Poly((0, 3, 1)).derivative() == Poly((3, 2))  # (z^2+3z)' = 2z+3

    def test_product_difference_of_squares(self):
        assert Poly((-1, 1)) * Poly((1, 1)) == Poly((-1, 0, 1))

    def test_eval_at_rational(self):
        # direct rational arithmetic: (2/3)^2 - 1 = -5/9
        assert Poly((-1, 0, 1))(Fraction(2, 3)) == Fraction(-5, 9)

    def test_zero_degree_sentinel(self):
        assert Poly().degree == -1
        assert Poly().is_zero
        assert Poly((0, 0)).is_zero

    def test_monic_and_leading(self):
        p = Poly((2, 0, 1))
        assert is_monic(p) and p.leading == 1
        with pytest.raises(ValueError):
            Poly().leading

    def test_reversal(self):
        p = Poly((1, 2, 3))
        assert p.reversed() == Poly((3, 2, 1))
        assert p.reversed(4) == Poly((0, 0, 3, 2, 1))

    @pytest.mark.parametrize(
        "poly, text",
        [
            (Poly((0, -1)), "-z"),
            (Poly((1, -1, 0, -3)), "-3*z^3 - z + 1"),
            (Poly((Fraction(-1, 2), Fraction(1, 2))), "1/2*z - 1/2"),
            (Poly(), "0"),
            (Poly((0, -1)).shifted(-3), "-z^-2"),
            (laurent(-1, (1, Fraction(-1, 2))), "-1/2 + z^-1"),
        ],
    )
    def test_str(self, poly, text):
        # highest exponent first; a unit coefficient shows only its sign
        assert str(poly) == text


class TestDivision:
    def test_exact_quotient(self):
        q, r = divmod(Poly((-1, 0, 1)), Poly((-1, 1)))
        assert q == Poly((1, 1)) and r.is_zero

    def test_remainder_witness(self):
        # long division by hand: z^2+1 = (z+1)(z-1) + 2
        q, r = divmod(Poly((1, 0, 1)), Poly((-1, 1)))
        assert q == Poly((1, 1))
        assert r == Poly((2,))

    def test_laurent_division(self):
        # (1/z - z) / ((1/z)(1-z)) = 1+z by hand
        num = laurent(-1, (1, 0, -1))
        den = laurent(-1, (1, -1))
        q, r = divmod(num, den)
        assert r.is_zero
        assert q == Poly((1, 1))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(Poly((1,)), Poly())

    @settings(max_examples=60)
    @given(p=small_polys, d=nonzero_polys)
    def test_divmod_roundtrip(self, p, d):
        q, r = divmod(p * d, d)
        assert r.is_zero
        assert q == p


class TestAlgebraProperties:
    @settings(max_examples=60)
    @given(p=small_polys, q=small_polys, z0=rationals)
    def test_evaluation_is_additive(self, p, q, z0):
        assert (p + q)(z0) == p(z0) + q(z0)

    @settings(max_examples=60)
    @given(p=nonzero_polys, q=nonzero_polys)
    def test_degree_of_product(self, p, q):
        assert (p * q).degree == p.degree + q.degree

    @settings(max_examples=60)
    @given(p=small_polys, q=small_polys, r=small_polys)
    def test_distributivity(self, p, q, r):
        assert p * (q + r) == p * q + p * r


class TestLaurent:
    def test_inversion_is_involution(self):
        p = laurent(-2, (1, 0, 3, -4))
        assert p.inverted().inverted() == p

    def test_inversion_swaps_support(self):
        p = laurent(-2, (1, 0, 3, -4))
        assert p.inverted().min_exp == -p.max_exp

    def test_derivative(self):
        p = laurent(-1, (2, 5, 7))  # 2/z + 5 + 7z
        assert p.derivative() == laurent(-2, (-2, 0, 7))

    def test_to_poly_raises_on_pole(self):
        with pytest.raises(ValueError):
            laurent(-1, (1,)).require_polynomial()
        p = laurent(2, (1,))
        assert p.require_polynomial() is p

    def test_coeffs_only_for_polynomials(self):
        # dense from z^0 for a polynomial; AttributeError on a pole, so that
        # getattr(p, "coeffs", None) tells the two apart
        assert Poly((0, 0, 3)).coeffs == (0, 0, 3)
        assert getattr(laurent(-1, (1, 2)), "coeffs", None) is None
        assert list(laurent(-1, (1, 0, 2)).items()) == [(-1, 1), (1, 2)]

    def test_normalisation_strips_zeros(self):
        p = laurent(-3, (0, 0, 5, 0))
        assert p.min_exp == -1 and p.max_exp == -1

    @settings(max_examples=40)
    @given(
        shift=st.integers(min_value=-4, max_value=4),
        coeffs=st.lists(rationals, min_size=1, max_size=6),
    )
    def test_involution_property(self, shift, coeffs):
        p = laurent(shift, coeffs)
        assert p.inverted().inverted() == p


# -- the integer kernel against a plain Fraction reference ---------------------
#
# A reference value is a dict exponent -> nonzero Fraction; every operation is
# recomputed on it with Fraction arithmetic only.

coeff_values = st.one_of(st.just(Fraction(0)), rationals)
coeff_lists = st.lists(coeff_values, max_size=7)
any_polys = coeff_lists.map(Poly)
any_laurents = st.builds(laurent, st.integers(min_value=-5, max_value=5), coeff_lists)
scalars = st.one_of(st.integers(min_value=-9, max_value=9), rationals)


def assert_canonical(p):
    nums, den = p.numerators, p.denominator
    assert all(type(v) is int for v in nums) and type(den) is int
    assert den > 0
    assert gcd(den, *nums) == 1
    if not nums:
        assert den == 1 and p.min_exp == 0
        return
    assert nums[0] != 0 and nums[-1] != 0


def ref(p) -> dict:
    return dict(p.items())


def ref_add(a: dict, b: dict, sign=1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return {e: c for e, c in out.items() if c != 0}


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e, c in a.items():
        for f, d in b.items():
            out[e + f] = out.get(e + f, Fraction(0)) + c * d
    return {e: c for e, c in out.items() if c != 0}


@st.composite
def long_divisions(draw):
    """(dividend, divisor), each Laurent-shifted; the divisor's leading numerator is not +-1."""
    lead = Fraction(
        draw(st.integers(min_value=2, max_value=12)) * draw(st.sampled_from((1, -1))),
        draw(st.integers(min_value=1, max_value=6)),
    )
    low = draw(st.lists(coeff_values, max_size=4))
    divisor = laurent(draw(st.integers(min_value=-3, max_value=3)), low + [lead])
    terms = draw(st.lists(coeff_values, max_size=30))
    return laurent(draw(st.integers(min_value=-3, max_value=3)), terms), divisor


def check(result, expected: dict):
    assert_canonical(result)
    assert ref(result) == expected


class TestKernelAgainstReference:
    @settings(max_examples=80)
    @given(p=any_polys, q=any_polys, s=scalars)
    def test_poly_ring(self, p, q, s):
        a, b = ref(p), ref(q)
        check(p + q, ref_add(a, b))
        check(p - q, ref_add(a, b, -1))
        check(-p, ref_add({}, a, -1))
        check(p * q, ref_mul(a, b))
        check(p * s, ref_mul(a, {0: Fraction(s)} if s else {}))
        check(s * p, ref_mul(a, {0: Fraction(s)} if s else {}))
        check(p + s, ref_add(a, {0: Fraction(s)} if s else {}))

    @settings(max_examples=80)
    @given(p=any_polys, d=any_polys.filter(lambda p: not p.is_zero))
    def test_poly_divmod(self, p, d):
        quot, rem = divmod(p, d)
        # polynomials divide in the Laurent ring too
        a, b = ref(p), ref(d)
        want_q, want_r = long_division(a, min(a), b, min(b)) if a else ({}, {})
        check(quot, want_q)
        check(rem, want_r)
        assert quot * d + rem == p

    @settings(max_examples=150, deadline=None)
    @given(pair=long_divisions())
    @example(pair=(Poly(range(1, 40)), Poly((1, 1, -3))))
    @example(pair=(laurent(-2, range(5, 30)), laurent(3, (Fraction(1, 2), 0, Fraction(-7, 4)))))
    def test_long_division(self, pair):
        # the quotient's denominators grow as it is built when the divisor's
        # leading numerator is not +-1; the examples have negative leading
        # numerators and nonzero remainders, the second Laurent shifts
        p, d = pair
        quot, rem = divmod(p, d)
        a, b = ref(p), ref(d)
        want_q, want_r = long_division(a, min(a), b, min(b)) if a else ({}, {})
        check(quot, want_q)
        check(rem, want_r)

    @settings(max_examples=80)
    @given(p=any_polys, k=st.integers(min_value=0, max_value=4))
    def test_poly_transforms(self, p, k):
        a = ref(p)
        check(p.derivative(), {e - 1: e * c for e, c in a.items() if e})
        check(p.shifted(k), {e + k: c for e, c in a.items()})
        if not p.is_zero:
            top = p.degree + k
            check(p.reversed(top), {top - e: c for e, c in a.items()})
        check(p.shifted(-k), {e - k: c for e, c in a.items()})

    @settings(max_examples=80)
    @given(p=any_laurents, q=any_laurents, s=scalars)
    def test_laurent_ring(self, p, q, s):
        a, b = ref(p), ref(q)
        check(p + q, ref_add(a, b))
        check(p - q, ref_add(a, b, -1))
        check(-p, ref_add({}, a, -1))
        check(p * q, ref_mul(a, b))
        check(p * s, ref_mul(a, {0: Fraction(s)} if s else {}))
        check(s * p, ref_mul(a, {0: Fraction(s)} if s else {}))

    @settings(max_examples=80)
    @given(p=any_laurents, d=any_laurents.filter(lambda p: not p.is_zero))
    def test_laurent_divmod(self, p, d):
        quot, rem = divmod(p, d)
        # Laurent division strips the lowest power of z from both operands
        a, b = ref(p), ref(d)
        want_q, want_r = long_division(a, min(a), b, min(b)) if a else ({}, {})
        check(quot, want_q)
        check(rem, want_r)
        assert (quot * d + rem) == p

    @settings(max_examples=80)
    @given(p=any_laurents, k=st.integers(min_value=-4, max_value=4))
    def test_laurent_transforms(self, p, k):
        a = ref(p)
        check(p.derivative(), {e - 1: e * c for e, c in a.items() if e})
        check(p.shifted(k), {e + k: c for e, c in a.items()})
        check(p.inverted(), {-e: c for e, c in a.items()})

    @settings(max_examples=60)
    @given(
        coeffs=st.lists(rationals, max_size=6),
        m=st.integers(min_value=-30, max_value=30).filter(bool),
        k=st.integers(min_value=-4, max_value=4),
    )
    def test_equal_values_have_equal_storage(self, coeffs, m, k):
        # unreduced and negative denominators, and low zeros, must land on one
        # canonical form, so equal values hash equal
        p = laurent(k, coeffs)
        scaled = Poly.from_numerators(
            [v * m for v in p.numerators], p.denominator * m
        ).shifted(p.min_exp)
        assert_canonical(scaled)
        assert scaled == p and hash(scaled) == hash(p)
        dense = Poly(coeffs)
        assert dense.coeffs == tuple(Fraction(c) for c in coeffs[: len(dense.coeffs)])
        if k >= 0:
            padded = Poly([0] * k + list(coeffs))
            assert padded == p and hash(padded) == hash(p)


# -- the integer solver against a plain Fraction Gauss-Jordan -------------------


def reference_solve(matrix) -> LinearSolution:
    """Gauss-Jordan over Fraction: normalise each pivot row, clear its column above and below."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivot_cols = []
    r = 0
    for col in range(n_cols):
        best = next((i for i in range(r, n_rows) if rows[i][col] != 0), None)
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        piv = rows[r][col]
        rows[r] = [v / piv for v in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(col)
        r += 1
        if r == n_rows:
            break
    basis = []
    for free in (c for c in range(n_cols) if c not in pivot_cols):
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for i, col in enumerate(pivot_cols):
            vec[col] = -rows[i][free]
        basis.append(tuple(vec))
    return LinearSolution(tuple(basis))


# 200- to 260-bit numerators over up to 230-bit denominators, as certify reaches
wide_rationals = st.builds(
    lambda sign, p, q: Fraction(sign * p, q),
    st.sampled_from((1, -1)),
    st.integers(min_value=2**200, max_value=2**260),
    st.integers(min_value=1, max_value=2**230),
)
entries = st.one_of(st.just(Fraction(0)), rationals, wide_rationals)
nonzero_scales = st.one_of(rationals, wide_rationals).filter(bool)


@st.composite
def matrices(draw):
    """0-8 rows by 0-6 columns, with duplicate, scaled, combined and zero rows."""
    n_cols = draw(st.integers(min_value=0, max_value=6))
    matrix = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        kind = draw(st.sampled_from(("fresh", "zero", "scaled", "combined")))
        if kind == "zero":
            row = [Fraction(0)] * n_cols
        elif kind == "fresh" or not matrix:
            row = draw(st.lists(entries, min_size=n_cols, max_size=n_cols))
        elif kind == "scaled":
            s = draw(st.one_of(st.just(Fraction(1)), nonzero_scales))
            row = [s * v for v in draw(st.sampled_from(matrix))]
        else:
            s, t = draw(nonzero_scales), draw(nonzero_scales)
            first, second = draw(st.sampled_from(matrix)), draw(st.sampled_from(matrix))
            row = [s * u + t * v for u, v in zip(first, second)]
        matrix.append(row)
    return matrix


class TestLinearSolve:
    def test_identity_system(self):
        sol = solve_exact([[1, 0], [0, 1]])
        assert sol.nullspace == ()  # rank 2

    def test_nullspace_line(self):
        sol = solve_exact([[1, 1]])
        assert 2 - len(sol.nullspace) == 1  # the rank
        assert len(sol.nullspace) == 1
        vec = sol.nullspace[0]
        # spans the same line as (1, -1), with a 1 in the free column
        assert vec == (-1, 1)

    def test_linear_system_wrapper_validation(self):
        with pytest.raises(ValueError):
            solve_exact([[1, 2], [3]])

    @settings(max_examples=300, deadline=None)
    @given(matrix=matrices())
    @example(matrix=[])
    @example(matrix=[[], []])
    @example(matrix=[[0, 0], [0, 0]])
    def test_equals_fraction_gauss_jordan(self, matrix):
        # the reduced row echelon form is unique, so the integer elimination
        # must give exactly the reference's nullspace basis
        assert solve_exact(matrix) == reference_solve(matrix)

    @settings(max_examples=40)
    @given(matrix=matrices())
    def test_nullspace_vectors_are_annihilated(self, matrix):
        sol = solve_exact(matrix)
        n_cols = len(matrix[0]) if matrix else 0
        # the rank n_cols - nullity is at most the number of rows
        assert n_cols - len(sol.nullspace) <= len(matrix)
        for vec in sol.nullspace:
            assert all(sum(a * v for a, v in zip(row, vec)) == 0 for row in matrix)


def circle_pair(a, b):
    """z^2 - 2c z + 1 for c = (a^2 - b^2)/(a^2 + b^2), and its roots c +- i sqrt(1 - c^2)."""
    c = Fraction(a * a - b * b, a * a + b * b)
    return Poly((1, -2 * c, 1)), {(c, 1), (c, -1)}


NEAR_ONE = [s * (1 + d) for s in (1, -1) for d in (Fraction(1, 10**6), Fraction(-1, 10**6))]
# each factor with its roots on |z| = 1, keyed by (Re z, sign of Im z)
circle_factors = st.one_of(
    st.builds(circle_pair, st.integers(1, 12), st.integers(1, 12)),
    st.sampled_from([1, -1]).map(lambda e: (Poly((-e, 1)), {(Fraction(e), 0)})),
    st.one_of(
        st.sampled_from(NEAR_ONE),
        st.fractions(min_value=-5, max_value=5, max_denominator=30).filter(lambda r: abs(r) != 1),
    ).map(lambda r: (Poly((-r, 1)), set())),
)


class TestUnitCircleRoots:
    @settings(max_examples=100, deadline=None)
    @given(
        parts=st.lists(st.tuples(circle_factors, st.integers(1, 2)), min_size=1, max_size=4),
        scale=rationals.filter(bool),
        shift=st.integers(min_value=-3, max_value=3),
    )
    def test_counts_distinct_known_roots(self, parts, scale, shift):
        # repeated factors and shared roots count once; a constant factor
        # and a power of z add none
        poly, roots = Poly((scale,)).shifted(shift), set()
        for (factor, factor_roots), multiplicity in parts:
            for _ in range(multiplicity):
                poly = poly * factor
            roots |= factor_roots
        assert unit_circle_roots(poly) == len(roots)

    @pytest.mark.parametrize(
        "coeffs, roots",
        [
            ((-1, 0, 0, 1), 3),  # z^3 - 1: the cube roots of unity
            ((1, Fraction(-6, 5), 1), 2),  # (3 +- 4i)/5
            ((1, Fraction(2, 7), 1), 2),
            ((Fraction(-9999, 10000), 1), 0),
            ((5,), 0),
        ],
    )
    def test_examples(self, coeffs, roots):
        assert unit_circle_roots(Poly(coeffs)) == roots

    def test_zero_is_refused(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            unit_circle_roots(Poly())


class TestRationalText:
    def test_round_trip(self):
        assert parse_rational("3/5") == Fraction(3, 5)
        assert parse_rational("-7") == Fraction(-7)
        assert parse_rational("−3/4") == Fraction(-3, 4)
        assert format_rational(Fraction(6, 4)) == "3/2"
        assert format_rational(Fraction(5)) == "5"
