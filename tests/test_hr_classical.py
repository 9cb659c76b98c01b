from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xlbp.exact_core import Poly
from xlbp.hr_classical import (
    ParameterPoleError,
    _moment_weights,
    _paired,
    Params,
    apply_l1,
    apply_l2,
    dk_bk_sequence,
    expand_in_hr_basis,
    hr_partner,
    hr_poly,
    moments,
    norm_ratio,
    pochhammer,
    ttrr_b,
    ttrr_coeffs,
    ttrr_d,
    twisted_coeffs,
)

from conftest import PAIR_A, PAIR_B, PAIRS_MAIN
from reference import build_via_ttrr, inner_product, is_monic, moment_value, reference_twisted_coeffs


def test_pochhammer_values():
    assert pochhammer(Fraction(17, 3), 0) == 1  # empty product
    assert pochhammer(1, 4) == 24
    assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)  # (1/2)(3/2)


class TestParams:
    @pytest.mark.parametrize(
        "alpha, beta",
        [(3, -2), ("3", "-2"), (Fraction(6, 2), Fraction(-4, 2)), (Fraction(3), -2)],
    )
    def test_equal_pairs_compare_and_hash_equal(self, alpha, beta):
        # every cache in the package is keyed on Params, so a pair must find
        # its entries whichever way it was written
        p, q = Params(alpha, beta), Params(3, -2)
        assert p == q and not p != q
        assert hash(p) == hash(q) == hash((Fraction(3), Fraction(-2)))
        assert {p: 1}[q] == 1

    @pytest.mark.parametrize(
        "other",
        [Params(-2, 3), Params(3, Fraction(-5, 2)), Params(Fraction(10, 3), -2),
         (3, -2), (Fraction(3), Fraction(-2)), "3,-2", None, 3],
        ids=repr,
    )
    def test_other_values_compare_unequal(self, other):
        p = Params(3, -2)
        assert p != other and other != p
        assert not p == other

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.fractions(min_value=-5, max_value=5, max_denominator=7),
        beta=st.fractions(min_value=-5, max_value=5, max_denominator=7),
        d_alpha=st.integers(min_value=-3, max_value=3),
        d_beta=st.integers(min_value=-3, max_value=3),
    )
    def test_related_pairs_are_the_pairs_they_name(self, alpha, beta, d_alpha, d_beta):
        p = Params(alpha, beta)
        want = Params(p.alpha + d_alpha, p.beta + d_beta)
        for _ in range(2):  # built once, then served from the memo
            got = p.shifted(d_alpha, d_beta)
            assert got == want and hash(got) == hash(want)
            assert (got.alpha, got.beta) == (alpha + d_alpha, beta + d_beta)
            assert p.swapped() == Params(beta, alpha)
            assert (p.swapped().alpha, p.swapped().beta) == (beta, alpha)


# the integers, where the hypergeometric form has its removable beta poles and
# P_n its alpha poles, drawn often
route_rationals = st.one_of(
    st.integers(min_value=-6, max_value=6).map(Fraction),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
)


class TestConstructors:
    def test_degree_zero(self, generic_params):
        assert hr_poly(0, generic_params) == Poly.one()

    def test_degree_one(self, generic_params):
        a, b = generic_params.alpha, generic_params.beta
        assert hr_poly(1, generic_params) == Poly((b / (a + 1), 1))

    def test_monic(self, generic_params):
        for n in range(11):
            assert is_monic(hr_poly(n, generic_params))

    def test_equals_recurrence_route(self, generic_params):
        for n in range(11):
            assert hr_poly(n, generic_params) == build_via_ttrr(n, generic_params)

    def test_partner_swaps_parameters(self, generic_params):
        a, b = generic_params.alpha, generic_params.beta
        assert hr_partner(1, generic_params) == Poly((a / (b + 1), 1))
        for n in range(6):
            assert hr_partner(n, generic_params) == hr_poly(
                n, generic_params.swapped()
            )

    def test_partner_symmetric_parameters(self):
        sym = Params(Fraction(5, 4), Fraction(5, 4))
        for n in range(6):
            assert hr_partner(n, sym) == hr_poly(n, sym)

    def test_parameter_pole_named(self):
        with pytest.raises(ParameterPoleError, match="alpha"):
            hr_poly(2, Params(-2, Fraction(1, 2)))
        # integer beta inside the terminating range is a removable pole of
        # the hypergeometric form only: P_3(z; 1/2, 0) = z^3 on both routes
        params = Params(Fraction(1, 2), 0)
        assert hr_poly(3, params) == build_via_ttrr(3, params) == Poly((0, 0, 0, 1))

    @pytest.mark.parametrize(
        "build, alpha, beta, message",
        [
            (hr_poly, -3, Fraction(1, 2), "n+alpha+1 at n=2 = 0"),
            (hr_poly, Fraction(1, 2), -2, None),
            # both factors vanish: only the alpha factor is a pole of P_n
            (hr_poly, -3, -2, "n+alpha+1 at n=2 = 0"),
            (build_via_ttrr, -1, Fraction(1, 2), "alpha+1 = 0"),
            (build_via_ttrr, -3, Fraction(1, 2), "n+alpha+1 at n=2 = 0"),
            (build_via_ttrr, -5, -2, "n+alpha+1 at n=4 = 0"),
        ],
        ids=[
            "alpha-factor",
            "beta-factor",
            "both-factors",
            "recurrence-alpha-plus-one",
            "recurrence-d-coefficient",
            "recurrence-last-step",
        ],
    )
    def test_parameter_pole_message_pinned(self, build, alpha, beta, message):
        params = Params(alpha, beta)
        if message is None:
            p = build(5, params)
            assert p == build_via_ttrr(5, params) and is_monic(p) and p.degree == 5
            return
        with pytest.raises(ParameterPoleError) as info:
            build(5, params)
        assert str(info.value) == message

    @settings(max_examples=40, deadline=None)
    @given(alpha=route_rationals, beta=route_rationals)
    @example(alpha=Fraction(1, 2), beta=Fraction(0))
    @example(alpha=Fraction(-3), beta=Fraction(-2))
    def test_both_routes_are_monic_of_degree_n(self, alpha, beta):
        # expand_in_hr_basis inverts a generating function whose members are
        # these monic degree-n polynomials, and does not check that; the two
        # routes agree in value or raise the same pole message, integer
        # parameters included
        params = Params(alpha, beta)
        for n in range(9):
            got = outcome(hr_poly, n, params)
            assert got == outcome(build_via_ttrr, n, params), n
            if isinstance(got, Poly):
                assert got.degree == n and is_monic(got), n

    def test_robust_falls_back_to_recurrence(self):
        # (alpha+2, beta-2) at (1,1) poles the hypergeometric form, not P_4
        twisted = Params(3, -1)
        p = hr_poly(4, twisted)
        assert p == build_via_ttrr(4, twisted)
        assert is_monic(p) and p.degree == 4


class TestRecurrenceCoefficients:
    def test_printed_example(self):
        d1, b1 = ttrr_coeffs(1, Params(1, 2))
        assert d1 == -1
        assert b1 == Fraction(-2, 3)

    def test_d_vanishes_at_negative_beta(self):
        assert ttrr_d(3, Params(Fraction(1, 2), -3)) == 0

    def test_b_zero_index(self):
        assert ttrr_b(0, Params(0, Fraction(1, 2))) == 0

    def test_index_validation(self):
        with pytest.raises(ValueError):
            ttrr_coeffs(0, PAIR_A)


class TestMoments:
    def test_normalisation(self, generic_params):
        table = moments(generic_params, -4, 4)
        assert moment_value(table, 0) == 1

    def test_first_moment(self, generic_params):
        a, b = generic_params.alpha, generic_params.beta
        assert moment_value(moments(generic_params, -2, 2), 1) == -b / (1 + a)

    def test_negative_moment_against_residue_oracle(self):
        # At (1,1) the weight is single-valued and the moments are residues of
        # -z^(k-2)(1-z)^2, computed by hand: c_0=2, c_1=-1, c_-1=-1, others 0.
        table = moments(PAIR_B, -3, 3)
        assert moment_value(table, -1) == Fraction(-1, 2)
        assert moment_value(table, 1) == Fraction(-1, 2)
        assert moment_value(table, 2) == 0
        assert moment_value(table, 3) == 0

    def test_forward_ratio_invariant(self, generic_params):
        a, b = generic_params.alpha, generic_params.beta
        table = moments(generic_params, -5, 5)
        for k in range(-5, 5):
            assert moment_value(table, k + 1) * (k + 1 + a) == moment_value(table, k) * (k - b)

    def test_range_validation(self):
        table = moments(PAIR_A, -2, 2)
        with pytest.raises(ValueError, match="range"):
            moment_value(table, 3)

    def test_backward_pole_detected(self):
        # k - beta = 0 at k = -1 blocks the backward fill for beta = -1
        with pytest.raises(ParameterPoleError):
            moments(Params(Fraction(1, 2), -1), -2, 2)

    @pytest.mark.parametrize(
        "params, k_min, k_max, message",
        [
            # forward fill: k+1+alpha = 0 at k = 1 for alpha = -2
            (Params(-2, Fraction(1, 2)), 0, 3, "k+1+alpha at k=1 = 0"),
            # backward fill: the step to k = -3 divides by k-beta = 0 for beta = -3
            (Params(Fraction(1, 2), -3), -4, 0, "k-beta at k=-3 = 0"),
        ],
    )
    def test_pole_message_pinned(self, params, k_min, k_max, message):
        with pytest.raises(ParameterPoleError) as info:
            moments(params, k_min, k_max)
        assert str(info.value) == message


class TestInnerProducts:
    def test_unit_pairing(self, generic_params):
        table = moments(generic_params, -1, 1)
        assert inner_product(Poly.one(), Poly.one(), table) == 1

    def test_biorthogonality(self, generic_params):
        table = moments(generic_params, -9, 9)
        for n in range(9):
            for m in range(9):
                value = inner_product(
                    hr_poly(n, generic_params),
                    hr_partner(m, generic_params),
                    table,
                )
                expected = norm_ratio(n, generic_params) if n == m else 0
                assert value == expected, (n, m)

    def test_norm_ratio_values(self):
        assert norm_ratio(0, PAIR_A) == 1
        a, b = PAIR_A.alpha, PAIR_A.beta
        assert norm_ratio(1, PAIR_A) == (a + b + 1) / ((a + 1) * (b + 1))
        assert norm_ratio(2, PAIR_B) == Fraction(2, 3)  # 2*3*4/(2*3*2*3)

    def test_table_range_exceeded(self):
        table = moments(PAIR_A, -2, 2)
        with pytest.raises(ValueError, match="range"):
            inner_product(hr_poly(3, PAIR_A), Poly.one(), table)
        with pytest.raises(ValueError, match="does not cover"):
            _moment_weights(Poly((0, 1)), table, 5)
        with pytest.raises(ValueError, match="outside the weighted range"):
            _paired(_moment_weights(Poly((0, 1)), table, 2), Poly((0, 0, 1)))

    @settings(max_examples=60, deadline=None)
    @given(
        f=st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6), max_size=6),
        shift=st.integers(min_value=0, max_value=3),
        g=st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6), max_size=4),
        params=st.sampled_from(PAIRS_MAIN),
    )
    def test_moment_weights_pair_as_inner_product(self, f, shift, g, params):
        # span-window pairs one left side with many partners through its
        # weights; each pairing is the inner product itself
        left, right = Poly(f).shifted(shift), Poly(g)
        table = moments(params, -5, 9)
        weights = _moment_weights(left, table, 4)
        assert _paired(weights, right) == inner_product(left, right, table)


class TestConnectionPolynomials:
    def test_base_cases(self):
        ds, bs = dk_bk_sequence(0, 3, PAIR_A)
        assert ds[0] == Poly.one() and bs[0].is_zero

    def test_first_step_printed_forms(self, generic_params):
        n = 2
        ds, bs = dk_bk_sequence(1, n, generic_params)
        d_c, b_c = ttrr_coeffs(n + 1, generic_params)
        assert ds[1] == Poly((-d_c, 1))
        assert bs[1] == Poly((0, b_c))

    def test_three_step_connection(self):
        ds, bs = dk_bk_sequence(3, 2, PAIR_A)
        lhs = hr_poly(6, PAIR_A)
        rhs = ds[3] * hr_poly(3, PAIR_A) + bs[3] * hr_poly(2, PAIR_A)
        assert lhs == rhs

    def test_connection_identity_sweep(self, generic_params):
        for n in range(0, 4):
            for k in range(0, 5):
                ds, bs = dk_bk_sequence(k, n, generic_params)
                lhs = hr_poly(n + k + 1, generic_params)
                rhs = ds[k] * hr_poly(n + 1, generic_params) + bs[k] * hr_poly(
                    n, generic_params
                )
                assert lhs == rhs, (n, k)

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.fractions(min_value=-4, max_value=4, max_denominator=3),
        beta=st.fractions(min_value=-4, max_value=4, max_denominator=3),
        n=st.integers(min_value=0, max_value=5),
    )
    def test_b_has_no_constant_term_and_leads_with_b_next(self, alpha, beta, n):
        # so B_{k}/(b_{n+1} z) is monic of degree k-1 and the monic
        # completion's expansion over that family always closes
        params = Params(alpha, beta)
        try:
            b_next = ttrr_b(n + 1, params)
            _, bs = dk_bk_sequence(5, n, params)
        except ParameterPoleError:
            return
        if b_next == 0:
            return  # the monic completion refuses b_{n+1} = 0 as a pole
        for k in range(1, 6):
            assert bs[k].coeff(0) == 0
            assert bs[k].degree == k and bs[k].leading == b_next

    def test_rescaled_b_is_monic(self, generic_params):
        n = 2
        b_next = ttrr_b(n + 1, generic_params)
        for k in range(1, 5):
            _, bs = dk_bk_sequence(k, n, generic_params)
            rescaled = Poly(bs[k].coeffs[1:]) * (1 / b_next)
            assert is_monic(rescaled) and rescaled.degree == k - 1


class TestTwistedCoefficients:
    def test_single_twist(self, generic_params):
        n = 5
        assert twisted_coeffs(n, 1, generic_params, "P") == [
            ttrr_b(n, generic_params)
        ]

    def test_double_twist_closed_forms(self):
        # printed closed forms for the two-step coefficients
        n, (a, b) = 5, (PAIR_A.alpha, PAIR_A.beta)
        c1 = -2 * n * (n + a + b) / ((n + a) * (n + 2 + a))
        c2 = (
            n
            * (n - 1)
            * (n - 1 + a + b)
            * (n + a + b)
            / ((n - 1 + a) * (n + a) * (n + 1 + a) * (n + 2 + a))
        )
        assert twisted_coeffs(n, 2, PAIR_A, "P") == [c1, c2]

    def test_boundary_closed_forms(self, negation_safe_params):
        # first coefficient is a sum of shifted b's, last a telescoping product
        params = negation_safe_params
        n = 6
        for j in range(1, 5):
            got = twisted_coeffs(n, j, params, "P")
            first = sum(
                ttrr_b(n, params.shifted(k, -k)) for k in range(j)
            )
            last = Fraction(1)
            for k in range(j):
                last *= ttrr_b(n - k, params.shifted(j - 1 - k, -(j - 1 - k)))
            assert got[0] == first
            assert got[-1] == last

    def test_q_side_boundary_closed_forms(self, negation_safe_params):
        params = negation_safe_params
        n = 6
        for j in range(1, 5):
            got = twisted_coeffs(n, j, params, "Q")
            first = sum(
                ttrr_b(n, Params(params.beta - k, params.alpha + k))
                for k in range(1, j + 1)
            )
            last = Fraction(1)
            for k in range(1, j + 1):
                last *= ttrr_b(n - k + 1, Params(params.beta - k, params.alpha + k))
            assert got[0] == first
            assert got[-1] == last

    def test_expansion_identities(self, negation_safe_params):
        params = negation_safe_params
        n = 6
        for j in range(1, n + 1):
            c = twisted_coeffs(n, j, params, "P")
            lhs = hr_poly(n, params.shifted(j, -j))
            rhs = hr_poly(n, params)
            for l, coef in enumerate(c, start=1):
                rhs = rhs + coef * hr_poly(n - l, params)
            assert lhs == rhs, ("P", j)

            e = twisted_coeffs(n, j, params, "Q")
            twisted = params.shifted(j, -j).swapped()
            rhs = hr_poly(n, twisted)
            for l, coef in enumerate(e, start=1):
                rhs = rhs + coef * hr_poly(n - l, twisted)
            assert hr_partner(n, params) == rhs, ("Q", j)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            twisted_coeffs(3, 4, PAIR_A, "P")
        with pytest.raises(ValueError):
            twisted_coeffs(3, 0, PAIR_A, "P")

    # (n, j) = (5, 3): the P side's zero factors k+alpha run over 3 <= k <= 8
    # and the Q side's k+beta over 0 <= k <= 5; each message names the factor
    # the twist recurrence meets first (tests/reference.py)
    @pytest.mark.parametrize(
        "n, j, side, alpha, beta, message",
        [
            (5, 3, "P", -3, Fraction(1, 2), "n+alpha at n=3 = 0"),  # bottom, k = 3
            (5, 3, "P", -5, Fraction(1, 2), "n+alpha+1 at n=4 = 0"),  # middle, k = 5
            (5, 3, "P", -8, Fraction(1, 2), "n+alpha+1 at n=5 = 0"),  # top, k = 8
            (5, 3, "Q", Fraction(1, 2), 0, "n+alpha at n=3 = 0"),  # bottom, k = 0
            (5, 3, "Q", Fraction(1, 2), -2, "n+alpha at n=4 = 0"),  # middle, k = 2
            (5, 3, "Q", Fraction(1, 2), -5, "n+alpha+1 at n=5 = 0"),  # top, k = 5
            # one level with two zero factors, 2+alpha+1 and 3+alpha
            (3, 2, "P", -3, Fraction(1, 2), "n+alpha+1 at n=2 = 0"),
        ],
    )
    def test_pole_names_the_first_zero_factor(self, n, j, side, alpha, beta, message):
        with pytest.raises(ParameterPoleError) as exc:
            twisted_coeffs(n, j, Params(alpha, beta), side)
        assert str(exc.value) == message


def reference_norm_ratio(n, params):
    """norm_ratio as first written, one Fraction product term by term."""
    a, b = params.alpha, params.beta
    out = Fraction(1)
    for k in range(n):
        if a + 1 + k == 0:
            raise ParameterPoleError(f"alpha+1+k at k={k} = 0")
        if b + 1 + k == 0:
            raise ParameterPoleError(f"beta+1+k at k={k} = 0")
        out *= (k + 1) * (a + b + 1 + k) / ((a + 1 + k) * (b + 1 + k))
    return out


def outcome(fn, *args):
    """The value of fn(*args), or the message of the parameter pole it hits."""
    try:
        return fn(*args)
    except ParameterPoleError as exc:
        return f"pole: {exc}"


# small denominators, with the integers (where ttrr_b has its poles) drawn often
small_rationals = st.one_of(
    st.integers(min_value=-6, max_value=3).map(Fraction),
    st.fractions(min_value=-6, max_value=3, max_denominator=3),
)


class TestProductForms:
    """The integer product forms against the recurrences they replace."""

    # the P side's poles and values depend on alpha and alpha+beta, the Q
    # side's on beta and alpha+beta: each side walks the integers -12..4 in
    # its own parameter, against fixed values of the other, so every branch
    # of the pole walk fires at some (n, j) with n <= 10
    TWIST_GRID = [Fraction(k) for k in range(-12, 5)] + [Fraction(-7, 2), Fraction(2, 5)]
    TWIST_OTHERS = (Fraction(1, 3), Fraction(-5, 3), Fraction(2))

    def test_closed_form_matches_the_recurrence_table_on_a_grid(self):
        pairs = [(x, y) for x in self.TWIST_GRID for y in self.TWIST_OTHERS]
        for side, swap in (("P", False), ("Q", True)):
            for x, y in pairs:
                params = Params(y, x) if swap else Params(x, y)
                for n in range(1, 11):
                    for j in range(1, n + 1):
                        want = outcome(reference_twisted_coeffs, n, j, params, side)
                        got = outcome(twisted_coeffs, n, j, params, side)
                        assert got == want, (params, n, j, side)

    @settings(max_examples=150, deadline=None)
    @given(
        alpha=small_rationals,
        beta=small_rationals,
        calls=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=9),
                st.integers(min_value=1, max_value=9),
                st.sampled_from("PQ"),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    # at alpha = -3 the first twist level of (n, j) = (3, 2) has two poles:
    # b_2 (2+alpha+1 = 0) and b_3 (3+alpha = 0); the first in level order wins
    @example(alpha=Fraction(-3), beta=Fraction(1, 2), calls=[(3, 2, "P")])
    @example(alpha=Fraction(-3), beta=Fraction(1, 2), calls=[(3, 1, "P"), (4, 3, "P"), (3, 2, "P")])
    @example(alpha=Fraction(1, 2), beta=Fraction(-1), calls=[(2, 2, "Q"), (4, 3, "Q")])
    def test_closed_form_matches_the_recurrence_table(self, alpha, beta, calls):
        # one example makes several calls; the closed form keeps no state,
        # so a pole is reported at the same factor whatever came before
        params = Params(alpha, beta)
        for n, j, side in calls:
            j = min(j, n)
            want = outcome(reference_twisted_coeffs, n, j, params, side)
            assert outcome(twisted_coeffs, n, j, params, side) == want, (n, j, side)

    @settings(max_examples=100, deadline=None)
    @given(alpha=small_rationals, beta=small_rationals, n=st.integers(min_value=0, max_value=9))
    @example(alpha=Fraction(-3), beta=Fraction(-3), n=5)
    def test_norm_ratio_matches_the_fraction_product(self, alpha, beta, n):
        params = Params(alpha, beta)
        assert outcome(norm_ratio, n, params) == outcome(reference_norm_ratio, n, params)


def reference_expand_in_hr_basis(poly, params):
    """expand_in_hr_basis before the closed form: back-substitution against P_deg..P_0.

    The remainder is kept as integer numerators over one denominator.
    """
    if poly.is_zero:
        return []
    rem, den = [0] * poly.min_exp + list(poly.numerators), poly.denominator
    out = [Fraction(0)] * len(rem)
    for j in range(poly.degree, -1, -1):
        c = rem[j]
        if not c:
            continue
        out[j] = Fraction(c, den)
        p_j = hr_poly(j, params)
        # rem/den - (c/den) P_j, where P_j = nums/d with nums[j] = d
        d = p_j.denominator
        g = gcd(c, d)
        scale, c = d // g, c // g
        nums = p_j.numerators
        if p_j.min_exp:
            nums = (0,) * p_j.min_exp + nums
        rem = [r * scale - c * v for r, v in zip(rem[:j], nums)]
        den *= scale
        if scale != 1:
            h = gcd(den, *rem)
            if h != 1:
                den //= h
                rem = [r // h for r in rem]
    return out


def expansion_values(poly, params):
    """expand_in_hr_basis as Fractions, after checking its integer form."""
    nums, den = expand_in_hr_basis(poly, params)
    assert type(den) is int and den > 0
    assert all(type(v) is int for v in nums)
    return [Fraction(v, den) for v in nums]


class TestBasisExpansion:
    @settings(max_examples=30)
    @given(
        coeffs=st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=7),
            min_size=1,
            max_size=7,
        )
    )
    def test_round_trip(self, coeffs):
        poly = Poly(coeffs)
        expansion = expansion_values(poly, PAIR_A)
        back = Poly.zero()
        for j, e in enumerate(expansion):
            back = back + e * hr_poly(j, PAIR_A)
        assert back == poly

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=small_rationals,
        beta=small_rationals,
        coeffs=st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=5), min_size=1, max_size=31
        ),
        min_exp=st.sampled_from((0, 0, 0, 1, 4)),
    )
    # alpha = -1 poles from degree 1 on and alpha = -4 from degree 4 on, so
    # the degree-3 example at alpha = -4 is regular
    @example(alpha=Fraction(-1), beta=Fraction(1, 2), coeffs=[Fraction(0), Fraction(1)], min_exp=0)
    @example(alpha=Fraction(-4), beta=Fraction(0), coeffs=[Fraction(1)] * 5, min_exp=0)
    @example(alpha=Fraction(-4), beta=Fraction(2), coeffs=[Fraction(1)] * 4, min_exp=0)
    @example(alpha=Fraction(3, 5), beta=Fraction(1, 2), coeffs=[Fraction(0)], min_exp=0)
    @example(alpha=Fraction(-2), beta=Fraction(1, 3), coeffs=[Fraction(2, 3)] * 3, min_exp=1)
    def test_matches_back_substitution(self, alpha, beta, coeffs, min_exp):
        # each integer numerator over the one common denominator must give
        # the value of the old route, and where that route met a pole, the
        # same ParameterPoleError message; the zero polynomial expands to
        # nothing
        params = Params(alpha, beta)
        poly = Poly(coeffs).shifted(min_exp)
        want = outcome(reference_expand_in_hr_basis, poly, params)
        assert outcome(expansion_values, poly, params) == want

    @pytest.mark.usefixtures("fresh_caches")
    def test_builds_no_basis_polynomial(self):
        # at integer beta = -1 the hypergeometric form of P_n has removable
        # poles from degree 2 on; the expansion builds no P_n
        params = Params(Fraction(7, 3), -1)
        poly = Poly([Fraction(k + 1, 3) for k in range(40)])
        before = hr_poly.cache_info().misses
        expansion = expansion_values(poly, params)
        assert hr_poly.cache_info().misses == before
        assert len(expansion) == 40 and expansion[-1] == Fraction(40, 3)


class TestOperators:
    def test_l1_l2_shift_laws(self, generic_params):
        a = generic_params.alpha
        up = generic_params.shifted(1, -1)
        for n in range(7):
            p = hr_poly(n, generic_params)
            assert apply_l1(p, generic_params) == (-n * (n + a + 1)) * hr_poly(
                n, up
            )
            assert apply_l2(p, generic_params) == (-(n + a + 1)) * hr_poly(
                n, up
            )
