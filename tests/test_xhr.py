from fractions import Fraction

import pytest

from xlbp import darboux
from xlbp.darboux import SeedType, make_seed
from xlbp.exact_core import Poly
from xlbp import xhr
from xlbp.hr_classical import (
    CertificationError,
    ParameterPoleError,
    Params,
    hr_poly,
    norm_ratio,
    pochhammer,
)
from xlbp.xhr import (
    InadmissibleIndexError,
    XIndex,
    compact_darboux_sign,
    x_norm_ratio,
    x_partner,
    x_poly,
    x_weight_factor,
)

from xlbp.recurrence import q_poly

from conftest import PAIR_A, PAIR_B, PAIR_C, PAIR_D, clear_package_caches, pairs_for_type
from reference import darboux_route_poly, weight_factor_by_type, xp4_derivative_factor


def ratio_at(factor, z):
    """The structured weight ratio evaluated at a point, as a reference."""
    den = factor.denominator_base(z)
    value = factor.constant_ratio * z**factor.monomial_power / (den * den)
    return value * (z - 1) if factor.linear_power == 1 else value / (1 - z)


class TestIndexSets:
    def test_type1_excludes_seed_degree(self):
        assert not XIndex(1, 2, 2).is_admissible
        assert XIndex(1, 2, 3).is_admissible
        with pytest.raises(InadmissibleIndexError):
            x_poly(XIndex(1, 2, 2), PAIR_A)

    def test_types_2_3_full_range(self):
        for j0 in (2, 3):
            assert XIndex(j0, 1, 0).is_admissible
            assert not XIndex(j0, 1, -1).is_admissible

    def test_type4_added_state(self):
        assert XIndex(4, 2, -3).is_admissible
        assert not XIndex(4, 2, -2).is_admissible
        # a member like any other: the signed constant, of its index's
        # degree, at any pair, and so is its partner
        for params in (PAIR_A, PAIR_C):
            for l0 in (1, 2, 3):
                idx = XIndex(4, l0, -l0 - 1)
                assert idx.degree == 0
                assert x_poly(idx, params) == x_partner(idx, params) == Poly((-1,))

    def test_type4_added_state_has_no_darboux_route_or_exact_norm(self):
        # there is no polynomial Darboux route and no closed-form norm for it
        idx = XIndex(4, 1, -2)
        with pytest.raises(InadmissibleIndexError, match="not a polynomial"):
            darboux_route_poly(idx, PAIR_A)
        with pytest.raises(InadmissibleIndexError, match="n >= 0"):
            x_norm_ratio(idx, PAIR_A)

    def test_degree_formula(self):
        assert XIndex(1, 1, 3).degree == 3
        assert XIndex(2, 2, 3).degree == 5
        assert XIndex(4, 1, 2).degree == 4


class TestConstruction:
    def test_base_case(self):
        assert x_poly(XIndex(1, 1, 0), PAIR_A) == Poly((-1,))

    @pytest.mark.parametrize("j0", [1, 2, 3, 4])
    def test_compact_equals_darboux_route(self, j0):
        sign = compact_darboux_sign(j0)
        for params in pairs_for_type(j0):
            for l0 in (1, 2, 3):
                # the pairs themselves, with no n: compact = sign * z^s * Darboux
                shift = l0 if j0 in (3, 4) else 0
                darboux_pair = make_seed(j0, l0, params).darboux_pair
                expected = tuple(sign * part.shifted(shift) for part in darboux_pair)
                assert xhr._member_pair(j0, l0, params) == expected, (l0, params)
                for n in range(0, 9):
                    idx = XIndex(j0, l0, n)
                    if not idx.is_admissible:
                        continue
                    poly = x_poly(idx, params)
                    assert poly == sign * darboux_route_poly(idx, params)
                    assert poly.degree == idx.degree

    @pytest.mark.usefixtures("fresh_caches")
    def test_degree_drop_without_a_vanishing_factor_is_refused(self, monkeypatch):
        # every named leading factor is nonzero at PAIR_A, so a member of too
        # low a degree refutes the construction rather than marking a pole;
        # a pair that lost the top terms of both A and B builds one
        original = xhr._member_pair

        def truncated(j0, l0, params):
            return tuple(
                part - Poly((part.leading,)).shifted(part.degree)
                for part in original(j0, l0, params)
            )

        monkeypatch.setattr(xhr, "_member_pair", truncated)
        with pytest.raises(CertificationError, match="degree mismatch") as err:
            x_poly(XIndex(2, 1, 3), PAIR_A)
        assert err.value.residual.degree < 4

    @pytest.mark.parametrize("j0", [1, 2, 3, 4])
    def test_vanishing_leading_factor_matches_the_factor_values(self, j0):
        # the named factors of the leading coefficient as values, with the
        # rising factorials formed: the first that is zero is the one a
        # member is refused for, and none is where all are nonzero
        def factors(n, l0, a, b):
            if j0 == 1:
                return [("n-l0", n - l0)]
            if j0 == 2:
                return [("l0-n-alpha-beta", l0 - n - a - b)]
            name, x = ("(beta)_l0", b) if j0 == 3 else ("(-alpha)_l0", -a)
            return [(name, pochhammer(x, l0)), ("n+alpha+1", n + a + 1)]

        grid = [Fraction(k, 2) for k in range(-9, 10)]
        named = set()
        for a in grid:
            for b in grid:
                for l0 in (1, 2, 3):
                    for n in range(6):
                        want = next((f for f, v in factors(n, l0, a, b) if v == 0), None)
                        idx = XIndex(j0, l0, n)
                        assert xhr._vanishing_leading_factor(idx, Params(a, b)) == want
                        named.add(want)
        assert len(named) == (2 if j0 in (1, 2) else 3)

    @pytest.mark.usefixtures("fresh_caches")
    @pytest.mark.parametrize("j0", [1, 2, 3, 4])
    def test_a_member_takes_one_classical_build(self, j0, monkeypatch):
        # X_n = A P_n' + B P_n: the member needs P_n and no P_(n-1)(alpha+1,
        # beta); only type 1's pair reads the seed degrees, P_l0 at (alpha,
        # beta) and P_(l0-1) at (alpha+1, beta)
        for l0 in (1, 2, 3):
            calls = []

            def recording(n, params):
                calls.append((n, params))
                return hr_poly(n, params)

            monkeypatch.setattr(xhr, "hr_poly", recording)
            x_poly(XIndex(j0, l0, 40), PAIR_A)
            shifted = [n for n, params in calls if params == PAIR_A.shifted(1, 0)]
            assert shifted == ([l0 - 1] if j0 == 1 else []), (l0, calls)
            at_pair = sorted(n for n, params in calls if params == PAIR_A)
            assert at_pair == ([l0, 40] if j0 == 1 else [40]), (l0, calls)

    def test_sign_convention(self):
        assert compact_darboux_sign(1) == 1
        assert compact_darboux_sign(2) == 1
        assert compact_darboux_sign(3) == -1
        assert compact_darboux_sign(4) == -1


class TestPartner:
    def test_definition(self, negation_safe_params):
        params = negation_safe_params
        swapped = Params(params.beta - 1, params.alpha + 1)
        for j0 in (1, 2, 3, 4):
            idx = XIndex(j0, 1, 2)
            assert x_partner(idx, params) == x_poly(idx, swapped)

    def test_partner_degree_matches(self):
        for j0 in (1, 2, 3, 4):
            idx = XIndex(j0, 1, 2)
            assert x_partner(idx, PAIR_A).degree == x_poly(idx, PAIR_A).degree

    def test_explicit_plug_in(self):
        idx = XIndex(1, 1, 2)
        direct = x_poly(idx, Params(PAIR_B.beta - 1, PAIR_B.alpha + 1))
        assert x_partner(idx, PAIR_B) == direct


class TestNorms:
    def test_type4_value(self):
        assert x_norm_ratio(XIndex(4, 1, 0), PAIR_B) == -2

    def test_inadmissible_rejected(self):
        with pytest.raises(InadmissibleIndexError):
            x_norm_ratio(XIndex(1, 2, 2), PAIR_A)

    # the norm prefactor of each type written out in n, l0, alpha and beta,
    # independently of the seed eigenvalue x_norm_ratio is built from
    PREFACTORS = {
        1: lambda n, l0, a, b: -(n + b) * (n - l0),
        2: lambda n, l0, a, b: -(n + b) * (n - l0 + a + b),
        3: lambda n, l0, a, b: -(n + b) * (n + l0 + 1 + a + b),
        4: lambda n, l0, a, b: -(n + b) * (n + l0 + 1),
    }

    @pytest.mark.parametrize("j0", [1, 2, 3, 4])
    def test_theta_identity(self, j0):
        # x_norm_ratio's (theta_seed - n)(n + beta) equals the written-out table
        for params in pairs_for_type(j0):
            for l0 in (1, 2):
                for n in range(0, 7):
                    idx = XIndex(j0, l0, n)
                    if not idx.is_admissible:
                        continue
                    prefactor = self.PREFACTORS[j0](n, l0, params.alpha, params.beta)
                    assert x_norm_ratio(idx, params) == prefactor * norm_ratio(n, params)


class TestType4DerivativeFactor:
    @pytest.mark.parametrize(
        "l0,n,pair_idx", [(1, 0, 0), (2, 3, 0), (1, 5, 1), (3, 4, 2)]
    )
    def test_specific_cases(self, l0, n, pair_idx):
        params = pairs_for_type(4)[pair_idx]
        assert xp4_derivative_factor(l0, n, params) is None

    def test_sweep(self):
        for params in pairs_for_type(4):
            for l0 in (1, 2, 3):
                for n in range(0, 9):
                    assert xp4_derivative_factor(l0, n, params) is None, (l0, n, params)


class TestWeightFactors:
    def test_type1_structure(self):
        factor = x_weight_factor(1, 2, PAIR_A)
        assert factor.monomial_power == 2
        assert factor.linear_power == 1
        assert factor.denominator_base == hr_poly(2, PAIR_A)

    def test_type2_denominator(self):
        factor = x_weight_factor(2, 2, PAIR_A)
        assert factor.denominator_base == hr_poly(2, PAIR_A.negated())
        assert factor.linear_power == -1
        assert factor.monomial_power == 3

    def test_reconstruction_at_point(self):
        # C * z^l0 (z-1) / P_1(z)^2 at z = 2 with (1,1): (1/2)*2*1/(5/2)^2
        factor = x_weight_factor(1, 1, PAIR_B)
        assert ratio_at(factor, Fraction(2)) == Fraction(4, 25)

    def test_inverse_linear_reconstruction(self):
        factor = x_weight_factor(2, 1, PAIR_A)
        z = Fraction(3)
        base = factor.denominator_base(z)
        expected = factor.constant_ratio * z**2 / ((1 - z) * base * base)
        assert ratio_at(factor, z) == expected

    def test_constant_prefactors_pair_up(self):
        # types 1/3 share kappa = (beta)_l0/(alpha+1)_l0, m = l0 and (z-1);
        # types 2/4 share kappa = (-alpha)_l0/(1-beta)_l0, m = l0+1 and 1/(1-z)
        a, b = PAIR_A.alpha, PAIR_A.beta
        for l0 in (1, 2):
            f1 = x_weight_factor(1, l0, PAIR_A)
            f3 = x_weight_factor(3, l0, PAIR_A)
            kappa = pochhammer(b, l0) / pochhammer(a + 1, l0)
            assert f1.constant_ratio == f3.constant_ratio == kappa
            assert (f1.monomial_power, f1.linear_power) == (l0, 1)
            assert (f3.monomial_power, f3.linear_power) == (l0, 1)
            f2 = x_weight_factor(2, l0, PAIR_A)
            f4 = x_weight_factor(4, l0, PAIR_A)
            kappa = pochhammer(-a, l0) / pochhammer(1 - b, l0)
            assert f2.constant_ratio == f4.constant_ratio == kappa
            assert (f2.monomial_power, f2.linear_power) == (l0 + 1, -1)
            assert (f4.monomial_power, f4.linear_power) == (l0 + 1, -1)

    RATIO_PAIRS = (
        PAIR_A,
        PAIR_C,
        PAIR_D,
        Params(Fraction(1, 3), Fraction(2, 3)),
        Params(Fraction(-1, 2), Fraction(-1, 4)),
    )
    RATIO_POINTS = (Fraction(2), Fraction(-3), Fraction(1, 7), Fraction(5, 3))

    @pytest.mark.parametrize("j0", [1, 2, 3, 4])
    def test_ratio_equals_the_reference_by_type(self, j0):
        # kappa z^m (z-1)^(+-1) / eta^2 against the per-type classical base
        # and reciprocal constant: for types 3 and 4 eta is kappa times that
        # base (the reversal identity), so the ratios agree exactly
        for params in self.RATIO_PAIRS:
            for l0 in (1, 2, 3):
                factor = x_weight_factor(j0, l0, params)
                reference = weight_factor_by_type(j0, l0, params)
                for z in self.RATIO_POINTS:
                    if reference.denominator_base(z) == 0:
                        # a pole of both ratios: at (-1/2, -1/4) the type-3
                        # base P_1 at (beta-1, alpha+1) = (-5/4, 1/2) is z - 2
                        assert factor.denominator_base(z) == 0, (params, l0, z)
                        continue
                    assert ratio_at(factor, z) == ratio_at(reference, z), (params, l0, z)

    @pytest.mark.parametrize("j0", [1, 2, 3, 4])
    def test_denominator_base_is_the_seed(self, j0):
        for params in pairs_for_type(j0):
            for l0 in (1, 2, 3):
                factor = x_weight_factor(j0, l0, params)
                assert factor.denominator_base is make_seed(j0, l0, params).p_poly

    @pytest.mark.parametrize(
        "j0, l0, alpha, beta, message",
        [
            (1, 2, -2, Fraction(1, 3), "(alpha+1)_2 = 0"),
            (2, 1, Fraction(1, 2), 1, "(1-beta)_1 = 0"),
            (3, 1, Fraction(1, 2), 0, "(beta)_1 = 0"),
            (3, 2, -2, Fraction(1, 3), "(alpha+1)_2 = 0"),
            (4, 1, 0, Fraction(1, 2), "(-alpha)_1 = 0"),
            # both factors vanish: the numerator is refused first
            (4, 1, 0, 1, "(-alpha)_1 = 0"),
            (4, 1, Fraction(1, 2), 1, "(1-beta)_1 = 0"),
        ],
    )
    def test_pole_message_pinned(self, j0, l0, alpha, beta, message):
        with pytest.raises(ParameterPoleError) as info:
            x_weight_factor(j0, l0, Params(alpha, beta))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "j0, l0, alpha, beta, message",
        [
            (3, 2, -2, Fraction(1, 3), "(alpha+1)_2 = 0"),
            (4, 1, Fraction(1, 2), 1, "(1-beta)_1 = 0"),
        ],
    )
    def test_zero_denominator_refuses_the_family_too(self, j0, l0, alpha, beta, message):
        # where a type-3 or type-4 weight is refused for its constant's
        # denominator, the family's members are refused with the same message
        with pytest.raises(ParameterPoleError) as info:
            x_poly(XIndex(j0, l0, 0), Params(alpha, beta))
        assert str(info.value) == message

    def test_a_pole_of_p_n_is_named_before_the_pair(self):
        # x_poly builds P_n before the pair: at alpha = -2 a type-3 member
        # with n >= 1 is refused for P_n's pole, not for kappa's, so the
        # grid manifest's skip reasons keep naming the member's index
        with pytest.raises(ParameterPoleError) as info:
            x_poly(XIndex(3, 2, 3), Params(-2, Fraction(1, 3)))
        assert str(info.value) == "n+alpha+1 at n=1 = 0"

    @pytest.mark.parametrize("j0, alpha, beta", [(1, Fraction(1, 2), 0), (2, 0, Fraction(1, 2))])
    def test_zero_constant_is_not_a_pole(self, j0, alpha, beta):
        # types 1 and 2 refuse only a zero denominator; a zero numerator
        # leaves the seed intact and the constant zero
        params = Params(alpha, beta)
        factor = x_weight_factor(j0, 1, params)
        assert factor.constant_ratio == 0
        assert factor.denominator_base is make_seed(j0, 1, params).p_poly


# every helper that branches on the seed type, called as f(j0)
PER_TYPE_HELPERS = {
    "seed_theta": lambda j0: darboux.seed_theta(j0, 2, PAIR_A),
    "make_seed": lambda j0: make_seed(j0, 2, PAIR_A),
    "psi_hat": lambda j0: darboux.psi_hat(j0, 2, 3, PAIR_A),
    "_first_order_coefficient": lambda j0: darboux._first_order_coefficient(j0, 2, PAIR_A),
    "backward_pair": lambda j0: darboux.backward_pair(
        j0, 2, (Poly((1, 2, 3)), Poly((0, 1))), PAIR_A
    ),
    "xi": lambda j0: darboux.xi(j0, 2, 3, PAIR_A),
    "_member_pair": lambda j0: xhr._member_pair(j0, 2, PAIR_A),
    "_kappa": lambda j0: xhr._kappa(j0, 2, PAIR_A),
    "compact_darboux_sign": compact_darboux_sign,
    "x_weight_factor": lambda j0: x_weight_factor(j0, 2, PAIR_A),
    "q_poly": lambda j0: q_poly(j0, 2, PAIR_A),
}


@pytest.mark.usefixtures("fresh_caches")
@pytest.mark.parametrize("name", sorted(PER_TYPE_HELPERS))
@pytest.mark.parametrize("j0", [1, 2, 3, 4])
def test_plain_int_seed_type_matches_the_member(name, j0):
    # a plain int hashes and compares like its SeedType member, so the two
    # share cache entries: whichever comes first must not fill the entry
    # with another type's value
    helper = PER_TYPE_HELPERS[name]
    values = []
    for first, second in ((j0, SeedType(j0)), (SeedType(j0), j0)):
        clear_package_caches()
        values += [helper(first), helper(second)]
    assert values == [values[0]] * 4
