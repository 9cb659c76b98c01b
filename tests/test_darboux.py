import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlbp.darboux import (
    _first_order_coefficient,
    backward_pair,
    make_seed,
    psi_hat,
    seed_theta,
    xi,
)
from xlbp.exact_core import Poly
from xlbp.hr_classical import ParameterPoleError, Params, hr_poly, pochhammer

from conftest import PAIR_A, PAIR_B, pairs_for_type
from reference import backward_apply

# alpha and beta in {-4, -7/2, ..., 4}: every integer pole of P_l0 for l0 <= 3
GRID = [Fraction(k, 2) for k in range(-8, 9)]
half_integers = st.integers(min_value=-8, max_value=8).map(lambda k: Fraction(k, 2))


def seed_base(j0, params):
    """The pair at which the seed takes P_l0: (alpha, beta) or (-beta, -alpha)."""
    return params if j0 in (1, 3) else params.negated()


def reversal_identity_seed(j0, l0, params):
    """Types 3, 4: z^l0 P_l0(1/z; a, b) = (b)_l0/(a+1)_l0 P_l0(z; b-1, a+1).

    (a, b) is the seed's base pair; a vanishing (a+1)_l0 is a pole of this
    form only.
    """
    base = seed_base(j0, params)
    a, b = base.alpha, base.beta
    den = pochhammer(a + 1, l0)
    if den == 0:
        raise ParameterPoleError(f"(alpha+1)_{l0} = 0 in seed reversal")
    return pochhammer(b, l0) / den * hr_poly(l0, Params(b - 1, a + 1))


class TestSeeds:
    def test_type1_table_entry(self):
        seed = make_seed(1, 1, PAIR_A)
        a, b = PAIR_A.alpha, PAIR_A.beta
        assert seed.p_poly == Poly((b / (a + 1), 1))
        assert seed_theta(1, 1, PAIR_A) == 1
        assert seed.darboux_pair == (seed.p_poly, -seed.p_poly.derivative())

    def test_type4_theta(self):
        assert seed_theta(4, 1, PAIR_A) == -2

    def test_theta_defined_at_seed_pole(self):
        # theta = l0 - alpha - beta is well-defined even where the type-2 seed
        # polynomial itself is singular
        assert seed_theta(2, 2, PAIR_B) == 0
        with pytest.raises(ParameterPoleError):
            make_seed(2, 2, PAIR_B)

    def test_theta_printed_values(self):
        a, b = PAIR_A.alpha, PAIR_A.beta
        assert [seed_theta(j0, 2, PAIR_A) for j0 in (1, 2, 3, 4)] == [
            2, 2 - a - b, -3 - a - b, -3
        ]

    def test_seed_degree(self):
        for j0 in (1, 2, 3, 4):
            for l0 in (1, 2, 3):
                params = pairs_for_type(j0)[0]
                assert make_seed(j0, l0, params).p_poly.degree == l0

    def test_factor_tables(self):
        # the Darboux pair is (Q p, -Q p' - P p) with the gauge table's
        # P and Q, p the seed polynomial in z (type 2) or 1/z (types 3, 4)
        a, b = PAIR_A.alpha, PAIR_A.beta
        table = {
            2: (Poly((a + b,)), Poly((1, -1))),
            3: (Poly((1 + a,)), Poly((0, -1))),
            4: (Poly((b - 1, a + 1)), Poly((0, 1, -1))),
        }
        for j0, (p_factor, q_factor) in table.items():
            seed = make_seed(j0, 1, PAIR_A)
            p = seed.p_poly if j0 == 2 else seed.p_poly.shifted(-1)
            want = (q_factor * p, -q_factor * p.derivative() - p_factor * p)
            assert seed.darboux_pair == want, j0

    @pytest.mark.parametrize("j0", [3, 4])
    def test_reversed_seed_matches_reversal_identity(self, j0):
        # the seed is P_l0 reversed; the identity rebuilds it from P_l0 at
        # (b-1, a+1), wherever both are defined
        compared = 0
        for alpha in GRID:
            for beta in GRID:
                params = Params(alpha, beta)
                for l0 in (1, 2, 3):
                    try:
                        want = reversal_identity_seed(j0, l0, params)
                        got = make_seed(j0, l0, params).p_poly
                    except ParameterPoleError:
                        continue
                    assert got == want, (j0, l0, params)
                    compared += 1
        assert compared > 500

    @settings(max_examples=200, deadline=None)
    @given(
        j0=st.integers(min_value=1, max_value=4),
        l0=st.integers(min_value=1, max_value=3),
        alpha=half_integers,
        beta=half_integers,
    )
    def test_seed_poles_are_the_poles_of_p_l0(self, j0, l0, alpha, beta):
        # make_seed raises exactly when P_l0 at its base pair does, with the
        # same message: at an integer base alpha in {-l0, ..., -1}
        params = Params(alpha, beta)
        base = seed_base(j0, params)
        try:
            hr_poly(l0, base)
        except ParameterPoleError as exc:
            with pytest.raises(ParameterPoleError, match=f"^{re.escape(str(exc))}$"):
                make_seed(j0, l0, params)
            assert base.alpha.denominator == 1 and -l0 <= base.alpha <= -1
        else:
            assert make_seed(j0, l0, params).p_poly.degree <= l0
            assert not (base.alpha.denominator == 1 and -l0 <= base.alpha <= -1)

    def test_seed_type_validation(self):
        with pytest.raises(ValueError):
            make_seed(5, 1, PAIR_A)
        with pytest.raises(ValueError):
            make_seed(1, 0, PAIR_A)


class TestPsiHat:
    def test_base_case_is_minus_one(self):
        assert psi_hat(1, 1, 0, PAIR_A) == Poly((-1,))

    def test_excluded_member_vanishes(self):
        for l0 in (1, 2, 3):
            assert psi_hat(1, l0, l0, PAIR_A).is_zero

    @pytest.mark.parametrize(
        "j0, l0, n, alpha, beta",
        [(3, 1, 1, -2, -1), (4, 1, 0, -1, 2), (2, 1, 0, "1/3", "2/3"), (2, 2, 1, "1/3", "2/3")],
    )
    def test_vanishing_member_is_a_pole(self, j0, l0, n, alpha, beta):
        # only the excluded type-1 member may vanish; any other is a pole.  At
        # n+alpha+1 = 0 the type-3 member vanishes; at alpha + beta = 1 the
        # type-2 leading factor l0-n-alpha-beta does, and is named
        message = f"the type-{j0} member vanishes at l0={l0}, n={n}"
        if j0 == 2:
            message = f"l0-n-alpha-beta = 0 at l0={l0}, n={n}: the type-2 member vanishes"
        with pytest.raises(ParameterPoleError, match=f"^{re.escape(message)}$"):
            psi_hat(j0, l0, n, Params(Fraction(alpha), Fraction(beta)))

    def test_pole_order_for_reversed_types(self):
        for j0 in (3, 4):
            ph = psi_hat(j0, 2, 3, PAIR_A)
            assert ph.min_exp >= -2
            assert ph.shifted(2).require_polynomial().degree >= 0


class TestBackwardOperator:
    @pytest.mark.parametrize("j0", [1, 2, 3, 4])
    def test_image_law(self, j0):
        for params in pairs_for_type(j0):
            shifted = params.shifted(1, -1)
            for l0 in (1, 2, 3):
                for n in range(0, 11):
                    if j0 == 1 and n == l0:
                        continue
                    image, remainder = backward_apply(j0, l0, psi_hat(j0, l0, n, params), params)
                    assert remainder.is_zero, (j0, l0, n, params)
                    expected = xi(j0, l0, n, params) * hr_poly(n, shifted)
                    assert image == expected, (j0, l0, n, params)

    def test_type4_added_state_maps_to_zero(self):
        for l0 in (1, 2, 3):
            image, remainder = backward_apply(4, l0, Poly.one().shifted(-l0), PAIR_A)
            assert remainder.is_zero and image.is_zero

    def test_generic_input_not_divisible(self):
        probe = Poly((1, 2, 3, 5, 7))
        image, remainder = backward_apply(1, 1, probe, PAIR_A)
        assert not remainder.is_zero
        # quotient * divisor + remainder reproduces the first-order expression
        seed = make_seed(1, 1, PAIR_A)
        numerator = Poly((0, 1, -1)) * probe.derivative()
        a, b = PAIR_A.alpha, PAIR_A.beta
        numerator = numerator + Poly((1 - b - 1, 1 - a - 2)) * probe
        back = image * seed.p_poly + remainder
        assert back == numerator

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError):
            backward_apply(1, 1, Poly.zero(), PAIR_A)

    @pytest.mark.parametrize("j0", [1, 2, 3, 4])
    def test_pair_image_law(self, j0):
        # on the seed's own Darboux pair the image pair gives xi_n P_n(alpha+1, beta-1)
        # at every n, the excluded type-1 member's zero included
        for params in pairs_for_type(j0):
            shifted = params.shifted(1, -1)
            for l0 in (1, 2, 3):
                ((e0, e1), (f0, f1)), remainder = backward_pair(
                    j0, l0, make_seed(j0, l0, params).darboux_pair, params
                )
                assert remainder.is_zero, (j0, l0, params)
                for n in range(0, 11):
                    p_n = hr_poly(n, params)
                    image = (e0 + n * e1) * p_n.derivative() + (f0 + n * f1) * p_n
                    assert image == xi(j0, l0, n, params) * hr_poly(n, shifted), (j0, l0, n)

    def test_pair_not_divisible_returns_the_first_remainder(self):
        # the four entries are (U_0 + ell a, U_1 - U_0, V_0 + ell b, V_1 - V_0);
        # with b = 0 and a = 1 the first is z(1-z)*0 + (n(1-z) - B1) + ell at
        # n = 0, a linear polynomial that the seed's linear A does not divide
        divisor = make_seed(1, 1, PAIR_A).darboux_pair[0]
        pair = (Poly.one(), Poly.zero())
        ((e0, _), _), remainder = backward_pair(1, 1, pair, PAIR_A)
        numerator = _first_order_coefficient(1, 1, PAIR_A) - Poly(
            (1 - PAIR_A.beta, -(2 + PAIR_A.alpha))
        )
        assert not remainder.is_zero
        assert e0 * divisor + remainder == numerator


class TestEigenvalues:
    def test_vanishing_at_type1_seed_index(self):
        assert xi(1, 3, 3, PAIR_A) == 0

    def test_plugged_value(self):
        assert xi(4, 1, 3, Params(1, Fraction(1, 2))) == -25

    def test_type3_base(self):
        a, b = PAIR_A.alpha, PAIR_A.beta
        theta = -3 - a - b
        assert xi(3, 2, 0, PAIR_A) == theta * (a + 1)

    def test_vanishing_xi_matches_vanishing_member(self):
        # whenever xi = 0 at an admissible type-1 construction the transformed
        # eigenfunction itself vanishes
        for l0 in (1, 2):
            assert xi(1, l0, l0, PAIR_A) == 0
            assert psi_hat(1, l0, l0, PAIR_A).is_zero

