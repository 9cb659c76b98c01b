from fractions import Fraction

import pytest

import grid_manifest
from xlbp import recurrence, xhr
from xlbp.darboux import make_seed, psi_hat, seed_theta, xi
from xlbp.exact_core import Poly
from xlbp.hr_classical import ParameterPoleError, Params, hr_poly, pochhammer, twisted_coeffs
from xlbp.recurrence import (
    CertificationError,
    _c_row,
    _c_top,
    _c_vector,
    _image_residual,
    _solve_b,
    a_coeffs_formula,
    a_coeffs_solver,
    certify,
    example_oracles,
    q_poly,
)
from xlbp.xhr import XIndex, x_poly

from conftest import PACKAGE_CACHES, PAIR_A, clear_package_caches, pairs_for_recurrence
from reference import (
    backward_apply,
    example3_middle_coefficient_as_published,
    example_a_oracles,
    shifted_family_residual,
    stacked_expansion,
)
from test_darboux import GRID, reversal_identity_seed, seed_base
from test_hr_classical import reference_expand_in_hr_basis

# the right companion factor of each type: z(1-z), z, 1-z, -1
PI_FACTOR = {
    1: Poly((0, 1, -1)),
    2: Poly((0, 1)),
    3: Poly((1, -1)),
    4: Poly((-1,)),
}


def c_values(j0, l0, n, params):
    """_c_row as Fractions: each numerator over the row's denominator."""
    nums, den = _c_row(j0, l0, n, params)
    return [Fraction(v, den) for v in nums]


def spy_solves(monkeypatch) -> list:
    """Record (rows, nullity) of every solve_exact call the a-solver makes."""
    solves = []
    original = recurrence.solve_exact

    def spy(matrix):
        solution = original(matrix)
        solves.append((len(matrix), len(solution.nullspace)))
        return solution

    monkeypatch.setattr(recurrence, "solve_exact", spy)
    return solves


def stacked_window_rows(idx, a, params):
    """The stacked sums sum_l a_l c_{n-l,m} on the window-vanishing rows m < n-l0."""
    return stacked_expansion(idx, a, params)[: idx.n - idx.l0]


def reduced_xi_reading(idx, params):
    """Types 3, 4: the twist coefficients times (n-theta)/(n-l-theta).

    A display shorthand drops the (m+alpha+1) factor of the backward
    eigenvalue -(m-theta)(m+alpha+1); the tests refute this reading.
    """
    j0, l0, n = idx.j0, idx.l0, idx.n
    theta = seed_theta(j0, l0, params)
    base = twisted_coeffs(n, l0 + 1, params.shifted(1, -1), side="P")
    return [Fraction(1)] + [
        c * (n - theta) / (n - l - theta) for l, c in enumerate(base, start=1)
    ]


def hypergeometric_q(j0, l0, params):
    """q through the derivative identity P'_{m+1}(z; a-1, b) = (m+1) P_m(z; a, b).

    Types 3 and 4 also take the reversal identity's prefactor and pair;
    both forms pole where their shifted pairs do, as well as where q does.
    """
    a, b = params.alpha, params.beta
    if j0 == 1:
        base, pref = Params(a - 1, b), Fraction(1)
    elif j0 == 2:
        base, pref = Params(-b - 1, -a), Fraction(1)
    elif j0 == 3:
        den = pochhammer(a + 1, l0)
        if den == 0:
            raise ParameterPoleError(f"(alpha+1)_{l0} = 0")
        base, pref = Params(b - 2, a + 1), pochhammer(b, l0) / den
    else:
        den = pochhammer(-b + 1, l0)
        if den == 0:
            raise ParameterPoleError(f"(1-beta)_{l0} = 0")
        base, pref = Params(-a - 2, -b + 1), pochhammer(-a, l0) / den
    p = hr_poly(l0 + 1, base)
    return (pref / (l0 + 1)) * (p - Poly((p.coeff(0),)))


class TestQPoly:
    def test_type1_printed_form(self, generic_params):
        a, b = generic_params.alpha, generic_params.beta
        assert q_poly(1, 1, generic_params) == Poly((0, b / (1 + a), Fraction(1, 2)))

    def test_type4_printed_form(self, negation_safe_params):
        a, b = negation_safe_params.alpha, negation_safe_params.beta
        assert q_poly(4, 1, negation_safe_params) == Poly((0, 1, a / (2 * (b - 1))))

    @pytest.mark.parametrize("j0", [1, 2, 3, 4])
    def test_vanishes_at_origin_and_degree(self, j0):
        for params in pairs_for_recurrence(j0):
            for l0 in (1, 2, 3):
                q = q_poly(j0, l0, params)
                assert q.coeff(0) == 0
                assert q.degree == l0 + 1

    @pytest.mark.parametrize("j0", [1, 2, 3, 4])
    def test_derivative_recovers_seed(self, j0):
        # q' equals the seed polynomial, for types 3 and 4 as the reversal
        # identity builds it from P_l0 at another pair
        for params in pairs_for_recurrence(j0):
            for l0 in (1, 2, 3):
                seed = (
                    hr_poly(l0, seed_base(j0, params))
                    if j0 in (1, 2)
                    else reversal_identity_seed(j0, l0, params)
                )
                assert q_poly(j0, l0, params).derivative() == seed

    @pytest.mark.parametrize("j0", [1, 2, 3, 4])
    def test_matches_hypergeometric_antiderivative(self, j0):
        # pref/(l0+1) (P_{l0+1}(base) - P_{l0+1}(base)(0)) at a shifted pair
        # is q wherever that form is defined; where it poles, q exists anyway
        compared = widened = 0
        for alpha in GRID:
            for beta in GRID:
                params = Params(alpha, beta)
                for l0 in (1, 2, 3):
                    try:
                        want = hypergeometric_q(j0, l0, params)
                    except ParameterPoleError:
                        try:
                            q_poly(j0, l0, params)
                            widened += 1
                        except ParameterPoleError:
                            pass
                        continue
                    assert q_poly(j0, l0, params) == want, (j0, l0, params)
                    compared += 1
        assert compared > 500 and widened > 0


class TestPiFactor:
    def test_type1_product_is_a1(self):
        # the type-1 Darboux pair's A is Q p, so Q = A / p
        seed = make_seed(1, 1, PAIR_A)
        q_factor, remainder = divmod(seed.darboux_pair[0], seed.p_poly)
        assert remainder.is_zero
        assert q_factor * PI_FACTOR[1] == Poly((0, 1, -1))  # z(1-z)


class TestCExpansion:
    def test_top_coefficient_nonzero(self, negation_safe_params):
        for j0 in (1, 2, 3, 4):
            for l0 in (1, 2):
                for n in range(0, 5):
                    idx = XIndex(j0, l0, n)
                    if not idx.is_admissible:
                        continue
                    nums, den = _c_row(j0, l0, n, negation_safe_params)
                    assert len(nums) == n + l0 + 2
                    assert nums[-1] != 0 and den > 0

    @pytest.mark.parametrize("j0", [1, 2, 3, 4])
    def test_cached_entries_are_the_rows_certify_reads(self, j0):
        # the bottom l0+3 rows, as in the full expansion over the same
        # denominator (zero above a low member's top), and the image the
        # full row expands
        params = pairs_for_recurrence(j0)[1]
        shifted = params.shifted(1, -1)
        for l0 in (1, 2):
            for m in range(0, 16):
                if not XIndex(j0, l0, m).is_admissible:
                    continue
                image, nums, den = _c_vector(j0, l0, m, params)
                full, full_den = _c_row(j0, l0, m, params)
                assert den == full_den
                assert nums == (full + (0,) * (l0 + 3))[: l0 + 3], (l0, m)
                assert image == sum(
                    (Fraction(v, den) * hr_poly(j, shifted) for j, v in enumerate(full)),
                    Poly.zero(),
                )

    @pytest.mark.parametrize(
        "params",
        [
            PAIR_A,
            Params(Fraction(7, 3), Fraction(-1, 4)),
            Params(2, Fraction(1, 2)),
            Params(Fraction(4, 5), 1),
            Params(1, Fraction(1, 3)),
            Params(-2, Fraction(1, 2)),
            Params(-3, Fraction(2, 3)),
            Params(-4, -4),
            Params(-5, 2),
        ],
        ids=str,
    )
    def test_top_rows_are_the_full_rows(self, params):
        # the rows m-2l0-3..m read from the image's top terms are the full
        # expansion's (zero below row 0), or the same refusal: at a negative
        # integer alpha the expansion poles at alpha+1+k = 0 for k up to the
        # image's degree, which the top rows never divide by, and a
        # vanishing member has a zero image
        def outcome(route):
            try:
                nums, den = route()
            except (ValueError, ParameterPoleError) as exc:
                return type(exc), str(exc)
            return [Fraction(v, den) for v in nums]

        def full_rows(j0, l0, m):
            nums, den = _c_row(j0, l0, m, params)
            return [nums[j] if j >= 0 else 0 for j in range(m - 2 * l0 - 3, m + 1)], den

        refusals = set()
        for j0 in (1, 2, 3, 4):
            for l0 in (1, 2, 3):
                for m in range(41):
                    if not XIndex(j0, l0, m).is_admissible:
                        continue
                    want = outcome(lambda: full_rows(j0, l0, m))
                    assert outcome(lambda: _c_top(j0, l0, m, params)) == want, (j0, l0, m)
                    if isinstance(want, tuple):
                        refusals.add(want[1])
        if params.alpha < 0:
            k = -params.alpha - 1
            assert ("alpha+1 = 0" if k == 1 else f"n+alpha+1 at n={k - 1} = 0") in refusals

    def test_inadmissible_rejected(self):
        # the excluded type-1 member vanishes, so the backward operator has
        # no input and neither route expands it; the reference stacked
        # expansion, which reaches it from n = 2*l0+1, reads its row as zero
        for route in (_c_vector, _c_row):
            with pytest.raises(ValueError, match="must be nonzero"):
                route(1, 1, 1, PAIR_A)
        assert stacked_expansion(XIndex(1, 1, 3), [0, 0, 1], PAIR_A) == [0] * 6

    def test_reconstruction(self):
        params = Params(1, 1)
        idx = XIndex(1, 1, 3)
        shifted = params.shifted(1, -1)
        recon = Poly.zero()
        for j, c in enumerate(c_values(1, 1, 3, params)):
            recon = recon + c * hr_poly(j, shifted)
        combo = xi(1, 1, 3, params) * q_poly(1, 1, params) * hr_poly(
            3, shifted
        ) + PI_FACTOR[1] * x_poly(idx, params)
        assert recon == combo

    @pytest.mark.parametrize("j0", [1, 2, 3, 4])
    def test_operator_route_matches_combination(self, j0):
        # the backward image of q * psi_hat equals
        # xi_n q P_n(.; alpha+1, beta-1) + pi * (compact-form member)
        params = pairs_for_recurrence(j0)[0]
        shifted = params.shifted(1, -1)
        for l0 in (1, 2):
            for n in range(0, 6):
                idx = XIndex(j0, l0, n)
                if not idx.is_admissible:
                    continue
                recon = Poly.zero()
                for j, c in enumerate(c_values(j0, l0, n, params)):
                    recon = recon + c * hr_poly(j, shifted)
                combo = xi(j0, l0, n, params) * q_poly(j0, l0, params) * hr_poly(
                    n, shifted
                ) + PI_FACTOR[j0] * x_poly(idx, params)
                assert recon == combo, (j0, l0, n)

    @pytest.mark.parametrize("j0", [1, 2, 3, 4])
    def test_matches_reference_expansion_of_the_backward_image(self, j0):
        # the integer c-vector, read as Fractions, is the old back-substitution
        # expansion of the backward image, zero-padded to n+l0+2 entries
        for params in pairs_for_recurrence(j0):
            shifted = params.shifted(1, -1)
            for l0 in (1, 2):
                for n in range(0, 2 * l0 + 6):
                    if not XIndex(j0, l0, n).is_admissible:
                        continue
                    product = q_poly(j0, l0, params) * psi_hat(j0, l0, n, params)
                    image, _ = backward_apply(j0, l0, product, params)
                    want = reference_expand_in_hr_basis(image.require_polynomial(), shifted)
                    want += [Fraction(0)] * (n + l0 + 2 - len(want))
                    assert c_values(j0, l0, n, params) == want, (j0, l0, n)

    @pytest.mark.parametrize(
        "params",
        [
            Params(Fraction(3, 5), Fraction(1, 2)),
            Params(Fraction(7, 3), Fraction(-1, 4)),
            Params(1, Fraction(1, 3)),
            Params(Fraction(4, 5), 1),
        ],
        ids=str,
    )
    @pytest.mark.parametrize("j0", [1, 2, 3, 4])
    def test_image_pair_matches_the_member_level_operator(self, j0, params):
        # the seed's image pair gives the image the backward operator leaves
        # of the expanded q * psi_hat_m, with no remainder, or the same
        # refusal: the excluded type-1 member, and parameter poles of the
        # negated seeds at the integer pairs
        def outcome(route):
            try:
                return route()
            except (ValueError, ParameterPoleError) as exc:
                return type(exc), str(exc)

        def member_level(l0, m):
            image, remainder = backward_apply(
                j0, l0, q_poly(j0, l0, params) * psi_hat(j0, l0, m, params), params
            )
            assert remainder.is_zero, (l0, m)
            return image

        for l0 in (1, 2, 3, 4):
            for m in [*range(2 * l0 + 4), 60, 99]:
                want = outcome(lambda: member_level(l0, m))
                assert outcome(lambda: _c_vector(j0, l0, m, params)[0]) == want, (l0, m)

    @pytest.mark.usefixtures("fresh_caches")
    def test_psi_hat_is_built_only_for_a_zero_image(self, monkeypatch):
        # the images come from the seed's image pair; psi_hat only names a
        # vanishing member, so a certificate with none never calls it
        def forbidden(*args):
            raise AssertionError(f"psi_hat{args} called")

        monkeypatch.setattr(recurrence, "psi_hat", forbidden)
        for j0 in (1, 2, 3, 4):
            assert certify(XIndex(j0, 2, 9), PAIR_A).residual_zero
        with pytest.raises(AssertionError, match="psi_hat"):
            _c_vector(1, 2, 2, PAIR_A)

    @pytest.mark.parametrize(
        "params",
        [PAIR_A, Params(-2, Fraction(1, 2)), Params(-3, Fraction(2, 3)), Params(-4, -4)],
        ids=str,
    )
    def test_image_sum_is_the_sum_of_the_images(self, params):
        # the residual's left side, summed in pair form from S1 and T1,
        # equals the sum of the built images, and where a member's image is
        # refused (the expansion's pole at a negative integer alpha, a
        # vanishing member) the sum is refused first with the same message
        def outcome(route):
            try:
                return route()
            except (ValueError, ParameterPoleError) as exc:
                return type(exc), str(exc)

        def built(idx, a):
            out = Poly.zero()
            for l, a_l in enumerate(a):
                if XIndex(idx.j0, idx.l0, idx.n - l).is_admissible:
                    image = _c_vector(idx.j0, idx.l0, idx.n - l, params)[0]
                    out = out + a_l * image
            return out

        refused = 0
        for j0 in (1, 2, 3, 4):
            for l0 in (1, 2):
                for n in range(7):
                    idx = XIndex(j0, l0, n)
                    a = [Fraction(1, l + 1) for l in range(min(l0 + 2, n + 1))]
                    want = outcome(lambda: built(idx, a))
                    got = outcome(
                        lambda: Poly.from_numerators(*recurrence._image_sum(idx, a, params))
                    )
                    assert got == want, (j0, l0, n)
                    refused += isinstance(want, tuple)
        assert refused > 0 or params == PAIR_A

    @pytest.mark.usefixtures("fresh_caches")
    def test_image_pair_with_a_pole_at_zero_builds_the_images(self, monkeypatch):
        # an image pair with a pole at 0 leaves each member to the image
        # _c_vector builds, which refuses a non-polynomial image by name, in
        # the solver and in the thm11 residual alike
        original = recurrence._image_pair

        def over_z(j0, l0, params):
            return tuple(tuple(p.shifted(-1) for p in half) for half in original(j0, l0, params))

        monkeypatch.setattr(recurrence, "_image_pair", over_z)
        assert recurrence._image_numerators(3, 1, PAIR_A) is None
        for mode, k in (("thm12", None), ("thm11", 3)):
            with pytest.raises(ValueError, match="not a polynomial: pole of order 1 at 0"):
                certify(XIndex(3, 1, 9), PAIR_A, mode=mode, k=k)

    def test_residual_is_integers_over_one_denominator(self):
        # nums[k]/den is the z^k coefficient of sum_l a_l I_{n-l} - sum_j w_j P_j
        # with w_j = b_j xi_j and P_j at (alpha+1, beta-1), and its expansion
        # is the stacked sums less the weights
        params = Params(Fraction(7, 3), Fraction(-1, 4))
        shifted = params.shifted(1, -1)
        for j0 in (1, 2, 3, 4):
            idx = XIndex(j0, 2, 7)
            a = [Fraction(1), Fraction(-2, 3), Fraction(5, 7), Fraction(0)]
            b = {3: Fraction(1, 2), 8: Fraction(-4, 9), 10: Fraction(0)}
            weights = {j: v * xi(j0, 2, j, params) for j, v in b.items()}
            nums, den = _image_residual(idx, a, b, params)
            assert all(type(v) is int for v in nums) and den > 0
            assert len(nums) == idx.n + idx.l0 + 2
            images = [_c_vector(j0, 2, idx.n - l, params)[0] for l in range(len(a))]
            want = sum((a_l * image for a_l, image in zip(a, images)), Poly.zero()) - sum(
                (w * hr_poly(j, shifted) for j, w in weights.items()), Poly.zero()
            )
            assert [Fraction(v, den) for v in nums] == list(want.coeffs) + [0] * (
                len(nums) - len(want.coeffs)
            ), j0
            sums = stacked_expansion(idx, a, params)
            expanded = reference_expand_in_hr_basis(want, shifted)
            assert expanded == [s - weights.get(m, 0) for m, s in enumerate(sums)], j0

    @pytest.mark.parametrize(
        "params",
        [
            PAIR_A,
            Params(Fraction(7, 3), Fraction(-1, 4)),
            Params(Fraction(5, 2), Fraction(7, 5)),
            Params(1, Fraction(1, 3)),
            Params(Fraction(4, 5), 1),
            Params(3, 2),
            Params(Fraction(-1, 2), Fraction(-1, 4)),
        ],
        ids=str,
    )
    def test_residual_matches_the_shifted_family_route(self, params):
        # the one L2 over the P_j at (alpha, beta) gives the residual that
        # sums b_j xi_j P_j(.; alpha+1, beta-1) gives, on certified (a, b)
        # and on perturbed ones, which make it nonzero; a b at the type-4
        # added state, which sits at theta, changes neither
        checked = nonzero = 0
        for j0 in (1, 2, 3, 4):
            for l0 in (1, 2, 3):
                for mode, n, k in (("thm12", 2 * l0 + 3, None), ("thm11", l0 + 3, 3)):
                    idx = XIndex(j0, l0, n)
                    try:
                        cert = certify(idx, params, mode=mode, k=k)
                    except ParameterPoleError:
                        continue
                    a, b = list(cert.a), dict(cert.b)
                    top = max(b)
                    candidates = [
                        (a, b),
                        (a[:-1] + [a[-1] + Fraction(1, 7)], b),
                        (a, {**b, top: b[top] - Fraction(2, 3)}),
                        (a, {**b, min(b): b[min(b)] + 1}),
                    ]
                    for a_try, b_try in candidates:
                        nums, den = _image_residual(idx, a_try, b_try, params)
                        want = shifted_family_residual(idx, a_try, b_try, params)
                        assert Poly.from_numerators(nums, den) == want, (j0, l0, mode)
                        checked += 1
                        nonzero += not want.is_zero
                    if j0 == 4 and mode == "thm11":
                        assert min(b) == -l0 - 1
                        assert shifted_family_residual(idx, a, candidates[3][1], params).is_zero
        assert checked >= 40 and nonzero >= checked // 2


class TestACoefficients:
    def test_normalisation(self, negation_safe_params):
        for j0 in (1, 2, 3, 4):
            a = a_coeffs_formula(XIndex(j0, 1, 5), negation_safe_params)
            assert a[0] == 1 and len(a) == 3

    def test_precondition(self):
        with pytest.raises(ValueError):
            a_coeffs_formula(XIndex(1, 1, 2), PAIR_A)
        with pytest.raises(ValueError):
            a_coeffs_solver(XIndex(1, 2, 4), PAIR_A)

    @pytest.mark.parametrize("j0", [1, 2])
    def test_solver_matches_formula_types_1_2(self, j0):
        for params in pairs_for_recurrence(j0):
            for l0 in (1, 2):
                for n in range(2 * l0 + 1, 8):
                    outcome = a_coeffs_solver(XIndex(j0, l0, n), params)
                    assert outcome.nullity == 1
                    assert list(outcome.a) == a_coeffs_formula(
                        XIndex(j0, l0, n), params
                    ), (j0, l0, n)

    @pytest.mark.parametrize("j0", [3, 4])
    def test_full_eigenvalue_reading_wins_types_3_4(self, j0):
        # the closed formula needs the full -(n-theta)(n+alpha+1) eigenvalue;
        # dropping the second factor (as one display shorthand suggests) does
        # not reproduce the solver route
        for params in pairs_for_recurrence(j0):
            idx = XIndex(j0, 1, 5)
            assert not any(stacked_window_rows(idx, a_coeffs_formula(idx, params), params))
            solver = a_coeffs_solver(idx, params).a
            assert list(solver) == a_coeffs_formula(idx, params)
            reduced = reduced_xi_reading(idx, params)
            assert list(solver) != reduced
            assert any(stacked_window_rows(idx, reduced, params))

    @pytest.mark.parametrize(
        "j0, params",
        [(4, Params(1, Fraction(1, 3))), (3, Params(Fraction(3, 5), 2)), (1, Params(1, 1))],
    )
    def test_window_membership_where_the_solver_is_not_unique(self, j0, params, monkeypatch):
        # the window rows have a two-dimensional solution space here, so there
        # is no solver a to compare with; the closed form still lies in it.
        # The rows below the window show the deficiency first, then the
        # bottom block, and the solve is repeated on all six rows
        idx = XIndex(j0, 1, 7)
        solves = spy_solves(monkeypatch)
        assert a_coeffs_solver(idx, params).nullity == 2
        assert solves == [(4, 2), (4, 2), (6, 2)]
        assert not any(stacked_window_rows(idx, a_coeffs_formula(idx, params), params))
        assert "a-formula-fallback(nullspace-dim=2)" in certify(idx, params).method_tags

    @pytest.mark.parametrize("j0", [1, 2, 3, 4])
    def test_generic_solve_reads_only_the_bottom_block(self, j0, monkeypatch):
        # one solve on l0+3 rows, those just below the window, which no
        # bottom row of `_c_vector` joins; the residual proves the rest
        solves = spy_solves(monkeypatch)
        for l0 in (1, 2):
            for n in (2 * l0 + 1, 2 * l0 + 4, 2 * l0 + 9):
                solves.clear()
                outcome = a_coeffs_solver(XIndex(j0, l0, n), PAIR_A)
                assert outcome.nullity == 1
                assert solves == [(min(l0 + 3, n - l0), 1)], (l0, n)

    @pytest.mark.parametrize("j0, l0, n", [(1, 1, 9), (2, 1, 31), (3, 2, 12)])
    def test_deficient_rows_below_the_window_fall_back_to_the_bottom_block(
        self, j0, l0, n, monkeypatch
    ):
        # at alpha = 1 the rows just below the window leave two dimensions
        # where the bottom l0+3 rows leave one: the bottom block then gives
        # the solver's a, with the tags of a unique solve
        params = Params(1, Fraction(1, 2))
        idx = XIndex(j0, l0, n)
        solves = spy_solves(monkeypatch)
        outcome = a_coeffs_solver(idx, params)
        assert solves == [(l0 + 3, 2), (l0 + 3, 1)]
        assert list(outcome.a) == a_coeffs_formula(idx, params)
        tags = certify(idx, params).method_tags
        assert tags[1] == "a-solver" and tags == certify(idx, PAIR_A).method_tags

    @pytest.mark.parametrize("j0", [1, 2, 3, 4])
    def test_residual_decides_the_rows_below_the_window(self, j0):
        # with b_j = e_j / xi_j from the window's stacked sums e_j the
        # residual is zero exactly when every stacked sum below the window
        # is: the closed form passes, a perturbed last entry and (types 3,
        # 4) the reduced eigenvalue reading fail
        for params in pairs_for_recurrence(j0):
            for l0 in (1, 2):
                idx = XIndex(j0, l0, 2 * l0 + 6)
                formula = a_coeffs_formula(idx, params)
                candidates = [formula, formula[:-1] + [formula[-1] + Fraction(1, 7)]]
                if j0 in (3, 4):
                    candidates.append(reduced_xi_reading(idx, params))
                for a in candidates:
                    sums = stacked_expansion(idx, a, params)
                    window = dict(enumerate(sums))
                    below = not any([window.pop(j) for j in range(idx.n - l0)])
                    xis = {j: xi(j0, l0, j, params) for j in window}
                    assert all(xis.values())
                    b = {j: e / xis[j] for j, e in window.items()}
                    nums, _ = _image_residual(idx, a, b, params)
                    assert (not any(nums)) == below
                    assert below == (a is formula), (l0, params)

    def test_degenerate_slot_at_sharp_bound(self):
        # type 1 at n = 2 l0 + 1: the last slot multiplies the vanishing
        # member; the solver fills it from the closed formula
        outcome = a_coeffs_solver(XIndex(1, 1, 3), PAIR_A)
        assert outcome.nullity == 1
        assert list(outcome.a) == a_coeffs_formula(XIndex(1, 1, 3), PAIR_A)

    def test_integer_pair_degeneracy_detected_and_bridged(self):
        # At (1, 1) the moment functional has support {-1, 0, 1} only, so the
        # window-vanishing conditions collapse and the solver route cannot
        # normalise a; certify falls back to the closed formula (recorded in
        # the method tags) and the relation still certifies with a unique b.
        integer_pair = Params(1, 1)
        idx = XIndex(1, 1, 5)
        outcome = a_coeffs_solver(idx, integer_pair)
        assert outcome.a is None and outcome.nullity == 2
        cert = certify(idx, integer_pair)
        assert any(tag.startswith("a-formula-fallback") for tag in cert.method_tags)
        assert cert.residual_zero and cert.b_unique
        assert cert.b[7] == Fraction(1, 3)
        assert list(cert.a) == a_coeffs_formula(idx, integer_pair)


class TestCertify:
    @pytest.mark.parametrize("j0", [1, 2, 3, 4])
    def test_thm12_sweep(self, j0):
        for params in pairs_for_recurrence(j0):
            for l0 in (1, 2):
                for n in range(2 * l0 + 1, 9):
                    cert = certify(XIndex(j0, l0, n), params)
                    assert cert.residual_zero
                    assert cert.b_unique
                    assert cert.term_count == 3 * l0 + 4
                    assert cert.window == (n - l0, n + l0 + 1)
                    assert cert.a[0] == 1

    @pytest.mark.parametrize("j0", [1, 2, 3, 4])
    @pytest.mark.usefixtures("fresh_caches")
    def test_closed_form_disagreeing_with_the_solver_is_refused(self, j0, monkeypatch):
        original = recurrence.a_coeffs_formula

        def perturbed(idx, params):
            a = original(idx, params)
            return a[:-1] + [a[-1] + 1]

        monkeypatch.setattr(recurrence, "a_coeffs_formula", perturbed)
        with pytest.raises(CertificationError, match="closed-form a disagrees"):
            certify(XIndex(j0, 1, 5), PAIR_A)

    @pytest.mark.parametrize("j0", [1, 2, 3, 4])
    @pytest.mark.usefixtures("fresh_caches")
    def test_cross_route_expands_no_residual(self, j0, monkeypatch):
        # at a non-integer alpha a certificate expands nothing: the rows the
        # solver reads come from each member's top terms, and the residual
        # that proves the other rows and the b cross-route is not expanded
        calls = []
        original = recurrence.expand_in_hr_basis

        def spy(poly, params, rows=None):
            calls.append((poly, None if rows is None else list(rows)))
            return original(poly, params, rows)

        monkeypatch.setattr(recurrence, "expand_in_hr_basis", spy)
        for l0 in (1, 2):
            for n in (2 * l0 + 1, 2 * l0 + 4, 4 * l0 + 9):
                assert "a-solver" in certify(XIndex(j0, l0, n), PAIR_A).method_tags
                assert certify(XIndex(j0, l0, n), PAIR_A, mode="thm11", k=3).residual_zero
        assert calls == []

    @pytest.mark.usefixtures("fresh_caches")
    def test_certify_builds_no_member_image(self, monkeypatch):
        # at a non-integer alpha neither the solver nor the residual builds
        # or expands a member's backward image, and certify still prints the
        # manifest's certificates, thm11 ones included
        def refuse(*args):
            raise AssertionError(f"image built or expanded: {args[:1]}")

        monkeypatch.setattr(recurrence, "_c_vector", refuse)
        monkeypatch.setattr(recurrence, "expand_in_hr_basis", refuse)
        manifest = grid_manifest.load()["certify"]
        for case, pair in grid_manifest.CERTIFY_CASES:
            record = manifest[grid_manifest.certify_key(case, pair)]
            assert record["exit"] == 0
            assert grid_manifest.certify_record(case, pair) == record, case

    @pytest.mark.usefixtures("fresh_caches")
    def test_certify_builds_no_classical_polynomial_at_the_shifted_pair(self, monkeypatch):
        # the images and the residual's right side read P_j at (alpha, beta)
        # only: nothing is built at (alpha+1, beta-1)
        seen = set()
        original = recurrence.hr_poly

        def spy(n, params):
            seen.add(params)
            return original(n, params)

        monkeypatch.setattr(recurrence, "hr_poly", spy)
        for params in (PAIR_A, Params(Fraction(7, 3), Fraction(-1, 4))):
            for j0 in (1, 2, 3, 4):
                for l0 in (1, 2):
                    seen.clear()
                    assert certify(XIndex(j0, l0, 2 * l0 + 4), params).residual_zero
                    cert = certify(XIndex(j0, l0, 2 * l0 + 4), params, mode="thm11", k=3)
                    assert cert.residual_zero
                    assert seen == {params}, (j0, l0)

    def test_certificate_recheck_is_independent(self):
        # re-multiply and subtract outside the certify pipeline
        params = PAIR_A
        cert = certify(XIndex(2, 1, 5), params)
        lhs = Poly.zero()
        for l, coef in enumerate(cert.a):
            lhs = lhs + coef * x_poly(XIndex(2, 1, 5 - l), params)
        lhs = cert.q * lhs
        rhs = Poly.zero()
        for j, coef in cert.b.items():
            rhs = rhs + coef * x_poly(XIndex(2, 1, j), params)
        assert lhs == rhs

    def test_thm11_default_vector(self):
        cert = certify(XIndex(1, 1, 4), PAIR_A, mode="thm11", k=2)
        assert cert.residual_zero and cert.window == (0, 6)
        assert 1 not in cert.b  # the excluded type-1 index is skipped

    def test_thm11_supplied_vector(self):
        cert = certify(
            XIndex(2, 1, 5),
            PAIR_A,
            mode="thm11",
            k=3,
            a_input=[1, Fraction(1, 2), 0, -2],
        )
        assert cert.residual_zero

    def test_thm11_type4_uses_added_state(self):
        cert = certify(XIndex(4, 1, 6), PAIR_A, mode="thm11", k=4)
        assert cert.residual_zero
        assert -2 in cert.b and cert.b[-2] != 0

    @pytest.mark.parametrize("j0", [1, 2, 3, 4])
    def test_thm11_b_is_unique(self, j0):
        # the full window has members of distinct degrees; for type 4 that
        # takes the added state, the constant member
        l0 = 2
        cert = certify(XIndex(j0, l0, 7), PAIR_A, mode="thm11", k=3)
        assert cert.residual_zero and cert.b_unique
        assert (-l0 - 1 in cert.b) == (j0 == 4)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            certify(XIndex(1, 1, 5), PAIR_A, mode="thm11")  # k missing
        with pytest.raises(ValueError):
            certify(XIndex(1, 1, 2), PAIR_A, mode="thm11", k=3)  # n < k
        with pytest.raises(ValueError):
            certify(XIndex(1, 1, 2), PAIR_A)  # n < 2 l0 + 1
        with pytest.raises(ValueError):
            certify(XIndex(1, 1, 5), PAIR_A, mode="thm13")


def _window_members(cert, params) -> dict:
    """The certificate's window members: every admissible index in its range."""
    j0, l0 = cert.index.j0, cert.index.l0
    lo, hi = cert.window
    return {
        j: x_poly(XIndex(j0, l0, j), params)
        for j in range(lo, hi + 1)
        if XIndex(j0, l0, j).is_admissible
    }


class TestBExpansion:
    @pytest.mark.parametrize(
        "j0, mode",
        [(1, "thm11"), (4, "thm11"), (2, "thm12"), (3, "thm12")],
    )
    def test_monomial_outside_the_span_is_inconsistent(self, j0, mode):
        l0 = 2
        cert = certify(XIndex(j0, l0, 7), PAIR_A, mode=mode, k=3 if mode == "thm11" else None)
        members = _window_members(cert, PAIR_A)
        lhs = sum((v * members[j] for j, v in cert.b.items()), Poly.zero())
        assert _solve_b(lhs, members) == cert.b
        assert list(_solve_b(lhs, members)) == list(members)
        degrees = sorted(p.degree for p in members.values())
        top = degrees[-1]
        gaps = [k for k in range(top) if k not in degrees]
        # thm11: type 1 skips j = l0 and type 4 jumps from the constant to
        # degree l0+1; thm12: the window starts above degree 0
        assert gaps
        for k in gaps + [top + 1, top + 3]:
            bad = lhs + Poly([0] * k + [1])
            with pytest.raises(CertificationError, match="window expansion is inconsistent") as err:
                _solve_b(bad, members)
            # the residual is what back-substitution left over: the members
            # above z^k are peeled with their true b, and it stops at z^k,
            # which no member left can cancel
            peeled = sum(
                (v * members[j] for j, v in cert.b.items() if members[j].degree > k), Poly.zero()
            )
            assert err.value.residual == bad - peeled
            assert err.value.residual.degree == k

    @pytest.mark.usefixtures("fresh_caches")
    def test_thm12_builds_no_whole_member(self, monkeypatch):
        # from n = 4l0+5 on, thm12 reads each member's top 2l0+2 terms and
        # the P_j alone; its b is the back-substitution's over the whole
        # members, and with x_poly refused it still prints the manifest's
        # certificates
        expected = {}
        for j0 in (1, 2, 3, 4):
            for l0 in (1, 2):
                for n in (4 * l0 + 5, 4 * l0 + 11):
                    cert = certify(XIndex(j0, l0, n), PAIR_A)
                    left = sum(
                        (
                            a_l * x_poly(XIndex(j0, l0, n - l), PAIR_A)
                            for l, a_l in enumerate(cert.a)
                            if XIndex(j0, l0, n - l).is_admissible
                        ),
                        Poly.zero(),
                    )
                    members = _window_members(cert, PAIR_A)
                    assert _solve_b(q_poly(j0, l0, PAIR_A) * left, members) == cert.b
                    expected[j0, l0, n] = cert.to_json_dict()
        clear_package_caches()

        def refuse(idx, params):
            raise AssertionError(f"x_poly({idx}) built a whole member")

        monkeypatch.setattr(recurrence, "x_poly", refuse)
        monkeypatch.setattr(xhr, "x_poly", refuse)
        for (j0, l0, n), data in expected.items():
            assert certify(XIndex(j0, l0, n), PAIR_A).to_json_dict() == data
        manifest = grid_manifest.load()["certify"]
        large = [
            (case, pair)
            for case, pair in grid_manifest.CERTIFY_CASES
            if len(case) == 3 and case[2] >= 4 * case[1] + 5
        ]
        assert large
        for case, pair in large:
            record = manifest[grid_manifest.certify_key(case, pair)]
            assert grid_manifest.certify_record(case, pair) == record

    @pytest.mark.usefixtures("fresh_caches")
    def test_top_terms_refuse_a_degree_drop_as_x_poly_does(self, monkeypatch):
        # a pair that lost the top terms of both A and B builds members of
        # too low a degree; from the members' top terms certify names the
        # first one with x_poly's message and whole-member residual
        original = xhr._member_pair

        def truncated(j0, l0, params):
            return tuple(
                part - Poly((part.leading,)).shifted(part.degree)
                for part in original(j0, l0, params)
            )

        monkeypatch.setattr(xhr, "_member_pair", truncated)
        monkeypatch.setattr(recurrence, "_member_pair", truncated)
        with pytest.raises(CertificationError, match="degree mismatch") as direct:
            x_poly(XIndex(2, 1, 9), PAIR_A)
        with pytest.raises(CertificationError, match="degree mismatch") as err:
            certify(XIndex(2, 1, 9), PAIR_A)
        assert str(err.value) == str(direct.value)
        assert err.value.residual == direct.value.residual

    def test_members_sharing_a_degree_are_refused(self):
        members = {0: Poly((1, 1)), 1: Poly((2, 1))}
        with pytest.raises(CertificationError, match="share a degree"):
            _solve_b(Poly((3, 2)), members)


class TestGoldenExamples:
    @pytest.mark.parametrize("eid", [1, 2, 3, 4])
    def test_certified_b_matches_published(self, eid):
        for params in pairs_for_recurrence(eid):
            cert = certify(XIndex(eid, 1, 5), params)
            assert cert.b == example_oracles(eid, params), (eid, params)

    @pytest.mark.parametrize("eid", [1, 2, 3, 4])
    def test_certified_a_matches_published(self, eid):
        for params in pairs_for_recurrence(eid):
            cert = certify(XIndex(eid, 1, 5), params)
            assert list(cert.a) == example_a_oracles(eid, params), (eid, params)

    def test_spot_values(self):
        assert example_oracles(1, PAIR_A)[7] == Fraction(1, 3)
        a, b = PAIR_A.alpha, PAIR_A.beta
        assert example_oracles(1, PAIR_A)[6] == -(3 + 3 * a - 5 * b) / (
            (1 + a) * (7 + a)
        )
        assert example_oracles(3, PAIR_A)[7] == (6 + a) * b / (2 * (1 + a) * (8 + a))
        assert example_oracles(2, PAIR_A)[4] == 5 * a * (3 + b) * (5 + a + b) / (
            (5 + a) * (6 + a) * (7 + a) * (b - 1)
        )
        assert example_oracles(4, PAIR_A)[4] == 35 * (4 + b) * (5 + a + b) / (
            6 * (5 + a) * (7 + a) * (8 + a)
        )

    def test_example3_published_middle_sign_is_refuted(self):
        # The published display for the type-3 case carries a sign typo on the
        # j = 5 coefficient: with it the relation has a nonzero residual at
        # every valid parameter pair, while the negated value certifies.
        for params in pairs_for_recurrence(3):
            cert = certify(XIndex(3, 1, 5), params)
            published = example3_middle_coefficient_as_published(params)
            assert cert.b[5] == -published
            rhs = Poly.zero()
            for j, coef in cert.b.items():
                value = published if j == 5 else coef
                rhs = rhs + value * x_poly(XIndex(3, 1, j), params)
            lhs = Poly.zero()
            for l, coef in enumerate(cert.a):
                lhs = lhs + coef * x_poly(XIndex(3, 1, 5 - l), params)
            lhs = cert.q * lhs
            assert not (lhs - rhs).is_zero

    def test_example_id_validation(self):
        with pytest.raises(ValueError):
            example_oracles(5, PAIR_A)


class TestSerialisation:
    def test_json_dict_shape(self):
        cert = certify(XIndex(1, 1, 5), Params(1, Fraction(1, 2)))
        data = cert.to_json_dict()
        assert data["b"]["7"] == "1/3"
        assert data["window"] == [4, 7]
        assert data["residual_zero"] is True
        assert data["index"] == {"j0": 1, "l0": 1, "n": 5}


@pytest.mark.parametrize("cached", PACKAGE_CACHES, ids=lambda cached: cached.__name__)
def test_caches_are_bounded(cached):
    # an unbounded cache grows with every new parameter pair a long-lived
    # process sees
    assert cached.cache_info().maxsize is not None
