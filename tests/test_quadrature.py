import hashlib
from fractions import Fraction

import mpmath as mp
import pytest

from xlbp import quadrature
from xlbp.exact_core import Poly
from xlbp.hr_classical import Params, norm_ratio
from xlbp.quadrature import (
    DenominatorNearZeroError,
    QuadConfig,
    QuadratureConvergenceError,
    QuadratureDivergenceError,
    classical_quad,
    exceptional_quad,
)
from xlbp.xhr import XIndex, x_norm_ratio

from conftest import PAIR_A, PAIR_C
from reference import weight_factor_by_type

POSITIVE = Params(1, Fraction(3, 2))
# alpha + beta = -3/4: the type-2 and type-4 exponent at z = 1 is -7/4
SINGULAR = Params(Fraction(-1, 2), Fraction(-1, 4))
CFG = QuadConfig(tolerance=1e-9, refinement_levels=7)

# digest of `pinned_integrals()` on the integer kernel; a change to the
# rule's arithmetic changes it
PINNED_SHA256 = "3fd43f1cec99203db804eb7b3c76cd5138a1463adcdd61061d2b0a9f1d4b205f"
# (num_points_used, len(estimates)) of each pinned integral with the level-0
# walk cut 10 bits below the tolerance; a walk cut at the working precision
# has the same level counts and 9678 points in all, against 6846 here
PINNED_WORK = (
    [(162, 3)] * 9
    + [(122, 2), (122, 2), (242, 3), (122, 2), (122, 2), (242, 3), (242, 3), (242, 3), (242, 3)]
    + [(354, 4), (178, 3), (386, 4), (354, 4), (178, 3), (354, 4), (354, 4), (322, 4)]
    + [(322, 4), (178, 3), (354, 4), (178, 3), (178, 3)]
)

# mp.nstr(value, 40) and mp.nstr(error_estimate, 10) of three integrals at
# POSITIVE: a classical integral (linear power 0) and exceptional ones with
# linear power +1 (type 1) and -1 (type 2); the weight-factor tables must not
# move a bit.  The walk's cut at the tolerance leaves the values about 1e-14
# off, inside their estimates
PINNED_VALUES = {
    "classical n=m=2": ("0.5999999999999937928586642336115213230556", "3.380814676e-13"),
    "type 1 n=m=2": ("-2.100000000000000000000050635345000468257", "1.215555389e-16"),
    "type 2 n=m=1": ("-4.374999999999941026724141562686883774069", "1.374675904e-9"),
}


def as_mpf(q: Fraction):
    return mp.mpf(q.numerator) / mp.mpf(q.denominator)


def rel_error(value, exact: Fraction):
    e = as_mpf(exact)
    return abs(value) if e == 0 else abs(value - e) / abs(e)


def weight_on_circle(x, params: Params):
    """w(e^{ix}) for x in (0, 2pi) under the fixed branch choices, as a reference.

    The branches are arg z in (0, 2pi), with (-z)^(-beta) positive real at
    arg z = pi, and arg(1-z) in (-pi, pi), with (1-z)^(alpha+beta) positive
    real at arg(1-z) = 0.  With arg(-z) = x - pi and arg(1-z) = (x - pi)/2
    both inside these ranges, the weight collapses to
    (2 sin(x/2))^(alpha+beta) * exp(i (x-pi)(alpha-beta)/2).
    """
    a, b = as_mpf(Fraction(params.alpha)), as_mpf(Fraction(params.beta))
    return (2 * mp.sin(x / 2)) ** (a + b) * mp.expj((x - mp.pi) * ((a - b) / 2))


def pinned_results():
    """A fixed set of classical and exceptional integrals, each with its exact value.

    The set: classical n, m <= 2 at POSITIVE and SINGULAR, and exceptional
    types 1-4 (l0 = 1) at every admissible n, m <= 1 at POSITIVE.
    """
    results = [
        (classical_quad(n, m, params, CFG), norm_ratio(n, params) if n == m else Fraction(0))
        for params in (POSITIVE, SINGULAR)
        for n in range(3)
        for m in range(3)
    ]
    results += [
        (
            exceptional_quad(XIndex(j0, 1, n), XIndex(j0, 1, m), POSITIVE, CFG),
            x_norm_ratio(XIndex(j0, 1, n), POSITIVE) if n == m else Fraction(0),
        )
        for j0 in range(1, 5)
        for n in range(2)
        for m in range(2)
        if XIndex(j0, 1, n).is_admissible and XIndex(j0, 1, m).is_admissible
    ]
    return results


def pinned_integrals(results):
    """Every field of the pinned integrals, by repr at the working precision, which round-trips."""
    with mp.workprec(quadrature._PREC):
        return [
            (repr(r.value), repr(r.error_estimate), r.num_points_used, [repr(e) for e in r.estimates])
            for r, _ in results
        ]


class TestConfigAndBranch:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuadConfig(tolerance=0)
        with pytest.raises(ValueError):
            QuadConfig(refinement_levels=0)

    def test_weight_matches_exact_moments(self):
        # adaptive integrals of z^k w(z) against the exact ratio recursion
        with mp.workdps(30):
            c0 = mp.quad(
                lambda x: weight_on_circle(x, POSITIVE), [0, mp.pi, 2 * mp.pi]
            )
            c1 = mp.quad(
                lambda x: mp.expj(x) * weight_on_circle(x, POSITIVE),
                [0, mp.pi, 2 * mp.pi],
            )
            # h_0 = Gamma(a+b+1)/(Gamma(a+1)Gamma(b+1)) = 5/2 at (1, 3/2)
            assert abs(c0 / (2 * mp.pi) - mp.mpf("2.5")) < mp.mpf("1e-25")
            assert abs(c1 / c0 - as_mpf(Fraction(-3, 4))) < mp.mpf("1e-25")
            # the closed form that normalises every integral
            assert abs(quadrature._zeroth_moment(POSITIVE) - mp.mpf("2.5")) < mp.mpf("1e-25")


class TestClassical:
    def test_self_normalised_unit(self):
        res = classical_quad(0, 0, POSITIVE, CFG)
        assert abs(res.value - 1) < 1e-10

    def test_off_diagonal_vanishes(self):
        res = classical_quad(2, 1, POSITIVE, CFG)
        assert abs(res.value) < 1e-8

    def test_diagonal_matches_exact_norm(self):
        res = classical_quad(3, 3, POSITIVE, CFG)
        assert rel_error(res.value, norm_ratio(3, POSITIVE)) < 1e-8

    def test_error_estimate_is_reported(self):
        res = classical_quad(1, 1, POSITIVE, CFG)
        assert res.error_estimate > 0
        assert res.num_points_used > 0

    @pytest.mark.usefixtures("fresh_caches")
    def test_levels_evaluate_only_new_nodes(self, monkeypatch):
        # level k has 1 + 2^k (L + R) nodes for the level-0 walk lengths L
        # and R, so level k + 1 adds one node fewer than level k has
        calls = []
        integrate = quadrature._integrate_levels

        def counting(make_term, *args):
            def term(z, zbar):
                calls[-1] += 1
                return make_term(z, zbar)

            return integrate(term, *args)

        monkeypatch.setattr(quadrature, "_integrate_levels", counting)
        for levels in (1, 2):
            calls.append(0)
            with pytest.raises(QuadratureConvergenceError):
                classical_quad(2, 2, POSITIVE, QuadConfig(refinement_levels=levels, tolerance=1e-60))
        assert calls[1] - calls[0] == calls[0] - 1
        calls.append(0)
        res = classical_quad(2, 2, POSITIVE, CFG)
        assert res.num_points_used == 2 * calls[-1]

    def test_walk_follows_the_tolerance(self, monkeypatch):
        # the level-0 walk stops 10 bits below the tolerance, so a looser
        # tolerance walks no further, and both stop short of a walk cut at
        # the working precision, which needs no more levels
        loose, tight = (
            classical_quad(1, 1, POSITIVE, QuadConfig(tolerance=tol, refinement_levels=7))
            for tol in (1e-7, 1e-9)
        )
        monkeypatch.setattr(quadrature, "_CUT_GUARD_BITS", quadrature._PREC)
        full = classical_quad(1, 1, POSITIVE, QuadConfig(tolerance=1e-9, refinement_levels=7))
        assert loose.num_points_used <= tight.num_points_used < full.num_points_used
        assert len(tight.estimates) == len(full.estimates)

    def test_positivity_required(self):
        with pytest.raises(ValueError, match="positivity"):
            classical_quad(0, 0, Params(-2, 1), CFG)

    def test_self_consistency_within_reported_estimate(self):
        # the error estimate must bound the true deviation from the exact
        # moment route on every tested pair; compared at 128 bits, since a
        # Fraction subtracted at 53 bits floors the deviation near 1e-16
        for params in (POSITIVE, SINGULAR):
            for n in range(3):
                for m in range(3):
                    res = classical_quad(n, m, params, CFG)
                    exact = norm_ratio(n, params) if n == m else Fraction(0)
                    with mp.workprec(128):
                        deviation = abs(res.value - as_mpf(exact))
                    assert deviation <= res.error_estimate, (params, n, m)

    def test_refinement_estimates_shrink(self):
        # doubling the point count must not increase the refinement
        # difference, up to a factor-4 roundoff allowance
        res = classical_quad(2, 2, POSITIVE, CFG)
        diffs = res.estimates
        assert len(diffs) >= 2
        for earlier, later in zip(diffs, diffs[1:]):
            assert later <= 4 * earlier

    def test_substituted_rule_branch(self):
        # a weak branch point, 0 < alpha + beta < 1, where the weight is not
        # differentiable at z = 1
        weak = Params(Fraction(1, 4), Fraction(1, 2))
        res = classical_quad(1, 1, weak, CFG)
        assert rel_error(res.value, norm_ratio(1, weak)) < 1e-8

    def test_nonconvergence_is_reported(self):
        tiny = QuadConfig(refinement_levels=1, tolerance=1e-30)
        with pytest.raises(QuadratureConvergenceError):
            classical_quad(4, 4, POSITIVE, tiny)

    def test_truncation_enters_the_estimate(self):
        # the exponent at z = 1 is -0.999, so the level-0 walk towards it
        # stops at the cap _T_CAP with a large outermost term, about 0.02 of
        # the value; the level differences alone fall below 1e-3 of it
        near_pole = Params(Fraction(-1, 2), Fraction(-499, 1000))
        with pytest.raises(QuadratureConvergenceError, match=r"last difference .*, truncation "):
            classical_quad(0, 0, near_pole, QuadConfig(tolerance=1e-3, refinement_levels=7))
        res = classical_quad(0, 0, near_pole, QuadConfig(tolerance=0.05, refinement_levels=7))
        with mp.workprec(128):
            assert abs(res.value - 1) <= res.error_estimate


class TestExceptional:
    @pytest.mark.parametrize("j0", [1, 2, 3, 4])
    def test_small_indices(self, j0):
        for n in range(3):
            for m in range(3):
                if not (
                    XIndex(j0, 1, n).is_admissible and XIndex(j0, 1, m).is_admissible
                ):
                    continue
                res = exceptional_quad(
                    XIndex(j0, 1, n), XIndex(j0, 1, m), POSITIVE, CFG
                )
                if n == m:
                    exact = x_norm_ratio(XIndex(j0, 1, n), POSITIVE)
                    assert rel_error(res.value, exact) < 1e-6, (j0, n)
                else:
                    assert abs(res.value) < 1e-6, (j0, n, m)

    @pytest.mark.parametrize("params", [POSITIVE, SINGULAR], ids=["positive", "singular"])
    @pytest.mark.parametrize("j0", [1, 2, 3, 4])
    def test_self_consistency_within_reported_estimate(self, j0, params):
        # at alpha + beta < 0 the type-2 and type-4 integrals diverge and
        # must be refused before any integration
        diverges = params == SINGULAR and j0 in (2, 4)
        for n in range(3):
            for m in range(3):
                if not (XIndex(j0, 1, n).is_admissible and XIndex(j0, 1, m).is_admissible):
                    continue
                if diverges:
                    with pytest.raises(QuadratureDivergenceError, match=r"\(-7/4\)"):
                        exceptional_quad(XIndex(j0, 1, n), XIndex(j0, 1, m), params, CFG)
                    continue
                res = exceptional_quad(XIndex(j0, 1, n), XIndex(j0, 1, m), params, CFG)
                exact = x_norm_ratio(XIndex(j0, 1, n), params) if n == m else Fraction(0)
                with mp.workprec(128):
                    deviation = abs(res.value - as_mpf(exact))
                assert deviation <= res.error_estimate, (j0, n, m)

    @pytest.mark.parametrize("params", [PAIR_A, PAIR_C], ids=["pair-a", "pair-c"])
    @pytest.mark.parametrize("l0", [1, 2])
    def test_type4_added_state_is_biorthogonal_to_the_members(self, l0, params):
        # the added state n = -l0-1 is the constant member: against m = 0..2,
        # in both orders, the integral vanishes within its estimate, and its
        # own integral, a norm with no closed form yet, does not
        added = XIndex(4, l0, -l0 - 1)
        for m in range(3):
            member = XIndex(4, l0, m)
            for idx_n, idx_m in ((added, member), (member, added)):
                res = exceptional_quad(idx_n, idx_m, params, CFG)
                assert abs(res.value) <= res.error_estimate, (idx_n.n, idx_m.n)
        norm = exceptional_quad(added, added, params, CFG)
        assert abs(norm.value) > 1e3 * norm.error_estimate

    def test_type4_added_state_norm_at_one_pair(self):
        # read off the rule, not derived: -15/11 at (3/5, 1/2) with l0 = 1
        res = exceptional_quad(XIndex(4, 1, -2), XIndex(4, 1, -2), PAIR_A, CFG)
        with mp.workprec(128):
            assert abs(res.value - as_mpf(Fraction(-15, 11))) <= res.error_estimate

    @pytest.mark.usefixtures("fresh_caches")
    def test_divergent_integral_is_refused_without_integrating(self, monkeypatch):
        # (2/5, -9/10), type 2, n = m = 0: exponent -1/2 - 1 = -3/2, and
        # neither polynomial vanishes at z = 1
        def integrate(*args):
            raise AssertionError("integrated a divergent integral")

        monkeypatch.setattr(quadrature, "_integrate_levels", integrate)
        with pytest.raises(QuadratureDivergenceError, match=r"\(-3/2\)"):
            exceptional_quad(
                XIndex(2, 1, 0), XIndex(2, 1, 0), Params(Fraction(2, 5), Fraction(-9, 10)), CFG
            )

    def test_order_at_one(self):
        assert quadrature._order_at_one(Poly((2, 3))) == 0
        assert quadrature._order_at_one(Poly((1, -2, 1))) == 2
        assert quadrature._order_at_one(Poly((0, -1, 0, 1))) == 1

    def test_family_mismatch_rejected(self):
        with pytest.raises(ValueError, match="family"):
            exceptional_quad(XIndex(1, 1, 0), XIndex(2, 1, 0), POSITIVE, CFG)

    @pytest.mark.usefixtures("fresh_caches")
    def test_denominator_root_on_circle_is_refused(self, monkeypatch):
        # (-5/6, 1/6), l0 = 2: types 1 and 3 share B = z^2 + 2/7 z + 1, whose
        # roots both lie on the circle, so the integral does not exist
        def integrate(*args):
            raise AssertionError("integrated over a pole on the contour")

        monkeypatch.setattr(quadrature, "_integrate_levels", integrate)
        params = Params(Fraction(-5, 6), Fraction(1, 6))
        for j0 in (1, 3):
            base = quadrature.x_weight_factor(j0, 2, params).denominator_base
            assert base == Poly((1, Fraction(2, 7), 1))
            with pytest.raises(DenominatorNearZeroError, match=r"has 2 roots on \|z\| = 1"):
                exceptional_quad(XIndex(j0, 2, 0), XIndex(j0, 2, 0), params, CFG)

    @pytest.mark.parametrize(
        "alpha, beta, l0, j0",
        [
            # the root of B = z - 9999/10000 lies 1e-4 inside the circle
            (0, Fraction(-9999, 10000), 1, 1),
            # roots at |z| = 1.015
            (Fraction(17, 6), Fraction(-4, 5), 2, 2),
            (Fraction(17, 6), Fraction(-4, 5), 2, 4),
            # roots at |z| = 0.984
            (Fraction(-4, 5), Fraction(17, 6), 3, 2),
            (Fraction(19, 5), Fraction(5, 2), 2, 2),
        ],
    )
    def test_denominator_without_root_on_circle_is_integrated(self, alpha, beta, l0, j0):
        # however close B comes to the circle, an integral over a denominator
        # with no root on it exists and converges to the exact norm
        params = Params(alpha, beta)
        for n in range(3):
            idx = XIndex(j0, l0, n)
            if not idx.is_admissible:
                continue
            res = exceptional_quad(idx, idx, params, CFG)
            assert rel_error(res.value, x_norm_ratio(idx, params)) < 1e-6, n


    def test_weight_factor_matches_the_reference_route(self, monkeypatch):
        # the seed eta = kappa * (the reference's base) for types 3 and 4
        # scales the kernel's integers, so values may differ in the last
        # bits; the levels and nodes must not
        cases = [(XIndex(j0, 1, 2), XIndex(j0, 1, 2), POSITIVE) for j0 in (1, 2, 3, 4)]
        cases += [(XIndex(j0, 2, 1), XIndex(j0, 2, 0), PAIR_A) for j0 in (1, 2, 3, 4)]
        ours = [exceptional_quad(n, m, params, CFG) for n, m, params in cases]
        monkeypatch.setattr(quadrature, "x_weight_factor", weight_factor_by_type)
        for (n, m, params), res in zip(cases, ours):
            ref = exceptional_quad(n, m, params, CFG)
            assert len(res.estimates) == len(ref.estimates), n
            assert res.num_points_used == ref.num_points_used, n
            assert abs(res.value - ref.value) <= mp.ldexp(max(1, abs(ref.value)), -100), n


# (params, j0 or None for a classical integral, n, m, the weight's whole
# turns q, num_points_used of a walk cut at the working precision, and of the
# walk cut 10 bits below the tolerance): the first count is the one the rule
# had while the phase carried the whole turns, so moving them into the
# integrand changes no level and no node
WHOLE_TURN_CASES = [
    (Params(3, Fraction(1, 2)), None, 2, 2, 1, 242, 162),
    (Params(3, Fraction(1, 2)), 1, 2, 2, 1, 226, 146),
    (Params(Fraction(1, 2), 4), None, 2, 2, -2, 450, 290),
    (Params(Fraction(1, 2), 4), None, 2, 1, -2, 226, 146),
    (Params(Fraction(1, 2), 4), 1, 2, 2, -2, 226, 146),
    (Params(Fraction(1, 2), 4), 2, 1, 1, -3, 242, 162),
    (Params(Fraction(1, 2), Fraction(11, 2)), 2, 1, 1, -3, 226, 146),
    (Params(Fraction(1, 2), Fraction(11, 2)), 2, 1, 0, -3, 226, 146),
]
# a case is named by its inputs and the full walk's count, which the node rule
# fixes; the tolerance walk's count moves with the cut and stays out of the id
WHOLE_TURN_IDS = [
    f"params{k}-{j0}-{n}-{m}-{whole}-{full}"
    for k, (_, j0, n, m, whole, full, _) in enumerate(WHOLE_TURN_CASES)
]


class TestWholeTurns:
    """The weight's whole turns (-z)^q are in the integrand, for q of either sign."""

    @pytest.mark.parametrize(
        "params, j0, n, m, whole, full_points, points", WHOLE_TURN_CASES, ids=WHOLE_TURN_IDS
    )
    def test_value_within_estimate(
        self, monkeypatch, params, j0, n, m, whole, full_points, points
    ):
        def integral():
            if j0 is None:
                return classical_quad(n, m, params, CFG)
            return exceptional_quad(XIndex(j0, 1, n), XIndex(j0, 1, m), params, CFG)

        if j0 is None:
            linear = 0
            exact = norm_ratio(n, params) if n == m else Fraction(0)
        else:
            linear = quadrature.x_weight_factor(j0, 1, params).linear_power
            exact = x_norm_ratio(XIndex(j0, 1, n), params) if n == m else Fraction(0)
        assert quadrature._split_turn(params, linear)[0] == whole
        res = integral()
        assert res.num_points_used == points
        with mp.workprec(128):
            assert abs(res.value - as_mpf(exact)) <= res.error_estimate
        monkeypatch.setattr(quadrature, "_CUT_GUARD_BITS", quadrature._PREC)
        full = integral()
        assert full.num_points_used == full_points
        assert len(full.estimates) == len(res.estimates)

    def test_negative_total_power_shifts_the_partner(self):
        # type 2, l0 = 1 at (1/2, 11/2): the turn -3 is whole, and with the
        # weight ratio's z^2 the integrand's monomial power is -1
        params = Params(Fraction(1, 2), Fraction(11, 2))
        factor = quadrature.x_weight_factor(2, 1, params)
        whole, fraction = quadrature._split_turn(params, factor.linear_power)
        assert (whole, fraction) == (-3, 0)
        assert factor.monomial_power + whole == -1


class TestContourTable:
    def test_integer_kernel_integrals_are_pinned(self):
        results = pinned_results()
        text = "\n".join(map(str, pinned_integrals(results)))
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SHA256
        for k, (res, exact) in enumerate(results):
            with mp.workprec(128):
                assert abs(res.value - as_mpf(exact)) <= res.error_estimate, k

    def test_work_counts_are_pinned(self):
        work = [(res.num_points_used, len(res.estimates)) for res, _ in pinned_results()]
        assert work == PINNED_WORK

    def test_values_are_pinned(self):
        results = {
            "classical n=m=2": classical_quad(2, 2, POSITIVE, CFG),
            "type 1 n=m=2": exceptional_quad(XIndex(1, 1, 2), XIndex(1, 1, 2), POSITIVE, CFG),
            "type 2 n=m=1": exceptional_quad(XIndex(2, 1, 1), XIndex(2, 1, 1), POSITIVE, CFG),
        }
        printed = {k: (mp.nstr(r.value, 40), mp.nstr(r.error_estimate, 10)) for k, r in results.items()}
        assert printed == PINNED_VALUES


def factor_misses():
    return tuple(table.cache_info().misses for table in (quadrature._node_modulus, quadrature._node_phase))


class TestWeightFactors:
    """The node weight's modulus and phase tables change how often they are computed, not what."""

    @pytest.mark.usefixtures("fresh_caches")
    def test_results_do_not_depend_on_cache_state(self):
        def integrals():
            results = (
                classical_quad(2, 1, POSITIVE, CFG),
                # linear power -1: the turn and the exponent both differ from the classical ones
                exceptional_quad(XIndex(2, 1, 1), XIndex(2, 1, 0), POSITIVE, CFG),
            )
            return [(r.value, r.error_estimate, r.estimates, r.num_points_used) for r in results]

        cold = integrals()
        # a pair with the same alpha + beta shares only the modulus
        classical_quad(1, 1, Params(Fraction(3, 2), 1), CFG)
        misses = factor_misses()
        assert integrals() == cold
        assert factor_misses() == misses

    @pytest.mark.usefixtures("fresh_caches")
    def test_integrals_at_one_pair_share_both_factors(self):
        classical_quad(2, 2, POSITIVE, CFG)
        misses = factor_misses()
        assert min(misses) > 0
        classical_quad(3, 0, POSITIVE, CFG)
        assert factor_misses() == misses

    @pytest.mark.usefixtures("fresh_caches")
    def test_turns_a_whole_turn_apart_share_both_factors(self):
        # (1, 3/2) and (2, 1/2) share alpha + beta, and their turns -1/4 and
        # 3/4 share the fraction 3/4
        classical_quad(2, 2, Params(1, Fraction(3, 2)), CFG)
        misses = factor_misses()
        classical_quad(2, 2, Params(2, Fraction(1, 2)), CFG)
        assert factor_misses() == misses


# points of the unit circle with rational coordinates, and their conjugates
RATIONAL_POINTS = [
    (Fraction(a, c), Fraction(sign * b, c))
    for a, b, c in ((3, 4, 5), (5, 12, 13), (8, 15, 17))
    for sign in (1, -1)
]


def gaussian_mul(u, v):
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def gaussian_conj(u):
    return u[0], -u[1]


def gaussian_monomial(z, power):
    """z^power for a Gaussian rational z on the unit circle, where 1/z = conj(z)."""
    acc = (Fraction(1), Fraction(0))
    for _ in range(abs(power)):
        acc = gaussian_mul(acc, z if power > 0 else gaussian_conj(z))
    return acc


def gaussian_value(nums, z):
    """sum_k nums[k] z^k exactly, for a Gaussian rational z."""
    acc = (Fraction(0), Fraction(0))
    for c in reversed(nums):
        re, im = gaussian_mul(acc, z)
        acc = (re + c, im)
    return acc


class TestIntegerKernel:
    """The fixed-point kernel against exact evaluation at rational points of the circle.

    Every term must lie within the kernel's own error bound of the exact
    value, and that bound must sit below the working precision, relative to
    the term's coefficient scale.
    """

    PREC = quadrature._PREC

    def check(self, make_term, exact_term, scale):
        bits = self.PREC + quadrature._GUARD_BITS
        for point in RATIONAL_POINTS:
            z = tuple(round(c * 2**bits) for c in point)
            re, im, error = make_term(z, bits)
            want_re, want_im = (c * 2**bits for c in exact_term(point))
            assert (re - want_re) ** 2 + (im - want_im) ** 2 <= error**2, point
            # the fixed-point error is below 2^-prec of the term's scale
            assert error <= scale(point) * 2 ** (bits - self.PREC), point

    def check_product(self, n, m, power=0):
        p = quadrature.hr_poly(n, POSITIVE)
        q = quadrature.hr_partner(m, POSITIVE)
        pn, qn = quadrature._dense(p), quadrature._dense(q)

        def exact(z):
            x = gaussian_mul(gaussian_value(pn, z), gaussian_conj(gaussian_value(qn, z)))
            return gaussian_mul(x, gaussian_monomial(z, power))

        scale = quadrature._norm(pn) * quadrature._norm(qn)
        self.check(quadrature._product_kernel(p, q, power), exact, lambda z: scale)

    def check_ratio(self, j0, l0, shift=0):
        # (1, 3/2) poles the type-4 factor at l0 = 2
        params = Params(Fraction(3, 5), Fraction(1, 2))
        factor = quadrature.x_weight_factor(j0, l0, params)
        base, power = factor.denominator_base, factor.monomial_power + shift
        p = quadrature.x_poly(XIndex(j0, l0, 3), params)
        q = quadrature.x_partner(XIndex(j0, l0, 2), params)
        pn, qn, bn = (quadrature._dense(f) for f in (p, q, base))

        def exact(z):
            x = gaussian_mul(gaussian_value(pn, z), gaussian_conj(gaussian_value(qn, z)))
            x = gaussian_mul(x, gaussian_monomial(z, power))
            b = gaussian_value(bn, z)
            s_re, s_im = gaussian_mul(b, b)
            den = s_re**2 + s_im**2
            re, im = gaussian_mul(x, (s_re, -s_im))
            return re / den, im / den

        def scale(z):
            b_re, b_im = gaussian_value(bn, z)
            return quadrature._norm(pn) * quadrature._norm(qn) / (b_re**2 + b_im**2)

        self.check(quadrature._ratio_kernel(p, q, base, power), exact, scale)

    @pytest.mark.parametrize("n, m", [(0, 0), (1, 2), (3, 3), (4, 1)])
    def test_classical_terms(self, n, m):
        self.check_product(n, m)

    @pytest.mark.parametrize("j0, l0", [(1, 1), (2, 1), (3, 2), (4, 2)])
    def test_exceptional_terms(self, j0, l0):
        self.check_ratio(j0, l0)

    @pytest.mark.parametrize("power", [-2, 1])
    def test_shifted_classical_terms(self, power):
        # a negative power shifts the partner: z^-k Q(1/z) = conj(z^k Q(z))
        self.check_product(3, 2, power)

    def test_negative_power_exceptional_terms(self):
        # type 2's z^2 times z^-3, as for three negative whole turns
        self.check_ratio(2, 1, -3)

    def test_denominator_vanishing_at_a_node_is_refused(self):
        # B = z^2 - 6/5 z + 1 vanishes at (3 +- 4i)/5, where no error bound holds
        base = Poly((1, Fraction(-6, 5), 1))
        make_term = quadrature._ratio_kernel(Poly((1,)), Poly((1,)), base, 1)
        bits = self.PREC + quadrature._GUARD_BITS
        z = tuple(round(c * 2**bits) for c in RATIONAL_POINTS[0])
        with pytest.raises(DenominatorNearZeroError, match="at a quadrature node"):
            make_term(z, bits)

    @pytest.mark.usefixtures("fresh_caches")
    def test_declared_error_enters_the_estimate(self, monkeypatch):
        # a kernel error of one integrand unit at every node adds the
        # integral of |w| to the estimate, in units of the zeroth moment
        integrate = quadrature._integrate_levels

        def inflated(make_term, params, cfg, unit, *rest):
            one = -(-(2 ** (mp.mp.prec + quadrature._GUARD_BITS)) // abs(unit))

            def term(z, bits):
                re, im, error = make_term(z, bits)
                return re, im, error + one

            return integrate(term, params, cfg, unit, *rest)

        plain = classical_quad(1, 1, POSITIVE, CFG)
        monkeypatch.setattr(quadrature, "_integrate_levels", inflated)
        res = classical_quad(1, 1, POSITIVE, CFG)
        assert res.value == plain.value
        with mp.workprec(quadrature._PREC):
            # (1/2pi) int |w| = Gamma(1+a+b) / Gamma(1+(a+b)/2)^2
            gamma = as_mpf(POSITIVE.alpha + POSITIVE.beta)
            abs_weight = mp.gamma(1 + gamma) / mp.gamma(1 + gamma / 2) ** 2
            added = res.error_estimate - plain.error_estimate
            assert abs(added - abs_weight / quadrature._zeroth_moment(POSITIVE)) < 1e-6
