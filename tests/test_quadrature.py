from fractions import Fraction

import mpmath as mp
import pytest

from xlbp.hr_classical import Params, norm_ratio
from xlbp.quadrature import (
    DenominatorNearZeroError,
    QuadConfig,
    QuadratureConvergenceError,
    classical_quad,
    exceptional_quad,
    weight_on_circle,
)
from xlbp.xhr import XIndex, x_norm_ratio

POSITIVE = Params(1, Fraction(3, 2))
CFG = QuadConfig(tolerance=1e-9, refinement_levels=7)


def as_mpf(q: Fraction):
    return mp.mpf(q.numerator) / mp.mpf(q.denominator)


def rel_error(value, exact: Fraction):
    e = as_mpf(exact)
    return abs(value) if e == 0 else abs(value - e) / abs(e)


class TestConfigAndBranch:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuadConfig(num_points=8)
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
        assert res.num_points_used >= CFG.num_points

    def test_positivity_required(self):
        with pytest.raises(ValueError, match="positivity"):
            classical_quad(0, 0, Params(-2, 1), CFG)

    def test_self_consistency_within_reported_estimate(self):
        # the refinement-difference estimate must bound the true deviation
        # from the exact moment route on every tested pair
        for n in range(3):
            for m in range(3):
                res = classical_quad(n, m, POSITIVE, CFG)
                exact = norm_ratio(n, POSITIVE) if n == m else Fraction(0)
                deviation = abs(res.value - as_mpf(exact))
                assert deviation <= max(res.error_estimate, mp.mpf("1e-30")), (n, m)

    def test_refinement_estimates_shrink(self):
        # doubling the point count must not increase the refinement
        # difference, up to a factor-4 roundoff allowance
        res = classical_quad(2, 2, POSITIVE, CFG)
        diffs = res.estimates
        assert len(diffs) >= 2
        for earlier, later in zip(diffs, diffs[1:]):
            assert later <= 4 * earlier

    def test_substituted_rule_branch(self):
        # alpha + beta <= 2 triggers the clustering substitution; results
        # must agree with the exact values all the same
        weak = Params(Fraction(1, 4), Fraction(1, 2))
        res = classical_quad(1, 1, weak, CFG)
        assert rel_error(res.value, norm_ratio(1, weak)) < 1e-8

    def test_nonconvergence_is_reported(self):
        tiny = QuadConfig(num_points=16, refinement_levels=1, tolerance=1e-30)
        with pytest.raises(QuadratureConvergenceError):
            classical_quad(4, 4, POSITIVE, tiny)


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

    def test_family_mismatch_rejected(self):
        with pytest.raises(ValueError, match="family"):
            exceptional_quad(XIndex(1, 1, 0), XIndex(2, 1, 0), POSITIVE, CFG)

    def test_denominator_guard(self):
        # P_1 root at 0.9999 sits essentially on the contour
        risky = Params(0, Fraction(-9999, 10000))
        with pytest.raises(DenominatorNearZeroError):
            exceptional_quad(XIndex(1, 1, 0), XIndex(1, 1, 0), risky, CFG)
