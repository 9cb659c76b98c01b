"""The identity catalog must hold exactly wherever its parameter preconditions do."""

from fractions import Fraction

import pytest

from xlbp import hr_classical
from xlbp.exact_core import Poly
from xlbp.hr_classical import (
    IdentityTag,
    ParameterPoleError,
    hr_poly,
    verify_identity,
)

from conftest import PAIR_B, PAIR_D, PAIRS_MAIN

# The integer pair (1,1) genuinely poles two catalog entries: the negated
# log-derivative touches the singular family (.; -1, -1), and the partner-side
# multi-twist coefficients divide by shifted (m + beta - k) factors that hit
# zero.  Everything else must run.
EXPECTED_SKIPS = {
    (IdentityTag.LOG_DERIVATIVE_NEGATED, PAIR_B),
    (IdentityTag.MULTI_TWIST_Q, PAIR_B),
}


@pytest.mark.parametrize("tag", tuple(IdentityTag), ids=lambda t: t.value)
def test_catalog_entry(tag, generic_params):
    skipped = 0
    for n in range(0, 11):
        try:
            result = verify_identity(tag, n, generic_params)
        except ParameterPoleError:
            assert (tag, generic_params) in EXPECTED_SKIPS, (tag, n, generic_params)
            skipped += 1
            continue
        assert result is None, (tag.value, n, str(result))
    if (tag, generic_params) in EXPECTED_SKIPS:
        assert skipped > 0


@pytest.mark.parametrize("tag", tuple(IdentityTag), ids=lambda t: t.value)
def test_catalog_entry_on_supplementary_pair(tag):
    # (5/2, 7/5) is regular for every identity, so together with the two
    # non-integer main pairs each tag is exercised at three or more pairs.
    for n in range(0, 11):
        result = verify_identity(tag, n, PAIR_D)
        assert result is None, (tag.value, n, str(result))


@pytest.mark.usefixtures("fresh_caches")
def test_failure_returns_witness(monkeypatch):
    # a deliberately broken check must surface the difference polynomial
    broken = dict(hr_classical._CHECKS)
    original = broken[IdentityTag.TWIST_UP_TIMES_Z]
    broken[IdentityTag.TWIST_UP_TIMES_Z] = lambda n, p: original(n, p) + Poly((1,))
    monkeypatch.setattr(hr_classical, "_CHECKS", broken)
    result = verify_identity(IdentityTag.TWIST_UP_TIMES_Z, 3, PAIRS_MAIN[0])
    assert result is not None and not result.is_zero


@pytest.mark.usefixtures("fresh_caches")
def test_opposite_faults_at_two_twist_levels_do_not_cancel(monkeypatch):
    # moving C^(1) of the 1-fold twist by +1/7 and of the 2-fold twist by
    # -1/7 gives the two levels opposite differences -+1/7 P_3; a sum over
    # the levels would read zero, the first failing level reads -1/7 P_3
    original = hr_classical.twisted_coeffs
    shift = {1: Fraction(1, 7), 2: Fraction(-1, 7)}

    def perturbed(n, j, params, side="P"):
        coeffs = original(n, j, params, side)
        if n == 4 and side == "P" and j in shift:
            coeffs = [coeffs[0] + shift[j]] + coeffs[1:]
        return coeffs

    monkeypatch.setattr(hr_classical, "twisted_coeffs", perturbed)
    params = PAIRS_MAIN[0]
    diff = verify_identity(IdentityTag.MULTI_TWIST_P, 4, params)
    assert diff == Fraction(-1, 7) * hr_poly(3, params)


@pytest.mark.usefixtures("fresh_caches")
def test_failed_span_window_returns_its_inner_products(monkeypatch):
    # span-window checks a list of inner products: each one against Q_m is
    # moved by m + 1, and the difference holds them in the order the check
    # forms them, l0 = 1, 2, 3 with m ascending
    original = hr_classical._paired
    monkeypatch.setattr(
        hr_classical, "_paired", lambda weights, g: original(weights, g) + g.degree + 1
    )
    diff = verify_identity(IdentityTag.SPAN_WINDOW, 4, PAIRS_MAIN[0])
    assert diff == Poly((1, 2, 3, 1, 2, 1))
