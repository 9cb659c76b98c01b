"""The identity catalog must hold exactly wherever its parameter preconditions do."""

import pytest

from xlbp.hr_classical import (
    IdentityTag,
    ParameterPoleError,
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
        assert result.ok, (tag.value, n, str(result.witness))
    if (tag, generic_params) in EXPECTED_SKIPS:
        assert skipped > 0


@pytest.mark.parametrize("tag", tuple(IdentityTag), ids=lambda t: t.value)
def test_catalog_entry_on_supplementary_pair(tag):
    # (5/2, 7/5) is regular for every identity, so together with the two
    # non-integer main pairs each tag is exercised at three or more pairs.
    for n in range(0, 11):
        result = verify_identity(tag, n, PAIR_D)
        assert result.ok, (tag.value, n, str(result.witness))


@pytest.mark.usefixtures("fresh_caches")
def test_failure_returns_witness(monkeypatch):
    # a deliberately broken check must surface the difference polynomial
    from xlbp import hr_classical

    broken = dict(hr_classical._CHECKS)
    original = broken[IdentityTag.TWIST_UP]
    broken[IdentityTag.TWIST_UP] = lambda n, p: original(n, p) + hr_classical.Poly(
        (1,)
    )
    monkeypatch.setattr(hr_classical, "_CHECKS", broken)
    result = verify_identity(IdentityTag.TWIST_UP, 3, PAIRS_MAIN[0])
    assert not result.ok
    assert result.witness is not None and not result.witness.is_zero
