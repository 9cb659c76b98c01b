from fractions import Fraction

import pytest

from xlbp import cli, darboux, hr_classical, quadrature, recurrence, xhr
from xlbp.hr_classical import Params

# Canonical generic parameter pairs used across the suite.  The integer pair
# (1, 1) is valid for the classical family and the type-1/3 seeds but sits on
# a genuine pole of the negated-parameter constructions (types 2 and 4 and a
# couple of identities); PAIRS_NEGATION_SAFE swaps it for a pair that is
# regular for every construction in the package.
PAIR_A = Params(Fraction(3, 5), Fraction(1, 2))
PAIR_B = Params(1, 1)
PAIR_C = Params(Fraction(7, 3), Fraction(-1, 4))
PAIR_D = Params(Fraction(5, 2), Fraction(7, 5))

PAIRS_MAIN = (PAIR_A, PAIR_B, PAIR_C)
PAIRS_NEGATION_SAFE = (PAIR_A, PAIR_C, PAIR_D)


@pytest.fixture(params=PAIRS_MAIN, ids=lambda p: f"a={p.alpha},b={p.beta}")
def generic_params(request):
    return request.param


@pytest.fixture(params=PAIRS_NEGATION_SAFE, ids=lambda p: f"a={p.alpha},b={p.beta}")
def negation_safe_params(request):
    return request.param


def pairs_for_type(j0: int):
    """Three valid parameter pairs for the given seed type."""
    return PAIRS_MAIN if j0 in (1, 3) else PAIRS_NEGATION_SAFE


def pairs_for_recurrence(j0: int):
    """Three pairs valid for the full recurrence pipeline of the given type.

    (1, 1) is excluded for every type: the type-2 and type-4 seeds are built
    at (-beta, -alpha) = (-1, -1), which poles there, and the moment
    functional at (1, 1) has finite support, which collapses the
    window-vanishing conditions and makes the solver-route a coefficients
    non-unique (the relation itself still holds; see the degeneracy test in
    test_recurrence).
    """
    del j0
    return PAIRS_NEGATION_SAFE


# Every lru_cache in the package; tests/test_source_rules.py checks this list
# against the source.
PACKAGE_CACHES = (
    hr_classical._shifted_params,
    hr_classical._swapped_params,
    hr_classical.ttrr_d,
    hr_classical.ttrr_b,
    hr_classical.hr_poly,
    hr_classical.moments,
    hr_classical._generating_terms,
    darboux.make_seed,
    xhr._member_pair,
    xhr.x_poly,
    recurrence.q_poly,
    recurrence._image_pair,
    recurrence._image_numerators,
    recurrence._c_vector,
    recurrence._c_top,
    recurrence._pair_numerators,
    recurrence._member_top,
    quadrature._node_geometry,
    quadrature._node_modulus,
    quadrature._node_phase,
    cli.build_parser,
)


def clear_package_caches():
    for cached in PACKAGE_CACHES:
        cached.cache_clear()


@pytest.fixture
def fresh_caches():
    """Empty every package cache before and after the test.

    A test that monkeypatches a package function needs this: a value cached
    before the patch would bypass the patched function, and a value cached
    during the test would carry the fault into later tests.
    """
    clear_package_caches()
    yield
    clear_package_caches()
