"""A fixed subset of the grid manifest, re-run against its committed records."""

from fractions import Fraction

import pytest

import grid_manifest
from xlbp import cli

# every 7th pair of the 289 in grid order (alpha outer, beta inner): 42 pairs.
# The stride is fixed; the full grid is `python tests/grid_manifest.py --check`
STRIDE = 7
SUBSET = grid_manifest.PAIRS[::STRIDE]


@pytest.fixture(scope="module")
def manifest():
    return grid_manifest.load()


def test_manifest_covers_the_grid(manifest):
    assert manifest["command"] == list(grid_manifest.VERIFY_ARGS)
    assert list(manifest["pairs"]) == [grid_manifest.pair_key(*p) for p in grid_manifest.PAIRS]
    assert len(manifest["pairs"]) == 289 and len(SUBSET) == 42
    cases = [grid_manifest.certify_key(*c) for c in grid_manifest.CERTIFY_CASES]
    assert list(manifest["certify"]) == cases


def test_subset_and_certify_cases_match_the_manifest(manifest):
    assert grid_manifest.check(manifest, SUBSET) == []


def test_check_names_the_pair_and_the_failing_records(manifest, monkeypatch):
    # a wrong seed eigenvalue in the darboux suite: --check names the pair
    # and every record of that kind, and nothing else
    theta = cli.seed_theta
    monkeypatch.setattr(cli, "seed_theta", lambda *args: theta(*args) + 1)
    pair = (Fraction(3, 2), Fraction(1, 2))
    assert pair in SUBSET
    key = grid_manifest.pair_key(*pair)
    first, *failing = grid_manifest.check(manifest, [pair], [])
    assert first.startswith(f"verify {key}: {manifest['pairs'][key]} -> ")
    assert failing and all(
        line.startswith("  fails darboux/backward-image/") for line in failing
    )
