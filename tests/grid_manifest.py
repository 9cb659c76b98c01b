"""The grid manifest: what `verify` and `certify` print over a fixed parameter grid.

For every pair (alpha, beta) of {-4, -7/2, ..., 4}^2 it runs
`verify --suite all --max-n 8 --max-l0 2` through `cli.main`, in one
process, and records the exit code, the report's sha256 and its pass, fail
and skipped counts.  It also records the exit code and stdout sha256 (and,
on failure, the stderr) of `certify` at two pairs: in thm12 mode at six
triples, and in thm11 mode at (j0, 2, 12) with k = 3 and (j0, 1, 6) with
k = 4 for every j0.

    PYTHONPATH=src python tests/grid_manifest.py          # rewrite the manifest
    PYTHONPATH=src python tests/grid_manifest.py --check  # compare, exit 1 on a difference

`--check` prints every pair and certify case whose record differs from
tests/data/grid_manifest.json, with the check ids that fail now.  A change
that alters a record rewrites the manifest in the same commit.  The full
grid takes about 17 s on a shared 2-vCPU host; tests/test_grid_manifest.py
re-runs a fixed subset.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from xlbp.cli import main

MANIFEST = Path(__file__).resolve().parent / "data" / "grid_manifest.json"

GRID = [Fraction(k, 2) for k in range(-8, 9)]
PAIRS = [(alpha, beta) for alpha in GRID for beta in GRID]
VERIFY_ARGS = ("verify", "--suite", "all", "--max-n", "8", "--max-l0", "2")

CERTIFY_TRIPLES = ((1, 1, 5), (2, 1, 7), (3, 2, 9), (4, 2, 8), (4, 3, 12), (2, 2, 30))
# thm11 cases: (j0, l0, n, k); the full window reaches down to j = 0, and for
# type 4 to the added state
THM11_CASES = tuple((j0, l0, n, k) for l0, n, k in ((2, 12, 3), (1, 6, 4)) for j0 in (1, 2, 3, 4))
CERTIFY_PAIRS = ((Fraction(3, 5), Fraction(1, 2)), (Fraction(7, 3), Fraction(-1, 4)))
CERTIFY_CASES = [(t, p) for p in CERTIFY_PAIRS for t in CERTIFY_TRIPLES] + [
    (t, p) for p in CERTIFY_PAIRS for t in THM11_CASES
]


def pair_key(alpha, beta) -> str:
    return f"{alpha} {beta}"


def certify_key(case, pair) -> str:
    """A thm12 case is (j0, l0, n); a thm11 case adds k, which the key names."""
    key = "j0={} l0={} n={}".format(*case[:3])
    if len(case) == 4:
        key += f" thm11 k={case[3]}"
    return "{} @ {} {}".format(key, *pair)


def _run(argv) -> tuple:
    """Exit code, stdout and stderr of cli.main on argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def verify_record(alpha, beta) -> tuple:
    """(record, failing check ids) of the verify run at one pair."""
    code, out, _ = _run([*VERIFY_ARGS, f"--alpha={alpha}", f"--beta={beta}"])
    report = json.loads(out)
    record = {
        "exit": code,
        "sha256": hashlib.sha256(out.encode()).hexdigest(),
        **report["summary"],
    }
    failing = [c["check_id"] for c in report["checks"] if c["status"] == "fail"]
    return record, failing


def certify_record(case, pair) -> dict:
    j0, l0, n = case[:3]
    alpha, beta = pair
    mode = ["--mode", "thm11", "--k", str(case[3])] if len(case) == 4 else []
    code, out, err = _run(
        ["certify", "--j0", str(j0), "--l0", str(l0), "--n", str(n),
         f"--alpha={alpha}", f"--beta={beta}", *mode]
    )
    record = {"exit": code, "sha256": hashlib.sha256(out.encode()).hexdigest()}
    if code:
        record["stderr"] = err
    return record


def build() -> dict:
    return {
        "command": list(VERIFY_ARGS),
        "pairs": {pair_key(*p): verify_record(*p)[0] for p in PAIRS},
        "certify": {certify_key(*c): certify_record(*c) for c in CERTIFY_CASES},
    }


def dumps(manifest: dict) -> str:
    """The manifest as JSON with one pair or certify case per line."""

    def section(records):
        lines = [f"    {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in records.items()]
        return "{\n" + ",\n".join(lines) + "\n  }"

    return (
        "{\n"
        f'  "command": {json.dumps(manifest["command"])},\n'
        f'  "pairs": {section(manifest["pairs"])},\n'
        f'  "certify": {section(manifest["certify"])}\n'
        "}\n"
    )


def load() -> dict:
    return json.loads(MANIFEST.read_text())


def check(manifest: dict, pairs=PAIRS, cases=CERTIFY_CASES) -> list:
    """One line for each pair or certify case whose record differs from the manifest."""
    lines = []
    for pair in pairs:
        key = pair_key(*pair)
        record, failing = verify_record(*pair)
        if record != manifest["pairs"].get(key):
            lines.append(f"verify {key}: {manifest['pairs'].get(key)} -> {record}")
            lines += [f"  fails {check_id}" for check_id in failing]
    for case in cases:
        key = certify_key(*case)
        record = certify_record(*case)
        if record != manifest["certify"].get(key):
            lines.append(f"certify {key}: {manifest['certify'].get(key)} -> {record}")
    return lines


def cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true", help="compare with the manifest instead of writing it"
    )
    args = parser.parse_args(argv)
    if not args.check:
        MANIFEST.parent.mkdir(exist_ok=True)
        MANIFEST.write_text(dumps(build()))
        return 0
    differences = check(load())
    for line in differences:
        print(line)
    print(f"{MANIFEST.name}: {'differs' if differences else 'matches'}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(cli())
