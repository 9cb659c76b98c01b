"""Seeded inputs, operations and output checks for the three workloads.

Every workload is an endless stream of rounds, and a round is a list of
operations.  A run measures a fixed number of whole rounds (`rounds_for`).
Every round of a workload holds the same kinds of operation in the same
proportions (the same certify steps, the same denominators, the same
integrals), and the seed draws only what varies within a kind.  Two runs
with different seeds thus do the same mix and amount of work on different
inputs, and an operation kind that fails at the current code fails the same
number of times in every run.

Parameters are small-denominator rationals.  A draw that would hit a
parameter pole or an inadmissible index is redrawn; `certify_excluded`,
`verify_excluded` and `quad_excluded` state the rules.  They are plain
arithmetic on (alpha, beta) and live here, so they are the same on every
commit of the program.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator

WORKLOADS = ("certify-sweep", "verify-small", "quad-circle")

# Nominal length of one round on a 2-vCPU host with CPython 3.11 and the
# pure-Python mpmath backend.  A run of `--seconds` measures
# max(1, seconds // ROUND_SECONDS) rounds, so every run does the same work:
# a slow or fast stretch of a shared host changes how long a run takes, not
# how much it does, and neither do later changes to the program's speed.
ROUND_SECONDS = {"certify-sweep": 24.0, "verify-small": 5.0, "quad-circle": 30.0}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, int(seconds // ROUND_SECONDS[workload]))


F = Fraction
DENOMINATORS = (1, 2, 3, 4, 5)
# The cost of exact arithmetic grows with the denominators, so every seed walks
# the same fixed cycle of (alpha, beta) denominators and the seed draws only
# the numerators; two seeds then do work of the same size.
DENOMINATOR_CYCLE = tuple(
    random.Random("xlbp-denominators").sample([(qa, qb) for qa in DENOMINATORS for qb in DENOMINATORS], 25)
)

# certify-sweep: every seed type, seed degrees up to 4, degrees up to about 100
CERT_L0S = (1, 2, 3, 4)
CERT_TOP_DEGREE = 100
CERT_STEPS = 4  # anchors per walk; each anchor n is followed by n + 1

# verify-small: the exact suites of `xlbp verify`, at the CLI defaults.  A
# round verifies one pair per slot; a slot fixes the two denominators.  The
# last slot has an integer alpha in {1, 2}, where the check
# recurrence/eigenvalue-reading fails at present, so that defect shows in one
# pair of every eight.
VERIFY_SUITES = ("identities", "darboux", "xhr", "recurrence")
VERIFY_ARGS = ("--max-n", "8", "--max-l0", "2")
VERIFY_SLOTS = ((2, 3), (3, 4), (4, 5), (5, 2), (3, 5), (5, 4), (4, 3), (1, 3))
VERIFY_INTEGER_ALPHAS = (F(1), F(2))

# quad-circle: strata of gamma = alpha + beta.  How many refinement levels an
# integral needs depends on gamma, the exponent of the weight's branch point
# at z = 1, and it jumps between one and two levels with alpha in a way no
# simple rule of alpha predicts.  So every round of a converging stratum
# integrates its whole pool at one gamma: every admissible alpha with
# denominator 3 or 4.  Pool pair i gets classical integral i of
# QUAD_CLASSICAL_NM (cyclically); the seed draws the order of the round and
# the pairs of the exceptional integrals.  Round r uses entry r of each gamma
# cycle.  The middle band is split at gamma = 1 because the type-2 and type-4
# weights move the branch exponent down by one, so the two halves behave
# differently.
QUAD_CLASSICAL_NM = tuple((n, m) for n in range(3) for m in range(3)) + ((3, 3), (3, 0), (0, 3))
QUAD_STRATA = (
    ("mid-low", (F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4))),  # 0 < gamma < 1: substituted rule
    ("mid-high", (F(3, 2), F(4, 3), F(5, 3), F(5, 4), F(7, 4))),  # 1 < gamma <= 2: substituted rule
    ("plain", (F(5, 2), F(7, 3), F(8, 3), F(9, 4), F(11, 4))),  # gamma > 2: plain trapezoid rule
)
QUAD_POOL_DENOMINATORS = (3, 4)
# The exceptional integrals draw alpha = p/5, so they share no node grid with
# the classical integrals of the pool.  (Nor do they meet beta - alpha = 1,
# where the type-2 weight's denominator vanishes on the circle and
# exceptional_quad refuses; three pool pairs of denominator 4 lie there.)
QUAD_EXCEPTIONAL_DENOMINATOR = 5
# -1 < gamma <= 0: one pair per round, drawn with alpha = p/5.  It runs every
# classical integral of QUAD_CLASSICAL_NM among the others, and its type-2
# (0, 0) integral, which fails at present, in the middle of the round.
QUAD_SINGULAR_GAMMAS = (F(-1, 2), F(-1, 3), F(-2, 3), F(-1, 4), F(-3, 4))
QUAD_SINGULAR_DENOMINATOR = 5
# the configurations `xlbp verify --suite quadrature` uses, and its bars
QUAD_CLASSICAL_CFG = dict(tolerance=1e-9, refinement_levels=7)
QUAD_EXCEPTIONAL_CFG = dict(tolerance=1e-7, refinement_levels=7)
QUAD_CLASSICAL_BAR = 1e-8
QUAD_EXCEPTIONAL_BAR = 1e-6


@dataclass
class Verdict:
    """What the runner learns from one operation besides its latency.

    `passed` feeds the pass ratio; `problems` are output-check violations and
    make the whole run incorrect; `output` is hashed into output_sha256.
    """

    passed: bool
    problems: list = field(default_factory=list)
    output: bytes | None = None
    info: dict = field(default_factory=dict)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]


def _grid(q: int, lo: Fraction, hi: Fraction) -> list:
    """Every value p/q in (lo, hi], in lowest terms, in increasing order."""
    return [Fraction(p, q) for p in range(math.floor(lo * q) + 1, math.floor(hi * q) + 1) if math.gcd(p, q) == 1]


def draw_pair(rng: random.Random, slot: int, excluded, lo=Fraction(0), hi=Fraction(3)):
    """(alpha, beta) in (lo, hi]^2 for slot `slot` of the denominator cycle.

    The seed draws the numerators; the denominators come from the fixed
    cycle, moving on to the next entry when eight draws in a row fail.
    """
    for attempt in range(8 * len(DENOMINATOR_CYCLE)):
        qa, qb = DENOMINATOR_CYCLE[(slot + attempt // 8) % len(DENOMINATOR_CYCLE)]
        a, b = rng.choice(_grid(qa, lo, hi)), rng.choice(_grid(qb, lo, hi))
        if not excluded(a, b):
            return a, b
    raise RuntimeError(f"no admissible pair for slot {slot}")


def line_pool(gamma: Fraction, denominators, excluded) -> list:
    """Every (alpha, gamma - alpha) with both in (-1, 3] and alpha's denominator listed."""
    return [
        (a, gamma - a)
        for q in denominators
        for a in _grid(q, Fraction(-1), Fraction(3))
        if -1 < gamma - a <= 3 and not excluded(a, gamma - a)
    ]


def draw_fresh(rng: random.Random, pool: list, used: set):
    """A pool entry not in `used`, or any entry once all are used; marks it used."""
    choice = rng.choice([p for p in pool if p not in used] or pool)
    used.add(choice)
    return choice


def certify_excluded(j0: int, l0: int, alpha: Fraction, beta: Fraction) -> bool:
    """Pole rule for certify at (j0, l0, n >= 2 l0 + 1) with alpha, beta > 0.

    At n = 2 l0 + 1 it names exactly the pairs in (0, 3] with denominators
    up to 3 (up to 5 below 1 and in (1, 2]) for which certify raises
    ParameterPoleError.

    The seed data of types 2-4 are built at derived parameters such as
    (-beta-1, -alpha), (beta-2, alpha+1) and (-alpha-2, 1-beta); their
    constructors divide by factors that vanish exactly at these values.
    """
    b_int = beta.denominator == 1
    a_int = alpha.denominator == 1
    if j0 == 2:
        return b_int and 1 <= beta <= l0
    if j0 == 3:
        return beta == 1
    if j0 == 4:
        return (b_int and 1 <= beta <= l0) or (a_int and 1 <= alpha <= l0 - 1)
    return False


def verify_excluded(alpha: Fraction, beta: Fraction) -> bool:
    """Pole rule for verify-small: alpha + beta in {1, ..., max_l0}.

    There the type-2 seed eigenvalue l0 - alpha - beta vanishes and the
    darboux suite stops with exit 2 ("backward operator input must be
    nonzero").  Any other pole only turns single checks into skipped ones.
    """
    gamma = alpha + beta
    return gamma.denominator == 1 and 1 <= gamma <= int(VERIFY_ARGS[3])


def quad_excluded(alpha: Fraction, beta: Fraction) -> bool:
    """Pole rule for quad-circle, on the whole pair so any integral can use it.

    alpha = 0 or beta = 0 is a pole of the partner family or of a weight
    factor; the type-2 weight and partner divide by 1 - beta and by
    alpha + beta - 1, and the type-4 partner by 1 - beta.
    """
    return alpha == 0 or beta == 0 or beta == 1 or alpha + beta == 1


# ---------------------------------------------------------------------------
# certify-sweep
# ---------------------------------------------------------------------------


def cert_walk(l0: int) -> list:
    """Steps (n, n + 1) of one walk: anchors from 2 l0 + 1 up to degree ~100.

    n + 1 reuses l0 + 1 of the l0 + 2 expansion rows that n needed.
    """
    lo, hi = 2 * l0 + 1, CERT_TOP_DEGREE - l0 - 1
    anchors = [lo + round(k * (hi - lo) / (CERT_STEPS - 1)) for k in range(CERT_STEPS)]
    return [(n, n + 1) for n in anchors]


def certify_sweep(seed: int) -> Iterator[list]:
    """One walker per (j0, l0); each walk draws a fresh pair and walks n upward.

    The walkers take turns, one step each.  Walker g starts its first walk at
    step g mod CERT_STEPS, so at every turn the four seed types of one l0 sit
    at four different degrees.  A round is CERT_STEPS turns, in which every
    walker takes every step once.
    """
    import xlbp

    rng = random.Random(f"certify-sweep:{seed}")
    slots = itertools.count()

    def walker(j0, l0, first_step):
        steps = cert_walk(l0)
        while True:
            a, b = draw_pair(rng, next(slots), lambda a, b: certify_excluded(j0, l0, a, b))
            for step in steps[first_step:]:
                yield [_certify_op(xlbp, j0, l0, n, a, b) for n in step]
            first_step = 0

    groups = [(j0, l0) for l0 in CERT_L0S for j0 in (1, 2, 3, 4)]
    walkers = [walker(j0, l0, g % CERT_STEPS) for g, (j0, l0) in enumerate(groups)]
    while True:
        yield [op for _ in range(CERT_STEPS) for w in walkers for op in next(w)]


def _certify_op(xlbp, j0, l0, n, a, b) -> Op:
    def run():
        cert = xlbp.certify(xlbp.XIndex(j0, l0, n), xlbp.Params(a, b))
        text = json.dumps(cert.to_json_dict(), sort_keys=True, indent=2) + "\n"
        return cert, text

    def check(raw) -> Verdict:
        cert, text = raw
        problems = []
        if not cert.residual_zero:
            problems.append("residual not zero")
        if cert.term_count != 3 * l0 + 4:
            problems.append(f"term count {cert.term_count} != {3 * l0 + 4}")
        if "b-cross-route-agrees" not in cert.method_tags:
            problems.append("b cross-route check missing")
        return Verdict(not problems, problems, text.encode())

    return Op(f"certify j0={j0} l0={l0} n={n} alpha={a} beta={b}", run, check)


# ---------------------------------------------------------------------------
# verify-small
# ---------------------------------------------------------------------------


def verify_candidates(qa: int, qb: int) -> list:
    """Every admissible pair of a VERIFY_SLOTS slot, alpha and beta in (0, 3]."""
    alphas = VERIFY_INTEGER_ALPHAS if qa == 1 else _grid(qa, F(0), F(3))
    return [(a, b) for a in alphas for b in _grid(qb, F(0), F(3)) if not verify_excluded(a, b)]


def verify_small(seed: int, report_dir: str) -> Iterator[list]:
    """A round verifies one fresh pair per slot: the four exact suites, one CLI call each."""
    from xlbp import cli

    rng = random.Random(f"verify-small:{seed}")
    pools = [verify_candidates(qa, qb) for qa, qb in VERIFY_SLOTS]
    used: set = set()
    while True:
        yield [_verify_op(cli, *draw_fresh(rng, pool, used), report_dir) for pool in pools]


def _verify_op(cli, a, b, report_dir) -> Op:
    calls = [
        (f"{report_dir}/verify-{suite}.json",
         ["verify", "--suite", suite, "--alpha", str(a), "--beta", str(b), *VERIFY_ARGS,
          "--out", f"{report_dir}/verify-{suite}.json"])
        for suite in VERIFY_SUITES
    ]

    def run():
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return [cli.main(argv) for _, argv in calls]

    def check(codes) -> Verdict:
        problems, output = [], b""
        for (path, argv), code in zip(calls, codes):
            suite = argv[2]
            with open(path, "rb") as fh:
                data = fh.read()
            output += data
            if code not in (0, 1):
                problems.append(f"{suite}: exit code {code}")
            try:
                report = json.loads(data)
                bad = [c for c in report["checks"] if c["status"] == "fail"]
                if report["summary"]["fail"] != len(bad) or (code == 0) != (not bad):
                    problems.append(f"{suite}: summary and exit code disagree with the check list")
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"{suite}: report does not parse: {exc}")
        passed = not problems and all(code == 0 for code in codes)
        return Verdict(passed, problems, output, {"report_bytes": len(output)})

    return Op(f"verify --suite {','.join(VERIFY_SUITES)} alpha={a} beta={b}", run, check)


# ---------------------------------------------------------------------------
# quad-circle
# ---------------------------------------------------------------------------


def quad_circle(seed: int) -> Iterator[list]:
    """A round: the strata's pools and the singular pair in a seeded order.

    Each converging stratum integrates its pool (one classical integral per
    pair) and one type-2 (0, 0) exceptional integral at a pair with alpha =
    p/5 that the seed draws.  The singular pair runs all of QUAD_CLASSICAL_NM.
    These quick integrals are shuffled together.  The singular pair's type-2
    (0, 0) integral, which fails after about 20 s, sits in the middle, so the
    quick integrals sample the host before and after it.
    """
    from xlbp import quadrature, xhr
    import xlbp

    cfg_c = quadrature.QuadConfig(**QUAD_CLASSICAL_CFG)
    cfg_x = quadrature.QuadConfig(**QUAD_EXCEPTIONAL_CFG)
    rng = random.Random(f"quad-circle:{seed}")

    def op(stratum, j0, nm, pair):
        return _quad_op(xlbp, quadrature, xhr, cfg_c if j0 is None else cfg_x, stratum, j0, *nm, *pair)

    for round_index in itertools.count():
        ops = []
        for stratum, gammas in QUAD_STRATA:
            gamma = gammas[round_index % len(gammas)]
            pool = line_pool(gamma, QUAD_POOL_DENOMINATORS, quad_excluded)
            ops += [op(stratum, None, QUAD_CLASSICAL_NM[i % len(QUAD_CLASSICAL_NM)], pair)
                    for i, pair in enumerate(pool)]
            exceptional = line_pool(gamma, (QUAD_EXCEPTIONAL_DENOMINATOR,), quad_excluded)
            ops.append(op(stratum, 2, (0, 0), rng.choice(exceptional)))
        gamma = QUAD_SINGULAR_GAMMAS[round_index % len(QUAD_SINGULAR_GAMMAS)]
        singular = rng.choice(line_pool(gamma, (QUAD_SINGULAR_DENOMINATOR,), quad_excluded))
        ops += [op("singular", None, nm, singular) for nm in QUAD_CLASSICAL_NM]
        rng.shuffle(ops)
        middle = len(ops) // 2
        yield ops[:middle] + [op("singular", 2, (0, 0), singular)] + ops[middle:]


def _quad_op(xlbp, quadrature, xhr, cfg, stratum, j0, n, m, a, b) -> Op:
    params = xlbp.Params(a, b)
    expected_errors = (quadrature.QuadratureConvergenceError, quadrature.DenominatorNearZeroError)

    def run():
        try:
            if j0 is None:
                return quadrature.classical_quad(n, m, params, cfg)
            return quadrature.exceptional_quad(
                xhr.XIndex(j0, 1, n), xhr.XIndex(j0, 1, m), params, cfg
            )
        except expected_errors as exc:
            return exc

    def check(res) -> Verdict:
        info = {"levels": 0, "converged": False}
        if isinstance(res, quadrature.QuadratureConvergenceError):
            info["levels"] = cfg.refinement_levels + 1
            return Verdict(False, [], None, info)
        if isinstance(res, quadrature.DenominatorNearZeroError):
            return Verdict(False, [], None, info)
        if j0 is None:
            exact = xlbp.norm_ratio(n, params) if n == m else Fraction(0)
            bar = QUAD_CLASSICAL_BAR
        else:
            exact = xlbp.x_norm_ratio(xhr.XIndex(j0, 1, n), params) if n == m else Fraction(0)
            bar = QUAD_EXCEPTIONAL_BAR
        err = abs(res.value - Fraction(exact))
        info.update(
            levels=len(res.estimates) + 1,
            converged=True,
            estimate_bounds_error=bool(res.error_estimate >= err),
        )
        problems = []
        if not err <= bar * max(1.0, abs(float(exact))):
            problems.append(f"converged value off by {float(err):.3g}")
        return Verdict(not problems, problems, None, info)

    kind = "classical" if j0 is None else f"exceptional j0={j0} l0=1"
    return Op(f"{kind} n={n} m={m} alpha={a} beta={b} ({stratum})", run, check)


def warmup(workload: str, out_dir: str) -> list:
    """Untimed operations run before measuring, at pairs (denominator 7) no draw makes."""
    import xlbp

    if workload == "certify-sweep":
        return [_certify_op(xlbp, j0, 2, 9, F(1, 7), F(3, 7)) for j0 in (1, 2, 3, 4)]
    if workload == "verify-small":
        from xlbp import cli

        return [_verify_op(cli, F(1, 7), F(3, 7), out_dir)]
    if workload == "quad-circle":
        from xlbp import quadrature, xhr

        cfg_c = quadrature.QuadConfig(**QUAD_CLASSICAL_CFG)
        cfg_x = quadrature.QuadConfig(**QUAD_EXCEPTIONAL_CFG)
        return [_quad_op(xlbp, quadrature, xhr, cfg_c, "warm-up", None, 1, 1, F(1, 7), F(16, 7)),
                _quad_op(xlbp, quadrature, xhr, cfg_x, "warm-up", 2, 0, 0, F(3, 7), F(3, 7))]
    raise ValueError(f"unknown workload {workload!r}")


def stream(workload: str, seed: int, out_dir: str) -> Iterator[list]:
    """The workload's rounds for this seed."""
    if workload == "certify-sweep":
        return certify_sweep(seed)
    if workload == "verify-small":
        return verify_small(seed, out_dir)
    if workload == "quad-circle":
        return quad_circle(seed)
    raise ValueError(f"unknown workload {workload!r}")
