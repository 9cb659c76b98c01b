"""Command-line front door: generate polynomials, run suites, certify recurrences.

Exit codes: 0 when everything requested passed, 1 when a verification or
certification failed, 2 on usage errors, parameter poles, inadmissible
indices or output that cannot be written.  Within a `verify` report, a check
that meets a parameter pole or an integral that does not exist is skipped,
not failed.  JSON output is byte-deterministic (sorted keys, canonical
rational strings); wall-clock timings are opt-in via --timings because they
would break determinism.
Checks run one after another, in report order.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import sys
import time
from fractions import Fraction
from functools import lru_cache

from . import __version__
from .darboux import _first_order_coefficient, make_seed, seed_theta
from .exact_core import Poly, format_rational, parse_rational
from .hr_classical import (
    IdentityTag,
    ParameterPoleError,
    Params,
    hr_partner,
    hr_poly,
    norm_ratio,
    pair_derivative,
    verify_identity,
)
from .recurrence import CertificationError, certify, example_oracles
from .xhr import (
    InadmissibleIndexError,
    XIndex,
    _member_pair,
    compact_darboux_sign,
    x_norm_ratio,
    x_partner,
    x_poly,
)

USAGE_ERROR = 2
CHECK_FAILURE = 1


def _parse_params(args) -> Params:
    return Params(args.alpha, args.beta)


def _rational_arg(text: str) -> Fraction:
    """argparse type: a rational "p/q" or "p" with a nonzero denominator."""
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than `minimum`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _poly_strings(p: Poly) -> list:
    return [format_rational(c) for c in p.coeffs]


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    params = _parse_params(args)
    if args.family == "hr":
        poly = hr_partner(args.n, params) if args.partner else hr_poly(args.n, params)
        label = f"{'Q' if args.partner else 'P'}_{args.n}"
        meta = {"family": "hr", "n": args.n}
    else:
        if args.j0 is None or args.l0 is None:
            raise ValueError("--family xhr requires --j0 and --l0")
        idx = XIndex(args.j0, args.l0, args.n)
        poly = x_partner(idx, params) if args.partner else x_poly(idx, params)
        label = f"{'XQ' if args.partner else 'XP'}({args.j0},{args.l0},{args.n})"
        meta = {"family": "xhr", "j0": args.j0, "l0": args.l0, "n": args.n}
    meta.update(
        {
            "alpha": format_rational(params.alpha),
            "beta": format_rational(params.beta),
            "partner": bool(args.partner),
            "degree": poly.degree,
            "coefficients": _poly_strings(poly),
        }
    )
    if args.format == "json":
        text = json.dumps(meta, sort_keys=True, indent=2) + "\n"
    elif args.format == "csv":
        lines = ["degree,numerator,denominator"]
        for k, c in enumerate(poly.coeffs):
            lines.append(f"{k},{c.numerator},{c.denominator}")
        text = "\n".join(lines) + "\n"
    else:
        text = f"{label}(z; alpha={params.alpha}, beta={params.beta}) = {poly}\n"
    _emit(text, args.out)
    return 0


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _residual_strings(residual):
    """Coefficient strings of a polynomial residual; None for none or one with a pole at 0."""
    if isinstance(residual, Poly) and residual.min_exp >= 0:
        return _poly_strings(residual)
    return None


def _run_checks(checks):
    """Execute (check_id, inputs, thunk) triples in order, one record each."""
    records = []
    for check_id, inputs, thunk in checks:
        started = time.perf_counter()
        try:
            outcome = thunk()
            status, witness, reason = "pass", None, None
            if outcome is not None:
                status = "fail"
                witness = outcome
        except (ParameterPoleError, InadmissibleIndexError) as exc:
            status, witness, reason = "skipped", None, str(exc)
        except CertificationError as exc:
            status, witness, reason = "fail", _residual_strings(exc.residual), str(exc)
        records.append(
            {
                "check_id": check_id,
                "inputs": inputs,
                "status": status,
                "witness": witness,
                "reason": reason,
                "time_s": time.perf_counter() - started,
            }
        )
    return records


def _witness_or_none(diff):
    """None for a holding identity; else its difference's coefficients, or its text if Laurent."""
    if diff is None or diff.is_zero:
        return None
    return _residual_strings(diff) or [str(diff)]


def _identity_checks(params, max_n):
    checks = []
    for tag in IdentityTag:
        # pearson is a statement about the weight alone, the same at every n
        for n in range(1 if tag is IdentityTag.PEARSON else max_n + 1):
            checks.append(
                (
                    f"identities/{tag.value}/n={n}",
                    {"n": n},
                    lambda tag=tag, n=n: _witness_or_none(
                        verify_identity(tag, n, params)
                    ),
                )
            )
    return checks


# the laws of an n-free pair are linear in n, so n = 0 and 1 prove them for
# every n; the record names the per-n identities that carry them to members
_FOR_EVERY_N = {"checked_at_n": [0, 1], "relies_on": ["ode", "l2-shift"]}


def _for_every_n(pair, params, residuals):
    """None if residuals(n, U, V) vanish at n = 0 and 1, else {"n", "U", "V"} at the first miss."""
    for n in _FOR_EVERY_N["checked_at_n"]:
        du, dv = residuals(n, *pair_derivative(*pair, n, params))
        if not (du.is_zero and dv.is_zero):
            return {"n": n, "U": _witness_or_none(du), "V": _witness_or_none(dv)}
    return None


def _backward_image_law(j0, l0, params):
    """z(1-z)F' + ell F = (n-theta) A L2 P_n for F = A P_n' + B P_n, (A, B) the Darboux pair.

    By l2-shift the right side is A xi_n P_n(alpha+1, beta-1), so the backward
    operator's division by A leaves xi_n P_n(alpha+1, beta-1) and no remainder.
    """
    a, b = pair = make_seed(j0, l0, params).darboux_pair
    ell = _first_order_coefficient(j0, l0, params)
    theta = seed_theta(j0, l0, params)
    return _for_every_n(pair, params, lambda n, u, v: (
        u + ell * a - (n - theta) * Poly((1, -1)) * a,
        v + ell * b + (n - theta) * (params.alpha + 1) * a,
    ))


def _derivative_factor_law(l0, params):
    """X_n' = (n+l0+1)(n+alpha+1) p P_n(alpha+1, beta-1) for type 4, p the seed's `p_poly`.

    Times z(1-z) and by l2-shift, the compact pair's U is -(n+l0+1) p z(1-z)^2
    and its V is (n+l0+1)(alpha+1) p z(1-z).
    """
    pz = make_seed(4, l0, params).p_poly * Poly((0, 1, -1))
    return _for_every_n(_member_pair(4, l0, params), params, lambda n, u, v: (
        u + (n + l0 + 1) * pz * Poly((1, -1)),
        v - (n + l0 + 1) * (params.alpha + 1) * pz,
    ))


def _construction_law(j0, l0, params):
    """None when the compact pair is sign * z^shift times the Darboux pair, else {"A", "B"}."""
    sign, shift = compact_darboux_sign(j0), (l0 if j0 in (3, 4) else 0)
    darboux_pair = make_seed(j0, l0, params).darboux_pair
    witness = {
        name: _witness_or_none(part - sign * other.shifted(shift))
        for name, part, other in zip("AB", _member_pair(j0, l0, params), darboux_pair)
    }
    return witness if any(witness.values()) else None


def _darboux_checks(params, j0s, max_l0):
    return [
        (
            f"darboux/backward-image/j0={j0}/l0={l0}",
            {"j0": j0, "l0": l0, **_FOR_EVERY_N},
            lambda j0=j0, l0=l0: _backward_image_law(j0, l0, params),
        )
        for j0 in j0s
        for l0 in range(1, max_l0 + 1)
    ]


def _xhr_checks(params, j0s, max_l0):
    checks = []
    for j0 in j0s:
        checks += [
            (
                f"xhr/construction/j0={j0}/l0={l0}",
                {"j0": j0, "l0": l0, "relies_on": []},
                lambda j0=j0, l0=l0: _construction_law(j0, l0, params),
            )
            for l0 in range(1, max_l0 + 1)
        ]
        if j0 == 4:
            checks += [
                (
                    f"xhr/derivative-factor/l0={l0}",
                    {"j0": 4, "l0": l0, **_FOR_EVERY_N},
                    lambda l0=l0: _derivative_factor_law(l0, params),
                )
                for l0 in range(1, max_l0 + 1)
            ]
    return checks


def _recurrence_checks(params, j0s, max_n, max_l0):
    checks = []
    # certificates by index, for the golden examples to read
    certificates = {}
    for j0 in j0s:
        for l0 in range(1, max_l0 + 1):
            for n in range(2 * l0 + 1, max_n + 1):
                inputs = {"j0": j0, "l0": l0, "n": n, "mode": "thm12"}

                def cert_check(j0=j0, l0=l0, n=n, inputs=inputs):
                    # certify raises CertificationError on any failed step
                    cert = certificates[j0, l0, n] = certify(XIndex(j0, l0, n), params)
                    inputs["certificate"] = cert.to_json_dict()

                checks.append(
                    (f"recurrence/certify/j0={j0}/l0={l0}/n={n}", inputs, cert_check)
                )
        if max_n >= 5:

            def golden(j0=j0):
                # the certify check of (j0, 1, 5) ran first; certify again only
                # if it failed, so that this record fails with its reason
                cert = certificates.get((j0, 1, 5)) or certify(XIndex(j0, 1, 5), params)
                want = example_oracles(j0, params)
                return None if cert.b == want else {
                    str(j): [str(cert.b.get(j)), str(v)] for j, v in want.items()
                    if cert.b.get(j) != v
                }

            checks.append(
                (
                    f"recurrence/golden-example/{j0}",
                    {"j0": j0, "l0": 1, "n": 5},
                    golden,
                )
            )
    return checks


def _quadrature_checks(params, j0s, max_n):
    from . import quadrature as quad

    checks = []
    if not params.is_positive:

        def positivity():
            raise ParameterPoleError("positivity condition fails; suite skipped")

        checks.append(
            (
                "quadrature/positivity",
                {"alpha": str(params.alpha), "beta": str(params.beta)},
                positivity,
            )
        )
        return checks
    # internal refinement tolerances sit one order under each check's bar
    cfg_classical = quad.QuadConfig(tolerance=1e-9, refinement_levels=7)
    cfg_exceptional = quad.QuadConfig(tolerance=1e-7, refinement_levels=7)
    n_cap = min(max_n, 3)

    def guarded(thunk):
        """The check; an integral that does not exist is a skip, an unmet tolerance a failure."""

        def run():
            try:
                return thunk()
            except (quad.DenominatorNearZeroError, quad.QuadratureDivergenceError) as exc:
                raise ParameterPoleError(str(exc)) from exc
            except quad.QuadratureConvergenceError as exc:
                return [f"no convergence: {exc}"]

        return run

    def compare(value, exact, bar):
        """None when value is within bar * max(1, |exact|) of exact, else the error."""
        err = abs(value - Fraction(exact))
        return None if err <= bar * max(1.0, abs(float(exact))) else [f"error {err}"]

    def classical(n, m):
        @guarded
        def thunk():
            res = quad.classical_quad(n, m, params, cfg_classical)
            return compare(res.value, norm_ratio(n, params) if n == m else 0, 1e-8)

        return thunk

    for n in range(n_cap + 1):
        for m in range(n_cap + 1):
            checks.append(
                (
                    f"quadrature/classical/n={n}/m={m}",
                    {"n": n, "m": m, "tolerance": "1e-8"},
                    classical(n, m),
                )
            )

    def exceptional(j0, n, m):
        @guarded
        def thunk():
            res = quad.exceptional_quad(
                XIndex(j0, 1, n), XIndex(j0, 1, m), params, cfg_exceptional
            )
            exact = x_norm_ratio(XIndex(j0, 1, n), params) if n == m else 0
            return compare(res.value, exact, 1e-6)

        return thunk

    for j0 in j0s:
        for n in range(min(max_n, 2) + 1):
            for m in range(min(max_n, 2) + 1):
                if not (XIndex(j0, 1, n).is_admissible and XIndex(j0, 1, m).is_admissible):
                    continue
                checks.append(
                    (
                        f"quadrature/exceptional/j0={j0}/n={n}/m={m}",
                        {"j0": j0, "l0": 1, "n": n, "m": m, "tolerance": "1e-6"},
                        exceptional(j0, n, m),
                    )
                )
    return checks


def _verify_report(args, params: Params, records: list) -> dict:
    """The verify report over the run's records, without wall times unless --timings."""
    if not args.timings:
        for rec in records:
            rec["time_s"] = None
    summary = {
        "pass": sum(1 for r in records if r["status"] == "pass"),
        "fail": sum(1 for r in records if r["status"] == "fail"),
        "skipped": sum(1 for r in records if r["status"] == "skipped"),
    }
    return {
        "tool": "xlbp",
        "tool_version": __version__,
        "command": ["verify", "--suite", args.suite],
        "params": {
            "alpha": format_rational(params.alpha),
            "beta": format_rational(params.beta),
        },
        "max_n": args.max_n,
        "max_l0": args.max_l0,
        "checks": records,
        "summary": summary,
    }


def cmd_verify(args) -> int:
    params = _parse_params(args)
    # a repeated --j0 runs its checks once
    j0s = list(dict.fromkeys(args.j0)) if args.j0 else [1, 2, 3, 4]
    suites = (
        ["identities", "darboux", "xhr", "recurrence", "quadrature"]
        if args.suite == "all"
        else [args.suite]
    )
    checks = []
    for suite in suites:
        if suite == "identities":
            checks += _identity_checks(params, args.max_n)
        elif suite == "darboux":
            checks += _darboux_checks(params, j0s, args.max_l0)
        elif suite == "xhr":
            checks += _xhr_checks(params, j0s, args.max_l0)
        elif suite == "recurrence":
            checks += _recurrence_checks(params, j0s, args.max_n, args.max_l0)
        elif suite == "quadrature":
            checks += _quadrature_checks(params, j0s, args.max_n)
    if not checks:
        raise ValueError(f"--suite {args.suite} has no checks at --max-n {args.max_n}")

    # --out is opened before any check runs, so an unwritable path fails at once
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        report = _verify_report(args, params, _run_checks(checks))
        fh.write(json.dumps(report, sort_keys=True, indent=2, default=str) + "\n")
    summary = report["summary"]
    if args.out:
        line = (
            f"{summary['pass']} passed, {summary['fail']} failed, "
            f"{summary['skipped']} skipped -> {args.out}\n"
        )
        sys.stdout.write(line)
    return 0 if summary["fail"] == 0 else CHECK_FAILURE


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def cmd_certify(args) -> int:
    params = _parse_params(args)
    idx = XIndex(args.j0, args.l0, args.n)
    cert = certify(idx, params, mode=args.mode, k=args.k)
    text = json.dumps(cert.to_json_dict(), sort_keys=True, indent=2) + "\n"
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


# parsing leaves no state in the parser, so one serves every call of main
@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xlbp",
        description=(
            "Exact constructors and verification suites for Hendriksen-van "
            "Rossum Laurent biorthogonal polynomials and their four "
            "exceptional extensions."
        ),
    )
    parser.add_argument("--version", action="version", version=f"xlbp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="print one polynomial's exact coefficients")
    gen.add_argument("--family", choices=["hr", "xhr"], required=True)
    gen.add_argument("--j0", type=int, choices=[1, 2, 3, 4])
    gen.add_argument("--l0", type=int)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument(
        "--alpha", required=True, type=_rational_arg, help='rational like "3/5" or "1"'
    )
    gen.add_argument("--beta", required=True, type=_rational_arg)
    gen.add_argument("--partner", action="store_true", help="emit the partner family")
    gen.add_argument("--format", choices=["json", "csv", "text"], default="json")
    gen.add_argument("--out")
    gen.set_defaults(func=cmd_gen)

    verify = sub.add_parser("verify", help="run a verification suite, emit a report")
    verify.add_argument(
        "--suite",
        choices=["identities", "darboux", "xhr", "recurrence", "quadrature", "all"],
        required=True,
    )
    verify.add_argument("--alpha", required=True, type=_rational_arg)
    verify.add_argument("--beta", required=True, type=_rational_arg)
    verify.add_argument("--max-n", type=_int_at_least(0), default=8, dest="max_n")
    verify.add_argument("--max-l0", type=_int_at_least(1), default=2, dest="max_l0")
    verify.add_argument("--j0", type=int, action="append", choices=[1, 2, 3, 4])
    verify.add_argument("--out")
    verify.add_argument(
        "--timings",
        action="store_true",
        help="record wall times (breaks byte determinism of the report)",
    )
    verify.set_defaults(func=cmd_verify)

    cert = sub.add_parser("certify", help="certify one recurrence instance as JSON")
    cert.add_argument("--j0", type=int, choices=[1, 2, 3, 4], required=True)
    cert.add_argument("--l0", type=int, required=True)
    cert.add_argument("--n", type=int, required=True)
    cert.add_argument("--alpha", required=True, type=_rational_arg)
    cert.add_argument("--beta", required=True, type=_rational_arg)
    cert.add_argument("--mode", choices=["thm12", "thm11"], default="thm12")
    cert.add_argument("--k", type=int)
    cert.add_argument("--out")
    cert.set_defaults(func=cmd_certify)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads a lone "-1/4" as an option, so "--beta -1/4" becomes
    # "--beta=-1/4", the spelling it accepts
    for i in range(len(argv) - 1, 0, -1):
        if re.fullmatch(r"-\d+/\d+", argv[i]) and re.fullmatch(r"--\w[\w-]*", argv[i - 1]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CertificationError as exc:
        residual = _residual_strings(exc.residual)
        sys.stderr.write(f"certification failed: {exc}\n")
        if residual is not None:
            sys.stderr.write(f"residual coefficients: {residual}\n")
        return CHECK_FAILURE
    except (ParameterPoleError, InadmissibleIndexError, ValueError, OSError) as exc:
        # OSError: the --out file or stdout cannot be written
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
