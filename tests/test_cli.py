"""End-to-end CLI contract: flags, formats, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlbp import cli, darboux, hr_classical, quadrature, recurrence, xhr
from xlbp.cli import main
from xlbp.darboux import make_seed
from xlbp.exact_core import Poly, format_rational
from xlbp.hr_classical import IdentityTag, ParameterPoleError, Params, hr_poly, verify_identity
from xlbp.recurrence import example_oracles
from xlbp.xhr import XIndex

from conftest import clear_package_caches


PKG_ROOT = Path(__file__).resolve().parent.parent


def run_cli(*argv, timeout=600):
    env_path = str(PKG_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "xlbp.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin"},
        cwd=str(PKG_ROOT),
    )


# certify --l0 2 --n 40 --alpha 3/5 --beta 1/2, by --j0: digests of the
# output of the Fraction-coefficient kernel this package started from
CERTIFICATE_SHA256 = {
    1: "85733ad41f8459516a36ade0c681947a8b424502d1ca9df81ae0e7feb37bea21",
    2: "2ffae09f8ae99afbce413d6dde023db42927e65815c472fee5468d80f877e441",
    3: "4cb11980937ba1212e98b77989e311a1d1d8e0ddb8e51b1b3184eece8e57f700",
    4: "ea841e2ee99a9bb473223d717327b99a5ae56a6c8eb40f186d9b7703dfed3e35",
}

# certify --mode thm11 --l0 2 --n 12 --k 3 --alpha 3/5 --beta 1/2, by --j0, and
# the large-degree thm12 instance --j0 4 --l0 4 --n 95 at the same pair:
# digests of the output of the dense Fraction solve the b-expansion replaced
THM11_CERTIFICATE_SHA256 = {
    1: "b383190d65f169c52748f5d393dd9e46c110ee6bc00ffe972cb8cea784044f14",
    2: "7e21bce8306aaaa84d8b7a977f822b72c5818ecb83e6a90e03764511088d7c56",
    3: "0e751648cd59854b5af29ec3bf1b4dcc6a0d910da01ffcce46b71d6f17b4751c",
    4: "56ccec79c2591ff187c561465df31bed2a970bf5d30a1358ecbf41de8609bf1b",
}
LARGE_CERTIFICATE_SHA256 = "569dc3f7f558e53c2d424ad94a38a6dc994bf7dc97e13219d3ae45db751f054a"

# certify --j0 J --l0 L --n N --alpha 3/5 --beta 1/2, by (J, L, N): digests of
# the output of the full-expansion c-route the bottom-block solve replaced,
# at degrees where the block is a small part of the window-vanishing rows
DEEP_CERTIFICATE_SHA256 = {
    (1, 1, 200): "608cb662eba5f61ba9a9122c2dd02073aa73c9e8d66ec7fce03d0d4c636d38d4",
    (2, 3, 120): "2963ecc3f580fa845526aec21f8a29c23c7ffcf3d9cd299bc2181fd60f644288",
}

# verify --alpha 3/5 --beta 1/2 --max-n 8 --max-l0 2, by --suite: digests of
# the reports printed before Poly and LaurentPoly became one class; recurrence
# is that report without the eigenvalue-reading records, which could not fail
# unless another record failed with them.  identities is that report without
# the records that could not fail on their own, with the summary recounted:
# the twist-up, partner-twist and span-coefficients identities (multi-twist-p
# and -q at one j) and pearson past n = 0 (it does not depend on n).  darboux
# and xhr are the reports of the records that prove the Darboux laws once per
# seed on the n-free pairs, all passing, which replaced the per-n records
REPORT_SHA256 = {
    "identities": "69dcee8fc5fabfcd77a0e90498e5fe54ec4f4d6c8dabcd5b5fd6cc96350cc7ee",
    "darboux": "78b745780e6740b5d4e9ad448dd87641817246afa903d3ab7aa930c7f66d9a70",
    "xhr": "cc1bc5ad77b943eba2c89157761a1e1637e639fd37d75ee3aa901fe802f50a59",
    "recurrence": "41b0b8ec6de33deb942223c9da19f713a97c77fb41517a735fe302d7007502e5",
}


class TestGen:
    def test_hr_json(self):
        proc = run_cli(
            "gen", "--family", "hr", "--n", "1", "--alpha", "1", "--beta", "2"
        )
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["coefficients"] == ["1", "1"]
        assert data["degree"] == 1

    def test_xhr_json(self):
        proc = run_cli(
            "gen",
            "--family", "xhr", "--j0", "1", "--l0", "1", "--n", "2",
            "--alpha", "1", "--beta", "2",
        )
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["degree"] == 2
        assert len(data["coefficients"]) == 3

    def test_xhr_type4_added_state(self):
        proc = run_cli(
            "gen",
            "--family", "xhr", "--j0", "4", "--l0", "1", "--n", "-2",
            "--alpha", "3/5", "--beta", "1/2",
        )
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["degree"] == 0 and data["coefficients"] == ["-1"]

    def test_csv_format(self):
        proc = run_cli(
            "gen",
            "--family", "hr", "--n", "2", "--alpha", "3/5", "--beta", "1/2",
            "--format", "csv",
        )
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "degree,numerator,denominator"
        assert len(lines) == 4
        assert lines[-1] == "2,1,1"  # monic leading coefficient

    def test_text_format(self):
        proc = run_cli(
            "gen",
            "--family", "hr", "--n", "1", "--alpha", "1", "--beta", "2",
            "--format", "text",
        )
        assert proc.returncode == 0
        assert "z + 1" in proc.stdout

    def test_partner_flag(self):
        proc = run_cli(
            "gen",
            "--family", "hr", "--n", "1", "--alpha", "1", "--beta", "2",
            "--partner",
        )
        data = json.loads(proc.stdout)
        assert data["coefficients"] == ["1/3", "1"]  # z + alpha/(beta+1)

    def test_inadmissible_index_exits_2(self):
        proc = run_cli(
            "gen",
            "--family", "xhr", "--j0", "1", "--l0", "2", "--n", "2",
            "--alpha", "1", "--beta", "2",
        )
        assert proc.returncode == 2
        assert "not admissible" in proc.stderr

    def test_parameter_pole_exits_2_with_diagnostic(self):
        proc = run_cli(
            "gen", "--family", "hr", "--n", "2", "--alpha", "-2", "--beta", "1/2"
        )
        assert proc.returncode == 2
        assert "alpha" in proc.stderr

    def test_bad_flags_exit_2(self):
        proc = run_cli("gen", "--family", "nope", "--n", "1")
        assert proc.returncode == 2

    def test_degenerate_type2_member_is_a_pole(self):
        # alpha + beta = 1 makes the leading factor l0-n-alpha-beta of the
        # type-2 members (l0, n) = (1, 0) and (2, 1) vanish: a parameter pole,
        # named, with exit 2 and no traceback
        for l0, n in ((1, 0), (2, 1)):
            proc = run_cli(
                "gen", "--family", "xhr", "--j0", "2", "--l0", str(l0), "--n", str(n),
                "--alpha", "1/3", "--beta", "2/3",
            )
            assert proc.returncode == 2
            assert proc.stderr == (
                f"error: l0-n-alpha-beta = 0 at l0={l0}, n={n}: "
                "the leading coefficient of the type-2 member vanishes\n"
            )

    def test_integer_beta_is_not_a_pole(self):
        # P_3(z; 1/2, 0) = z^3: the hypergeometric form's 0/0 at beta = 0 is
        # removable, and the recurrence route gives the same polynomial
        proc = run_cli(
            "gen", "--family", "hr", "--n", "3", "--alpha", "1/2", "--beta", "0",
            "--format", "text",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "P_3(z; alpha=1/2, beta=0) = z^3\n"

    @pytest.mark.parametrize(
        "spaced, joined",
        [
            (
                ("gen", "--family", "hr", "--n", "3", "--alpha", "-2/3", "--beta", "-1/4"),
                ("gen", "--family", "hr", "--n", "3", "--alpha=-2/3", "--beta=-1/4"),
            ),
            (
                ("gen", "--family", "hr", "--beta", "-1/4", "--n", "3", "--alpha=-2/3"),
                ("gen", "--family", "hr", "--beta=-1/4", "--n", "3", "--alpha=-2/3"),
            ),
            (
                ("certify", "--j0", "1", "--l0", "1", "--n", "4", "--alpha", "-2/3", "--beta", "-1/4"),
                ("certify", "--j0", "1", "--l0", "1", "--n", "4", "--alpha=-2/3", "--beta=-1/4"),
            ),
        ],
        ids=["gen", "gen-mixed", "certify"],
    )
    def test_negative_rational_as_separate_argument(self, spaced, joined):
        # argparse reads a lone "-1/4" as an option; the CLI takes it as the
        # value of the option before it, exactly as it takes "--beta=-1/4"
        outputs = []
        for argv in (spaced, joined):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(list(argv)) == 0
            outputs.append(out.getvalue())
        assert outputs[0] == outputs[1] and outputs[0]

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "--family", "hr", "--n", "3", "--alpha", "1", "--beta", "1", "-1/4"),
            ("gen", "--family", "hr", "--n", "3", "--partner", "-1/4", "--alpha", "1", "--beta", "1"),
        ],
        ids=["no-option-before", "flag-before"],
    )
    def test_stray_negative_rational_exits_2(self, argv):
        # only an option that takes a value can take a lone "-1/4"
        with contextlib.redirect_stderr(io.StringIO()) as err, pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 2
        assert "error:" in err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--family", "hr", "--n", "1", "--alpha", "1/0", "--beta", "1"),
        ("certify", "--j0", "1", "--l0", "1", "--n", "5", "--alpha", "1", "--beta", "x"),
        ("gen", "--family", "xhr", "--n", "2", "--alpha", "1", "--beta", "2"),
        ("gen", "--family", "xhr", "--j0", "1", "--n", "2", "--alpha", "1", "--beta", "2"),
        ("verify", "--suite", "identities", "--alpha", "1", "--beta", "1", "--max-n", "-1"),
        ("verify", "--suite", "darboux", "--alpha", "1", "--beta", "1", "--max-l0", "0"),
        ("verify", "--suite", "recurrence", "--alpha", "1", "--beta", "1", "--max-n", "2"),
    ],
    ids=["zero-denominator", "not-rational", "xhr-no-j0", "xhr-no-l0",
         "negative-max-n", "zero-max-l0", "no-checks"],
)
def test_usage_errors_exit_2_without_traceback(argv):
    # a usage error is exit 2 with a message, never a traceback (exit 1 would
    # read as a verified failure) and never a vacuous pass
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--family", "hr", "--n", "3", "--alpha", "1", "--beta", "2"),
        ("verify", "--suite", "identities", "--alpha", "1", "--beta", "2", "--max-n", "1"),
        ("certify", "--j0", "1", "--l0", "1", "--n", "5", "--alpha", "1", "--beta", "1/2"),
    ],
    ids=["gen", "verify", "certify"],
)
def test_unwritable_out_exits_2(argv, tmp_path):
    # exit 1 would read as a verified failure
    out = tmp_path / "missing" / "out.json"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--out", str(out)])
    assert code == 2
    assert stderr.getvalue().startswith("error: ") and str(out) in stderr.getvalue()
    assert stdout.getvalue() == ""
    assert not out.parent.exists()


def test_verify_unwritable_out_exits_before_any_check(tmp_path, monkeypatch):
    # the whole suite would run first if --out were opened after the checks
    def no_checks(checks):
        raise AssertionError("checks ran before --out was opened")

    monkeypatch.setattr(cli, "_run_checks", no_checks)
    out = tmp_path / "missing" / "out.json"
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(["verify", "--suite", "all", "--alpha", "3/5", "--beta", "1/2",
                     "--out", str(out)])
    assert code == 2
    assert stderr.getvalue().startswith("error: ") and str(out) in stderr.getvalue()


class TestVerify:
    def test_identities_suite_passes(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli(
            "verify",
            "--suite", "identities", "--alpha", "3/5", "--beta", "1/2",
            "--max-n", "4", "--out", str(out),
        )
        assert proc.returncode == 0
        report = json.loads(out.read_text())
        assert report["summary"]["fail"] == 0
        assert report["summary"]["pass"] > 0
        assert all(c["time_s"] is None for c in report["checks"])

    def test_report_is_byte_deterministic(self, tmp_path):
        args = (
            "verify", "--suite", "recurrence", "--alpha", "3/5", "--beta", "1/2",
            "--max-n", "5", "--max-l0", "1", "--j0", "1",
        )
        first = run_cli(*args, "--out", str(tmp_path / "a.json"))
        second = run_cli(*args, "--out", str(tmp_path / "b.json"))
        assert first.returncode == 0 and second.returncode == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_repeated_j0_runs_its_checks_once(self):
        argv = ("--alpha", "3/5", "--beta", "1/2", "--max-n", "5", "--max-l0", "1")
        _, once, _ = verify_in_process("recurrence", *argv, "--j0", "1", "--j0", "2")
        _, repeated, _ = verify_in_process(
            "recurrence", *argv, "--j0", "1", "--j0", "2", "--j0", "1", "--j0", "2"
        )
        ids = [c["check_id"] for c in repeated["checks"]]
        assert len(ids) == len(set(ids))
        assert repeated == once

    def test_every_check_appears_once(self, tmp_path):
        out = tmp_path / "report.json"
        run_cli(
            "verify",
            "--suite", "darboux", "--alpha", "3/5", "--beta", "1/2",
            "--max-n", "3", "--max-l0", "1", "--out", str(out),
        )
        report = json.loads(out.read_text())
        ids = [c["check_id"] for c in report["checks"]]
        assert len(ids) == len(set(ids))
        counted = (
            report["summary"]["pass"]
            + report["summary"]["fail"]
            + report["summary"]["skipped"]
        )
        assert counted == len(ids)

    @pytest.mark.parametrize("suite", sorted(REPORT_SHA256))
    def test_report_bytes_pinned(self, suite):
        # SHA-256 of the report as the CLI prints it: every check id, input,
        # status, witness and reason, so a refactor that alters any fails
        proc = run_cli(
            "verify", "--suite", suite, "--alpha", "3/5", "--beta", "1/2",
            "--max-n", "8", "--max-l0", "2",
        )
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == REPORT_SHA256[suite]

    @pytest.mark.usefixtures("fresh_caches")
    @pytest.mark.parametrize("alpha, beta", [("3/5", "1/2"), ("1", "1/3"), ("3/5", "1")])
    def test_reports_do_not_depend_on_cache_state(self, alpha, beta):
        # the exact suites share cached recurrence coefficients, seeds, members, partners
        # and moment tables; a report must read the same whether its suite
        # runs on empty caches, on caches that every suite has filled, or on
        # caches that the suites before it fill in a one-process verify run.
        # At (3/5, 1) many records are skips (types 2 and 4 build their seeds
        # at (-beta, -alpha), which poles at beta = 1), and a cached value
        # must not turn one into a pass
        def report(suite, cold=False):
            if cold:
                clear_package_caches()
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(
                    ["verify", "--suite", suite, "--alpha", alpha, "--beta", beta,
                     "--max-n", "8", "--max-l0", "2"]
                )
            assert code == 0, suite
            return out.getvalue().encode()

        suites = ["identities", "darboux", "xhr", "recurrence"]
        cold = {suite: report(suite, cold=True) for suite in suites}
        warm = {suite: report(suite) for suite in reversed(suites)}
        assert warm == cold
        clear_package_caches()
        in_order = {suite: report(suite) for suite in suites}
        assert in_order == cold
        if (alpha, beta) == ("3/5", "1/2"):
            assert {s: hashlib.sha256(r).hexdigest() for s, r in cold.items()} == REPORT_SHA256
        if (alpha, beta) == ("3/5", "1"):
            skipped = {s: json.loads(r)["summary"]["skipped"] for s, r in cold.items()}
            assert skipped == {"identities": 15, "darboux": 4, "xhr": 6, "recurrence": 22}

    def test_skips_are_recorded(self, tmp_path):
        # (1,1) poles two identity checks; they must appear as skips
        out = tmp_path / "report.json"
        proc = run_cli(
            "verify",
            "--suite", "identities", "--alpha", "1", "--beta", "1",
            "--max-n", "4", "--out", str(out),
        )
        assert proc.returncode == 0  # skips do not fail the run
        report = json.loads(out.read_text())
        skipped = [c for c in report["checks"] if c["status"] == "skipped"]
        assert skipped
        assert all(c["reason"] for c in skipped)

    @pytest.mark.parametrize(
        "j0, alpha, beta, reason",
        [(4, "3/5", "1", "alpha+1 = 0"), (3, "-1", "1/2", "alpha+1 = 0")],
        ids=["type4", "type3"],
    )
    def test_seed_reversal_skip_names_the_vanishing_factor(self, j0, alpha, beta, reason):
        # a seed pole is a pole of P_l0, raised with hr_poly's message; the
        # type-4 seed reverses P_l0 at the negated pair, where alpha+1 is 1-beta.
        # The seed's one backward-image record skips with that message
        with pytest.raises(ParameterPoleError, match=f"^{re.escape(reason)}$"):
            make_seed(j0, 1, Params(Fraction(alpha), Fraction(beta)))
        proc = run_cli(
            "verify", "--suite", "darboux", f"--alpha={alpha}", f"--beta={beta}",
            "--j0", str(j0), "--max-l0", "1",
        )
        assert proc.returncode == 0
        [record] = json.loads(proc.stdout)["checks"]
        assert record["check_id"] == f"darboux/backward-image/j0={j0}/l0=1"
        assert (record["status"], record["reason"]) == ("skipped", reason)

    def test_divergent_integral_is_skipped(self, tmp_path):
        # (-1/2, -1/4) passes positivity, but the type-2 integrand behaves
        # like |1-z|^(-7/4) at z = 1, so the biorthogonality integral does
        # not exist: nothing is refuted, so the check is skipped, as one over
        # a weight denominator with a root on the circle is
        out = tmp_path / "report.json"
        proc = run_cli(
            "verify",
            "--suite", "quadrature", "--alpha=-1/2", "--beta=-1/4",
            "--max-n", "0", "--j0", "2", "--out", str(out),
        )
        assert proc.returncode == 0
        report = json.loads(out.read_text())
        assert report["summary"] == {"fail": 0, "pass": 1, "skipped": 1}
        [record] = [c for c in report["checks"] if c["status"] == "skipped"]
        assert record["check_id"] == "quadrature/exceptional/j0=2/n=0/m=0"
        assert record["reason"].startswith("the integral diverges")

    def test_integrable_singular_weight_passes(self):
        # at the same pair the type-1 exponents at z = 1 are -3/4 and +1/4:
        # both integrals exist, and the rule converges to the exact values
        proc = run_cli(
            "verify",
            "--suite", "quadrature", "--alpha=-1/2", "--beta=-1/4",
            "--max-n", "0", "--j0", "1",
        )
        assert proc.returncode == 0, proc.stdout
        assert json.loads(proc.stdout)["summary"] == {"fail": 0, "pass": 2, "skipped": 0}

    @pytest.mark.usefixtures("fresh_caches")
    def test_refuted_identity_exits_1_with_a_witness(self, monkeypatch):
        # a perturbed basis expansion refutes monic completion: the report
        # carries the difference as a witness, with no exception escaping
        original = hr_classical.expand_in_hr_basis

        def perturbed(poly, params):
            nums, den = original(poly, params)
            return [nums[0] + den] + nums[1:], den

        monkeypatch.setattr(hr_classical, "expand_in_hr_basis", perturbed)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(
                ["verify", "--suite", "identities", "--alpha", "3/5", "--beta", "1/2", "--max-n", "2"]
            )
        assert code == 1
        report = json.loads(out.getvalue())
        failed = [c for c in report["checks"] if c["status"] == "fail"]
        assert [c["check_id"] for c in failed] == [
            f"identities/monic-completion/n={n}" for n in range(3)
        ]
        assert all(c["witness"] for c in failed)

    @pytest.mark.usefixtures("fresh_caches")
    def test_refuted_span_window_and_laurent_identity_exit_1_with_witnesses(self, monkeypatch):
        # span-window's difference is the list of its inner products, written
        # coefficient by coefficient: each inner product against Q_m is moved
        # by m + 1, so n = 3 lists l0 = 1 (m = 0, 1), then l0 = 2 (m = 0).
        # log-derivative-negated's difference is a Laurent polynomial, which
        # has no coefficients from z^0 up and is written as its text
        paired = hr_classical._paired
        monkeypatch.setattr(
            hr_classical, "_paired", lambda weights, g: paired(weights, g) + g.degree + 1
        )
        checks = dict(hr_classical._CHECKS)
        negated = checks[IdentityTag.LOG_DERIVATIVE_NEGATED]
        fault = Poly((1, Fraction(-2, 3))).shifted(-2)
        checks[IdentityTag.LOG_DERIVATIVE_NEGATED] = lambda n, params: negated(n, params) + fault
        monkeypatch.setattr(hr_classical, "_CHECKS", checks)
        code, report, err = verify_in_process(
            "identities", "--alpha", "3/5", "--beta", "1/2", "--max-n", "3"
        )
        assert code == 1
        assert "Traceback" not in err
        witnesses = {c["check_id"]: c["witness"] for c in report["checks"] if c["status"] == "fail"}
        assert witnesses == {
            "identities/span-window/n=2": ["1"],
            "identities/span-window/n=3": ["1", "2", "1"],
            **{f"identities/log-derivative-negated/n={n}": ["-2/3*z^-1 + z^-2"] for n in range(4)},
        }

    @pytest.mark.usefixtures("fresh_caches")
    @pytest.mark.parametrize("fault", ["scaled", "constant", "laurent", "theta", "ode-step"])
    def test_refuted_backward_image_exits_1_with_a_witness(self, monkeypatch, fault):
        # one record per seed proves the image law for every n from the
        # Darboux pair (A, B), ell and theta, which cli looks up by name.  At
        # n = 0 the law's differences are U = z(1-z)(A' + B) - B1 A + ell A +
        # theta (1-z) A and V = z(1-z) B' + ell B - theta (alpha+1) A, so
        # doubling B adds z(1-z) B to U and z(1-z) B' + ell B to V; adding 1
        # to ell adds A and B; adding 1 to theta adds (1-z) A and
        # -(alpha+1) A.  Adding z^-2 to a type-3 B leaves differences with a
        # pole at 0, written as their text so that the exponents are kept.  A
        # wrong n term in the ODE step (n A added to U) shows only at n = 1
        params = Params(Fraction(3, 5), Fraction(1, 2))
        seed = (3, 1) if fault == "laurent" else (1, 2)
        original_seed, ell, theta = cli.make_seed, cli._first_order_coefficient, cli.seed_theta

        def perturbed_seed(j0, l0, pair):
            made = original_seed(j0, l0, pair)
            if (j0, l0) != seed or fault not in ("scaled", "laurent"):
                return made
            a, b = made.darboux_pair
            return replace(made, darboux_pair=(a, 2 * b if fault == "scaled" else b + Poly.one().shifted(-2)))

        def shifted(original, name):
            return lambda *key: original(*key) + (1 if fault == name and key[:2] == seed else 0)

        monkeypatch.setattr(cli, "make_seed", perturbed_seed)
        monkeypatch.setattr(cli, "_first_order_coefficient", shifted(ell, "constant"))
        monkeypatch.setattr(cli, "seed_theta", shifted(theta, "theta"))
        if fault == "ode-step":
            step, seed_a = cli.pair_derivative, make_seed(*seed, params).darboux_pair[0]

            def wrong_step(a, b, n, pair):
                u, v = step(a, b, n, pair)
                return (u + n * a if a == seed_a else u), v

            monkeypatch.setattr(cli, "pair_derivative", wrong_step)
        code, report, err = verify_in_process("darboux", "--alpha", "3/5", "--beta", "1/2")
        assert code == 1
        assert "Traceback" not in err
        failed = [c for c in report["checks"] if c["status"] == "fail"]
        assert [c["check_id"] for c in failed] == ["darboux/backward-image/j0=%d/l0=%d" % seed]
        if fault == "laurent":
            want = {"n": 0, "U": ["-1 + z^-1"], "V": ["-11/10*z^-1 - z^-2"]}
        elif fault == "ode-step":
            a = make_seed(*seed, params).darboux_pair[0]
            want = {"n": 1, "U": [format_rational(c) for c in a.coeffs], "V": None}
        else:
            a, b = make_seed(*seed, params).darboux_pair
            z1z = Poly((0, 1, -1))
            du, dv = {
                "scaled": (z1z * b, z1z * b.derivative() + ell(*seed, params) * b),
                "constant": (a, b),
                "theta": (Poly((1, -1)) * a, -(params.alpha + 1) * a),
            }[fault]
            want = {"n": 0, **{k: [format_rational(c) for c in p.coeffs] for k, p in (("U", du), ("V", dv))}}
        assert failed[0]["witness"] == want

    @pytest.mark.usefixtures("fresh_caches")
    def test_refuted_construction_exits_1_with_a_witness(self, monkeypatch):
        # cli looks the compact pair up by name; a constant added to one
        # seed's A leaves the Darboux pair as it is, so the two pairs differ by
        # that constant in A and not at all in B
        original = cli._member_pair

        def perturbed(j0, l0, params):
            a, b = original(j0, l0, params)
            return (a + Poly.one(), b) if (j0, l0) == (3, 1) else (a, b)

        monkeypatch.setattr(cli, "_member_pair", perturbed)
        code, report, err = verify_in_process("xhr", "--alpha", "3/5", "--beta", "1/2")
        assert code == 1
        assert "Traceback" not in err
        failed = [c for c in report["checks"] if c["status"] == "fail"]
        assert [c["check_id"] for c in failed] == ["xhr/construction/j0=3/l0=1"]
        assert failed[0]["witness"] == {"A": ["1"], "B": None}

    @pytest.mark.usefixtures("fresh_caches")
    def test_refuted_derivative_factor_exits_1_with_a_reason(self, monkeypatch):
        # cli looks the seed up by name.  Adding 1 to the type-4 seed
        # polynomial p of l0 = 2 changes the right side of the derivative law
        # only, whose targets are U = -(n+3) p z(1-z)^2 and
        # V = (n+3)(alpha+1) p z(1-z): at n = 0 the differences are 3 z(1-z)^2
        # and -3 (8/5) z(1-z), coefficient by coefficient from z^0
        original = cli.make_seed

        def perturbed(j0, l0, params):
            seed = original(j0, l0, params)
            return replace(seed, p_poly=seed.p_poly + 1) if (j0, l0) == (4, 2) else seed

        monkeypatch.setattr(cli, "make_seed", perturbed)
        code, report, err = verify_in_process(
            "xhr", "--alpha", "3/5", "--beta", "1/2", "--j0", "4"
        )
        assert code == 1
        assert "Traceback" not in err
        failed = [c for c in report["checks"] if c["status"] == "fail"]
        assert [c["check_id"] for c in failed] == ["xhr/derivative-factor/l0=2"]
        assert failed[0]["witness"] == {
            "n": 0, "U": ["0", "3", "-6", "3"], "V": ["0", "-24/5", "24/5"]
        }

    @pytest.mark.usefixtures("fresh_caches")
    def test_published_type3_sign_exits_1_with_a_witness(self, monkeypatch):
        # cli looks example_oracles up by name.  Restoring the published sign
        # of the type-3 middle coefficient (j = 5) makes the certificate
        # disagree with the oracle there, and only there
        original = cli.example_oracles

        def published(j0, params):
            want = original(j0, params)
            return {j: -v if (j0, j) == (3, 5) else v for j, v in want.items()}

        monkeypatch.setattr(cli, "example_oracles", published)
        code, report, err = verify_in_process(
            "recurrence", "--alpha", "3/5", "--beta", "1/2", "--max-n", "5", "--max-l0", "1"
        )
        assert code == 1
        assert "Traceback" not in err
        failed = [c for c in report["checks"] if c["status"] == "fail"]
        assert [c["check_id"] for c in failed] == ["recurrence/golden-example/3"]
        b5 = original(3, Params(Fraction(3, 5), Fraction(1, 2)))[5]
        assert b5 != 0
        assert failed[0]["witness"] == {"5": [str(b5), str(-b5)]}

    @pytest.mark.usefixtures("fresh_caches")
    def test_golden_examples_reuse_their_certificates(self, monkeypatch):
        # each golden example reads the certificate of (j0, 1, 5) that the
        # certify record of the same run made; the published type-3 sign
        # still fails against it
        calls = []
        certify, original = cli.certify, cli.example_oracles

        def counting(idx, params, **kwargs):
            calls.append((idx.j0, idx.l0, idx.n))
            return certify(idx, params, **kwargs)

        def published(j0, params):
            want = original(j0, params)
            return {j: -v if (j0, j) == (3, 5) else v for j, v in want.items()}

        monkeypatch.setattr(cli, "certify", counting)
        monkeypatch.setattr(cli, "example_oracles", published)
        code, report, _ = verify_in_process(
            "recurrence", "--alpha", "3/5", "--beta", "1/2", "--max-n", "8", "--max-l0", "2"
        )
        assert code == 1
        certified = [c for c in report["checks"] if c["check_id"].startswith("recurrence/certify/")]
        assert len(calls) == len(certified) == len(set(calls))
        assert all((j0, 1, 5) in calls for j0 in range(1, 5))
        failed = [c["check_id"] for c in report["checks"] if c["status"] == "fail"]
        assert failed == ["recurrence/golden-example/3"]

    @pytest.mark.usefixtures("fresh_caches")
    def test_unmet_quadrature_tolerance_exits_1_with_a_witness(self, monkeypatch):
        # the rule converges but its value is off by 1e-6, above the
        # classical check's 1e-8 bar: a tolerance failure, not a divergence
        original = quadrature.classical_quad

        def perturbed(n, m, params, cfg=None):
            res = original(n, m, params, cfg)
            return replace(res, value=res.value + mpmath.mpf("1e-6")) if (n, m) == (1, 1) else res

        monkeypatch.setattr(quadrature, "classical_quad", perturbed)
        code, report, err = verify_in_process(
            "quadrature", "--alpha", "3/5", "--beta", "1/2", "--max-n", "1", "--j0", "1"
        )
        assert code == 1
        assert "Traceback" not in err
        failed = [c for c in report["checks"] if c["status"] == "fail"]
        assert [c["check_id"] for c in failed] == ["quadrature/classical/n=1/m=1"]
        # the rule's own value is off by about 4e-15, inside the check's bar
        label, recorded = failed[0]["witness"][0].split()
        assert label == "error"
        assert abs(float(recorded) - 1e-6) <= 1e-12
        assert report["summary"]["pass"] > 0

    @pytest.mark.usefixtures("fresh_caches")
    def test_unconverged_integral_exits_1_and_divergence_skips(self, monkeypatch):
        # a rule that runs out of refinements has not met the tolerance, so
        # the record fails; a divergent integral raised at the same place
        # does not exist, so the record is skipped
        def raising(error, message):
            def integrate(*args):
                raise error(message)

            return integrate

        argv = ("--alpha", "3/5", "--beta", "1/2", "--max-n", "0", "--j0", "1")
        unconverged = raising(
            quadrature.QuadratureConvergenceError, "no convergence to 1e-09 within 7 refinements"
        )
        monkeypatch.setattr(quadrature, "_integrate_levels", unconverged)
        code, report, err = verify_in_process("quadrature", *argv)
        assert code == 1
        assert "Traceback" not in err
        checks = {c["check_id"]: c for c in report["checks"]}
        record = checks["quadrature/classical/n=0/m=0"]
        assert record["status"] == "fail"
        assert record["witness"][0].startswith("no convergence: ")
        assert report["summary"]["pass"] == report["summary"]["skipped"] == 0

        divergent = raising(quadrature.QuadratureDivergenceError, "the integral diverges")
        monkeypatch.setattr(quadrature, "_integrate_levels", divergent)
        code, report, err = verify_in_process("quadrature", *argv)
        assert code == 0
        assert "Traceback" not in err
        checks = {c["check_id"]: c for c in report["checks"]}
        record = checks["quadrature/classical/n=0/m=0"]
        assert (record["status"], record["reason"]) == ("skipped", "the integral diverges")
        assert report["summary"]["pass"] == report["summary"]["fail"] == 0

    @pytest.mark.parametrize(
        "suite, alpha, beta, check_id, reason",
        [
            # n+alpha+1 = 0 makes the type-3 member vanish at n = 3
            ("recurrence", "-4", "-1", "recurrence/certify/j0=3/l0=1/n=3",
             "the type-3 member vanishes at l0=1, n=3"),
        ],
    )
    def test_vanishing_member_is_skipped(self, suite, alpha, beta, check_id, reason):
        # a member other than the excluded type-1 one that vanishes is a
        # parameter pole of that record, not a usage error of the whole run
        code, report, err = verify_in_process(
            suite, f"--alpha={alpha}", f"--beta={beta}", "--max-n", "6", "--max-l0", "2"
        )
        assert code == 0, err
        checks = {c["check_id"]: c for c in report["checks"]}
        assert (checks[check_id]["status"], checks[check_id]["reason"]) == ("skipped", reason)

    def test_type4_seed_exists_where_the_reversal_identity_poles(self):
        # at (1, 2/3) the seed is P_2(z; -2/3, -1) reversed; the reversal
        # identity's pair (-2, 1/3) poles there, the seed does not
        negated = Params(Fraction(-2, 3), -1)
        with pytest.raises(ParameterPoleError):
            verify_identity(IdentityTag.REVERSAL, 2, negated)
        seed = make_seed(4, 2, Params(1, Fraction(2, 3)))
        assert seed.p_poly == hr_poly(2, negated).reversed(2)
        code, report, err = verify_in_process(
            "darboux", "--alpha", "1", "--beta=2/3", "--j0", "4", "--max-l0", "2"
        )
        assert code == 0, err
        assert [(c["check_id"], c["status"]) for c in report["checks"]] == [
            ("darboux/backward-image/j0=4/l0=1", "pass"),
            ("darboux/backward-image/j0=4/l0=2", "pass"),
        ]

    @pytest.mark.parametrize(
        "suite, summary",
        [
            # P_n(z; beta, alpha) at alpha = 0, the partner family, has no
            # pole, so the classical integrals and the partner identities run
            ("quadrature", {"fail": 0, "pass": 29, "skipped": 18}),
            ("identities", {"fail": 0, "pass": 62, "skipped": 19}),
        ],
    )
    def test_integer_alpha_zero_runs_the_partner_family(self, suite, summary):
        code, report, err = verify_in_process(suite, "--alpha", "0", "--beta", "1/2", "--max-n", "3")
        assert code == 0, err
        assert report["summary"] == summary
        assert not any("beta" in (c["reason"] or "") for c in report["checks"])

    @pytest.mark.usefixtures("fresh_caches")
    def test_perturbed_c_expansion_fails_every_certificate(self, monkeypatch):
        perturb_c_expansion(monkeypatch)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(
                [
                    "verify", "--suite", "recurrence", "--alpha", "3/5", "--beta", "1/2",
                    "--max-n", "5", "--max-l0", "1",
                ]
            )
        assert code == 1
        records = [
            c for c in json.loads(out.getvalue())["checks"]
            if c["check_id"].startswith("recurrence/certify/")
        ]
        assert len(records) == 12
        for record in records:
            assert record["status"] == "fail", record["check_id"]
            assert re.match(C_FAULT_REASON, record["reason"]), record

    @pytest.mark.parametrize("alpha, beta", [("1", "1/3"), ("3/5", "2")])
    def test_eigenvalue_reading_passes_without_a_unique_solve(self, alpha, beta):
        # at these pairs the window rows of some type-3/4 instances have a
        # two-dimensional solution space, so there is no solver a to compare
        # with; certify's b cross-route still tests the closed-form a, with
        # its full eigenvalue ratio, against those rows
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(
                [
                    "verify", "--suite", "recurrence", f"--alpha={alpha}",
                    f"--beta={beta}", "--max-n", "8", "--max-l0", "2",
                ]
            )
        assert code == 0
        checks = {c["check_id"]: c for c in json.loads(out.getvalue())["checks"]}
        fallback_j0s = {("1", "1/3"): (4,), ("3/5", "2"): (3, 4)}[alpha, beta]
        for j0 in (3, 4):
            record = checks[f"recurrence/certify/j0={j0}/l0=1/n=7"]
            assert record["status"] == "pass"
            tags = record["inputs"]["certificate"]["method_tags"]
            assert ("a-formula-fallback(nullspace-dim=2)" in tags) == (j0 in fallback_j0s)


def perturb_c_expansion(monkeypatch, index=0):
    """Add 1 to c_{m,index} of every member image certify reads.

    Certify reads an image's rows through recurrence._c_top (the rows just
    below the window) and recurrence._c_vector (the bottom rows, and the
    image that the full rows expand), and sums the images for the residual
    through recurrence._image_sum, so the wrappers go to all three: each
    image gains P_index(.; alpha+1, beta-1) (P_top for index -1, top its
    degree), which adds 1 to that coefficient of its expansion and changes
    no other.  A row `index` gains the row's denominator where a cached
    entry holds one, and the residual's sum gains sum_l a_l P_index.  The
    wrappers sit outside the caches, so entries cached before the patch are
    perturbed too.
    """
    c_top, c_vector, image_sum = recurrence._c_top, recurrence._c_vector, recurrence._image_sum

    def row(j0, l0, m, params):
        return c_vector(j0, l0, m, params)[0].degree if index == -1 else index

    def perturbed_top(j0, l0, m, params):
        rows, den = c_top(j0, l0, m, params)
        i = row(j0, l0, m, params) - m + 2 * l0 + 3
        if 0 <= i < len(rows):
            rows = rows[:i] + (rows[i] + den,) + rows[i + 1 :]
        return rows, den

    def perturbed_vector(j0, l0, m, params):
        image, rows, den = c_vector(j0, l0, m, params)
        k = row(j0, l0, m, params)
        if k < len(rows):
            rows = rows[:k] + (rows[k] + den,) + rows[k + 1 :]
        return image + hr_poly(k, params.shifted(1, -1)), rows, den

    def perturbed_sum(idx, a, params):
        nums, den = image_sum(idx, a, params)
        j0, l0, n = idx.j0, idx.l0, idx.n
        total = Poly.from_numerators(nums, den) + sum(
            (
                Fraction(a_l) * hr_poly(row(j0, l0, n - l, params), params.shifted(1, -1))
                for l, a_l in enumerate(a)
                if a_l and XIndex(j0, l0, n - l).is_admissible
            ),
            Poly.zero(),
        )
        coeffs = list(total.coeffs) + [0] * (len(nums) - len(total.coeffs))
        return [int(c * total.denominator) for c in coeffs], total.denominator

    monkeypatch.setattr(recurrence, "_c_top", perturbed_top)
    monkeypatch.setattr(recurrence, "_c_vector", perturbed_vector)
    monkeypatch.setattr(recurrence, "_image_sum", perturbed_sum)


def verify_in_process(suite, *argv):
    """Exit code, parsed report and stderr of `xlbp verify` run through cli.main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--suite", suite, *argv])
    return code, json.loads(out.getvalue()), err.getvalue()


def certify_in_process(*argv):
    """Exit code and stderr of `xlbp certify` run through cli.main; no traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["certify", *argv])
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue()


# how certify refuses wrong c coefficients: the solver's a disagrees with the
# closed form, or the b rebuilt from c, zero below the window, does not hold
C_FAULT_REASON = "closed-form a disagrees with solver route|b cross-route mismatch"


class TestCertify:
    def test_golden_spot_value(self):
        proc = run_cli(
            "certify",
            "--j0", "1", "--l0", "1", "--n", "5", "--alpha", "1", "--beta", "1/2",
        )
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["b"]["7"] == "1/3"
        assert data["residual_zero"] is True
        assert data["b_unique"] is True

    def test_term_count_seven(self):
        proc = run_cli(
            "certify",
            "--j0", "4", "--l0", "1", "--n", "5", "--alpha", "1", "--beta", "1/2",
        )
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert len(data["a"]) + len(data["b"]) == 7
        assert data["residual_zero"] is True

    @pytest.mark.parametrize("l0", [1, 2])
    @pytest.mark.parametrize(
        "j0, alpha, beta", [(1, "0", "1/2"), (2, "3/5", "0"), (3, "3/5", "1")]
    )
    def test_seed_defined_where_shifted_pairs_pole(self, j0, alpha, beta, l0):
        # q is the antiderivative of the seed, so it exists wherever the seed
        # does; a shifted pair of the hypergeometric form of q poles here
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(
                ["certify", "--j0", str(j0), "--l0", str(l0), "--n", str(2 * l0 + 3),
                 f"--alpha={alpha}", f"--beta={beta}"]
            )
        assert code == 0, err.getvalue()
        data = json.loads(out.getvalue())
        assert len(data["a"]) + len(data["b"]) == 3 * l0 + 4

    def test_vanishing_leading_factor_is_named(self):
        # at alpha = 1 the type-4 leading factor (-alpha)_2 vanishes; the
        # refusal names it, not a pole of a shifted pair in the compact form
        proc = run_cli(
            "certify",
            "--j0", "4", "--l0", "2", "--n", "5", "--alpha", "1", "--beta", "1/2",
        )
        assert proc.returncode == 2
        assert "(-alpha)_l0 = 0" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_thm11_precondition_exits_2(self):
        proc = run_cli(
            "certify",
            "--j0", "1", "--l0", "1", "--n", "2", "--alpha", "1", "--beta", "1/2",
            "--mode", "thm11", "--k", "3",
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize("j0", [1, 2, 3, 4])
    def test_certificate_bytes_pinned(self, j0):
        # SHA-256 of the certificate JSON as the CLI prints it; pins every
        # exact coefficient, so a kernel change that alters any value fails
        proc = run_cli(
            "certify",
            "--j0", str(j0), "--l0", "2", "--n", "40", "--alpha", "3/5", "--beta", "1/2",
        )
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == CERTIFICATE_SHA256[j0]

    @pytest.mark.parametrize("j0", [1, 2, 3, 4])
    def test_thm11_certificate_bytes_pinned(self, j0):
        proc = run_cli(
            "certify", "--mode", "thm11", "--k", "3",
            "--j0", str(j0), "--l0", "2", "--n", "12", "--alpha", "3/5", "--beta", "1/2",
        )
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == THM11_CERTIFICATE_SHA256[j0]

    def test_large_degree_certificate_bytes_pinned(self):
        proc = run_cli(
            "certify",
            "--j0", "4", "--l0", "4", "--n", "95", "--alpha", "3/5", "--beta", "1/2",
        )
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == LARGE_CERTIFICATE_SHA256

    @pytest.mark.parametrize("j0, l0, n", list(DEEP_CERTIFICATE_SHA256))
    def test_deep_certificate_bytes_pinned(self, j0, l0, n):
        proc = run_cli(
            "certify",
            "--j0", str(j0), "--l0", str(l0), "--n", str(n), "--alpha", "3/5", "--beta", "1/2",
        )
        assert proc.returncode == 0
        digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
        assert digest == DEEP_CERTIFICATE_SHA256[j0, l0, n]

    @pytest.mark.usefixtures("fresh_caches")
    def test_perturbed_c_expansion_exits_1_without_traceback(self, monkeypatch):
        perturb_c_expansion(monkeypatch)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(
                [
                    "certify", "--j0", "3", "--l0", "2", "--n", "12",
                    "--alpha", "3/5", "--beta", "1/2",
                ]
            )
        assert code == 1
        assert re.match(f"certification failed: ({C_FAULT_REASON})", err.getvalue())
        assert "Traceback" not in err.getvalue()

    @pytest.mark.usefixtures("fresh_caches")
    def test_wrong_twist_closed_form_exits_1(self, monkeypatch):
        # the P-side closed form with n+alpha+j+1 for its factor n+alpha+j:
        # the hypergeometric P_n refutes it in verify, and the solver's a
        # refutes it in certify
        original = hr_classical.twisted_coeffs

        def shifted_factor(n, j, params, side="P"):
            if side == "Q":
                return original(n, j, params, side)
            a, b = params.alpha, params.beta
            out, c = [], Fraction(1)
            for l in range(1, j + 1):
                k = n - l + 1
                c *= Fraction(-(j - l + 1), l) * k * (k + a + b) / ((k + a) * (k + a + j + 1))
                out.append(c)
            return out

        monkeypatch.setattr(hr_classical, "twisted_coeffs", shifted_factor)
        monkeypatch.setattr(recurrence, "twisted_coeffs", shifted_factor)
        code, report, err = verify_in_process(
            "identities", "--alpha", "3/5", "--beta", "1/2", "--max-n", "3"
        )
        assert code == 1
        assert "Traceback" not in err
        failed = [c["check_id"] for c in report["checks"] if c["status"] == "fail"]
        assert [f"identities/multi-twist-p/n={n}" for n in (1, 2, 3)] == [
            c for c in failed if "multi-twist" in c
        ]
        code, err = certify_in_process(
            "--j0", "1", "--l0", "1", "--n", "5", "--alpha", "3/5", "--beta", "1/2"
        )
        assert code == 1
        assert err == "certification failed: closed-form a disagrees with solver route\n"

    @pytest.mark.usefixtures("fresh_caches")
    def test_backward_image_outside_the_span_exits_1(self, monkeypatch):
        # a wrong linear multiplier leaves the seed's image pair with a
        # remainder after division by A: no member has an image, and certify
        # refuses before any member is built
        original = darboux._first_order_coefficient
        monkeypatch.setattr(
            darboux, "_first_order_coefficient", lambda *args: original(*args) + 1
        )
        code, err = certify_in_process(
            "--j0", "2", "--l0", "2", "--n", "9", "--alpha", "3/5", "--beta", "1/2"
        )
        assert code == 1
        assert err == (
            "certification failed: backward image of q * psi_hat is not in the family span\n"
            "residual coefficients: ['0', '-692/3125', '174/625', '-27/250']\n"
        )

    @pytest.mark.usefixtures("fresh_caches")
    def test_stacked_expansion_nonzero_at_excluded_index_exits_1(self, monkeypatch):
        # xi_{l0} = 0 for type 1, so b_{l0} is not read from the c route;
        # adding 1 to every c_{m,l0} leaves the window rows without a
        # nonzero solution (nullity 0), so certify falls back to the closed
        # form and the cross-route meets the nonzero stacked sum at j = l0
        perturb_c_expansion(monkeypatch, index=1)
        code, err = certify_in_process(
            "--j0", "1", "--l0", "1", "--n", "5", "--alpha", "1", "--beta", "1/2"
        )
        assert code == 1
        assert err == (
            "certification failed: stacked expansion does not vanish at excluded index j=1\n"
        )

    @pytest.mark.usefixtures("fresh_caches")
    @pytest.mark.parametrize(
        "argv, index, message",
        [
            (
                ("--j0", "3", "--l0", "2", "--n", "12", "--alpha", "3/5", "--beta", "1/2"),
                6,
                "b cross-route mismatch at j=6: -887642462975/29678398188816546 != 0",
            ),
            (
                ("--j0", "1", "--l0", "1", "--n", "12", "--alpha", "1", "--beta", "1/2"),
                5,
                "b cross-route mismatch at j=5: -67/101920 != 0",
            ),
            (
                ("--j0", "3", "--l0", "2", "--n", "14", "--alpha", "3/5", "--beta", "1/2"),
                6,
                "b cross-route mismatch at j=6: -344927314525/16966143970484544 != 0",
            ),
            (
                ("--j0", "1", "--l0", "1", "--n", "9", "--alpha", "1", "--beta", "1/2"),
                5,
                "closed-form a disagrees with solver route",
            ),
        ],
    )
    def test_fault_between_block_and_window_is_caught(self, monkeypatch, argv, index, message):
        # the solver reads the l0+3 rows just below the window, and falls
        # back to the bottom l0+3 rows.  A fault on a row between the two
        # blocks (j=5 at n=12, j=6 at n=14) leaves the solver's a unchanged,
        # so only the residual sees it, and its failure expands the residual
        # to name the row.  A fault inside the first block either leaves no
        # nonzero solution there (j=6 at n=12: the closed form stands in,
        # and the residual names the row) or a wrong one, which the closed
        # form refutes (j=5 at n=9)
        perturb_c_expansion(monkeypatch, index=index)
        code, err = certify_in_process(*argv)
        assert code == 1
        assert err == f"certification failed: {message}\n"

    @pytest.mark.usefixtures("fresh_caches")
    def test_thm11_cross_route_message_pinned(self, monkeypatch):
        # thm11 has no solver: the first stacked sum the fault moves, at
        # j = 2, disagrees with the b the window expansion found
        perturb_c_expansion(monkeypatch, index=2)
        code, err = certify_in_process(
            "--j0", "1", "--l0", "1", "--n", "9", "--alpha", "1", "--beta", "1/2",
            "--mode", "thm11", "--k", "3",
        )
        assert code == 1
        assert err == (
            "certification failed: b cross-route mismatch at j=2: "
            "-3168210811/2890137600 != -278073211/2890137600\n"
        )

    @pytest.mark.usefixtures("fresh_caches")
    def test_fallback_cross_route_message_pinned(self, monkeypatch):
        # the window-vanishing rows have nullity 2 at this pair, and the top
        # c entries lie above them, so the faulty certificate still takes
        # the closed-form fallback; the first moved sum is the top, j = 7
        perturb_c_expansion(monkeypatch, index=-1)
        params = Params(1, Fraction(1, 3))
        assert recurrence.a_coeffs_solver(XIndex(4, 1, 7), params).nullity == 2
        code, err = certify_in_process(
            "--j0", "4", "--l0", "1", "--n", "7", "--alpha", "1", "--beta", "1/3"
        )
        assert code == 1
        assert err == (
            "certification failed: b cross-route mismatch at j=7: -68567/41580 != -271/165\n"
        )

    @pytest.mark.usefixtures("fresh_caches")
    def test_cross_route_mismatch_message_pinned(self, monkeypatch):
        # the top c entry of each member lies above the window-vanishing rows,
        # so the solver's a still agrees with the closed form; the first
        # perturbed stacked sum is at j = 5, the top of member n-2
        perturb_c_expansion(monkeypatch, index=-1)
        code, err = certify_in_process(
            "--j0", "1", "--l0", "1", "--n", "5", "--alpha", "1", "--beta", "1/2"
        )
        assert code == 1
        assert err == "certification failed: b cross-route mismatch at j=5: -199/1176 != -69/448\n"

    @pytest.mark.usefixtures("fresh_caches")
    def test_inconsistent_window_expansion_exits_1(self, monkeypatch):
        # a constant added to the top window member X_{n+l0+1}, which is not
        # on the left side: every window member has positive degree, so
        # _solve_b's back-substitution leaves a nonzero residual.  The
        # relation holds for the true members, so what is left over is the
        # constant times -b_{n+l0+1}, the published b_7 = (4+a+b)/(2(6+a+b))
        original = recurrence.x_poly
        top = XIndex(2, 1, 7)

        def perturbed(idx, params):
            member = original(idx, params)
            return member + Poly.one() if idx == top else member

        monkeypatch.setattr(recurrence, "x_poly", perturbed)
        code, err = certify_in_process(
            "--j0", "2", "--l0", "1", "--n", "5", "--alpha", "3/5", "--beta", "1/2"
        )
        assert code == 1
        first, second = err.splitlines()
        assert first == (
            "certification failed: window expansion is inconsistent: the relation fails"
        )
        assert second == "residual coefficients: ['-51/142']"
        assert Fraction(-51, 142) == -example_oracles(2, Params(Fraction(3, 5), Fraction(1, 2)))[7]

    @pytest.mark.usefixtures("fresh_caches")
    def test_inconsistent_top_window_expansion_exits_1(self, monkeypatch):
        # the same fault from n = 4l0+5 on, where no member is built whole:
        # the constant added to X_{n+l0+1} lies below the window's degrees,
        # so b is unchanged, and the member's share -b_{n+l0+1} X_{n+l0+1}
        # of the relation's residual gains -b_{n+l0+1}, all that is left
        original = recurrence._relation_residual

        def perturbed(idx, left, b, params):
            nums, den = original(idx, left, b, params)
            share = b[idx.n + idx.l0 + 1]
            return (
                [nums[0] * share.denominator - share.numerator * den]
                + [v * share.denominator for v in nums[1:]],
                den * share.denominator,
            )

        cert = recurrence.certify(XIndex(2, 1, 9), Params(Fraction(3, 5), Fraction(1, 2)))
        assert cert.b[11] == Fraction(91, 222)
        monkeypatch.setattr(recurrence, "_relation_residual", perturbed)
        code, err = certify_in_process(
            "--j0", "2", "--l0", "1", "--n", "9", "--alpha", "3/5", "--beta", "1/2"
        )
        assert code == 1
        first, second = err.splitlines()
        assert first == (
            "certification failed: window expansion is inconsistent: the relation fails"
        )
        assert second == "residual coefficients: ['-91/222']"

    @pytest.mark.usefixtures("fresh_caches")
    def test_wrong_member_pair_entry_exits_1(self, monkeypatch):
        # B + 1 in place of B: the members' top terms and the residual read
        # the same wrong pair.  Back-substitution still closes on the
        # window's degrees 9..12, so what is left lies below them
        original = recurrence._pair_numerators

        def perturbed(j0, l0, params):
            a, b, den = original(j0, l0, params)
            return a, [b[0] + den] + b[1:], den

        monkeypatch.setattr(recurrence, "_pair_numerators", perturbed)
        code, err = certify_in_process(
            "--j0", "2", "--l0", "1", "--n", "9", "--alpha", "3/5", "--beta", "1/2"
        )
        assert code == 1
        first, second = err.splitlines()
        assert first == (
            "certification failed: window expansion is inconsistent: the relation fails"
        )
        assert second == (
            "residual coefficients: ['-253772057421875/2482755227545042944', "
            "'241389137734375/14896531365270257664', '25218416890625/445276752766230528', "
            "'28955084375/575292962230272', '-206941721875/6125218489009152', "
            "'-233996440825/752156676969984', '-1491046452595/1159574876995392', "
            "'-1316888521891/158123846863008', '249563578547/10402884662040']"
        )

    @pytest.mark.usefixtures("fresh_caches")
    def test_wrong_b_entry_in_the_residual_exits_1(self, monkeypatch):
        # b_n + 1 in place of b_n: the residual is -X_n, named in full
        original = recurrence._relation_residual

        def perturbed(idx, left, b, params):
            return original(idx, left, {**b, idx.n: b[idx.n] + 1}, params)

        monkeypatch.setattr(recurrence, "_relation_residual", perturbed)
        code, err = certify_in_process(
            "--j0", "3", "--l0", "2", "--n", "13", "--alpha", "3/5", "--beta", "1/2"
        )
        assert code == 1
        first, second = err.splitlines()
        assert first == (
            "certification failed: window expansion is inconsistent: the relation fails"
        )
        member = xhr.x_poly(XIndex(3, 2, 13), Params(Fraction(3, 5), Fraction(1, 2)))
        assert second == f"residual coefficients: {[str(-c) for c in member.coeffs]}"

    @pytest.mark.usefixtures("fresh_caches")
    @pytest.mark.parametrize("shift", [Fraction(1), Fraction(-1, 3)])
    @pytest.mark.parametrize("j0", ["1", "2", "3", "4"])
    @pytest.mark.parametrize("mode", [[], ["--mode", "thm11", "--k", "3"]], ids=["thm12", "thm11"])
    def test_wrong_eigenvalue_exits_1(self, monkeypatch, shift, j0, mode):
        # a wrong seed eigenvalue theta, and with it every xi_j, is a
        # verified failure: the residual drops the type-4 added state by its
        # index, never by j == theta, so no negative degree reaches hr_poly
        theta = darboux.seed_theta

        def wrong_theta(j0, l0, params):
            return theta(j0, l0, params) + shift

        def wrong_xi(j0, l0, n, params):
            return -(n - wrong_theta(j0, l0, params)) * (n + params.alpha + 1)

        monkeypatch.setattr(recurrence, "seed_theta", wrong_theta)
        monkeypatch.setattr(recurrence, "xi", wrong_xi)
        code, err = certify_in_process(
            "--j0", j0, "--l0", "2", "--n", "9", "--alpha", "3/5", "--beta", "1/2", *mode
        )
        assert code == 1
        assert err.startswith("certification failed: ")
        if mode:
            assert err.startswith("certification failed: b cross-route mismatch at j=0: ")

    def test_json_deterministic(self):
        args = (
            "certify",
            "--j0", "2", "--l0", "1", "--n", "4", "--alpha", "3/5", "--beta", "1/2",
        )
        assert run_cli(*args).stdout == run_cli(*args).stdout


# -- the exit-code contract under generated input ------------------------------

fuzz_rationals = st.builds(
    lambda p, q: f"{p}/{q}",
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=3),
)
fuzz_j0 = st.integers(min_value=1, max_value=4).map(str)
fuzz_l0 = st.integers(min_value=0, max_value=3)
fuzz_n = st.integers(min_value=-3, max_value=14)


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(("gen-hr", "gen-xhr", "thm12", "thm11", "verify")))
    l0, n = draw(fuzz_l0), draw(fuzz_n)
    index = ["--j0", draw(fuzz_j0), "--l0", str(l0), "--n", str(n)]
    if command == "gen-hr":
        argv = ["gen", "--family", "hr", "--n", str(n)]
    elif command == "gen-xhr":
        argv = ["gen", "--family", "xhr", *index]
    elif command == "thm12":
        argv = ["certify", *index]
    elif command == "thm11":
        k = draw(st.integers(min_value=-1, max_value=max(n, 0) + 1))
        argv = ["certify", "--mode", "thm11", "--k", str(k), *index]
    else:
        suite = draw(st.sampled_from(("identities", "darboux", "xhr", "recurrence")))
        max_n = draw(st.integers(min_value=-1, max_value=5))
        argv = ["verify", "--suite", suite, "--max-n", str(max_n), "--max-l0", str(l0)]
    alpha, beta = draw(fuzz_rationals), draw(fuzz_rationals)
    if draw(st.booleans()):
        return argv + ["--alpha", alpha, "--beta", beta]
    return argv + [f"--alpha={alpha}", f"--beta={beta}"]


@settings(max_examples=80, deadline=None)
@given(argv=fuzz_argv())
def test_exit_code_contract_holds_for_generated_input(argv):
    # 0 pass, 1 verified failure, 2 usage error or parameter pole; anything
    # escaping main would print a traceback.  The parameters are passed both
    # as "--alpha=-1/2" and as "--alpha -1/2"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a value
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert "expected one argument" not in err.getvalue(), argv
    if code == 0 and argv[0] == "verify":
        assert json.loads(out.getvalue())["checks"], argv
