"""Rules on the package source itself, checked by parsing it."""

import ast
import importlib
from pathlib import Path

import pytest

from conftest import PACKAGE_CACHES

SRC = Path(__file__).resolve().parent.parent / "src" / "xlbp"


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assertions_in_package(path):
    # a failed check must raise CertificationError or ParameterPoleError, so
    # that the CLI maps it to an exit code; `assert` also vanishes under -O
    tree = ast.parse(path.read_text(), filename=str(path))
    offending = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert) or _raises_assertion_error(node)
    ]
    assert not offending, f"{path.name}: assertion at lines {offending}"



def _is_name(node, name) -> bool:
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name
    )


def _unbounded_caches(tree) -> list:
    """Lines of a functools `cache`, a bare `lru_cache` or an `lru_cache` without a finite maxsize."""
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            lines += [node.lineno for alias in node.names if alias.name == "cache"]
        elif _is_name(node, "cache") and _is_name(getattr(node, "value", None), "functools"):
            lines.append(node.lineno)
        elif _is_name(node, "lru_cache") and id(node) not in called:
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and _is_name(node.func, "lru_cache"):
            sizes = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "maxsize"]
            if not sizes or any(isinstance(s, ast.Constant) and s.value is None for s in sizes):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize(
    "source, unbounded",
    [
        ("@lru_cache(maxsize=64)\ndef f(): pass", False),
        ("@functools.lru_cache(32)\ndef f(): pass", False),
        ("@lru_cache\ndef f(): pass", True),
        ("@lru_cache()\ndef f(): pass", True),
        ("@lru_cache(maxsize=None)\ndef f(): pass", True),
        ("@functools.lru_cache(None)\ndef f(): pass", True),
        ("@functools.cache\ndef f(): pass", True),
        ("from functools import cache", True),
    ],
)
def test_cache_rule(source, unbounded):
    assert bool(_unbounded_caches(ast.parse(source))) == unbounded


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_cache_is_bounded(path):
    # memory stays bounded in a long-lived process only if every cache has an
    # explicit finite size
    tree = ast.parse(path.read_text(), filename=str(path))
    offending = _unbounded_caches(tree)
    assert not offending, f"{path.name}: unbounded cache at lines {offending}"


def _lru_cached_functions(tree) -> list:
    """Names of the functions in a module that carry an `lru_cache` decorator."""
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            _is_name(dec.func if isinstance(dec, ast.Call) else dec, "lru_cache")
            for dec in node.decorator_list
        )
    ]


def test_fixture_clears_every_cache():
    # the fresh_caches fixture can only protect a monkeypatching test from
    # stale results if it knows every cache in the package
    in_source = {
        f"xlbp.{path.stem}.{name}"
        for path in SRC.glob("*.py")
        for name in _lru_cached_functions(ast.parse(path.read_text(), filename=str(path)))
    }
    in_fixture = {f"{fn.__module__}.{fn.__qualname__}" for fn in PACKAGE_CACHES}
    assert in_fixture == in_source


def _declared_all(tree) -> list:
    """The literal list assigned to a module's `__all__`, or [] without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(_is_name(t, "__all__") for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_exported_name_exists(path):
    # a deleted function or class must take its `__all__` entry with it
    module = importlib.import_module("xlbp" if path.stem == "__init__" else f"xlbp.{path.stem}")
    exported = _declared_all(ast.parse(path.read_text(), filename=str(path)))
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{path.name}: __all__ names {missing}"


def test_package_reexports_are_exported_by_their_modules():
    # the package namespace offers nothing its own modules do not export
    tree = ast.parse((SRC / "__init__.py").read_text())
    stray = [
        f"{node.module}.{alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if not alias.name.startswith("_")
        and alias.name not in _declared_all(ast.parse((SRC / f"{node.module}.py").read_text()))
    ]
    assert not stray, f"re-exported but not in the module's __all__: {stray}"


# README: the quadrature module holds the package's floating-point code
EXACT_MODULES = ("exact_core", "hr_classical", "darboux", "xhr", "recurrence")


def _floating_point(tree) -> list:
    """Lines of an mpmath import, a float or complex literal, or a `float(` call."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            modules = []
        if any(name.split(".")[0] == "mpmath" for name in modules):
            lines.append(node.lineno)
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize(
    "source, floating",
    [
        ("x = Fraction(1, 3)", False),
        ("import fractions", False),
        ("x = 1e-3", True),
        ("x = 2j", True),
        ("y = float(x)", True),
        ("import mpmath as mp", True),
        ("from mpmath.libmp import to_fixed", True),
    ],
)
def test_floating_point_rule(source, floating):
    assert bool(_floating_point(ast.parse(source))) == floating


@pytest.mark.parametrize("name", EXACT_MODULES)
def test_exact_modules_hold_no_floating_point(name):
    path = SRC / f"{name}.py"
    offending = _floating_point(ast.parse(path.read_text(), filename=str(path)))
    assert not offending, f"{path.name}: floating point at lines {offending}"


def _seed_type_identity_tests(tree) -> list:
    """Lines of an `is` or `is not` comparison with a `SeedType` attribute on either side."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Is, ast.IsNot)) and any(
                isinstance(side, ast.Attribute) and _is_name(side.value, "SeedType")
                for side in (left, right)
            ):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize(
    "source, identity",
    [
        ("j0 is SeedType.T1", True),
        ("j0 is not SeedType.T4", True),
        ("SeedType.T2 is seed.j0", True),
        ("j0 is darboux.SeedType.T3", True),
        ("0 < j0 is SeedType.T1", True),
        ("j0 == SeedType.T1", False),
        ("j0 in (SeedType.T3, SeedType.T4)", False),
        ("j0 is None", False),
    ],
)
def test_seed_type_identity_rule(source, identity):
    assert bool(_seed_type_identity_tests(ast.parse(source))) == identity


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_seed_type_is_compared_by_value(path):
    # SeedType is an IntEnum: a plain int equals its member but is not it, so
    # an identity test sends a plain-int j0 down another type's branch, and
    # a cache that keys both alike keeps that branch's value for the member
    tree = ast.parse(path.read_text(), filename=str(path))
    offending = _seed_type_identity_tests(tree)
    assert not offending, f"{path.name}: identity test against SeedType at lines {offending}"


# wrappers whose fields were the caller's own arguments or functions of one
# another, a precision knob with one value in use, a seed field no caller
# read, routes that only the tests use (they live in tests/reference.py), and
# checks that could not fail on their own: the darboux kernel table and the
# identities that repeat multi-twist-p or -q at one twist level; and the
# certify cross-route's separate stacked-sum paths, which one residual of
# the backward images replaces; and the per-n compact form, the backward
# divisor and the seed's gauge-factor fields, which the n-free member and
# Darboux pairs replace; and the per-n Darboux route and type-4 derivative
# law, which verify's records prove once per seed on those pairs; and the
# per-member backward operator, which one image pair per seed replaces
REMOVED_NAMES = frozenset(
    {
        "XPoly",
        "BackwardResult",
        "IdentityResult",
        "precision_bits",
        "theta",
        "build_via_ttrr",
        "is_monic",
        "example_a_oracles",
        "_EXAMPLE_A",
        "example3_middle_coefficient_as_published",
        "kernel_check",
        "_KERNEL_EXPONENTS",
        "TWIST_UP",
        "PARTNER_TWIST",
        "SPAN_COEFFICIENTS",
        "_check_twist_up",
        "_check_partner_twist",
        "_check_span_coefficients",
        "_stacked_sums",
        "_stacked_expansion",
        "_window_sums",
        "_below_window_vanishes",
        "inner_product",
        "_compact_form",
        "_divisor",
        "p_laurent",
        "P_factor",
        "Q_factor",
        "darboux_route_poly",
        "xp4_derivative_factor",
        "backward_apply",
        "_twisted_c_row",
        "_twisted_e_row",
        "_entry",
    }
)


def _defined_names(tree) -> list:
    """(line, name) of each class, function and method, and of each module- or class-level variable."""
    found = []
    scopes = [tree.body] + [node.body for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append((node.lineno, node.name))
    for body in scopes:
        for node in body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            found += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return found


@pytest.mark.parametrize(
    "source, names",
    [
        ("class XPoly:\n    poly: int", ["XPoly", "poly"]),
        ("def f(theta):\n    theta = 1\n    return theta", ["f"]),
        ("_EXAMPLE_A = {}\nclass S:\n    def is_monic(self): pass", ["S", "is_monic", "_EXAMPLE_A"]),
        ("p.is_monic\nseed_theta(1)", []),
    ],
    ids=["class-and-field", "locals-ignored", "variable-and-method", "uses-ignored"],
)
def test_defined_names_rule(source, names):
    assert sorted(name for _, name in _defined_names(ast.parse(source))) == sorted(names)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_removed_names_stay_removed(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    offending = [(line, name) for line, name in _defined_names(tree) if name in REMOVED_NAMES]
    assert not offending, f"{path.name}: {offending}"
