"""Exact rational scalars, dense polynomials, Laurent polynomials and linear solves.

Everything in this module is exact: no operation ever rounds.  Scalars are
`fractions.Fraction` (aliased `Rational`).  A polynomial is stored
fraction-free, as FLINT's fmpq_poly is: a tuple of integer numerators over
one common integer denominator, so the coefficient of z^k (of z^(min_exp+k)
for a Laurent polynomial) is numerators[k] / denominator.  The stored form
is canonical:

  * no trailing zero numerator, and for a Laurent polynomial no leading one;
  * a denominator greater than 0;
  * gcd(denominator, every numerator) = 1.

Two polynomials are therefore equal exactly when their stored integers are.
The zero polynomial has no numerators and denominator 1; `Poly` gives it the
sentinel degree -1, so callers that do degree arithmetic must check `is_zero`
first.

One set of module-level integer helpers (`_canonical`, `_add`, `_mul`,
`_scale`, `_divmod`) does the coefficient arithmetic of both classes, so a
coefficient operation is an integer multiply-add rather than a gcd and a new
`Fraction`; each result is reduced once.  `.coeffs`, `coeff()`, `leading` and
`items()` still hand out reduced `Fraction`s, built on first use and cached,
and evaluation runs Horner's rule over them, so numeric callers see exactly
the values of a `Fraction` coefficient list.

Polynomials are dense (indexed by exponent), which suits degrees up to a few
hundred.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from operator import add, sub
from typing import Iterable, Sequence, Union

Rational = Fraction

Scalar = Union[Fraction, int, str]

__all__ = [
    "Rational",
    "Poly",
    "LaurentPoly",
    "LinearSystem",
    "LinearSolution",
    "SolveStatus",
    "solve_exact",
    "parse_rational",
    "format_rational",
]


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (optional leading minus, ASCII or U+2212)."""
    return Fraction(text.strip().replace("−", "-"))


def format_rational(value: Fraction) -> str:
    """Canonical text form "p/q" (or "p" for integers)."""
    return str(Fraction(value))


def _coerce(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return parse_rational(value)
    return Fraction(value)


# -- integer kernel ----------------------------------------------------------
#
# A coefficient vector is a sequence of integer numerators plus one integer
# denominator.  The helpers below take canonical vectors and return plain
# (numerators, denominator) pairs, which `_canonical` puts back in canonical
# form.


def _canonical(nums: list, den: int) -> tuple:
    """(numerators, denominator) without trailing zeros, den > 0, content coprime to den."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return (), 1
    if den < 0:
        den = -den
        nums = [-v for v in nums]
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [v // g for v in nums]
    return tuple(nums), den


def _from_scalars(values: Iterable[Scalar]) -> tuple:
    """Numerators over the least common denominator of the given scalars."""
    fracs = [_coerce(v) for v in values]
    den = lcm(*(q.denominator for q in fracs))
    return [q.numerator * (den // q.denominator) for q in fracs], den


def _add(a, ad: int, b, bd: int, shift: int, op) -> tuple:
    """a/ad op z^shift * b/bd, with op add or sub.

    The numerators start at exponent min(0, shift), counted from a's first
    exponent.
    """
    if ad == bd:
        den = ad
    else:
        g = gcd(ad, bd)
        fa, fb = bd // g, ad // g
        a = [v * fa for v in a]
        b = [v * fb for v in b]
        den = ad * fa
    if shift < 0:
        out = [0] * -shift
        out += a
        start = 0
    else:
        out = list(a)
        start = shift
    end = start + len(b)
    if len(out) < end:
        out += [0] * (end - len(out))
    out[start:end] = map(op, out[start:end], b)
    return out, den


def _mul(a, b) -> list:
    """Schoolbook product of two nonempty integer coefficient sequences."""
    if len(a) > len(b):
        a, b = b, a
    width = len(b)
    out = [0] * (len(a) + width - 1)
    for i, x in enumerate(a):
        if x:
            out[i : i + width] = map(add, out[i : i + width], map(x.__mul__, b))
    return out


def _scale(nums, den: int, scalar) -> tuple:
    """Canonical (numerators, denominator) of an int or Fraction scalar times nums/den."""
    p, r = scalar.numerator, scalar.denominator
    if not p or not nums:
        return (), 1
    # nums/den is canonical and p/r reduced, so these two gcds reduce fully
    g1, g2 = gcd(p, den), gcd(r, *nums)
    if g1 != 1:
        p, den = p // g1, den // g1
    if g2 != 1:
        r = r // g2
        nums = [v // g2 for v in nums]
    return tuple(v * p for v in nums), den * r


def _divmod(a, ad: int, b, bd: int) -> tuple:
    """Long division of a/ad by b/bd, with len(a) >= len(b).

    Returns (quotient numerators, denominator, remainder numerators,
    denominator), not canonical.  The quotient of the integer division a / b
    is built top down as numerators over one denominator `den`, which grows
    only when a new quotient coefficient needs it; every quotient coefficient
    is final once computed, so `den` stays, up to sign, the least common
    denominator of the quotient found so far.
    """
    nb, nq = len(b), len(a) - len(b) + 1
    lead = b[-1]
    q = [0] * nq
    den = 1
    for t in range(nq - 1, -1, -1):
        # numerator over den of the remainder's coefficient at z^(t + nb - 1)
        acc = a[t + nb - 1] * den - sum(
            q[t + j] * b[nb - 1 - j] for j in range(1, min(nb, nq - t))
        )
        if not acc:
            continue
        g = gcd(acc, lead)
        acc, step = acc // g, lead // g
        if step != 1:
            q = [v * step for v in q]
            den *= step
            h = gcd(den, acc, *q)
            if h != 1:
                acc //= h
                den //= h
                q = [v // h for v in q]
        q[t] = acc
    rem = [
        a[p] * den - sum(q[t] * b[p - t] for t in range(max(0, p - nb + 1), min(p, nq - 1) + 1))
        for p in range(nb - 1)
    ]
    # a = (q/den) b + rem/den, so a/ad = (q bd / (den ad)) (b/bd) + rem / (den ad)
    if bd != 1:
        q = [v * bd for v in q]
    return q, den * ad, rem, den * ad


def _fractions(p) -> tuple:
    """The coefficients of p as reduced Fractions, cached on p."""
    if p._f is None:
        d = p._d
        p._f = tuple(Fraction(v, d) for v in p._n)
    return p._f


def _poly(nums, den: int) -> "Poly":
    """Poly from canonical numerators and denominator, taken as they are."""
    p = object.__new__(Poly)
    p._n, p._d, p._f = tuple(nums), den, None
    return p


def _laurent_parts(min_exp: int, nums, den: int) -> tuple:
    """Canonical (min_exp, numerators, denominator) from any numerators and denominator."""
    nums, den = _canonical(list(nums), den)
    drop = 0
    while drop < len(nums) and not nums[drop]:
        drop += 1
    return (min_exp + drop if nums else 0), nums[drop:], den


def _laurent(min_exp: int, nums, den: int) -> "LaurentPoly":
    """LaurentPoly from any (numerators, denominator), put in canonical form."""
    p = object.__new__(LaurentPoly)
    p._min, p._n, p._d = _laurent_parts(min_exp, nums, den)
    p._f = None
    return p


class Poly:
    """Dense univariate polynomial over the rationals, immutable.

    Stored as integer numerators (lowest exponent first) over one common
    denominator, in the canonical form of the module docstring; the leading
    coefficient is nonzero unless the polynomial is zero.
    """

    __slots__ = ("_n", "_d", "_f")

    def __init__(self, coeffs: Iterable[Scalar] = ()):  # noqa: D107
        self._n, self._d = _canonical(*_from_scalars(coeffs))
        self._f = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, exponent: int, coeff: Scalar = 1) -> "Poly":
        if exponent < 0:
            raise ValueError("Poly exponents are nonnegative; use LaurentPoly")
        return cls((0,) * exponent + (_coerce(coeff),))

    @classmethod
    def from_numerators(cls, numerators: Iterable[int], denominator: int = 1) -> "Poly":
        """The polynomial sum_k numerators[k]/denominator z^k, reduced to canonical form."""
        if not denominator:
            raise ZeroDivisionError("zero denominator")
        return _poly(*_canonical(list(numerators), denominator))

    # -- basic structure ---------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """Coefficients as reduced Fractions, lowest exponent first."""
        return _fractions(self)

    @property
    def numerators(self) -> tuple:
        """Integer numerators over `denominator`, lowest exponent first."""
        return self._n

    @property
    def denominator(self) -> int:
        """The common denominator, > 0 and coprime to the numerators' gcd."""
        return self._d

    @property
    def degree(self) -> int:
        """Degree, with -1 as the sentinel for the zero polynomial."""
        return len(self._n) - 1

    @property
    def is_zero(self) -> bool:
        return not self._n

    def coeff(self, exponent: int) -> Fraction:
        if 0 <= exponent < len(self._n):
            return _fractions(self)[exponent]
        return Fraction(0)

    @property
    def leading(self) -> Fraction:
        if not self._n:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._n[-1], self._d)

    @property
    def is_monic(self) -> bool:
        return bool(self._n) and self._n[-1] == self._d

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return self._combine(other, add)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def _combine(self, other, op):
        if isinstance(other, LaurentPoly):
            return op(self.to_laurent(), other)
        other = self._as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._n:
            return self
        if not self._n:
            return other if op is add else -other
        return _poly(*_canonical(*_add(self._n, self._d, other._n, other._d, 0, op)))

    def __neg__(self):
        return _poly([-v for v in self._n], self._d)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            return self.to_laurent() * other
        if isinstance(other, Poly):
            if not self._n or not other._n:
                return Poly()
            return _poly(*_canonical(_mul(self._n, other._n), self._d * other._d))
        if isinstance(other, (Fraction, int)):
            return _poly(*_scale(self._n, self._d, other))
        return NotImplemented

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = Poly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __divmod__(self, divisor: "Poly"):
        """Exact long division: self = q*divisor + r with deg r < deg divisor."""
        if not isinstance(divisor, Poly):
            return NotImplemented
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if len(self._n) < len(divisor._n):
            return Poly(), self
        q, qd, r, rd = _divmod(self._n, self._d, divisor._n, divisor._d)
        return _poly(*_canonical(q, qd)), _poly(*_canonical(r, rd))

    def __floordiv__(self, divisor):
        return divmod(self, divisor)[0]

    def __mod__(self, divisor):
        return divmod(self, divisor)[1]

    # -- calculus and transforms --------------------------------------------

    def derivative(self) -> "Poly":
        return _poly(*_canonical([k * v for k, v in enumerate(self._n[1:], 1)], self._d))

    def __call__(self, point):
        """Horner evaluation; works for Fraction, int, float, mpmath values."""
        acc = 0
        for c in reversed(_fractions(self)):
            acc = acc * point + c
        return acc

    def reversed(self, exponent: int | None = None) -> "Poly":
        """z^k * p(1/z) as a true polynomial; k defaults to deg p, must be >= deg p."""
        k = self.degree if exponent is None else exponent
        if self.is_zero:
            return Poly()
        if k < self.degree:
            raise ValueError("reversal exponent below degree")
        return _poly(*_canonical([0] * (k - self.degree) + list(self._n[::-1]), self._d))

    def shifted(self, k: int) -> "Poly":
        """Multiply by z^k, k >= 0."""
        if k < 0:
            raise ValueError("negative shift; use to_laurent().shifted(k)")
        if self.is_zero:
            return Poly()
        return _poly((0,) * k + self._n, self._d)

    def to_laurent(self, shift: int = 0) -> "LaurentPoly":
        return _laurent(shift, self._n, self._d)

    # -- plumbing ------------------------------------------------------------

    def _as_poly(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (Fraction, int)):
            return Poly((other,))
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.to_laurent() == other
        other = self._as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._n == other._n and self._d == other._d

    def __hash__(self):
        return hash(("Poly", self._n, self._d))

    def __bool__(self):
        return bool(self._n)

    def __repr__(self):
        return f"Poly({[str(v) for v in _fractions(self)]})"

    def __str__(self):
        return _pretty_terms(enumerate(_fractions(self)))


class LaurentPoly:
    """Laurent polynomial: coefficients from `min_exp` upward, exact and immutable.

    Stored as integer numerators over one common denominator, in the canonical
    form of the module docstring, so the coefficients at both extreme
    exponents are nonzero (zero is stored as min_exp=0 with no numerators).
    """

    __slots__ = ("_min", "_n", "_d", "_f")

    def __init__(self, min_exp: int = 0, coeffs: Iterable[Scalar] = ()):  # noqa: D107
        self._min, self._n, self._d = _laurent_parts(min_exp, *_from_scalars(coeffs))
        self._f = None

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls(0, ())

    @classmethod
    def monomial(cls, exponent: int, coeff: Scalar = 1) -> "LaurentPoly":
        return cls(exponent, (coeff,))

    @classmethod
    def from_poly(cls, p: Poly, shift: int = 0) -> "LaurentPoly":
        return p.to_laurent(shift)

    @property
    def is_zero(self) -> bool:
        return not self._n

    @property
    def min_exp(self) -> int:
        return self._min

    @property
    def numerators(self) -> tuple:
        """Integer numerators over `denominator`, from min_exp upward."""
        return self._n

    @property
    def denominator(self) -> int:
        """The common denominator, > 0 and coprime to the numerators' gcd."""
        return self._d

    @property
    def max_exp(self) -> int:
        """Largest exponent with nonzero coefficient; min_exp - 1 when zero."""
        return self._min + len(self._n) - 1

    def coeff(self, exponent: int) -> Fraction:
        i = exponent - self._min
        if 0 <= i < len(self._n):
            return _fractions(self)[i]
        return Fraction(0)

    def items(self):
        """(exponent, coefficient) pairs, ascending, nonzero entries only."""
        for i, v in enumerate(_fractions(self)):
            if v:
                yield self._min + i, v

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return self._combine(other, add)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def _combine(self, other, op):
        other = self._as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            return self
        if self.is_zero:
            return other if op is add else -other
        shift = other._min - self._min
        nums, den = _add(self._n, self._d, other._n, other._d, shift, op)
        return _laurent(min(self._min, other._min), nums, den)

    def __neg__(self):
        return _laurent(self._min, [-v for v in self._n], self._d)

    def __mul__(self, other):
        if isinstance(other, (Fraction, int)):
            return _laurent(self._min, *_scale(self._n, self._d, other))
        other = self._as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return LaurentPoly.zero()
        return _laurent(self._min + other._min, _mul(self._n, other._n), self._d * other._d)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __divmod__(self, divisor):
        """self = q*divisor + r.  Exact in the Laurent ring.

        Writing self = z^a A and divisor = z^b B with A(0), B(0) nonzero,
        the quotient is z^(a-b) (A div B) and the remainder z^a (A mod B),
        so divisibility reduces to ordinary polynomial divisibility of A by B.
        """
        divisor = self._as_laurent(divisor)
        if divisor is NotImplemented:
            return NotImplemented
        if divisor.is_zero:
            raise ZeroDivisionError("Laurent division by zero")
        if self.is_zero:
            return LaurentPoly.zero(), LaurentPoly.zero()
        if len(self._n) < len(divisor._n):
            return LaurentPoly.zero(), self
        q, qd, r, rd = _divmod(self._n, self._d, divisor._n, divisor._d)
        return _laurent(self._min - divisor._min, q, qd), _laurent(self._min, r, rd)

    def derivative(self) -> "LaurentPoly":
        lo = self._min
        return _laurent(lo - 1, [(lo + i) * v for i, v in enumerate(self._n)], self._d)

    def inverted(self) -> "LaurentPoly":
        """Substitute z -> 1/z; an involution."""
        return _laurent(-self.max_exp, self._n[::-1], self._d)

    def shifted(self, k: int) -> "LaurentPoly":
        return _laurent(self._min + k, self._n, self._d)

    def __call__(self, point):
        if self.is_zero:
            return 0
        acc = 0
        for c in reversed(_fractions(self)):
            acc = acc * point + c
        if self._min >= 0:
            return acc * point**self._min
        return acc / point ** (-self._min)

    def to_poly(self) -> Poly:
        if self._min < 0 and self._n:
            raise ValueError(f"not a polynomial: pole of order {-self._min} at 0")
        return _poly((0,) * self._min + self._n, self._d)

    # -- plumbing ------------------------------------------------------------

    def _as_laurent(self, other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, Poly):
            return other.to_laurent()
        if isinstance(other, (Fraction, int)):
            return LaurentPoly(0, (other,))
        return NotImplemented

    def __eq__(self, other):
        other = self._as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return self._min == other._min and self._n == other._n and self._d == other._d

    def __hash__(self):
        return hash(("LaurentPoly", self._min, self._n, self._d))

    def __bool__(self):
        return bool(self._n)

    def __repr__(self):
        return f"LaurentPoly(min_exp={self._min}, {[str(v) for v in _fractions(self)]})"

    def __str__(self):
        return _pretty_terms(self.items())


def _pretty_terms(pairs) -> str:
    terms = []
    for e, v in sorted(pairs, key=lambda t: -t[0]):
        if v == 0:
            continue
        if e == 0:
            terms.append(str(v))
        else:
            mono = "z" if e == 1 else f"z^{e}"
            if v == 1:
                terms.append(mono)
            elif v == -1:
                terms.append(f"-{mono}")
            else:
                terms.append(f"{v}*{mono}")
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


class SolveStatus(Enum):
    UNIQUE = "unique"
    UNDERDETERMINED = "underdetermined"
    INCONSISTENT = "inconsistent"


@dataclass(frozen=True)
class LinearSolution:
    status: SolveStatus
    solution: tuple | None
    nullspace: tuple
    rank: int


@dataclass(frozen=True)
class LinearSystem:
    """Exact rational linear system matrix * x = rhs."""

    matrix: tuple
    rhs: tuple

    def __init__(self, matrix: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]):
        rows = tuple(tuple(_coerce(v) for v in row) for row in matrix)
        b = tuple(_coerce(v) for v in rhs)
        if len(rows) != len(b):
            raise ValueError("matrix/rhs size mismatch")
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise ValueError("ragged matrix")
        object.__setattr__(self, "matrix", rows)
        object.__setattr__(self, "rhs", b)

    def solve(self) -> LinearSolution:
        return solve_exact(self.matrix, self.rhs)


def _bit_size(q: Fraction) -> int:
    return q.numerator.bit_length() + q.denominator.bit_length()


def solve_exact(matrix: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]) -> LinearSolution:
    """Gauss-Jordan over Fraction, returning the full exact solution set.

    Pivot choice prefers the candidate with the smallest numerator/denominator
    bit size, which keeps intermediate fractions small; correctness does not
    depend on the choice.
    """
    rows = [list(map(_coerce, row)) + [_coerce(b)] for row, b in zip(matrix, rhs)]
    n_rows = len(rows)
    n_cols = len(rows[0]) - 1 if rows else 0

    pivot_cols: list[int] = []
    r = 0
    for col in range(n_cols):
        best = None
        for i in range(r, n_rows):
            if rows[i][col] != 0:
                if best is None or _bit_size(rows[i][col]) < _bit_size(rows[best][col]):
                    best = i
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        piv = rows[r][col]
        rows[r] = [v / piv for v in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(col)
        r += 1
        if r == n_rows:
            break

    rank = len(pivot_cols)
    for i in range(rank, n_rows):
        if rows[i][n_cols] != 0:
            return LinearSolution(SolveStatus.INCONSISTENT, None, (), rank)

    solution = [Fraction(0)] * n_cols
    for i, col in enumerate(pivot_cols):
        solution[col] = rows[i][n_cols]

    free_cols = [c for c in range(n_cols) if c not in set(pivot_cols)]
    basis = []
    for free in free_cols:
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for i, col in enumerate(pivot_cols):
            vec[col] = -rows[i][free]
        basis.append(tuple(vec))

    status = SolveStatus.UNIQUE if not free_cols else SolveStatus.UNDERDETERMINED
    return LinearSolution(status, tuple(solution), tuple(basis), rank)
