"""Exact rational scalars, Laurent polynomials and nullspaces.

Everything in this module is exact: no operation ever rounds.  Scalars are
`fractions.Fraction`.  `Poly` is the one polynomial type: a Laurent
polynomial sum_k c_k z^k over the rationals, of which the ordinary
polynomials are the values with `min_exp >= 0`.  A value with a pole at 0 is
built as `Poly(coeffs).shifted(-k)`.

A `Poly` is stored fraction-free, as FLINT's fmpq_poly is: its lowest
exponent `min_exp` and a tuple of integer numerators over one common integer
denominator, so the coefficient of z^(min_exp+k) is numerators[k] /
denominator.  The stored form is canonical:

  * no leading or trailing zero numerator;
  * a denominator greater than 0;
  * gcd(denominator, every numerator) = 1.

Two values are therefore equal exactly when their stored integers are, and
equal values hash equal.  The zero polynomial has min_exp 0, no numerators,
denominator 1 and the sentinel degree -1, so callers that do degree arithmetic
must check `is_zero` first.

`.coeffs` is the dense coefficient tuple from z^0 upward and exists only for
polynomials: on a value with a pole at 0 it raises AttributeError, so
`getattr(p, "coeffs", None)` tells the two apart.  `items()` lists the nonzero
(exponent, coefficient) pairs of any value, and `require_polynomial()` raises
ValueError on a pole.

`divmod(a, b)` divides in the Laurent ring.  Writing a = z^i A and b = z^j B
with A(0), B(0) nonzero, the quotient is z^(i-j) (A div B) and the remainder
z^i (A mod B), so b divides a exactly when B divides A.  For two polynomials
this is Euclidean division in Q[z] whenever the division is exact or neither
operand vanishes at 0.

One set of module-level integer helpers (`_canonical`, `_add`, `_mul`,
`_scale`, `_divmod`) does the coefficient arithmetic, so a coefficient
operation is an integer multiply-add rather than a gcd and a new `Fraction`;
each result is reduced once.  `.coeffs`, `coeff()`, `leading` and `items()`
hand out reduced `Fraction`s, built on first use and cached, and evaluation
runs Horner's rule over them, so numeric callers see exactly the values of a
`Fraction` coefficient list.

Polynomials are dense between their extreme exponents, which suits degrees up
to a few hundred.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, sub
from typing import Iterable, Sequence, Union

Scalar = Union[Fraction, int]

__all__ = [
    "Poly",
    "LinearSolution",
    "solve_exact",
    "unit_circle_roots",
    "parse_rational",
    "format_rational",
]


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (optional leading minus, ASCII or U+2212)."""
    return Fraction(text.strip().replace("−", "-"))


def format_rational(value: Fraction) -> str:
    """Canonical text form "p/q" (or "p" for integers)."""
    return str(Fraction(value))


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
    """Numerators over the least common denominator of the given ints and Fractions."""
    values = list(values)
    den = lcm(*(q.denominator for q in values))
    return [q.numerator * (den // q.denominator) for q in values], den


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
    is built top down, each coefficient a reduced fraction found from the
    len(b)-1 coefficients above it over their own lcm, so a coefficient
    with a new denominator never rescales the others.  `den`, the lcm of the
    quotient's denominators, is taken as they come, and the quotient is put
    over it once at the end: O(1) big-integer operations per coefficient for
    a fixed divisor length.
    """
    nb, nq = len(b), len(a) - len(b) + 1
    lead, below = b[-1], b[-2::-1]
    qn, qd = [0] * nq, [1] * nq
    den = 1
    for t in range(nq - 1, -1, -1):
        # the remainder's coefficient at z^(t + nb - 1), over the lcm w of
        # the denominators of the quotient coefficients it reads
        w = lcm(*qd[t + 1 : t + nb])
        acc = a[t + nb - 1] * w - sum(
            v * (w // d) * c for v, d, c in zip(qn[t + 1 : t + nb], qd[t + 1 : t + nb], below) if v
        )
        if not acc:
            continue
        d = w * lead
        g = gcd(acc, d)
        if d < 0:
            g = -g
        qn[t], qd[t] = acc // g, d // g
        den = lcm(den, qd[t])
    q = [v * (den // d) if v else 0 for v, d in zip(qn, qd)]
    rem = [
        a[p] * den - sum(q[t] * b[p - t] for t in range(max(0, p - nb + 1), min(p, nq - 1) + 1))
        for p in range(nb - 1)
    ]
    # a = (q/den) b + rem/den, so a/ad = (q bd / (den ad)) (b/bd) + rem / (den ad)
    if bd != 1:
        q = [v * bd for v in q]
    return q, den * ad, rem, den * ad


def _fractions(p) -> tuple:
    """The stored coefficients of p, from min_exp upward, as reduced Fractions, cached on p."""
    if p._f is None:
        d = p._d
        p._f = tuple(Fraction(v, d) for v in p._n)
    return p._f


def _make(min_exp: int, nums, den: int) -> "Poly":
    """Poly from canonical (min_exp, numerators, denominator), taken as they are."""
    p = object.__new__(Poly)
    p._min, p._n, p._d, p._f = min_exp, tuple(nums), den, None
    return p


def _laurent_parts(min_exp: int, nums, den: int) -> tuple:
    """Canonical (min_exp, numerators, denominator) from any numerators and denominator."""
    nums, den = _canonical(list(nums), den)
    drop = 0
    while drop < len(nums) and not nums[drop]:
        drop += 1
    return (min_exp + drop if nums else 0), nums[drop:], den


def _laurent(min_exp: int, nums, den: int) -> "Poly":
    """Poly from any (numerators, denominator) starting at z^min_exp, put in canonical form."""
    return _make(*_laurent_parts(min_exp, nums, den))


class Poly:
    """Laurent polynomial over the rationals, immutable; a polynomial when min_exp >= 0.

    Stored as `min_exp` plus integer numerators (lowest exponent first) over
    one common denominator, in the canonical form of the module docstring, so
    the coefficients at both extreme exponents are nonzero unless the value
    is zero.
    """

    __slots__ = ("_min", "_n", "_d", "_f")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        """The polynomial sum_k coeffs[k] z^k."""
        self._min, self._n, self._d = _laurent_parts(0, *_from_scalars(coeffs))
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
    def from_numerators(cls, numerators: Iterable[int], denominator: int = 1) -> "Poly":
        """The polynomial sum_k numerators[k]/denominator z^k, reduced to canonical form."""
        if not denominator:
            raise ZeroDivisionError("zero denominator")
        return _laurent(0, numerators, denominator)

    # -- basic structure ---------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """Coefficients as reduced Fractions from z^0 upward; polynomials only.

        Raises AttributeError on a value with a pole at 0; `items()` covers
        every value.
        """
        if self._min < 0:
            raise AttributeError(f"coeffs: pole of order {-self._min} at 0; use items()")
        if self._min:
            return (Fraction(0),) * self._min + _fractions(self)
        return _fractions(self)

    @property
    def numerators(self) -> tuple:
        """Integer numerators over `denominator`, from min_exp upward."""
        return self._n

    @property
    def denominator(self) -> int:
        """The common denominator, > 0 and coprime to the numerators' gcd."""
        return self._d

    @property
    def min_exp(self) -> int:
        """Smallest exponent with nonzero coefficient; 0 for the zero polynomial."""
        return self._min

    @property
    def degree(self) -> int:
        """Largest exponent with nonzero coefficient, with -1 as the sentinel for zero."""
        return self._min + len(self._n) - 1

    max_exp = degree

    @property
    def is_zero(self) -> bool:
        return not self._n

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

    @property
    def leading(self) -> Fraction:
        if not self._n:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._n[-1], self._d)

    def require_polynomial(self) -> "Poly":
        """self, once checked to have no pole at 0; ValueError otherwise."""
        if self._min < 0:
            raise ValueError(f"not a polynomial: pole of order {-self._min} at 0")
        return self

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
        if not isinstance(other, Poly):
            if not isinstance(other, (Fraction, int)):
                return NotImplemented
            other = Poly((other,))
        if not other._n:
            return self
        if not self._n:
            return other if op is add else -other
        shift = other._min - self._min
        nums, den = _add(self._n, self._d, other._n, other._d, shift, op)
        return _laurent(min(self._min, other._min), nums, den)

    def __neg__(self):
        return _make(self._min, [-v for v in self._n], self._d)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if not self._n or not other._n:
                return Poly()
            # the end coefficients of a product of canonical factors are
            # nonzero, so only the content needs reducing
            nums, den = _canonical(_mul(self._n, other._n), self._d * other._d)
            return _make(self._min + other._min, nums, den)
        if isinstance(other, (Fraction, int)):
            nums, den = _scale(self._n, self._d, other)
            return _make(self._min if nums else 0, nums, den)
        return NotImplemented

    def __rmul__(self, other):
        return self.__mul__(other)

    def __divmod__(self, divisor: "Poly"):
        """self = q*divisor + r in the Laurent ring (see the module docstring).

        Writing self = z^a A and divisor = z^b B with A(0), B(0) nonzero, the
        quotient is z^(a-b) (A div B) and the remainder z^a (A mod B).
        """
        if not isinstance(divisor, Poly):
            return NotImplemented
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if len(self._n) < len(divisor._n):
            return Poly(), self
        q, qd, r, rd = _divmod(self._n, self._d, divisor._n, divisor._d)
        return _laurent(self._min - divisor._min, q, qd), _laurent(self._min, r, rd)

    # -- calculus and transforms --------------------------------------------

    def derivative(self) -> "Poly":
        lo = self._min
        return _laurent(lo - 1, [(lo + i) * v for i, v in enumerate(self._n)], self._d)

    def __call__(self, point):
        """Horner evaluation; works for Fraction, int, float, mpmath values."""
        acc = 0
        for c in reversed(_fractions(self) if self._min < 0 else self.coeffs):
            acc = acc * point + c
        return acc / point ** (-self._min) if self._min < 0 else acc

    def reversed(self, exponent: int | None = None) -> "Poly":
        """z^k * p(1/z); k defaults to deg p, must be >= deg p."""
        if self.is_zero:
            return self
        k = self.degree if exponent is None else exponent
        if k < self.degree:
            raise ValueError("reversal exponent below degree")
        return self.inverted().shifted(k)

    def inverted(self) -> "Poly":
        """Substitute z -> 1/z; an involution."""
        if self.is_zero:
            return self
        return _make(-self.degree, self._n[::-1], self._d)

    def shifted(self, k: int) -> "Poly":
        """Multiply by z^k, for any integer k."""
        if self.is_zero:
            return self
        return _make(self._min + k, self._n, self._d)

    # -- plumbing ------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (Fraction, int)):
            other = Poly((other,))
        elif not isinstance(other, Poly):
            return NotImplemented
        return self._min == other._min and self._n == other._n and self._d == other._d

    def __hash__(self):
        return hash((self._min, self._n, self._d))

    def __bool__(self):
        return bool(self._n)

    def __repr__(self):
        if self._min < 0:
            return f"Poly({[str(v) for v in _fractions(self)]}).shifted({self._min})"
        return f"Poly({[str(v) for v in self.coeffs]})"

    def __str__(self):
        terms = []
        for e, v in reversed(list(self.items())):
            if e == 0:
                terms.append(str(v))
                continue
            mono = "z" if e == 1 else f"z^{e}"
            if v == 1:
                terms.append(mono)
            elif v == -1:
                terms.append(f"-{mono}")
            else:
                terms.append(f"{v}*{mono}")
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def _sturm_roots(nums, lo: int, hi: int) -> int:
    """Distinct roots in (lo, hi) of sum_k nums[k] w^k, nonzero at both, by Sturm's theorem."""
    seq = [nums, [k * v for k, v in enumerate(nums)][1:]]
    while len(seq[-1]) > 1:
        _, _, rem, den = _divmod(seq[-2], 1, seq[-1], 1)
        rem, _ = _canonical(rem, den)
        if not rem:
            break
        g = gcd(*rem)
        seq.append([-v // g for v in rem])

    def changes(x):
        signs = [sum(c * x**k for k, c in enumerate(p)) > 0 for p in seq if p]
        return sum(map(bool.__ne__, signs, signs[1:]))

    return changes(lo) - changes(hi)


def unit_circle_roots(poly: Poly) -> int:
    """Number of distinct roots of a nonzero Laurent polynomial B on |z| = 1, exactly.

    With b the numerators of B and c_k = sum_j b_j b_{j+k}, |B(z)|^2 on the
    circle is T(w) = c_0 + sum_{k>=1} c_k V_k(w) at w = z + 1/z, where
    V_k(z + 1/z) = z^k + z^-k: V_0 = 2, V_1 = w, V_k = w V_{k-1} - V_{k-2}.
    The roots z = +-1 of B are the roots w = +-2 of T, tested and divided out;
    each root of T in (-2, 2) is a pair of conjugate roots of B, counted by a
    Sturm sequence (Basu, Pollack and Roy, Algorithms in Real Algebraic
    Geometry, ch. 2)."""
    b = poly.numerators
    if not b:
        raise ValueError("the zero polynomial vanishes on the whole circle")
    w = Poly.x()
    t, v_prev, v = Poly((sum(x * x for x in b),)), Poly((2,)), w
    for k in range(1, len(b)):
        t += sum(x * y for x, y in zip(b, b[k:])) * v
        v_prev, v = v, w * v - v_prev
    roots = 0
    for end in (2, -2):
        roots += not t(end)
        while not t(end):
            t = divmod(t, Poly((-end, 1)))[0]
    return roots + 2 * _sturm_roots((0,) * t.min_exp + t.numerators, -2, 2)


@dataclass(frozen=True)
class LinearSolution:
    nullspace: tuple


def _integer_row(values: Sequence[Scalar]) -> list:
    """values, ints and Fractions, times the lcm of their denominators, divided by the content."""
    row, _ = _from_scalars(values)
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def solve_exact(matrix: Sequence[Sequence[Scalar]]) -> LinearSolution:
    """A basis of the nullspace of matrix.

    Fraction-free elimination with content removal (Geddes, Czapor and
    Labahn, Algorithms for Computer Algebra, ch. 9): each row is scaled to
    integers by the lcm of its denominators and divided by its content;
    forward elimination replaces each row below the pivot row by
    p*row - f*pivot_row, divided by its content again.  The pivot is the
    candidate with the smallest bit size, which keeps the integers small;
    correctness does not depend on the choice.  Only the rank rows (at most
    one per column) are back-substituted to the reduced row echelon form in
    Fractions.  That form is unique, so the basis, one vector per free column
    with a 1 there, does not depend on the elimination order.

    Raises ValueError on a ragged matrix.
    """
    if len({len(row) for row in matrix}) > 1:
        raise ValueError("ragged matrix")
    rows = [_integer_row(row) for row in matrix]
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0

    # forward elimination; the rows from r down are zero left of col
    pivot_cols: list[int] = []
    r = 0
    for col in range(n_cols):
        if r == n_rows:
            break
        best, best_bits = None, 0
        for i in range(r, n_rows):
            v = rows[i][col]
            if v and (best is None or abs(v).bit_length() < best_bits):
                best, best_bits = i, abs(v).bit_length()
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        pivot = rows[r]
        p = pivot[col]
        for i in range(r + 1, n_rows):
            row = rows[i]
            f = row[col]
            if not f:
                continue
            g = gcd(p, f)
            ps, fs = p // g, f // g
            tail = [ps * a - fs * b for a, b in zip(row[col + 1 :], pivot[col + 1 :])]
            g = gcd(*tail)
            if g > 1:
                tail = [v // g for v in tail]
            rows[i] = [0] * (col + 1) + tail
        pivot_cols.append(col)
        r += 1

    # back-substitution: reduced[i][c] is the reduced row echelon entry of
    # rank row i at each free column c
    rank = len(pivot_cols)
    pivots = set(pivot_cols)
    free_cols = [c for c in range(n_cols) if c not in pivots]
    reduced: list = [None] * rank
    for i in range(rank - 1, -1, -1):
        row = rows[i]
        p = row[pivot_cols[i]]
        entries = {}
        for c in free_cols:
            acc = Fraction(row[c])
            for k in range(i + 1, rank):
                v = row[pivot_cols[k]]
                if v:
                    acc -= v * reduced[k][c]
            entries[c] = acc / p
        reduced[i] = entries

    basis = []
    for free in free_cols:
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for i, col in enumerate(pivot_cols):
            vec[col] = -reduced[i][free]
        basis.append(tuple(vec))
    return LinearSolution(tuple(basis))
