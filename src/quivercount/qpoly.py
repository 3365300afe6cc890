"""Exact arithmetic in Q(q): polynomials in q and normalized rational functions.

A polynomial stores integer numerators over one positive common denominator,
in lowest terms, so every operation is exact integer arithmetic and
`QPoly.coeffs` hands out `fractions.Fraction` values only on request.

- Sums of products use Kronecker substitution (D. Harvey, "Faster
  polynomial multiplication via multipoint Kronecker substitution",
  arXiv:0712.4046): `QPoly.linear_combination` packs each factor into one
  Python integer at a power of two, multiplies and adds those (CPython's
  Karatsuba), and unpacks the sum's digits once; a long product is its
  one-term case.
- Division is fraction-free, by one pseudo-division that also gives the
  remainders of `poly_gcd` and, on reversed coefficients, the jet
  quotients of `trunc_div`.  `exact_div` divides by the primitive part of
  the divisor over Z; by Gauss's lemma an exact quotient of an integer
  polynomial by a primitive one has integer coefficients, so the division
  is exact only when the pseudo-division never scales and leaves no
  remainder.
- The shift q -> q + 1, and with it the (q-1) basis, is an integer Taylor
  shift by repeated additions (von zur Gathen & Gerhard, "Fast algorithms
  for Taylor shifts", ISSAC 1997).

Rational functions are kept in a canonical form (numerator and denominator
coprime, denominator monic), which makes equality testing, evaluation and
Taylor expansion around q = 1 well defined.  Sums and products are the
textbook ones, normalized by one gcd; the count pipeline runs in Q[q], so
they serve only the reference implementations.  A truncated power series
("jet") is a QPoly cut to its first n coefficients: the Taylor expansion at
q = 1, the residual recursion in `counting` and its reports multiply,
divide and build jets with the three operations defined here, in the same
integer arithmetic as every other QPoly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate as _accumulate
from math import gcd as _int_gcd, lcm as _int_lcm, prod
from typing import Iterable, Optional, Sequence, Union

from .numtheory import binomial_row
from .value import Value

Scalar = Union[int, Fraction]


class PoleError(ZeroDivisionError):
    """Raised when a rational function is evaluated or expanded at a pole."""


def fraction_to_str(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected int or Fraction, got {type(c).__name__}")


def _canonical(n: list[int], d: int) -> tuple[tuple[int, ...], int]:
    """The canonical (numerators, denominator) of the coefficients n[i] / d."""
    while n and not n[-1]:
        n.pop()
    if not n:
        return (), 1
    if d < 0:
        n, d = [-c for c in n], -d
    if d != 1:
        g = _int_gcd(d, *n)
        if g != 1:
            n, d = [c // g for c in n], d // g
    return tuple(n), d


class QPoly(Value):
    """A polynomial in q with rational coefficients.

    Stored as integer numerators over one common denominator: coefficient i
    (of q^i) is _n[i] / _d.  The form is canonical -- _d > 0,
    gcd(_d, *_n) == 1 and the last numerator is nonzero (the zero
    polynomial is ((), 1)) -- so equality and hashing are structural.
    Instances are immutable and hashable.  A jet of the residual recursion
    is a QPoly in t = q - 1, cut to a fixed number of terms.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        c = list(coeffs)
        d = 1
        for x in c:
            if isinstance(x, Fraction):
                d = _int_lcm(d, x.denominator)
            elif not isinstance(x, int):
                raise TypeError(f"expected int or Fraction, got {type(x).__name__}")
        n, d = _canonical([x.numerator * (d // x.denominator) for x in c], d)
        _SET_N(self, n)
        _SET_D(self, d)

    # -- constructors -----------------------------------------------------

    @classmethod
    def _make(cls, n: list[int], d: int = 1) -> "QPoly":
        """The polynomial sum n[i]/d q^i; n is consumed."""
        p = object.__new__(cls)
        n, d = _canonical(n, d)
        _SET_N(p, n)
        _SET_D(p, d)
        return p

    @classmethod
    def zero(cls) -> "QPoly":
        return cls()

    @classmethod
    def one(cls) -> "QPoly":
        return cls((1,))

    @classmethod
    def gen(cls) -> "QPoly":
        """The polynomial q."""
        return cls((0, 1))

    @classmethod
    def monomial(cls, exponent: int, coeff: Scalar = 1) -> "QPoly":
        if exponent < 0:
            raise ValueError("monomial exponent must be nonnegative")
        return cls([0] * exponent + [coeff])

    # -- basic queries -----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        d = self._d
        return tuple(Fraction(c, d) for c in self._n)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._n) - 1

    @property
    def is_zero(self) -> bool:
        return not self._n

    @property
    def is_one(self) -> bool:
        return self._n == (1,) and self._d == 1

    def leading(self) -> Fraction:
        if not self._n:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._n[-1], self._d)

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self._n):
            return Fraction(self._n[i], self._d)
        return Fraction(0)

    def has_integer_coeffs(self) -> bool:
        return self._d == 1

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "QPoly":
        if isinstance(x, QPoly):
            return x
        if isinstance(x, (int, Fraction)):
            return QPoly._make([x.numerator], x.denominator)
        return None

    def __add__(self, other):
        other = QPoly._coerce(other)
        if other is None:
            return NotImplemented
        a, da, b, db = self._n, self._d, other._n, other._d
        if da != db:
            g = _int_gcd(da, db)
            a = [c * (db // g) for c in a]
            b = [c * (da // g) for c in b]
            da = da // g * db
        if len(a) < len(b):
            a, b = b, a
        out = [x + y for x, y in zip(a, b)]
        out.extend(a[len(b):])
        return QPoly._make(out, da)

    __radd__ = __add__

    def __neg__(self):
        p = object.__new__(QPoly)
        _SET_N(p, tuple(-c for c in self._n))
        _SET_D(p, self._d)
        return p

    def __sub__(self, other):
        other = QPoly._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = other.numerator
            return QPoly._make([x * c for x in self._n], self._d * other.denominator)
        if not isinstance(other, QPoly):
            return NotImplemented
        if not self._n or not other._n:
            return QPoly()
        return QPoly._make(_int_mul(self._n, other._n), self._d * other._d)

    __rmul__ = __mul__

    @staticmethod
    def linear_combination(terms: Iterable[tuple[int, Scalar, Sequence["QPoly"]]],
                           cache: Optional[dict] = None) -> "QPoly":
        """sum scalar q^shift prod factors over the terms (shift, scalar, factors),
        by _int_combine with every term scaled to the lcm of its denominators."""
        terms = [(shift, c.numerator, tuple(f._n for f in fs),
                  c.denominator * prod(f._d for f in fs)) for shift, c, fs in terms]
        d = _int_lcm(*(den for *_, den in terms))
        return QPoly._make(_int_combine([(shift, c * (d // den), fs)
                                         for shift, c, fs, den in terms], cache), d)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = QPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def exact_div(self, other: "QPoly") -> "QPoly":
        """The quotient self / other; ValueError unless it is a polynomial.

        Divides the numerators by the primitive part of other's numerators;
        by Gauss's lemma that quotient has integer coefficients whenever it
        exists, so it exists only if _int_pdivmod never scales (s = 1) and
        leaves no remainder.
        """
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        b = other._n
        content = _int_gcd(*b)
        if content != 1:
            b = [c // content for c in b]
        s, quot, rem = _int_pdivmod(self._n, b)
        if s != 1 or any(rem):
            raise ValueError("inexact polynomial division")
        return QPoly._make([c * other._d for c in quot], self._d * content)

    # -- substitutions -----------------------------------------------------

    def evaluate(self, v: Scalar) -> Fraction:
        """The value at q = v, by integer Horner on v's numerator and
        denominator: sum n_i v^i = (sum n_i p^i r^(deg-i)) / r^deg, v = p/r."""
        v = _as_fraction(v)
        p, r = v.numerator, v.denominator
        acc, scale = 0, 1
        for c in reversed(self._n):
            acc = acc * p + c * scale
            scale *= r
        # scale is now r^(deg+1)
        return Fraction(acc * r, self._d * scale)

    def adams(self, k: int) -> "QPoly":
        """Substitute q -> q^k (k >= 1)."""
        if k < 1:
            raise ValueError("adams index must be >= 1")
        if k == 1 or self.is_zero:
            return self
        out = [0] * (self.degree * k + 1)
        out[::k] = self._n
        return QPoly._make(out, self._d)

    def shifted(self) -> "QPoly":
        """The polynomial r with r(t) = self(t + 1), whose coefficients are self's
        in the (q-1) basis: q^3 - q gives (0, 2, 3, 1)."""
        if self.degree < 1:
            return self
        return QPoly._make(_taylor_shift_one(list(self._n)), self._d)

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        other = QPoly._coerce(other)
        if other is None:
            return NotImplemented
        return self._n == other._n and self._d == other._d

    def __hash__(self):
        return hash(("QPoly", self._n, self._d))

    # -- formatting / serialization -----------------------------------------

    def __str__(self):
        return format_poly(self.coeffs, "q")

    def __repr__(self):
        return f"QPoly[{self}]"

    def latex(self) -> str:
        return format_poly(self.coeffs, "q", latex=True)

    def to_json(self) -> list[str]:
        return [fraction_to_str(c) for c in self.coeffs]


_SET_N = QPoly._n.__set__
_SET_D = QPoly._d.__set__


# -- integer coefficient lists ------------------------------------------------
#
# Numerator arithmetic on lists of Python ints, lowest degree first.

# Below this many coefficients in the shorter factor, the schoolbook product
# is used.  On an x86-64 Xeon with CPython 3.11, Kronecker packing overtakes
# it at 6-8 coefficients for coefficients of up to 64 bits and at 16-24 for
# 512-bit ones.
_KRONECKER_MIN = 12


def _int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two nonempty integer coefficient sequences: schoolbook
    for short operands, else the one-term case of _int_combine."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) < _KRONECKER_MIN:
        out = [0] * (len(a) + len(b) - 1)
        for i, y in enumerate(b):
            if y:
                j = i + len(a)
                out[i:j] = [o + x * y for o, x in zip(out[i:j], a)]
        return out
    return _int_combine([(0, 1, (tuple(a), tuple(b)))])


def _int_combine(terms: Iterable[tuple[int, int, Sequence[tuple[int, ...]]]],
                 cache: Optional[dict] = None) -> list[int]:
    """The coefficients of sum scalar q^shift prod factors over the terms.

    Evaluation at x = 2^(8k) is a ring homomorphism, so the sum runs in Z:
    each factor is packed once per k (cache keeps it and its 1-norm across
    calls), q^shift is a left shift, and the sum's digits are unpacked once.
    Only they must fit: all are at most the 1-norm bound sum |scalar| prod
    ||factor||_1, which k puts below half = 2^(8k-1), so adding half to each
    digit makes all digits nonnegative and carry-free for to_bytes.
    """
    cache = {} if cache is None else cache
    live, bound, m = [], 0, 0
    for shift, scalar, factors in terms:
        entries = [cache.get(f) or cache.setdefault(f, (sum(map(abs, f)), {})) for f in factors]
        norm = abs(scalar) * prod(e[0] for e in entries)
        if norm:
            live.append((shift, scalar, zip(factors, entries)))
            bound += norm
            m = max(m, shift + sum(len(f) - 1 for f in factors) + 1)
    if not live:
        return []
    k = (bound.bit_length() + 8) // 8
    half = 1 << (8 * k - 1)
    total = 0
    for shift, value, pairs in live:
        for f, (_, packed) in pairs:
            value *= packed.get(k) or packed.setdefault(k, _pack(f, k, half))
        total += value << (8 * k * shift)
    data = (total + _bias(m, k, half)).to_bytes(m * k, "little")
    return [int.from_bytes(data[i:i + k], "little") - half for i in range(0, m * k, k)]


def _bias(m: int, k: int, half: int) -> int:
    """sum_{i<m} half x^i at x = 2^(8k)."""
    return int.from_bytes(half.to_bytes(k, "little") * m, "little")


def _pack(v: Sequence[int], k: int, half: int) -> int:
    """sum v_i x^i at x = 2^(8k), for |v_i| < half."""
    return int.from_bytes(b"".join((c + half).to_bytes(k, "little") for c in v),
                          "little") - _bias(len(v), k, half)


def _int_pdivmod(u: Sequence[int], v: Sequence[int]) -> tuple[int, list[int], list[int]]:
    """Fraction-free division: (s, quot, rem) with s u = quot v + rem over Z.

    s > 0 and rem has fewer than len(v) entries.  A step whose leading term
    the lead of v does not divide first scales everything by the smallest
    positive factor that makes it divide, so s is 1 when every step divides.
    """
    dv = len(v) - 1
    lead = v[-1]
    r = list(u)
    quot = [0] * max(len(r) - dv, 0)
    s = 1
    for i in range(len(r) - 1, dv - 1, -1):
        c = r[i]
        if not c:
            continue
        if c % lead:
            m = abs(lead) // _int_gcd(c, lead)
            r = [m * x for x in r[:i]]
            quot = [m * x for x in quot]
            s *= m
            c *= m
        f = c // lead
        shift = i - dv
        quot[shift] = f
        r[shift:i] = [x - f * y for x, y in zip(r[shift:i], v)]
    return s, quot, r[:dv]


def _taylor_shift_one(a: list[int]) -> list[int]:
    """Coefficients of a(x + 1), by the repeated additions of the Horner scheme
    (von zur Gathen & Gerhard, "Fast algorithms for Taylor shifts", ISSAC 1997):
    pass i replaces a[j] by a[j] + a[j+1] for j = n-1 down to i, which is a
    suffix sum."""
    n = len(a) - 1
    for i in range(n):
        a[i:] = reversed(list(_accumulate(reversed(a[i:]))))
    return a


def format_terms(terms: Iterable[tuple[Fraction, str]], sep: str) -> str:
    """Render the signed sum of the nonzero terms (coefficient, monomial) as
    text; sep joins a coefficient other than +-1 to its monomial."""
    text = ""
    for c, mono in terms:
        if c == 0:
            continue
        mag = abs(c)
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}{sep}{mono}"
        if text:
            text += f" {'-' if c < 0 else '+'} {body}"
        else:
            text = f"-{body}" if c < 0 else body
    return text or "0"


def format_poly(coeffs: Sequence[Fraction], var: str, latex: bool = False) -> str:
    """Render a coefficient sequence (ascending powers of `var`) as text,
    highest power first."""
    def power(i: int) -> str:
        if i <= 1:
            return var if i else ""
        return f"{var}^{{{i}}}" if latex else f"{var}^{i}"

    return format_terms(((coeffs[i], power(i)) for i in reversed(range(len(coeffs)))),
                        "" if latex else "*")


# -- jets: power series in one variable x, taken modulo x^n ------------------
#
# A jet is a QPoly in x cut to its first n coefficients.


def trunc_mul(a: QPoly, b: QPoly, n: int) -> QPoly:
    """The product a * b modulo x^n."""
    if a.is_zero or b.is_zero:
        return QPoly()
    return QPoly._make(_int_mul(a._n[:n], b._n[:n])[:n], a._d * b._d)


def trunc_div(a: QPoly, b: QPoly, n: int) -> QPoly:
    """The quotient a / b modulo x^n; PoleError if b has zero constant term.

    Reversal makes it a polynomial quotient (von zur Gathen & Gerhard, "Modern
    Computer Algebra", 9.1): with A = a mod x^n padded to n terms and
    B = b mod x^n of degree d, dividing u = x^d rev(A) by v = rev(B) gives
    s u = quot v + rem with rev(quot) = s A / B modulo x^n.  _int_pdivmod
    scales only a step that does not divide, so an integral quotient has s = 1.
    """
    if not b._n or not b._n[0]:
        raise PoleError("division by a series with zero constant term")
    num, den = a._n[:n], b._n[:max(n, 1)]
    u = (0,) * (len(den) - 1 + n - len(num)) + num[::-1]
    s, quot, _ = _int_pdivmod(u, den[::-1])
    return QPoly._make([x * b._d for x in reversed(quot)], a._d * s)


def binomial_jet(e: int, c: Scalar, n: int) -> QPoly:
    """(1 + c x)^e modulo x^n, for any integer exponent e."""
    return QPoly([coeff * c**k for k, coeff in enumerate(binomial_row(e, n))])


# -- polynomial gcd -----------------------------------------------------------
#
# Computed over Z with primitive pseudo-remainders (content stripped at each
# step) to avoid the coefficient blow-up of naive Euclid over Q.


def _int_primitive(v: list[int]) -> list[int]:
    while v and v[-1] == 0:
        v.pop()
    if not v:
        return v
    g = _int_gcd(*v)
    if v[-1] < 0:
        g = -g
    if g != 1:
        v = [c // g for c in v]
    return v


def poly_gcd(a: QPoly, b: QPoly) -> QPoly:
    """Monic gcd of two polynomials (zero if both are zero).

    The powers of q come out before Euclid: gcd(q^i u, q^j v) =
    q^min(i, j) gcd(u, v) when u(0) and v(0) are nonzero, so a monomial
    against anything takes one step."""
    u = _int_primitive(list(a._n))
    v = _int_primitive(list(b._n))
    shift = 0
    if u and v:
        i = next(n for n, c in enumerate(u) if c)
        j = next(n for n, c in enumerate(v) if c)
        shift, u, v = min(i, j), u[i:], v[j:]
    if len(u) < len(v):
        u, v = v, u
    while v:
        u, v = v, _int_primitive(_int_pdivmod(u, v)[2])
    # u is primitive with a positive lead, so u / lead is already canonical
    return QPoly._make([0] * shift + u, u[-1] if u else 1)


_ONE_POLY = QPoly((1,))


class RationalFunction(Value):
    """A normalized element of Q(q): coprime num/den with monic denominator."""

    __slots__ = ("_num", "_den")

    def __init__(self, num, den=None):
        num = self._coerce_poly(num)
        den = _ONE_POLY if den is None else self._coerce_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        # a constant denominator has gcd 1 with anything
        if den.degree > 0 and not num.is_zero:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
        self._normalize(num, den)

    def _normalize(self, num: QPoly, den: QPoly) -> None:
        """Store coprime num/den with zero as 0/1 and a monic denominator."""
        if num.is_zero:
            den = _ONE_POLY
        else:
            lead = den.leading()
            if lead != 1:
                inv = 1 / lead
                num = num * inv
                den = den * inv
        self._set(_num=num, _den=den)

    @staticmethod
    def _coerce_poly(x) -> QPoly:
        poly = QPoly._coerce(x)
        if poly is None:
            raise TypeError(f"cannot build polynomial from {type(x).__name__}")
        return poly

    @classmethod
    def _make(cls, num: QPoly, den: QPoly) -> "RationalFunction":
        """Internal constructor for operands already known to be coprime."""
        self = object.__new__(cls)
        self._normalize(num, den)
        return self

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls(0)

    @classmethod
    def one(cls) -> "RationalFunction":
        return cls(1)

    @classmethod
    def q_power(cls, n: int) -> "RationalFunction":
        """q^n for any integer n (negative n gives 1/q^{-n})."""
        if n >= 0:
            return cls._make(QPoly.monomial(n), _ONE_POLY)
        return cls._make(_ONE_POLY, QPoly.monomial(-n))

    # -- queries --------------------------------------------------------------

    @property
    def num(self) -> QPoly:
        return self._num

    @property
    def den(self) -> QPoly:
        return self._den

    @property
    def is_zero(self) -> bool:
        return self._num.is_zero

    @property
    def is_one(self) -> bool:
        return self._num.is_one and self._den.is_one

    # -- arithmetic -------------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "RationalFunction":
        if isinstance(x, RationalFunction):
            return x
        if isinstance(x, (int, Fraction, QPoly)):
            return RationalFunction(x)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self._num * other._den + other._num * self._den,
                                self._den * other._den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._make(-self._num, self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self._num * other._num, self._den * other._den)

    __rmul__ = __mul__

    def inverse(self) -> "RationalFunction":
        if self.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self._den, self._num)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    # -- substitutions -------------------------------------------------------

    def adams(self, k: int) -> "RationalFunction":
        """Substitute q -> q^k.  Coprimality and monicity are preserved."""
        if k < 1:
            raise ValueError("adams index must be >= 1")
        if k == 1:
            return self
        return RationalFunction._make(self._num.adams(k), self._den.adams(k))

    def bar(self) -> "RationalFunction":
        """Substitute q -> 1/q and clear negative powers; an involution."""
        d = max(self._num.degree, self._den.degree, 0)
        num = QPoly([self._num.coeff(d - i) for i in range(d + 1)])
        den = QPoly([self._den.coeff(d - i) for i in range(d + 1)])
        # Reversal maps the (coprime) root sets to their inverses and at most
        # one of the reversals gains a root at 0, so no common factor appears.
        return RationalFunction._make(num, den)

    def evaluate(self, v: Scalar) -> Fraction:
        v = _as_fraction(v)
        dv = self._den.evaluate(v)
        if dv == 0:
            raise PoleError(f"pole at q = {v}")
        return self._num.evaluate(v) / dv

    def has_pole_at_one(self) -> bool:
        return self._den.evaluate(1) == 0

    def taylor_at_one(self, order: int) -> QPoly:
        """The expansion in powers of t = q - 1 as a jet of order+1 terms.

        Computed by the shift q -> 1 + t followed by one power-series division.
        Raises PoleError if the (normalized) denominator vanishes at q = 1.
        """
        if order < 0:
            raise ValueError("order must be nonnegative")
        return trunc_div(self._num.shifted(), self._den.shifted(), order + 1)

    # -- comparison / formatting ------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        return hash(("RationalFunction", self._num, self._den))

    def __str__(self):
        if self._den.is_one:
            return str(self._num)
        num = str(self._num)
        den = str(self._den)
        if self._num.degree > 0 and len(self._num._n) - self._num._n.count(0) > 1:
            num = f"({num})"
        if self._den.degree > 0:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"RF[{self}]"

    def latex(self) -> str:
        if self._den.is_one:
            return self._num.latex()
        return f"\\frac{{{self._num.latex()}}}{{{self._den.latex()}}}"

    def to_json(self) -> dict:
        return {"num": self._num.to_json(), "den": self._den.to_json()}
