"""Exact arithmetic in Q(q): polynomials in q and normalized rational functions.

All coefficients are `fractions.Fraction`, so every operation is exact.
Rational functions are kept in a canonical form (numerator and denominator
coprime, denominator monic), which makes equality testing, evaluation and
Taylor expansion around q = 1 well defined.  The Taylor expansion, the
residual recursion in `counting` and its reports share one small set of
truncated power-series ("jet") operations defined here.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from typing import Iterable, Sequence, Union

from .numtheory import integer_binomial

Scalar = Union[int, Fraction]


class PoleError(ZeroDivisionError):
    """Raised when a rational function is evaluated or expanded at a pole."""


def fraction_to_str(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"


def fraction_from_str(s: str) -> Fraction:
    return Fraction(s)


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected int or Fraction, got {type(c).__name__}")


class QPoly:
    """A polynomial in q with rational coefficients.

    Stored densely, index i = coefficient of q^i; the highest stored
    coefficient is nonzero (the zero polynomial stores nothing).
    Instances are immutable and hashable.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        c = [_as_fraction(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "_c", tuple(c))

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    # -- constructors -----------------------------------------------------

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
        return self._c

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._c) - 1

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def is_one(self) -> bool:
        return len(self._c) == 1 and self._c[0] == 1

    def leading(self) -> Fraction:
        if not self._c:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._c[-1]

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self._c):
            return self._c[i]
        return Fraction(0)

    def has_integer_coeffs(self) -> bool:
        return all(c.denominator == 1 for c in self._c)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly((other,))
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return QPoly([-c for c in self._c])

    def __sub__(self, other):
        return self + (-other if isinstance(other, QPoly) else -_as_fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                return QPoly()
            return QPoly([x * c for x in self._c])
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self._c, other._c
        if not a or not b:
            return QPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] += x * y
        return QPoly(out)

    __rmul__ = __mul__

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

    def __divmod__(self, other: "QPoly"):
        if not isinstance(other, QPoly):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self._c)
        dv = other.degree
        lead = other._c[-1]
        quot = [Fraction(0)] * max(len(rem) - dv, 0)
        while len(rem) - 1 >= dv and rem:
            if rem[-1] == 0:
                rem.pop()
                continue
            shift = len(rem) - 1 - dv
            factor = rem[-1] / lead
            quot[shift] = factor
            for i, c in enumerate(other._c):
                rem[shift + i] -= factor * c
            rem.pop()
        return QPoly(quot), QPoly(rem)

    def __floordiv__(self, other: "QPoly"):
        q, _ = divmod(self, other)
        return q

    def __mod__(self, other: "QPoly"):
        _, r = divmod(self, other)
        return r

    def exact_div(self, other: "QPoly") -> "QPoly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("inexact polynomial division")
        return q

    # -- substitutions -----------------------------------------------------

    def evaluate(self, v: Scalar) -> Fraction:
        v = _as_fraction(v)
        acc = Fraction(0)
        for c in reversed(self._c):
            acc = acc * v + c
        return acc

    def adams(self, k: int) -> "QPoly":
        """Substitute q -> q^k (k >= 1)."""
        if k < 1:
            raise ValueError("adams index must be >= 1")
        if k == 1 or self.is_zero:
            return self
        out = [Fraction(0)] * (self.degree * k + 1)
        for i, c in enumerate(self._c):
            out[i * k] = c
        return QPoly(out)

    def shifted(self, c: Scalar) -> "QPoly":
        """Return the polynomial r with r(t) = self(t + c)."""
        c = _as_fraction(c)
        shift = QPoly((c, 1))
        acc = QPoly()
        for a in reversed(self._c):
            acc = acc * shift + a
        return acc

    def qminus1_coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients in the (q-1) basis: self = sum c_n (q-1)^n.

        The result has length degree+1 (empty for the zero polynomial), e.g.
        q^3 - q gives (0, 2, 3, 1).
        """
        return self.shifted(1).coeffs

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly((other,))
        if not isinstance(other, QPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(("QPoly", self._c))

    # -- formatting / serialization -----------------------------------------

    def __str__(self):
        return format_poly(self._c, "q")

    def __repr__(self):
        return f"QPoly[{self}]"

    def latex(self) -> str:
        return format_poly(self._c, "q", latex=True)

    def to_json(self) -> list[str]:
        return [fraction_to_str(c) for c in self._c]

    @classmethod
    def from_json(cls, data: Sequence[str]) -> "QPoly":
        return cls([Fraction(s) for s in data])


def format_poly(coeffs: Sequence[Fraction], var: str, latex: bool = False) -> str:
    """Render a coefficient sequence (ascending powers of `var`) as text."""
    if not any(coeffs):
        return "0"
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            if latex:
                power = var if i == 1 else f"{var}^{{{i}}}"
            else:
                power = var if i == 1 else f"{var}^{i}"
            body = power if mag == 1 else f"{mag}{'' if latex else '*'}{power}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = first_body if first_sign == "+" else f"-{first_body}"
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


# -- jets: power series in one variable x, taken modulo x^n ------------------
#
# A jet is a sequence of exact coefficients in ascending powers of x; shorter
# inputs are padded with zeros and every result has length exactly n.


def trunc_mul(a: Sequence[Scalar], b: Sequence[Scalar], n: int) -> list[Fraction]:
    """The product a * b modulo x^n."""
    out = [Fraction(0)] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[:n - i]):
                if y:
                    out[i + j] += x * y
    return out


def trunc_inv(a: Sequence[Scalar], n: int) -> list[Fraction]:
    """The inverse 1 / a modulo x^n; PoleError if a has zero constant term."""
    if not a or a[0] == 0:
        raise PoleError("a series with zero constant term has no inverse")
    out: list[Fraction] = []
    for k in range(n):
        acc = Fraction(1 if k == 0 else 0)
        for j in range(1, min(k, len(a) - 1) + 1):
            acc -= a[j] * out[k - j]
        out.append(acc / a[0])
    return out


def binomial_jet(e: int, c: Scalar, n: int) -> list[Fraction]:
    """(1 + c x)^e modulo x^n, for any integer exponent e."""
    return [Fraction(integer_binomial(e, k) * c**k) for k in range(n)]


# -- polynomial gcd -----------------------------------------------------------
#
# Computed over Z with primitive pseudo-remainders (content stripped at each
# step) to avoid the coefficient blow-up of naive Euclid over Q.


def _int_content(v: list[int]) -> int:
    g = 0
    for c in v:
        g = _int_gcd(g, abs(c))
        if g == 1:
            return 1
    return g


def _int_primitive(v: list[int]) -> list[int]:
    while v and v[-1] == 0:
        v.pop()
    if not v:
        return v
    g = _int_content(v)
    if v[-1] < 0:
        g = -g
    if g != 1:
        v = [c // g for c in v]
    return v


def _int_prem(u: list[int], v: list[int]) -> list[int]:
    dv = len(v) - 1
    lead = v[-1]
    r = list(u)
    while r and len(r) - 1 >= dv:
        if r[-1] == 0:
            r.pop()
            continue
        s = r[-1]
        r = [lead * c for c in r]
        shift = len(r) - 1 - dv
        for i, c in enumerate(v):
            r[shift + i] -= s * c
        r.pop()
    return r


def _to_int_poly(p: QPoly) -> list[int]:
    scale = 1
    for c in p.coeffs:
        scale = scale * c.denominator // _int_gcd(scale, c.denominator)
    return [int(c * scale) for c in p.coeffs]


def poly_gcd(a: QPoly, b: QPoly) -> QPoly:
    """Monic gcd of two polynomials (zero if both are zero)."""
    if a.is_zero and b.is_zero:
        return QPoly()
    if a.is_zero or b.is_zero:
        src = b if a.is_zero else a
        return src * (1 / src.leading())
    u = _int_primitive(_to_int_poly(a))
    v = _int_primitive(_to_int_poly(b))
    if len(u) < len(v):
        u, v = v, u
    while v:
        u, v = v, _int_primitive(_int_prem(u, v))
    lead = Fraction(u[-1])
    return QPoly([Fraction(c) / lead for c in u])


_ONE_POLY = QPoly((1,))


class RationalFunction:
    """A normalized element of Q(q): coprime num/den with monic denominator."""

    __slots__ = ("_num", "_den")

    def __init__(self, num, den=None):
        num = self._coerce_poly(num)
        den = _ONE_POLY if den is None else self._coerce_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            object.__setattr__(self, "_num", QPoly())
            object.__setattr__(self, "_den", _ONE_POLY)
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        lead = den.leading()
        if lead != 1:
            inv = 1 / lead
            num = num * inv
            den = den * inv
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @staticmethod
    def _coerce_poly(x) -> QPoly:
        if isinstance(x, QPoly):
            return x
        if isinstance(x, (int, Fraction)):
            return QPoly((x,))
        raise TypeError(f"cannot build polynomial from {type(x).__name__}")

    @classmethod
    def _make(cls, num: QPoly, den: QPoly) -> "RationalFunction":
        # Internal constructor for operands already known to be coprime;
        # still enforces the monic/zero conventions.
        self = object.__new__(cls)
        if num.is_zero:
            object.__setattr__(self, "_num", QPoly())
            object.__setattr__(self, "_den", _ONE_POLY)
            return self
        lead = den.leading()
        if lead != 1:
            inv = 1 / lead
            num = num * inv
            den = den * inv
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)
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

    @classmethod
    def from_fraction(cls, c: Scalar) -> "RationalFunction":
        return cls(QPoly((c,)))

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

    @property
    def is_polynomial(self) -> bool:
        return self._den.is_one

    def as_poly(self) -> QPoly:
        if not self._den.is_one:
            raise ValueError(f"not a polynomial: {self}")
        return self._num

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
        if self._den.is_one and other._den.is_one:
            return RationalFunction._make(self._num + other._num, _ONE_POLY)
        g = poly_gcd(self._den, other._den)
        db = other._den.exact_div(g) if g.degree > 0 else other._den
        da = self._den.exact_div(g) if g.degree > 0 else self._den
        num = self._num * db + other._num * da
        return RationalFunction(num, self._den * db)

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
        if self.is_zero or other.is_zero:
            return RationalFunction.zero()
        if self._den.is_one and other._den.is_one:
            return RationalFunction._make(self._num * other._num, _ONE_POLY)
        # Cross-cancel: both inputs are normalized, so the cancelled parts
        # leave pairwise coprime factors and no further gcd is needed.
        n1, d1, n2, d2 = self._num, self._den, other._num, other._den
        g1 = poly_gcd(n1, d2)
        if g1.degree > 0:
            n1 = n1.exact_div(g1)
            d2 = d2.exact_div(g1)
        g2 = poly_gcd(n2, d1)
        if g2.degree > 0:
            n2 = n2.exact_div(g2)
            d1 = d1.exact_div(g2)
        return RationalFunction._make(n1 * n2, d1 * d2)

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

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = RationalFunction.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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

    def taylor_at_one(self, order: int) -> tuple[Fraction, ...]:
        """Exact coefficients c_0..c_order of the expansion in powers of (q-1).

        Computed by the shift q -> 1 + t followed by power-series division.
        Raises PoleError if the (normalized) denominator vanishes at q = 1.
        """
        if order < 0:
            raise ValueError("order must be nonnegative")
        length = order + 1
        num = self._num.shifted(1).coeffs
        den = self._den.shifted(1).coeffs
        return tuple(trunc_mul(num, trunc_inv(den, length), length))

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
        if self._num.degree > 0 and len(self._num.coeffs) - self._num.coeffs.count(Fraction(0)) > 1:
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

    @classmethod
    def from_json(cls, data: dict) -> "RationalFunction":
        return cls(QPoly.from_json(data["num"]), QPoly.from_json(data["den"]))
