"""Exact rational and complex-rational scalars, Pochhammer symbols,
binomials and terminating hypergeometric sums.

Every quantity here is a ``fractions.Fraction`` (or a :class:`CRational`
pair of them); nothing in this module ever rounds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Rational = Fraction

RationalLike = Union[int, Fraction]


class NonTerminatingError(ValueError):
    """Raised when a hypergeometric series has no terminating parameter."""


class CRational:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        # a Fraction is immutable, so one given is kept as it is
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @staticmethod
    def of(x) -> "CRational":
        if isinstance(x, CRational):
            return x
        return CRational(x)

    def conj(self) -> "CRational":
        return CRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __add__(self, other):
        o = CRational.of(other)
        return CRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = CRational.of(other)
        return CRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return CRational.of(other).__sub__(self)

    def __mul__(self, other):
        o = CRational.of(other)
        return CRational(self.re * o.re - self.im * o.im,
                         self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = CRational.of(other)
        d = o.abs2()
        if d == 0:
            raise ZeroDivisionError("division by zero CRational")
        return CRational((self.re * o.re + self.im * o.im) / d,
                         (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        return CRational.of(other).__truediv__(self)

    def __neg__(self):
        return CRational(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, CRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"CRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return f"{self.re}+{self.im}j"


def binomial(n: int, k: int) -> Fraction:
    """C(n, k) with the out-of-range convention C(n, k) = 0.

    Requires n >= 0; k may be any integer.
    """
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return Fraction(0)
    return Fraction(math.comb(n, k))


def factorial(n: int) -> Fraction:
    if n < 0:
        raise ValueError(f"factorial requires n >= 0, got n={n}")
    return Fraction(math.factorial(n))


def rising_pochhammer(a: RationalLike, n: int) -> Fraction:
    """(a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1."""
    if n < 0:
        raise ValueError(f"rising_pochhammer requires n >= 0, got n={n}")
    p, q = Fraction(a).as_integer_ratio()
    return Fraction(math.prod(p + i * q for i in range(n)), q ** n)


def falling_pochhammer(a: RationalLike, n: int) -> Fraction:
    """a (a-1) ... (a-n+1), with the empty product equal to 1."""
    if n < 0:
        raise ValueError(f"falling_pochhammer requires n >= 0, got n={n}")
    p, q = Fraction(a).as_integer_ratio()
    return Fraction(math.prod(p - i * q for i in range(n)), q ** n)


def _terminating_sum(nums, dens) -> Fraction:
    """pFq(nums; dens; 1) for a series that terminates.

    It stops at m = min(j) over the numerator parameters -j that are
    nonpositive integers; a denominator parameter -j with j < m divides
    a term with a nonzero numerator by zero.  With each parameter p/q,
    1 + r_0 (1 + r_1 (1 + ... r_{m-1})) over the term ratios r_i is
    summed by Horner in integers and reduced to one Fraction at the end.
    """
    pn = [Fraction(v).as_integer_ratio() for v in nums]
    pd = [Fraction(v).as_integer_ratio() for v in dens]
    stops = [-p for p, q in pn if q == 1 and p <= 0]
    if not stops:
        raise NonTerminatingError(
            f"{len(pn)}F{len(pd)}({', '.join(map(str, nums))}; ...; 1) has "
            "no nonpositive-integer numerator parameter")
    m = min(stops)
    for p, q in pd:
        if q == 1 and -m < p <= 0:
            raise ZeroDivisionError(
                f"denominator parameter {p} vanishes before the series "
                f"stops at term {m}")
    # r_i = qd prod(p + i q over nums) / (qn (i + 1) prod(p + i q over dens))
    qn = math.prod(q for _, q in pn)
    qd = math.prod(q for _, q in pd)
    top, bot = 1, 1
    for i in range(m - 1, -1, -1):
        a = qd * math.prod(p + i * q for p, q in pn)
        b = qn * (i + 1) * math.prod(p + i * q for p, q in pd)
        top, bot = b * bot + a * top, b * bot
    return Fraction(top, bot)


def hyp2f1_terminating(n: int, b: RationalLike, c: RationalLike) -> Fraction:
    """2F1(-n, b; c; 1) in exact arithmetic.

    The first parameter -n makes the series terminate after n+1 terms.
    A vanishing denominator factor (c)_i is only an error when the
    corresponding numerator is nonzero.
    """
    if n < 0:
        raise ValueError(f"hyp2f1_terminating requires n >= 0, got n={n}")
    return _terminating_sum((-n, b), (c,))


def hyp3f2_terminating(a1: RationalLike, a2: RationalLike, a3: RationalLike,
                       b1: RationalLike, b2: RationalLike) -> Fraction:
    """3F2(a1, a2, a3; b1, b2; 1) for terminating parameter sets.

    At least one numerator parameter must be a nonpositive integer.
    """
    return _terminating_sum((a1, a2, a3), (b1, b2))
