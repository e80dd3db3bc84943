"""Exact rational and complex-rational scalars, Pochhammer symbols and
terminating hypergeometric sums.

Every quantity here is a ``fractions.Fraction`` (or a :class:`CRational`
pair of them); nothing in this module ever rounds.  :class:`CRational`
is only the edge type in which exact complex values leave the package:
the package computes over integer numerators and one denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

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

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, CRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __repr__(self):
        return f"CRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return f"{self.re}+{self.im}j"


def rising_pochhammer(a: RationalLike, n: int) -> Fraction:
    """(a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1."""
    if n < 0:
        raise ValueError(f"rising_pochhammer requires n >= 0, got n={n}")
    p, q = a.numerator, a.denominator
    return Fraction(math.prod(p + i * q for i in range(n)), q ** n)


def terminating_pair(nums, dens) -> tuple[int, int]:
    """pFq(nums; dens; 1), for a series that terminates, as an unreduced
    integer pair (top, bot) with bot != 0.

    It stops at m = min(j) over the numerator parameters -j that are
    nonpositive integers; a denominator parameter -j with j < m divides
    a term with a nonzero numerator by zero.  With each parameter p/q,
    1 + r_0 (1 + r_1 (1 + ... r_{m-1})) over the term ratios r_i is
    summed by Horner in integers, in one pass from i = m-1 down that
    multiplies out each ratio's factors; the caller reduces, if at all.
    """
    pn = [(v.numerator, v.denominator) for v in nums]
    pd = [(v.numerator, v.denominator) for v in dens]
    stops = [-p for p, q in pn if q == 1 and p <= 0]
    if not stops:
        raise NonTerminatingError(
            f"{len(pn)}F{len(pd)}({', '.join(map(str, nums))}; ...; 1) has "
            "no nonpositive-integer numerator parameter")
    m = min(stops)
    qn = qd = 1
    for _, q in pn:
        qn *= q
    for p, q in pd:
        if q == 1 and -m < p <= 0:
            raise ZeroDivisionError(
                f"denominator parameter {p} vanishes before the series "
                f"stops at term {m}")
        qd *= q
    # r_i = qd prod(p + i q over nums) / (qn (i + 1) prod(p + i q over dens))
    top = bot = 1
    for i in range(m - 1, -1, -1):
        a = qd
        for p, q in pn:
            a *= p + i * q
        b = qn * (i + 1)
        for p, q in pd:
            b *= p + i * q
        top, bot = b * bot + a * top, b * bot
    return top, bot
