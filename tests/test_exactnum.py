"""Tests for terminating hypergeometric sums, and the exact complex scalar
of the test oracles."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su2chan.exactnum import terminating_pair


class CQ:
    """Complex number with exact rational parts and field arithmetic: the
    scalar of the test oracles.  The package computes over integer
    numerators and one denominator instead."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def of(x) -> "CQ":
        return x if isinstance(x, CQ) else CQ(x)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, CQ):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __repr__(self):
        return f"CQ({self.re!r}, {self.im!r})"

    def __str__(self):
        return f"{self.re}{'-' if self.im < 0 else '+'}{abs(self.im)}j"

    def conj(self):
        return CQ(self.re, -self.im)

    def abs2(self):
        return self.re * self.re + self.im * self.im

    def __add__(self, other):
        o = CQ.of(other)
        return CQ(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = CQ.of(other)
        return CQ(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return CQ.of(other) - self

    def __mul__(self, other):
        o = CQ.of(other)
        return CQ(self.re * o.re - self.im * o.im,
                  self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = CQ.of(other)
        d = o.abs2()
        if d == 0:
            raise ZeroDivisionError("division by zero CQ")
        return CQ((self.re * o.re + self.im * o.im) / d,
                  (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        return CQ.of(other) / self

    def __neg__(self):
        return CQ(-self.re, -self.im)

    def __hash__(self):
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))


rationals = st.builds(
    Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**3))
crationals = st.builds(CQ, rationals, rationals)


# ---------------------------------------------------------------------------
# Oracles: the terminating series summed term by term in Fractions, with a
# vanishing denominator Pochhammer an error only under a nonzero numerator.
# ---------------------------------------------------------------------------

def fraction_2f1(n, b, c):
    b, c = Fraction(b), Fraction(c)
    total = Fraction(0)
    num = Fraction(1)    # (-n)_i (b)_i / i!
    den = Fraction(1)    # (c)_i
    for i in range(n + 1):
        if den == 0:
            if num != 0:
                raise ZeroDivisionError(f"2F1: ({c})_{i} = 0")
        else:
            total += num / den
        num *= Fraction(-n + i) * (b + i) / (i + 1)
        den *= c + i
    return total


def fraction_pfq(nums, dens):
    """pFq(nums; dens; 1) term by term, for any numbers of parameters:
    it stops after the first nonpositive-integer numerator parameter."""
    nums, dens = [Fraction(a) for a in nums], [Fraction(b) for b in dens]
    stops = [int(-a) for a in nums if a <= 0 and a.denominator == 1]
    if not stops:
        raise ValueError("no terminating numerator parameter")
    total = Fraction(0)
    num = Fraction(1)    # prod (a)_i / i!
    den = Fraction(1)    # prod (b)_i
    for i in range(min(stops) + 1):
        if den == 0:
            if num != 0:
                raise ZeroDivisionError(f"pFq: denominator vanished at i={i}")
        else:
            total += num / den
        num *= math.prod(a + i for a in nums) / (i + 1)
        den *= math.prod(b + i for b in dens)
    return total


def fraction_3f2(a1, a2, a3, b1, b2):
    a1, a2, a3 = Fraction(a1), Fraction(a2), Fraction(a3)
    b1, b2 = Fraction(b1), Fraction(b2)
    n = min(int(-a) for a in (a1, a2, a3) if a <= 0 and a.denominator == 1)
    total = Fraction(0)
    num = Fraction(1)    # (a1)_i (a2)_i (a3)_i / i!
    den = Fraction(1)    # (b1)_i (b2)_i
    for i in range(n + 1):
        if den == 0:
            if num != 0:
                raise ZeroDivisionError(f"3F2: denominator vanished at i={i}")
        else:
            total += num / den
        num *= (a1 + i) * (a2 + i) * (a3 + i) / (i + 1)
        den *= (b1 + i) * (b2 + i)
    return total


# ---------------------------------------------------------------------------
# Exact combinatorial helpers of the test oracles (the package sums these
# as integers)
# ---------------------------------------------------------------------------

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


def rising_pochhammer(a, n):
    """(a)_n = a (a+1) ... (a+n-1) for a rational a, with (a)_0 = 1."""
    if n < 0:
        raise ValueError(f"rising_pochhammer requires n >= 0, got n={n}")
    p, q = Fraction(a).as_integer_ratio()
    return Fraction(math.prod(p + i * q for i in range(n)), q ** n)


def falling_pochhammer(a, n):
    """a (a-1) ... (a-n+1), with the empty product equal to 1."""
    if n < 0:
        raise ValueError(f"falling_pochhammer requires n >= 0, got n={n}")
    p, q = Fraction(a).as_integer_ratio()
    return Fraction(math.prod(p - i * q for i in range(n)), q ** n)


def outcome(fn, *args):
    """The value of fn(*args), or the type of the ZeroDivisionError or
    ValueError it raises."""
    try:
        return fn(*args)
    except (ZeroDivisionError, ValueError) as exc:
        return type(exc)


def pair_value(nums, dens):
    """The value top / bot of terminating_pair(nums, dens), after checking
    that the pair is two ints with bot != 0."""
    top, bot = terminating_pair(nums, dens)
    assert type(top) is int and type(bot) is int and bot != 0
    return Fraction(top, bot)


def hyp2f1_terminating(n, b, c):
    """2F1(-n, b; c; 1) for n >= 0, terminating_pair reduced to one
    Fraction."""
    if n < 0:
        raise ValueError(f"hyp2f1_terminating requires n >= 0, got n={n}")
    return pair_value((-n, b), (c,))


def hyp3f2_terminating(a1, a2, a3, b1, b2):
    """3F2(a1, a2, a3; b1, b2; 1), terminating_pair reduced to one
    Fraction."""
    return pair_value((a1, a2, a3), (b1, b2))


def fraction_product(a, n, step):
    out = Fraction(1)
    for i in range(n):
        out *= a + step * i
    return out


class TestCombinatorics:

    def test_binomial_matches_math_comb(self):
        for n in range(0, 25):
            for k in range(0, n + 1):
                assert binomial(n, k) == math.comb(n, k)

    def test_binomial_out_of_range_is_zero(self):
        assert binomial(5, 6) == 0
        assert binomial(5, -1) == 0

    def test_binomial_negative_n_raises(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    def test_factorial(self):
        for n in range(0, 12):
            assert factorial(n) == math.factorial(n)

    @given(st.integers(-8, 8), st.integers(0, 8))
    def test_rising_product_definition(self, a, n):
        prod = 1
        for i in range(n):
            prod *= a + i
        assert rising_pochhammer(a, n) == prod

    @given(st.integers(-8, 8), st.integers(0, 8))
    def test_falling_vs_rising(self, a, n):
        assert falling_pochhammer(a, n) == \
            (-1) ** n * rising_pochhammer(-a, n)

    def test_rising_rational_argument(self):
        assert rising_pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)

    @pytest.mark.parametrize("a", [Fraction(1, 2), Fraction(-3, 4),
                                   Fraction(-7), Fraction(5, 3), 4])
    def test_pochhammers_match_fraction_product(self, a):
        # a = -7 crosses zero in the rising product from n = 8 on,
        # a = 4 in the falling one from n = 5 on
        for n in range(13):
            rising = rising_pochhammer(a, n)
            falling = falling_pochhammer(a, n)
            assert rising == fraction_product(Fraction(a), n, 1)
            assert falling == fraction_product(Fraction(a), n, -1)
            assert falling == (-1) ** n * rising_pochhammer(-a, n)
        assert rising_pochhammer(-7, 8) == 0
        assert falling_pochhammer(4, 5) == 0

    def test_integer_arguments_match_fraction_route(self):
        # an int argument is read as its numerator and denominator; the
        # value and its type stay those of the Fraction argument
        for a in range(-20, 21):
            for n in range(13):
                got = rising_pochhammer(a, n)
                assert type(got) is Fraction
                assert got == rising_pochhammer(Fraction(a), n) \
                    == fraction_product(Fraction(a), n, 1), (a, n)

    def test_pochhammers_reject_negative_n(self):
        for fn in (rising_pochhammer, falling_pochhammer):
            with pytest.raises(ValueError):
                fn(Fraction(1, 2), -1)


class TestHypergeometric:

    @given(st.integers(0, 10), st.integers(-10, 10), st.integers(11, 25))
    @settings(max_examples=200, deadline=None)
    def test_gauss_summation_property(self, n, b, c):
        lhs = hyp2f1_terminating(n, b, c)
        rhs = rising_pochhammer(c - b, n) / rising_pochhammer(c, n)
        assert lhs == rhs

    def test_gauss_summation_negative_c(self):
        # c a negative integer with |c| >= n keeps every term finite
        for n in range(0, 8):
            for c in range(-20, -max(n, 1) + 1):
                for b in (-3, 2, 7):
                    if rising_pochhammer(c, n) == 0:
                        continue
                    assert hyp2f1_terminating(n, b, c) == \
                        rising_pochhammer(c - b, n) / rising_pochhammer(c, n)

    def test_2f1_rational_parameters(self):
        # the kernel takes integer parameters only: a Fraction, even an
        # integral one, raises rather than being read as a wrong stop
        for b, c in [(Fraction(1, 2), Fraction(3, 2)), (Fraction(1, 2), 3),
                     (2, Fraction(3)), (Fraction(-2), 5)]:
            with pytest.raises(TypeError):
                hyp2f1_terminating(2, b, c)
        with pytest.raises(TypeError):
            terminating_pair((Fraction(-2), 1), (3,))

    def test_3f2_terminates_on_first_negative_parameter(self):
        # a1 = -1 truncates after two terms
        val = hyp3f2_terminating(-1, 4, 5, 2, 3)
        assert val == 1 + Fraction(-1 * 4 * 5, 2 * 3)

    def test_3f2_unit_value_when_numerator_zero(self):
        assert hyp3f2_terminating(0, 7, -3, 2, 2) == 1

    def test_3f2_nonterminating_raises(self):
        with pytest.raises(ValueError, match=r"3F2\(1, 1, 2; \.\.\.; 1\) has "
                           "no nonpositive-integer numerator parameter"):
            hyp3f2_terminating(1, 1, 2, 3, 3)

    def test_2f1_negative_n_raises(self):
        with pytest.raises(ValueError):
            hyp2f1_terminating(-1, 1, 1)


class TestKernelAgainstFractionOracle:
    """The integer Horner kernel, through 2F1 and 3F2 as the unreduced
    pair terminating_pair hands back, equals the term-by-term Fraction
    series bit for bit, and raises ZeroDivisionError on the same inputs."""

    def test_2f1_integer_grid(self):
        for n in range(13):
            for b in range(-12, 13):
                for c in range(-20, 21):
                    want = outcome(fraction_2f1, n, b, c)
                    assert outcome(hyp2f1_terminating, n, b, c) == want, \
                        (n, b, c)

    def test_3f2_eigenvalue_parameters(self):
        # the parameter sets of symbolcalc.e_eigenvalue_3f2 for mu <= 8
        for mu in range(9):
            for k in range(mu + 1):
                for m in range(mu + 1):
                    args = (-k, -m - mu - 1, m - mu, -mu, -mu)
                    assert hyp3f2_terminating(*args) == fraction_3f2(*args)

    def test_3f2_mixed_grid(self):
        for args in itertools.product(
                range(-4, 1), [-2, 1, 3, 4], [-3, 2, 5],
                [-3, -2, -1, 0, 1, 2, 3], [-1, 1, 4]):
            want = outcome(fraction_3f2, *args)
            assert outcome(hyp3f2_terminating, *args) == want, args

    @pytest.mark.parametrize("n,b", [(5, 3), (5, -2), (7, -7), (1, 9)])
    def test_zero_denominator_edges(self, n, b):
        # the series stops at m = min(n, -b); c = 0, -1, ..., -(m - 1)
        # divides a nonzero term by zero, c = -m and below do not
        m = min(n, -b) if b <= 0 else n
        for c in range(0, -m - 3, -1):
            if -c < m:
                for fn in (hyp2f1_terminating, fraction_2f1):
                    with pytest.raises(ZeroDivisionError):
                        fn(n, b, c)
                with pytest.raises(ZeroDivisionError):
                    hyp3f2_terminating(-n, b, 1, c, 1)
            else:
                assert hyp2f1_terminating(n, b, c) == fraction_2f1(n, b, c)
        assert hyp2f1_terminating(5, -2, -3) == fraction_2f1(5, -2, -3) == 1


class TestTerminatingSumKernel:
    """terminating_pair, the one kernel under 2F1 and 3F2 (compared with
    the series through them in TestKernelAgainstFractionOracle), against
    the term-by-term series for any number of integer parameters."""

    def test_more_parameters_and_values_are_fractions(self):
        # 4F3: the kernel takes any number of parameters
        for nums, dens in [((-3, 4, -7, 5), (7, -5, 2)),
                           ((1, -6, -2, 9), (3, 3, -7)),
                           ((-4, -4, 2, -9), (-4, -9, 1))]:
            assert pair_value(nums, dens) == fraction_pfq(nums, dens)

    def test_denominator_vanishing_at_the_stop(self):
        # a denominator parameter -m meets its zero factor only in the
        # ratio past the last term, so the sum is finite
        for m in range(1, 8):
            for b in (-9, -1, 2, 5):
                for nums, dens in [((-m, b), (-m,)), ((-m, b, 3), (-m, 1)),
                                   ((b, -m, -m - 2), (-m, -m))]:
                    assert pair_value(nums, dens) \
                        == fraction_pfq(nums, dens), (nums, dens)
        assert hyp2f1_terminating(3, 1, -3) == fraction_2f1(3, 1, -3)

    def test_zero_stop_is_one(self):
        # n = 0: the sum is its first term, whatever the other parameters,
        # a vanishing denominator parameter included
        for dens in [(), (5,), (0,), (-3, 0)]:
            for nums in [(0,), (0, 4), (7, 0, -2)]:
                assert terminating_pair(nums, dens) == (1, 1)
        assert hyp2f1_terminating(0, -4, 0) == 1

    def test_same_errors_as_the_series(self):
        cases = [
            # no nonpositive numerator parameter
            ((1, 3), (5,)),
            ((2, 3, 4), (2, 1)),
            # a denominator -j with j below the stop divides by zero
            ((-4, 1), (-2,)),
            ((-5, 2, 7), (1, 0)),
        ]
        for nums, dens in cases:
            want = outcome(fraction_pfq, nums, dens)
            assert want in (ValueError, ZeroDivisionError)
            with pytest.raises(want):
                terminating_pair(nums, dens)


class TestCRational:
    """The oracle scalar CQ: field operations, and equality with plain
    scalars."""

    @given(crationals, crationals)
    @settings(max_examples=100, deadline=None)
    def test_field_operations(self, x, y):
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) - y == x
        if not (y.re == 0 and y.im == 0):
            assert (x * y) / y == x

    @given(crationals)
    def test_conjugation_and_modulus(self, x):
        assert x.conj().conj() == x
        assert (x * x.conj()).re == x.abs2()
        assert (x * x.conj()).im == 0

    def test_mixed_scalar_arithmetic(self):
        z = CQ(Fraction(1, 2), Fraction(3, 4))
        assert z + 1 == CQ(Fraction(3, 2), Fraction(3, 4))
        assert 2 * z == CQ(1, Fraction(3, 2))
        assert z - Fraction(1, 2) == CQ(0, Fraction(3, 4))
        assert complex(z) == 0.5 + 0.75j

    def test_equality_with_plain_scalars(self):
        assert CQ(3, 0) == 3
        assert CQ(Fraction(1, 3), 0) == Fraction(1, 3)
        assert CQ(0, 1) != 1
        assert CQ(Fraction(1, 2), -3) != CQ(Fraction(1, 2), 3)
