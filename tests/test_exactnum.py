"""Tests for exact rational/complex-rational arithmetic and terminating
hypergeometric sums."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su2chan.exactnum import (
    CRational,
    NonTerminatingError,
    binomial,
    factorial,
    falling_pochhammer,
    hyp2f1_terminating,
    hyp3f2_terminating,
    rising_pochhammer,
)

rationals = st.builds(
    Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**3))
crationals = st.builds(CRational, rationals, rationals)


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


def outcome(fn, *args):
    """The value of fn(*args), or ZeroDivisionError if it raises one."""
    try:
        return fn(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


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
        # 2F1(-2, 1/2; 3/2; 1) = 1 - 2*(1/2)/(3/2) + (1/2)(3/2)/((3/2)(5/2))/2 * 2
        val = hyp2f1_terminating(2, Fraction(1, 2), Fraction(3, 2))
        expected = 1 - Fraction(2, 1) * Fraction(1, 2) / Fraction(3, 2) \
            + Fraction(2 * 1, 2) * (Fraction(1, 2) * Fraction(3, 2)) \
            / (Fraction(3, 2) * Fraction(5, 2))
        assert val == expected

    def test_3f2_terminates_on_first_negative_parameter(self):
        # a1 = -1 truncates after two terms
        val = hyp3f2_terminating(-1, 4, 5, 2, 3)
        assert val == 1 + Fraction(-1 * 4 * 5, 2 * 3)

    def test_3f2_unit_value_when_numerator_zero(self):
        assert hyp3f2_terminating(0, 7, -3, 2, 2) == 1

    def test_3f2_nonterminating_raises(self):
        with pytest.raises(NonTerminatingError):
            hyp3f2_terminating(Fraction(1, 2), 1, 1, 3, 3)

    def test_2f1_negative_n_raises(self):
        with pytest.raises(ValueError):
            hyp2f1_terminating(-1, 1, 1)


class TestKernelAgainstFractionOracle:
    """The integer Horner kernel equals the term-by-term Fraction series
    bit for bit, and raises ZeroDivisionError on the same inputs."""

    def test_2f1_integer_grid(self):
        for n in range(13):
            for b in range(-12, 13):
                for c in range(-20, 21):
                    assert outcome(hyp2f1_terminating, n, b, c) \
                        == outcome(fraction_2f1, n, b, c), (n, b, c)

    def test_2f1_rational_parameters(self):
        values = [Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3),
                  Fraction(-7, 2), -3, 0, 2]
        for n in range(13):
            for b, c in itertools.product(values, repeat=2):
                assert outcome(hyp2f1_terminating, n, b, c) \
                    == outcome(fraction_2f1, n, b, c), (n, b, c)

    def test_3f2_eigenvalue_parameters(self):
        # the parameter sets of symbolcalc.e_eigenvalue_3f2 for mu <= 8
        for mu in range(9):
            for k in range(mu + 1):
                for m in range(mu + 1):
                    args = (-k, -m - mu - 1, m - mu, -mu, -mu)
                    assert hyp3f2_terminating(*args) == fraction_3f2(*args)

    def test_3f2_mixed_grid(self):
        for args in itertools.product(
                range(-4, 1), [-2, 1, Fraction(1, 2), 3],
                [-3, 2, Fraction(-5, 3)], [-3, -2, -1, 0, 1, 2, Fraction(3, 2)],
                [-1, 1, Fraction(7, 4)]):
            assert outcome(hyp3f2_terminating, *args) \
                == outcome(fraction_3f2, *args), args

    @pytest.mark.parametrize("n,b", [(5, 3), (5, -2), (4, Fraction(1, 2)),
                                     (7, -7), (1, 9)])
    def test_zero_denominator_edges(self, n, b):
        # the series stops at m = min(n, -b); c = 0, -1, ..., -(m - 1)
        # divides a nonzero term by zero, c = -m and below do not
        m = min(n, -b) if b <= 0 and Fraction(b).denominator == 1 else n
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


class TestCRational:

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
        z = CRational(Fraction(1, 2), Fraction(3, 4))
        assert z + 1 == CRational(Fraction(3, 2), Fraction(3, 4))
        assert 2 * z == CRational(1, Fraction(3, 2))
        assert z - Fraction(1, 2) == CRational(0, Fraction(3, 4))
        assert complex(z) == 0.5 + 0.75j

    def test_equality_with_plain_scalars(self):
        assert CRational(3, 0) == 3
        assert CRational(Fraction(1, 3), 0) == Fraction(1, 3)
        assert CRational(0, 1) != 1
