"""Tests for the symbol/Toeplitz calculus, the smoothing transform and
its eigenvalues, and the induced function-level channel operator."""

import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest

from su2chan.intertwine import ChannelSpec, apply_channel, c_squared
from su2chan.quadrature import random_operator, random_band_limited_state
from su2chan.repspace import (
    IsotypicDecomposition,
    KernelOperator,
    _common_denominator,
    _gram_integers,
    compose,
)
from su2chan.symbolcalc import (
    IsotypicFunction,
    berezin_eigenvalue,
    e_eigenvalue_3f2,
    e_limit_apply,
    e_limit_eigenvalue,
    e_nu_apply,
    e_nu_eigenvalue,
    functions_equal,
    inverse_berezin,
    symbol,
)
from bignum_oracles import toeplitz
from numpy_oracles import DenseGrid, function_values
from test_exactnum import CQ, binomial, factorial, hyp3f2_terminating
from test_repspace import (
    coeff_rows,
    coordinate_rows,
    crational_coordinates,
    kernel_from_rows,
    reproducing_identity_operator,
    trace,
)

RNG_SEED = 4242


def function_from_coords(level, coords):
    """The IsotypicFunction with the given scalar spin coordinates, rows
    m = 0..level of 2m+1, over their common denominator."""
    flat = [CQ.of(c) for row in coords for c in row]
    d, ints = _common_denominator([c.re for c in flat]
                                  + [c.im for c in flat])
    starts = [m * m for m in range(level + 2)]
    return IsotypicFunction(level, d, *(
        [ints[off + a:off + b] for a, b in zip(starts, starts[1:])]
        for off in (0, len(flat))))


def coords_of(f):
    """The spin coordinates of f as CQ rows."""
    return coordinate_rows(f.d, f.re, f.im)


def integral(f):
    """The integral of f against the invariant probability measure: its
    spin-0 coordinate (re[0][0] + i im[0][0]) / d, as spin m >= 1
    integrates to 0."""
    return CQ(Fraction(f.re[0][0], f.d), Fraction(f.im[0][0], f.d))


def constant_function(level, value):
    # (1 + x y~)^level is spin 0 with coordinate 1
    return function_from_coords(level, [[value]] + [
        [0] * (2 * m + 1) for m in range(1, level + 1)])


def invariant_monomial_integral(a, level):
    """Integral of |z|^(2a) / (1 + |z|^2)^level against the invariant
    probability measure: a! (level - a)! / (level + 1)!."""
    if a < 0 or a > level:
        raise ValueError(f"need 0 <= a <= {level}, got {a}")
    return Fraction(math.factorial(a) * math.factorial(level - a),
                    math.factorial(level + 1))


def berezin_apply(nu, f):
    """Scale component m by the Berezin eigenvalue at level nu."""
    if nu < f.level:
        raise ValueError(
            f"Berezin level {nu} below band limit {f.level}")
    return f.scale_components(
        [berezin_eigenvalue(nu, m) for m in range(f.level + 1)])


def moment_toeplitz(f, nu):
    """The oracle of toeplitz: (1/(nu+1)) T_f at level nu from the kernel
    integral of the compression of multiplication by f, through monomial
    orthogonality.  Every integral is the moment of |z|^(2t) against
    (1 + |z|^2)^(-total), 1 / ((total + 1) C(total, t)): the level-total
    Gram weights over their common denominator, times 1/(total + 1)."""
    if nu < f.level:
        raise ValueError(
            f"target level {nu} below band limit {f.level}")
    n = f.numerator()
    total = f.level + nu
    den, moment = _gram_integers(total)
    binom = [math.comb(nu, p) for p in range(nu + 1)]
    re, im = [], []
    for t, *diags in zip(range(-n.width, n.width + 1), n.re, n.im):
        # output cell (q + t, q) sums N's diagonal t, whose cell (i, i - t)
        # has moment index q + i, i from max(t, 0)
        i0, i1 = max(t, 0), max(t, 0) + len(diags[0])
        for out, x in zip((re, im), diags):
            out.append([binom[q + t] * binom[q] * sum(map(
                operator.mul, x, moment[q + i0:q + i1]))
                for q in range(max(0, -t), min(nu, nu - t) + 1)])
    return KernelOperator(nu, n.d * den * (total + 1), re, im)


# ---------------------------------------------------------------------------
# Fraction oracles: the scalar sums term by term, for the package's
# integer sums over one denominator.
# ---------------------------------------------------------------------------

def fraction_berezin_eigenvalue(nu, m):
    if m > nu:
        return Fraction(0)
    return Fraction(factorial(nu) ** 2,
                    factorial(nu + m + 1) * factorial(nu - m))


def e_nu_coefficient(spec, l):
    """Closed-form weight of B_{mu-l} in the Berezin-sum expansion:
    c^2 (-1)^(k-l) C(nu-k, k-l) (nu-k+l)! k! / (nu! l!)."""
    k, nu = spec.k, spec.nu
    if not 0 <= l <= k:
        raise IndexError(f"need 0 <= l <= {k}, got {l}")
    return (c_squared(spec) * Fraction(-1) ** (k - l) * binomial(nu - k, k - l)
            * factorial(nu - k + l) * factorial(k)
            / (factorial(nu) * factorial(l)))


def e_nu_coefficient_sum(spec, l):
    """Independent inner-sum form of e_nu_coefficient:
    c^2 sum_{i=l}^k C(k,i)^2 C(nu,k-i)^{-1} C(i,l) (-1)^(i-l)."""
    k, nu = spec.k, spec.nu
    if not 0 <= l <= k:
        raise IndexError(f"need 0 <= l <= {k}, got {l}")
    acc = Fraction(0)
    for i in range(l, k + 1):
        acc += (binomial(k, i) ** 2 / binomial(nu, k - i) * binomial(i, l)
                * Fraction(-1) ** (i - l))
    return c_squared(spec) * acc


def fraction_e_nu_eigenvalue(spec, m):
    return sum(e_nu_coefficient(spec, l)
               * fraction_berezin_eigenvalue(spec.mu - l, m)
               for l in range(spec.k + 1))


def e_limit_coefficient(mu, k, l):
    """Weight of B_{mu-l} in the limit operator: C(mu,k) (-1)^(k-l) C(k,l)."""
    return binomial(mu, k) * Fraction(-1) ** (k - l) * binomial(k, l)


def fraction_e_limit_eigenvalue(mu, k, m):
    return sum(e_limit_coefficient(mu, k, l)
               * fraction_berezin_eigenvalue(mu - l, m)
               for l in range(k + 1))


def fraction_e_eigenvalue_3f2(mu, k, m):
    if m > mu:
        return Fraction(0)
    hyp = hyp3f2_terminating(-k, -m - mu - 1, m - mu, -mu, -mu)
    return (Fraction(-1) ** k * binomial(mu, k)
            * Fraction(factorial(mu) ** 2,
                       factorial(mu - m) * factorial(mu + m + 1))
            * hyp)


def assert_same_fraction(got, want, case):
    assert type(got) is Fraction, case
    assert got == want, case


class TestSymbolToeplitz:

    def test_moment_integral_against_quadrature(self):
        grid = DenseGrid.for_degree(20)
        for level in range(0, 9):
            for a in range(level + 1):
                zs = grid.points
                vals = np.abs(zs) ** (2 * a) \
                    * (1.0 + np.abs(zs) ** 2) ** (-level)
                num = float(np.sum(grid.weights * vals))
                assert abs(num - float(invariant_monomial_integral(a, level))) \
                    < 1e-12

    def test_symbol_of_identity_is_one(self):
        f = symbol(reproducing_identity_operator(4))
        assert functions_equal(f, constant_function(4, 1))

    def test_toeplitz_of_one_is_scaled_identity(self):
        # the compression map carries 1 to I/(nu + 1)
        for nu in (0, 2, 5):
            t = toeplitz(constant_function(nu, 1), nu)
            assert t == reproducing_identity_operator(nu) \
                .scale(Fraction(1, nu + 1))

    def test_symbol_trace_identity(self):
        # integral of the symbol recovers the normalized trace, and equals
        # the moment sum over the numerator's diagonal
        rng = random.Random(RNG_SEED)
        for mu in range(5):
            a = random_operator(mu, rng)
            f = symbol(a)
            assert integral(f) == trace(a) / Fraction(mu + 1)
            n = coeff_rows(f.numerator())
            assert integral(f) == sum(
                n[i][i] * invariant_monomial_integral(i, mu)
                for i in range(mu + 1))

    def test_toeplitz_matches_moment_oracle(self):
        # mu = 0, nu = f.level and nu up to f.level + 5: real functions and
        # the complex symbols of random operators
        rng = random.Random(RNG_SEED)
        for mu in range(5):
            fs = [_random_real_function(mu, rng)[0],
                  symbol(random_operator(mu, rng))]
            for f in fs:
                assert f.level == mu
                for nu in range(mu, mu + 6):
                    t = toeplitz(f, nu)
                    assert t.level == nu
                    assert t == moment_toeplitz(f, nu), (mu, nu)

    def test_toeplitz_rejects_a_level_below_the_band(self):
        f = symbol(random_operator(3, random.Random(RNG_SEED)))
        with pytest.raises(ValueError,
                           match="target level 2 below band limit 3"):
            toeplitz(f, 2)

    def test_toeplitz_is_adjoint_of_symbol(self):
        # <T_f/(nu+1), A> = integral of f * conj(symbol(A))
        rng = random.Random(RNG_SEED)
        nu = 4
        a = random_operator(nu, rng)
        f, _ = _random_real_function(nu, rng)
        t = toeplitz(f, nu)
        lhs = trace(compose(t, a.adjoint()))
        prod_vals = _pointwise_integral(f, symbol(a.adjoint()), nu)
        assert abs(complex(lhs) - prod_vals) < 1e-10

    def test_symbol_respects_adjoint(self):
        rng = random.Random(RNG_SEED)
        a = random_operator(3, rng)
        sa = symbol(a)
        sastar = symbol(a.adjoint())
        grid = DenseGrid.for_degree(8)
        va = function_values(sa, grid.points)
        vb = function_values(sastar, grid.points)
        assert np.max(np.abs(va - vb.conj())) < 1e-12


def _random_real_function(mu, rng):
    a, f = random_band_limited_state(mu, rng)
    return f, a


def _pointwise_integral(f, g, level):
    grid = DenseGrid.for_degree(4 * level + 4)
    return complex(np.sum(grid.weights
                          * function_values(f, grid.points)
                          * function_values(g, grid.points)))


class TestBerezin:

    def test_eigenvalue_closed_form(self):
        for nu in range(0, 9):
            for m in range(0, nu + 1):
                expected = Fraction(factorial(nu) ** 2,
                                    factorial(nu + m + 1) * factorial(nu - m))
                assert berezin_eigenvalue(nu, m) == expected
        assert berezin_eigenvalue(3, 4) == 0

    def test_constant_eigenvalue(self):
        for nu in range(0, 8):
            assert berezin_eigenvalue(nu, 0) == Fraction(1, nu + 1)

    def test_transform_equals_symbol_of_toeplitz(self):
        # the Berezin identity against the moment route, which does not
        # scale coordinates
        rng = random.Random(RNG_SEED)
        for nu in (2, 4):
            f, _ = _random_real_function(nu, rng)
            lhs = berezin_apply(nu, f)
            rhs = symbol(moment_toeplitz(f, nu))
            assert functions_equal(lhs, rhs)

    def test_inverse_round_trip(self):
        rng = random.Random(RNG_SEED)
        nu = 3
        f, a = _random_real_function(nu, rng)
        assert functions_equal(berezin_apply(nu, inverse_berezin(nu, f)), f)
        assert toeplitz(inverse_berezin(nu, symbol(a)), nu) == a

    def test_inverse_rejects_out_of_band_components(self):
        g = constant_function(3, 1)
        with pytest.raises(ValueError, match="components above index 2 "
                           "have eigenvalue 0; cannot invert at band limit 3"):
            inverse_berezin(2, _lift_constant_with_top_component(g))

    def test_eigenvalue_decay_bound(self):
        # (nu + 1) lambda_m(nu) approaches 1 from below at rate m(m+1)/nu
        for nu in range(1, 40):
            for m in range(0, min(nu, 6) + 1):
                val = (nu + 1) * berezin_eigenvalue(nu, m)
                assert val <= 1
                assert 1 - val <= Fraction(m * (m + 1), nu)


def _lift_constant_with_top_component(g):
    # put mass on the top isotypic component so a lower-level inverse
    # must reject it
    coords = coords_of(g)
    coords[-1][-1] = coords[-1][-1] + 1
    return function_from_coords(g.level, coords)


def component_numerator_at_level(f, m, level):
    """Dense oracle: kernel coefficients of spin component m of f rewritten
    over (1 + |z|^2)^level, i.e. convolved with (1 + z z~)^(level - f.level)."""
    if level < f.level:
        raise ValueError(
            f"cannot lower level {f.level} to {level}")
    d = level - f.level
    src = coeff_rows(IsotypicDecomposition(f.level).project(m, f.numerator())) \
        if m <= f.level else None
    out = [[CQ(0) for _ in range(level + 1)]
           for _ in range(level + 1)]
    if src is None:
        return out
    for t in range(d + 1):
        w = binomial(d, t)
        for i in range(f.level + 1):
            for j in range(f.level + 1):
                if src[i][j]:
                    out[i + t][j + t] = out[i + t][j + t] + src[i][j] * w
    return out


def dense_functions_equal(f, g):
    """Oracle for functions_equal: lift every component to the higher level
    and compare the dense kernel matrices."""
    level = max(f.level, g.level)
    return all(component_numerator_at_level(f, m, level)
               == component_numerator_at_level(g, m, level)
               for m in range(level + 1))


def _lifted(f, level):
    # the same function written as a kernel at a higher level
    num = [[CQ(0)] * (level + 1) for _ in range(level + 1)]
    for m in range(f.level + 1):
        part = component_numerator_at_level(f, m, level)
        num = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(num, part)]
    return symbol(kernel_from_rows(level, num))


def _bumped(f, m, d):
    coords = coords_of(f)
    coords[m][m + d] = coords[m][m + d] + CQ(Fraction(1, 3), 1)
    return function_from_coords(f.level, coords)


def _assert_equality_agrees(f, g, expected):
    assert functions_equal(f, g) is expected
    assert functions_equal(g, f) is expected
    assert dense_functions_equal(f, g) is expected


class TestFunctionsEqual:

    def test_coordinates_equal_dense_lifting_across_levels(self):
        rng = random.Random(RNG_SEED)
        for mu in range(5):
            f = symbol(random_operator(mu, rng))
            for level in range(mu, mu + 4):
                g = _lifted(f, level)
                _assert_equality_agrees(f, g, True)
                _assert_equality_agrees(
                    f, symbol(random_operator(level, rng)), False)
                # the same numerators over another denominator
                for c in (2, Fraction(1, 2)):
                    _assert_equality_agrees(
                        f, g.scale_components([c] * (g.level + 1)), False)
                m = rng.randint(0, mu)
                _assert_equality_agrees(
                    f, _bumped(g, m, rng.randint(-m, m)), False)
                if level > mu:
                    m = rng.randint(mu + 1, level)
                    _assert_equality_agrees(
                        f, _bumped(g, m, rng.randint(-m, m)), False)

    @pytest.mark.parametrize("mu,nu,k", [
        (0, 0, 0), (1, 1, 1), (2, 2, 1), (2, 5, 2), (3, 3, 3), (3, 4, 3),
        (3, 6, 1)])
    def test_channel_outputs_at_edge_levels(self, mu, nu, k):
        # output level L = mu + nu - 2k may be below the input level mu
        rng = random.Random(RNG_SEED + 100 * mu + 10 * nu + k)
        spec = ChannelSpec(mu, nu, k)
        a = random_operator(mu, rng)
        lhs = e_nu_apply(spec, inverse_berezin(mu, symbol(a)))
        rhs = symbol(apply_channel(spec, a))
        _assert_equality_agrees(lhs, rhs, True)
        for f, g in ((lhs, rhs), (rhs, lhs)):
            m = rng.randint(0, f.level)
            _assert_equality_agrees(_bumped(f, m, rng.randint(-m, m)), g,
                                    False)
            if f.level > g.level:
                m = rng.randint(g.level + 1, f.level)
                _assert_equality_agrees(_bumped(f, m, rng.randint(-m, m)), g,
                                        False)


class TestFunctionChannel:

    def test_coefficient_closed_form_equals_sum(self):
        for mu in range(0, 4):
            for nu in range(mu, 8):
                for k in range(mu + 1):
                    spec = ChannelSpec(mu, nu, k)
                    for l in range(k + 1):
                        assert e_nu_coefficient(spec, l) == \
                            e_nu_coefficient_sum(spec, l)

    def test_eigenvalue_matches_fraction_oracle(self):
        # the weights' factorials cancelled against the oracle's whole
        # nu!, k!, (nu-k+l)! and l!, at every mu <= 6 and nu < 40 and at
        # one larger nu; nu = mu and output levels L = mu + nu - 2k below
        # mu included
        below = 0
        for mu in range(0, 7):
            for nu in [*range(mu, 40), 4099]:
                for k in range(mu + 1):
                    spec = ChannelSpec(mu, nu, k)
                    below += spec.target_level < mu
                    for m in range(mu + 4):
                        assert_same_fraction(
                            e_nu_eigenvalue(spec, m),
                            fraction_e_nu_eigenvalue(spec, m), (spec, m))
        assert below > 0

    def test_symbol_intertwines_channel(self):
        # the central identity: E^nu applied to f equals the symbol of
        # the channel output of the operator with symbol transform f
        rng = random.Random(RNG_SEED)
        for mu in range(0, 3):
            for nu in range(mu, mu + 4):
                for k in range(mu + 1):
                    spec = ChannelSpec(mu, nu, k)
                    a = random_operator(mu, rng)
                    f = inverse_berezin(mu, symbol(a))
                    assert functions_equal(
                        e_nu_apply(spec, f),
                        symbol(apply_channel(spec, a)))

    def test_finite_eigenvalues_converge_to_limit(self):
        for (mu, k, m) in [(3, 1, 2), (2, 2, 1), (3, 3, 3)]:
            gaps = []
            for nu in (10, 20, 40, 80):
                spec = ChannelSpec(mu, nu, k)
                gaps.append(abs(e_nu_eigenvalue(spec, m)
                                - e_limit_eigenvalue(mu, k, m)))
            assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))

    def test_limit_is_the_leading_coefficient(self):
        # N(nu) = e_nu(m) perm(L+k+1, k) (mu+m+1)! (mu-m)! is an integer
        # polynomial of degree k in nu, and perm(L+k+1, k) is monic of
        # degree k: so its k-th difference, constant, is k! times the
        # limit over the same denominator, the operator limit exactly.
        # mu = 0, k = 0, k = mu, L < mu (nu = mu < 2k) and m > mu included
        for mu in range(7):
            for k in range(mu + 1):
                for m in range(mu + 2):
                    den = (math.factorial(mu + m + 1) * math.factorial(mu - m)
                           if m <= mu else 1)
                    diffs = []
                    for nu in range(mu, mu + k + 2):
                        n = e_nu_eigenvalue(ChannelSpec(mu, nu, k), m) \
                            * math.perm(nu + mu - k + 1, k) * den
                        assert n.denominator == 1, (mu, k, m, nu)
                        diffs.append(n.numerator)
                    for _ in range(k):
                        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
                    leading = math.factorial(k) * den \
                        * e_limit_eigenvalue(mu, k, m)
                    assert diffs == [leading, leading], (mu, k, m)

    def test_finite_coefficients_converge_to_limit_weights(self):
        mu, k = 3, 2
        for l in range(k + 1):
            gaps = [abs(e_nu_coefficient(ChannelSpec(mu, nu, k), l)
                        - e_limit_coefficient(mu, k, l))
                    for nu in (10, 20, 40, 80)]
            assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))


class TestLimitEigenvalues:

    def test_3f2_equals_direct_sum(self):
        for mu in range(0, 7):
            for k in range(mu + 1):
                for m in range(mu + 1):
                    assert e_eigenvalue_3f2(mu, k, m) == \
                        e_limit_eigenvalue(mu, k, m)

    def test_vanishing_above_band_limit(self):
        for mu in range(0, 5):
            for k in range(mu + 1):
                for m in range(mu + 1, mu + 4):
                    assert e_eigenvalue_3f2(mu, k, m) == 0
                    assert e_limit_eigenvalue(mu, k, m) == 0
                    for nu in (mu, mu + 3):
                        assert e_nu_eigenvalue(ChannelSpec(mu, nu, k), m) == 0

    def test_constant_eigenvalue(self):
        for mu in range(0, 6):
            for k in range(mu + 1):
                assert e_eigenvalue_3f2(mu, k, 0) == Fraction(1, mu + 1)

    def test_k_zero_column_is_berezin(self):
        for mu in range(0, 7):
            for m in range(mu + 1):
                assert e_eigenvalue_3f2(mu, 0, m) == berezin_eigenvalue(mu, m)

    def test_limit_apply_is_diagonal(self):
        rng = random.Random(RNG_SEED)
        mu, k = 3, 2
        f, _ = _random_real_function(mu, rng)
        out = e_limit_apply(mu, k, f)
        expected = f.scale_components(
            [e_eigenvalue_3f2(mu, k, m) for m in range(mu + 1)])
        assert functions_equal(out, expected)

    def test_integer_sums_match_fraction_oracles(self):
        # mu = 0, k = mu and m > mu included
        for mu in range(0, 9):
            for k in range(mu + 1):
                for m in range(mu + 4):
                    case = (mu, k, m)
                    assert_same_fraction(e_limit_eigenvalue(mu, k, m),
                                         fraction_e_limit_eigenvalue(*case),
                                         case)
                    assert_same_fraction(e_eigenvalue_3f2(mu, k, m),
                                         fraction_e_eigenvalue_3f2(*case),
                                         case)
                    assert_same_fraction(berezin_eigenvalue(mu, m),
                                         fraction_berezin_eigenvalue(mu, m),
                                         case)

    def test_negative_component_index_raises(self):
        spec = ChannelSpec(2, 4, 1)
        for call in (lambda: berezin_eigenvalue(3, -1),
                     lambda: e_limit_eigenvalue(3, 1, -1),
                     lambda: e_eigenvalue_3f2(3, 1, -1),
                     lambda: e_nu_eigenvalue(spec, -1)):
            with pytest.raises(ValueError):
                call()


def crational_scale_components(coords, factors):
    """scale_components as it ran on complex-rational coordinates: each
    coordinate times its component's factor."""
    return [[c * v for c in row] for row, v in zip(coords, factors)]


def assert_lowest_terms(f):
    assert f.d > 0
    assert math.gcd(f.d, *(x for row in f.re + f.im for x in row)) == 1
    assert all(type(row) is tuple for row in f.re + f.im)


class TestIntegerCoordinatesAgainstCRationalRoute:
    """The integer coordinates over one denominator equal the
    complex-rational route they replaced: one CQ per coordinate, summed
    over each (m, d)'s own dual denominator, and scaled coordinate by
    coordinate."""

    def test_random_operators_every_level_to_20(self):
        rng = random.Random(RNG_SEED)
        for level in range(21):
            for _ in range(2):
                a = random_operator(level, rng)
                f = symbol(a)
                assert_lowest_terms(f)
                assert coords_of(f) == crational_coordinates(a), level
                assert f.numerator() == a

    def test_zero_operator(self):
        for level in range(21):
            zero = reproducing_identity_operator(level).scale(0)
            f = symbol(zero)
            assert (f.d, f.re, f.im) == (1, *(
                tuple((0,) * (2 * m + 1) for m in range(level + 1)),) * 2)
            assert coords_of(f) == crational_coordinates(zero)
            assert functions_equal(f, constant_function(0, 0))
            assert integral(f) == 0

    def test_scale_components_matches_coordinatewise_products(self):
        rng = random.Random(RNG_SEED)
        for level in range(0, 21, 4):
            f = symbol(random_operator(level, rng))
            factors = [Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                       for _ in range(level + 1)]
            g = f.scale_components(factors)
            assert_lowest_terms(g)
            assert coords_of(g) == crational_scale_components(coords_of(f),
                                                              factors)

    # mu = 0, nu = mu, and output levels L = mu + nu - 2k below mu
    @pytest.mark.parametrize("mu,nu,k", [
        (0, 0, 0), (0, 9, 0), (1, 1, 1), (3, 3, 0), (3, 3, 2), (3, 4, 3),
        (6, 6, 5), (6, 14, 6), (8, 12, 4)])
    def test_channel_outputs_at_edge_levels(self, mu, nu, k):
        rng = random.Random(RNG_SEED + 100 * mu + 10 * nu + k)
        spec = ChannelSpec(mu, nu, k)
        a = random_operator(mu, rng)
        out = apply_channel(spec, a)
        rhs = symbol(out)
        assert coords_of(rhs) == crational_coordinates(out)
        # the Berezin-sum side, scaled coordinate by coordinate
        coords = crational_scale_components(
            crational_coordinates(a),
            [1 / berezin_eigenvalue(mu, m) for m in range(mu + 1)])
        coords = crational_scale_components(
            coords, [e_nu_eigenvalue(spec, m) for m in range(mu + 1)])
        lhs = e_nu_apply(spec, inverse_berezin(mu, symbol(a)))
        assert_lowest_terms(lhs)
        assert coords_of(lhs) == coords
        assert functions_equal(lhs, rhs)
