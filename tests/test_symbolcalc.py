"""Tests for the symbol/Toeplitz calculus, the smoothing transform and
its eigenvalues, and the induced function-level channel operator."""

import random
from fractions import Fraction

import numpy as np
import pytest

from su2chan.exactnum import CRational, binomial, factorial
from su2chan.intertwine import ChannelSpec, apply_channel
from su2chan.quadrature import (
    QuadratureGrid,
    function_values,
    random_operator,
    random_band_limited_state,
)
from su2chan.repspace import (
    KernelOperator,
    compose,
    operator_trace,
    reproducing_identity_operator,
)
from su2chan.symbolcalc import (
    BandLimitExceededError,
    IsotypicFunction,
    SingularComponentError,
    berezin_apply,
    berezin_eigenvalue,
    e_eigenvalue_3f2,
    e_limit_apply,
    e_limit_coefficient,
    e_limit_eigenvalue,
    e_nu_apply,
    e_nu_coefficient,
    e_nu_coefficient_sum,
    e_nu_eigenvalue,
    functions_equal,
    integrate_exact,
    invariant_monomial_integral,
    inverse_berezin,
    symbol,
    toeplitz,
)

RNG_SEED = 4242


class TestSymbolToeplitz:

    def test_moment_integral_against_quadrature(self):
        grid = QuadratureGrid.for_degree(20)
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
        assert functions_equal(f, IsotypicFunction.constant(4, 1))

    def test_toeplitz_of_one_is_scaled_identity(self):
        # the compression map carries 1 to I/(nu + 1)
        for nu in (0, 2, 5):
            t = toeplitz(IsotypicFunction.constant(nu, 1), nu)
            assert t == reproducing_identity_operator(nu) \
                .scale(Fraction(1, nu + 1))

    def test_symbol_trace_identity(self):
        # integral of the symbol recovers the normalized trace, and equals
        # the moment sum over the numerator's diagonal
        rng = random.Random(RNG_SEED)
        for mu in range(5):
            a = random_operator(mu, rng)
            f = symbol(a)
            assert integrate_exact(f) == operator_trace(a) / Fraction(mu + 1)
            n = f.numerator().coeffs
            assert integrate_exact(f) == sum(
                n[i][i] * invariant_monomial_integral(i, mu)
                for i in range(mu + 1))

    def test_toeplitz_is_adjoint_of_symbol(self):
        # <T_f/(nu+1), A> = integral of f * conj(symbol(A))
        rng = random.Random(RNG_SEED)
        nu = 4
        a = random_operator(nu, rng)
        f, _ = _random_real_function(nu, rng)
        t = toeplitz(f, nu)
        lhs = operator_trace(compose(t, a.adjoint()))
        prod_vals = _pointwise_integral(f, symbol(a.adjoint()), nu)
        assert abs(complex(lhs) - prod_vals) < 1e-10

    def test_symbol_respects_adjoint(self):
        rng = random.Random(RNG_SEED)
        a = random_operator(3, rng)
        sa = symbol(a)
        sastar = symbol(a.adjoint())
        grid = QuadratureGrid.for_degree(8)
        va = function_values(sa, grid.points)
        vb = function_values(sastar, grid.points)
        assert np.max(np.abs(va - vb.conj())) < 1e-12


def _random_real_function(mu, rng):
    a, f = random_band_limited_state(mu, rng)
    return f, a


def _pointwise_integral(f, g, level):
    grid = QuadratureGrid.for_degree(4 * level + 4)
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
        rng = random.Random(RNG_SEED)
        for nu in (2, 4):
            f, _ = _random_real_function(nu, rng)
            lhs = berezin_apply(nu, f)
            rhs = symbol(toeplitz(f, nu))
            assert functions_equal(lhs, rhs)

    def test_inverse_round_trip(self):
        rng = random.Random(RNG_SEED)
        nu = 3
        f, a = _random_real_function(nu, rng)
        assert functions_equal(berezin_apply(nu, inverse_berezin(nu, f)), f)
        assert toeplitz(inverse_berezin(nu, symbol(a)), nu) == a

    def test_inverse_rejects_out_of_band_components(self):
        g = IsotypicFunction.constant(3, 1)
        with pytest.raises(SingularComponentError):
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
    coords = [list(row) for row in g.coords]
    coords[-1][-1] = coords[-1][-1] + 1
    return IsotypicFunction(g.level, coords)


def component_numerator_at_level(f, m, level):
    """Dense oracle: kernel coefficients of spin component m of f rewritten
    over (1 + |z|^2)^level, i.e. convolved with (1 + z z~)^(level - f.level)."""
    if level < f.level:
        raise BandLimitExceededError(
            f"cannot lower level {f.level} to {level}")
    d = level - f.level
    src = f.components[m].coeffs if m <= f.level else None
    out = [[CRational(0) for _ in range(level + 1)]
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
    num = [[CRational(0)] * (level + 1) for _ in range(level + 1)]
    for m in range(f.level + 1):
        part = component_numerator_at_level(f, m, level)
        num = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(num, part)]
    return symbol(KernelOperator.from_rows(level, num))


def _bumped(f, m, d):
    coords = [list(row) for row in f.coords]
    coords[m][m + d] = coords[m][m + d] + CRational(Fraction(1, 3), 1)
    return IsotypicFunction(f.level, coords)


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
