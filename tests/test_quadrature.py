"""Tests for invariant-measure quadrature, banded trace moments, the
exact kernel-integral bounds, and the convergence harness.  The numpy
routes in numpy_oracles.py are the oracles of the float layer."""

import cmath
import itertools
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from su2chan import quadrature
from su2chan.intertwine import ChannelSpec, apply_channel
from su2chan.quadrature import (
    _band_product,
    _full_band,
    _output_band,
    _trace_product,
    ENTROPY8,
    ConvergenceRecord,
    FloatRangeError,
    QuadratureGrid,
    channel_output_moments,
    functional_from_moments,
    fund_ineq_check,
    i_n_integral,
    input_band,
    limit_moments,
    random_band_limited_state,
    random_operator,
    random_psd_trace_one,
)
from su2chan.repspace import KernelOperator
from su2chan.symbolcalc import (
    IsotypicFunction,
    e_limit_apply,
    functions_equal,
    symbol,
)
from bignum_oracles import orthonormal_band, toeplitz
from numpy_oracles import (
    DenseGrid,
    assert_band_matches_dense,
    channel_output_spectrum,
    dense_orthonormal_matrix,
    function_values,
    limit_functional,
    limit_moment,
    symbol_values,
    trace_functional,
    trace_moment,
)
from test_exactnum import CQ, binomial
from test_repspace import (coeff_rows, kernel_from_rows,
                           reproducing_identity_operator, trace)
from test_symbolcalc import (berezin_apply, integral,
                             invariant_monomial_integral)

RNG_SEED = 9001


def i_n_enumerated(n, nu):
    """I_n at even nu = 2 kappa, n >= 2, by enumerating every chain of
    n-1 indices in 0..kappa: the oracle for the transfer-matrix sum."""
    kappa = nu // 2
    total = Fraction(0)
    for idx in itertools.product(range(kappa + 1), repeat=n - 1):
        v = Fraction(1)
        for i in idx:
            v *= binomial(kappa, i) ** 2
        v /= binomial(2 * kappa, idx[0]) * binomial(2 * kappa, idx[-1])
        for a, b in zip(idx, idx[1:]):
            v /= binomial(2 * kappa, a + b)
        total += v
    return total


def fraction_i_n_transfer(n, nu):
    """I_n by the transfer-matrix product in Fractions, term by term: the
    oracle for the package's integer weights over lcm^n."""
    if n == 1 or nu == 0:
        return Fraction(1)
    if nu % 2 == 1:
        return Fraction(nu + 1, nu) ** n * fraction_i_n_transfer(n, nu - 1)
    kappa = nu // 2
    sq = [binomial(kappa, a) ** 2 for a in range(kappa + 1)]
    c2 = [binomial(2 * kappa, s) for s in range(2 * kappa + 1)]
    v = [sq[a] / c2[a] for a in range(kappa + 1)]
    for _ in range(n - 2):
        v = [sq[b] * sum(v[a] / c2[a + b] for a in range(kappa + 1))
             for b in range(kappa + 1)]
    return sum(v[b] / c2[b] for b in range(kappa + 1))


def fraction_fund_sum(kappa, j):
    """sum_i C(kappa,i)/C(2kappa,i+j), one Fraction per term."""
    return sum((binomial(kappa, i) / binomial(2 * kappa, i + j)
                for i in range(kappa + 1)), Fraction(0))


def integrate_invariant(f, grid):
    """Quadrature of f against the invariant probability measure on the
    package's rule: its radial nodes and weights, and uniform angles."""
    n = grid.n_angular
    total = 0j
    for t, w in zip(*grid.radial()):
        r = math.sqrt(t / (1 - t))
        total += w * sum(f(r * cmath.exp(2j * math.pi * a / n))
                         for a in range(n)) / n
    return total


def crational_random_operator(mu, rng):
    """random_operator as it drew before it built the integer form: one
    complex rational of two Fractions per entry, over their common
    denominator."""
    def entry():
        return CQ(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                  Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return kernel_from_rows(
        mu, [[entry() for _ in range(mu + 1)] for _ in range(mu + 1)])


def all_powers_moments(spec, a, nmax):
    """channel_output_moments keeping every power T^p, p <= ceil(nmax/2):
    the same products and traces, in the same order."""
    band = _output_band(spec, a)
    dim = len(band[0])
    powers = [[[1.0 + 0j] * dim], band]
    while len(powers) <= (nmax + 1) // 2:
        powers.append(_band_product(_full_band(band), powers[-1], dim))
    return [_trace_product(powers[n // 2], powers[n - n // 2]) / dim
            for n in range(1, nmax + 1)]


def traced_peak(call):
    """The tracemalloc peak, in bytes, of one call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def chebyshev_entropy_fit(degree):
    """Power-basis coefficients of the Chebyshev least-squares fit of
    -x log x on [0, 1], 0 at x = 0, on 2048 equispaced points."""
    xs = np.linspace(0.0, 1.0, 2048)
    ys = np.where(xs > 0, -xs * np.log(np.maximum(xs, 1e-300)), 0.0)
    cheb = np.polynomial.chebyshev.Chebyshev.fit(xs, ys, degree,
                                                 domain=[0.0, 1.0])
    poly = cheb.convert(kind=np.polynomial.polynomial.Polynomial)
    return [float(c) for c in poly.coef]


def _evaluate(f, z):
    """Pointwise oracle: the numerator kernel of f summed term by term."""
    n = coeff_rows(f.numerator())
    return sum(complex(v) * z ** i * z.conjugate() ** j
               for i, row in enumerate(n) for j, v in enumerate(row)) \
        / (1 + abs(z) ** 2) ** f.level


class TestGrid:

    @pytest.mark.parametrize("degree", [0, 1, 6, 16])
    def test_for_degree_shape(self, degree):
        grid = QuadratureGrid.for_degree(degree)
        assert grid == (degree + 1, 2 * degree + 1)
        assert (grid.n_radial, grid.n_angular) == tuple(grid)
        assert grid.size == (degree + 1) * (2 * degree + 1)
        assert repr(grid) == (f"QuadratureGrid(n_radial={degree + 1}, "
                              f"n_angular={2 * degree + 1})")

    def test_total_mass_is_one(self):
        _, weights = QuadratureGrid.for_degree(6).radial()
        assert abs(math.fsum(weights) - 1.0) < 1e-15
        assert min(weights) > 0

    def test_gauss_legendre_matches_leggauss(self):
        # Newton's method on the recurrence against numpy's rule, mapped
        # to [0, 1], for every size up to 64.  Against a 50-digit rule the
        # nodes of both are within 1.1e-16, and the weights within 1.3e-13
        # (these) and 1.8e-12 (numpy's) relative
        for n in range(1, 65):
            nodes, weights = QuadratureGrid(n, 1).radial()
            x, w = np.polynomial.legendre.leggauss(n)
            assert np.max(np.abs(np.array(nodes) - (x + 1) / 2)) < 3e-16, n
            assert np.max(np.abs(np.array(weights) / (w / 2) - 1)) < 3e-12, n

    def test_moment_exactness(self):
        # the grid integrates |z|^(2a) (1+|z|^2)^(-L) exactly within its
        # design degree
        grid = QuadratureGrid.for_degree(16)
        for level in (4, 8):
            for a in range(level + 1):
                val = integrate_invariant(
                    lambda z: abs(z) ** (2 * a)
                    * (1 + abs(z) ** 2) ** (-level), grid)
                assert abs(val - float(invariant_monomial_integral(a, level))) \
                    < 1e-12

    def test_angular_moments_vanish(self):
        grid = QuadratureGrid.for_degree(5)
        val = integrate_invariant(lambda z: z * (1 + abs(z) ** 2) ** (-2),
                                  grid)
        assert abs(val) < 1e-13

    def test_one_leggauss_call_per_rule(self, monkeypatch):
        # the moments and the entropy functional of the README converge
        # example share one Gauss-Legendre rule, of degree 8 mu
        sizes = []
        radial = QuadratureGrid.radial

        def counted(grid):
            sizes.append(grid.n_radial)
            return radial(grid)

        monkeypatch.setattr(QuadratureGrid, "radial", counted)
        _, f = random_band_limited_state(3, random.Random(RNG_SEED))
        limit_moments(3, 1, f, len(ENTROPY8) - 1)
        assert sizes == [25]

    def test_symbol_values_match_pointwise_evaluation(self):
        rng = random.Random(RNG_SEED)
        a = random_operator(3, rng)
        f = symbol(a)
        zs = np.array([0.3 + 0.1j, -1.2j, 2.0 + 0.5j])
        fast = symbol_values(a, zs)
        slow = np.array([_evaluate(f, z) for z in zs])
        assert np.max(np.abs(fast - slow)) < 1e-12

    @pytest.mark.parametrize("mu", [50, 200])
    def test_limit_moments_finite_at_large_level(self, mu, monkeypatch):
        # the kernel (1 + x y~)^mu has symbol 1 everywhere, though its
        # coefficients reach C(mu, mu/2) and (1 + |z|^2)^mu overflows at
        # the nodes nearest t = 1; it stands in for E(f)
        kernel = SimpleNamespace(
            numerator=lambda: reproducing_identity_operator(mu))
        monkeypatch.setattr(quadrature, "e_limit_apply",
                            lambda mu, k, f: kernel)
        assert limit_moments(mu, 1, None, 2) == pytest.approx(
            [1.0, 1.0], rel=1e-12)

    def test_quadrature_recovers_exact_integral(self):
        rng = random.Random(RNG_SEED)
        a = random_operator(2, rng)
        f = symbol(a)
        num = integrate_invariant(lambda z: _evaluate(f, z),
                                  QuadratureGrid.for_degree(8))
        assert abs(num - complex(integral(f))) < 1e-12


class TestRandomStates:

    def test_psd_trace_one(self):
        rng = random.Random(RNG_SEED)
        for mu in (1, 2, 3):
            a = random_psd_trace_one(mu, rng)
            assert trace(a) == 1
            eigs = np.linalg.eigvalsh(dense_orthonormal_matrix(a))
            assert eigs.min() > -1e-12

    def test_band_limited_state_round_trip(self):
        rng = random.Random(RNG_SEED)
        a, f = random_band_limited_state(2, rng)
        assert functions_equal(berezin_apply(2, f), symbol(a))

    def test_random_operator_matches_crational_oracle(self):
        # the same operator from the same draws, and the generator left in
        # the same state
        for mu in range(7):
            for seed in range(100 * mu, 100 * mu + 20):
                rng, ref = random.Random(seed), random.Random(seed)
                assert random_operator(mu, rng) == \
                    crational_random_operator(mu, ref), (mu, seed)
                assert rng.getstate() == ref.getstate()


# (mu, nu, k): mu = 0, nu = mu, output level L = mu + nu - 2k below mu,
# and the benchmark's converge levels
MOMENT_SPECS = [(0, 0, 0), (0, 4, 0), (2, 2, 1), (3, 3, 3), (3, 4, 3),
                (4, 5, 4), (2, 9, 1), (3, 20, 1), (3, 40, 1), (3, 80, 1),
                (3, 160, 1)]


# (mu, nu, k) at the edge levels: mu = 0, nu = mu, k = 0 and k = mu, and
# output levels L = mu + nu - 2k below mu; then nu up to 640
BAND_SPECS = [(0, 0, 0), (0, 7, 0), (1, 1, 0), (1, 1, 1), (2, 2, 1),
              (3, 3, 0), (3, 3, 3), (3, 4, 3), (4, 5, 4), (4, 4, 2),
              (2, 9, 0), (2, 9, 2), (3, 20, 1), (3, 160, 0), (4, 160, 3),
              (3, 640, 0), (3, 640, 1), (3, 640, 3)]


class TestOutputBand:
    """The orthonormal band of the channel output from Clebsch-Gordan
    weights, against the big-integer route: the exact output of
    apply_channel read entry by entry."""

    def test_input_band_matches_dense(self):
        rng = random.Random(RNG_SEED)
        for mu in range(6):
            a, _ = random_band_limited_state(mu, rng)
            assert_band_matches_dense(a, input_band(a))

    @pytest.mark.parametrize("mu", [0, 1, 3, 30])
    def test_drawn_state_is_the_toeplitz_operator_of_its_function(self, mu):
        # the band of the drawn A, bit for bit the band of the operator
        # that the Toeplitz map rebuilds from A's function
        a, f = random_band_limited_state(mu, random.Random(RNG_SEED + mu))
        assert toeplitz(f, mu) == a
        assert input_band(a) == input_band(toeplitz(f, mu))

    @pytest.mark.parametrize("mu,nu,k", BAND_SPECS)
    def test_band_matches_the_bignum_route(self, mu, nu, k):
        # every entry within 1e-15 of the largest: an entry that is a sum
        # of terms of both signs keeps its absolute, not its relative,
        # roundoff
        spec = ChannelSpec(mu, nu, k)
        a, _ = random_band_limited_state(mu, random.Random(RNG_SEED + nu))
        want = orthonormal_band(apply_channel(spec, a))
        got = _output_band(spec, input_band(a))
        assert list(map(len, got)) == list(map(len, want))
        scale = max(abs(z) for diag in want for z in diag)
        assert max(abs(x - y) for u, v in zip(got, want)
                   for x, y in zip(u, v)) <= 1e-15 * scale

    def test_identity_at_a_large_input_level(self):
        # (mu, nu, k) = (200, 200, 100): the J table's d is about 1e104
        # and C(mu, i) reaches 9e58.  The identity's output is T(I) = I,
        # so every moment is 1
        moments = channel_output_moments(
            ChannelSpec(200, 200, 100),
            input_band(reproducing_identity_operator(200)), 3)
        assert max(abs(m - 1) for m in moments) < 1e-12

    @pytest.mark.parametrize("patch", ["scalar", "column"])
    def test_factors_past_the_float_range(self, monkeypatch, patch):
        # a scalar c^2 C(mu, i) past the float maximum, or a nonzero J/d
        # below the least normal float, is a FloatRangeError
        spec = ChannelSpec(2, 6, 1)
        if patch == "scalar":
            monkeypatch.setattr(quadrature, "c_squared",
                                lambda spec: Fraction(10 ** 400))
        else:
            d, rows = quadrature._jk_integers(spec)
            monkeypatch.setattr(quadrature, "_jk_integers",
                                lambda spec: (d * 10 ** 320, rows))
        with pytest.raises(FloatRangeError, match="exceed the float range"):
            _output_band(spec, [[1 + 0j] * 3])

    def test_input_level_check_at_the_float_range(self, monkeypatch):
        # C(1029, 514) is below the largest float and C(1030, 515) above
        # it; input_band checks the level before any float work
        assert math.comb(1029, 514) < sys.float_info.max \
            < math.comb(1030, 515)
        assert quadrature._check_input_level(1029) is None
        msg = "the input at level 1030 exceeds the float range"
        with pytest.raises(FloatRangeError, match=msg):
            quadrature._check_input_level(1030)

        def must_not_run(n):
            raise AssertionError("the band ran past the float range")

        zero = KernelOperator(1030, 1, [[0] * 1031], [[0] * 1031])
        monkeypatch.setattr(quadrature, "_binomial_row", must_not_run)
        with pytest.raises(FloatRangeError, match=msg):
            input_band(zero)

    def test_moment_memory_holds_no_bignum_output(self):
        # the big-integer route held the exact output, nu-bit integers on
        # 7 diagonals of 2560 cells: a 22.8 MB tracemalloc peak here, where
        # the weights take 1.9 MB
        spec = ChannelSpec(3, 2560, 1)
        state, _ = random_band_limited_state(3, random.Random(RNG_SEED))
        a = input_band(state)
        channel_output_moments(spec, a, 1)   # the J table, cached
        assert traced_peak(lambda: channel_output_moments(spec, a, 4)) < 6e6


class TestSpectralFunctionals:

    def test_channel_spectrum_in_unit_interval(self):
        # the exact argument of channel_output_moments, seen on spectra
        rng = random.Random(RNG_SEED)
        for nu in (6, 10):
            spec = ChannelSpec(2, nu, 1)
            _, f = random_band_limited_state(2, rng)
            lam = channel_output_spectrum(spec, f)
            assert lam.min() > -1e-10
            assert lam.max() < 1.0 + 1e-10

    @pytest.mark.parametrize("mu,nu,k", MOMENT_SPECS)
    def test_banded_moments_match_eigvalsh(self, mu, nu, k):
        spec = ChannelSpec(mu, nu, k)
        a, f = random_band_limited_state(mu, random.Random(RNG_SEED + nu))
        lam = channel_output_spectrum(spec, f)
        got = channel_output_moments(spec, input_band(a), 8)
        want = [trace_moment(lam, n) for n in range(1, 9)]
        assert np.max(np.abs(np.array(got) - want)) < 1e-12

    # mu = 0, nu = mu, and output levels L = mu + nu - 2k below mu
    @pytest.mark.parametrize("mu,nu,k", [(0, 0, 0), (0, 5, 0), (2, 2, 1),
                                         (3, 3, 0), (3, 3, 3), (3, 4, 3),
                                         (2, 9, 1)])
    @pytest.mark.parametrize("nmax", [1, 2, 7, 12])
    def test_two_powers_give_the_all_powers_moments(self, mu, nu, k, nmax):
        spec = ChannelSpec(mu, nu, k)
        state, _ = random_band_limited_state(
            mu, random.Random(RNG_SEED + nu))
        a = input_band(state)
        assert channel_output_moments(spec, a, nmax) == \
            all_powers_moments(spec, a, nmax)

    def test_moment_memory_does_not_grow_with_nmax(self):
        # T^p is dense from p = 21 at L = 21; keeping every power to
        # nmax/2 would hold about 4 dense powers at nmax = 48 and 28 at 96
        spec = ChannelSpec(1, 20, 0)
        state, _ = random_band_limited_state(1, random.Random(RNG_SEED))
        a = input_band(state)
        channel_output_moments(spec, a, 1)   # the exact caches, warm
        peaks = [traced_peak(lambda: channel_output_moments(spec, a, n))
                 for n in (48, 96)]
        assert peaks[1] < 1.5 * peaks[0], peaks

    def test_moments_reject_non_hermitian_input(self):
        a = random_operator(2, random.Random(RNG_SEED))
        with pytest.raises(ValueError):
            input_band(a)
        with pytest.raises(ValueError):
            limit_moments(2, 1, symbol(a), 2)

    def test_first_moment_identity(self):
        # (1/dim) Tr T(A) equals (1/(mu+1)) Tr A exactly in the limit too,
        # so the n = 1 moment gap must sit at float noise level
        rng = random.Random(RNG_SEED)
        spec = ChannelSpec(2, 8, 1)
        a, f = random_band_limited_state(2, rng)
        lhs = channel_output_moments(spec, input_band(a), 1)[0]
        rhs = limit_moments(2, 1, f, 1)[0]
        assert abs(lhs - rhs) < 1e-12

    def test_functional_with_polynomial_equals_moments(self):
        rng = random.Random(RNG_SEED)
        spec = ChannelSpec(2, 8, 0)
        a, f = random_band_limited_state(2, rng)
        # phi(x) = 2x^2 - x as coefficient list, and the entropy fit
        lam = channel_output_spectrum(spec, f)
        moments = channel_output_moments(spec, input_band(a), 8)
        for phi in ([0.0, -1.0, 2.0], list(ENTROPY8)):
            assert abs(functional_from_moments(phi, moments)
                       - trace_functional(lam, phi)) < 1e-12

    @pytest.mark.parametrize("mu,k", [(0, 0), (1, 1), (2, 1), (3, 0),
                                      (3, 1), (3, 3)])
    def test_limit_moments_match_one_rule_per_statistic(self, mu, k):
        # one factorised rule of degree 8 mu against the dense rules of
        # degree n mu and 8 mu, sampled through numpy
        _, f = random_band_limited_state(mu, random.Random(RNG_SEED + k))
        phi = list(ENTROPY8)
        got = limit_moments(mu, k, f, 8)
        want = [limit_moment(mu, k, f, n) for n in range(1, 9)]
        assert np.max(np.abs(np.array(got) - want)) < 1e-13
        assert abs(functional_from_moments(phi, got)
                   - limit_functional(mu, k, f, phi)) < 1e-12

    def test_limit_coefficients_past_the_float_range(self):
        # a kernel coefficient of E(f) past the float maximum, as at
        # mu >= 1030, is a FloatRangeError
        f = IsotypicFunction(1, 1, [[10 ** 400], [0, 0, 0]],
                             [[0], [0, 0, 0]])
        with pytest.raises(FloatRangeError, match="level 1 exceed"):
            limit_moments(1, 0, f, 1)

    def test_limit_samples_past_the_float_range(self, monkeypatch):
        # coefficients just inside the float range whose sum is not: the
        # limit kernel 1.7e308 (1 + x + y~ + x y~) sums to 3.4e308 at
        # t = 1/2, theta = 0
        c = int(1.7e308)
        big = symbol(KernelOperator(1, 1, [[c], [c, c], [c]],
                                    [[0], [0, 0], [0]]))
        monkeypatch.setattr(quadrature, "e_limit_apply", lambda mu, k, f: f)
        with pytest.raises(FloatRangeError,
                           match="limit integrand not finite on the grid"):
            limit_moments(1, 0, big, 1)

    def test_functionals_reject_values_outside_unit_interval(self):
        rng = random.Random(RNG_SEED)
        mu, k = 2, 1
        _, f = random_band_limited_state(mu, rng)
        # scale f by an integer so that E(f) exceeds 1 on the rule, or
        # by -1 so that it falls below 0
        grid = DenseGrid.for_degree(8 * mu)
        peak = np.max(np.real(function_values(e_limit_apply(mu, k, f),
                                              grid.points)))
        assert 0 < peak <= 1
        limit_moments(mu, k, f, 8)
        for factor in (int(2 / peak) + 1, -1):
            with pytest.raises(ValueError,
                               match=r"values \[.*\] exit \[0, 1\]"):
                limit_moments(mu, k, f.scale_components(
                    [factor] * (f.level + 1)), 8)


class TestKernelBounds:

    def test_small_cases(self):
        assert i_n_integral(1, 2) == 1
        assert i_n_integral(2, 2) == Fraction(5, 4)

    def test_bound_holds(self):
        for n in range(1, 5):
            for nu in range(0, 21, 2):
                assert i_n_integral(n, nu) <= 2 ** (2 * n)

    def test_trivial_cases_are_one(self):
        for nu in (0, 3, 10):
            assert i_n_integral(1, nu) == 1

    def test_odd_level_reduction(self):
        # odd levels are estimated through the even level below
        for n in (2, 3):
            for nu in (3, 7, 11):
                assert i_n_integral(n, nu) == \
                    Fraction(nu + 1, nu) ** n * i_n_integral(n, nu - 1)

    def test_transfer_matrix_equals_chain_enumeration(self):
        for n in range(2, 5):
            for nu in range(0, 13, 2):
                assert i_n_integral(n, nu) == i_n_enumerated(n, nu)

    def test_integer_transfer_matches_fraction_oracle(self):
        # even and odd levels, nu = 0 and the trivial n = 1
        for n in range(1, 7):
            for nu in range(0, 41):
                value = i_n_integral(n, nu)
                assert type(value) is Fraction
                assert value == fraction_i_n_transfer(n, nu), (n, nu)

    def test_odd_level_equals_scaled_chain_enumeration(self):
        for n in range(2, 5):
            for nu in range(1, 12, 2):
                assert i_n_integral(n, nu) == Fraction(nu + 1, nu) ** n \
                    * i_n_enumerated(n, nu - 1)

    def test_quadrature_oracle(self):
        # the exact combinatorial sum equals the chain integral
        # (nu+1)^n int |prod (1 + s_t conj(s_{t+1}))|^nu
        #              prod (1+|s_t|^2)^{-nu} d iota^n
        for nu in (2, 4):
            grid = DenseGrid.for_degree(6 * nu)
            zs, ws = grid.points, grid.weights
            ker = np.abs(1.0 + np.outer(zs, np.conj(zs))) ** nu
            wt = ws * (1.0 + np.abs(zs) ** 2) ** (-nu)
            val2 = (nu + 1) ** 2 * wt @ ker @ wt
            assert abs(val2 - float(i_n_integral(2, nu))) < 1e-9
            val3 = (nu + 1) ** 3 * wt @ (ker @ (wt * (ker @ wt)))
            assert abs(val3 - float(i_n_integral(3, nu))) < 1e-9

    def test_fund_ineq_identity_and_bound(self):
        for kappa in range(0, 16):
            for j in range(kappa + 1):
                rep = fund_ineq_check(kappa, j)
                assert rep["identity_holds"]
                assert rep["bound_holds"]

    def test_fund_ineq_matches_fraction_oracle(self):
        # kappa <= 40, the whole range of the exact-combinatorics workload
        for kappa in range(0, 41):
            for j in range(kappa + 1):
                rep = fund_ineq_check(kappa, j)
                total = fraction_fund_sum(kappa, j)
                closed = Fraction(2 * kappa + 1, kappa + 1) \
                    / binomial(kappa, j)
                bound = 2 / binomial(kappa, j)
                assert type(rep["sum"]) is Fraction
                assert type(rep["identity_value"]) is Fraction
                assert rep == {"kappa": kappa, "j": j, "sum": total,
                               "identity_value": closed,
                               "identity_holds": total == closed,
                               "bound_holds": total <= bound}, (kappa, j)
                assert total == closed and closed <= bound

    def test_fund_ineq_flags_follow_a_wrong_sum(self, monkeypatch):
        # a binomial row with one entry raised by 1: the integer verdicts
        # are those of the Fraction comparisons of the sum returned
        real = quadrature._binomial_row
        bounds = set()
        for kappa in range(13):
            for i in range(kappa + 1):
                row = list(real(kappa))
                row[i] += 1
                monkeypatch.setattr(quadrature, "_binomial_row",
                                    lambda n, row=tuple(row): row)
                for j in range(kappa + 1):
                    rep = fund_ineq_check(kappa, j)
                    assert not rep["identity_holds"]
                    assert rep["sum"] != rep["identity_value"]
                    assert rep["bound_holds"] == \
                        (rep["sum"] <= Fraction(2, binomial(kappa, j)))
                    bounds.add(rep["bound_holds"])
        assert bounds == {False, True}

    def test_fund_ineq_rejects_j_out_of_range(self):
        for kappa, j in ((0, 1), (3, -1), (3, 4)):
            with pytest.raises(ValueError):
                fund_ineq_check(kappa, j)


class TestConvergenceHarness:

    def test_strictly_decreasing_gaps_converge(self):
        rec = ConvergenceRecord(2, 1, [10, 20, 40], "n=2",
                                [1.4, 1.2, 1.05], 1.0)
        assert rec.gaps == pytest.approx([0.4, 0.2, 0.05])
        assert rec.converged

    def test_slow_decrease_fails(self):
        rec = ConvergenceRecord(2, 1, [10, 20, 40], "n=2",
                                [1.4, 1.39, 1.38], 1.0)
        assert not rec.converged

    def test_noise_floor_counts_as_converged(self):
        rec = ConvergenceRecord(2, 1, [10, 20, 40], "n=1",
                                [1.0 + 2e-16, 1.0 - 3e-16, 1.0 + 1e-16], 1.0)
        assert rec.converged

    def test_moment_convergence_run(self):
        rng = random.Random(RNG_SEED)
        state, f = random_band_limited_state(2, rng)
        a, nus = input_band(state), [8, 16, 32]
        rec = ConvergenceRecord(2, 1, nus, "n=2", [
            channel_output_moments(ChannelSpec(2, nu, 1), a, 2)[1]
            for nu in nus], limit_moments(2, 1, f, 2)[1])
        assert rec.converged
        assert rec.fitted_slope > 0.5

    def test_functional_convergence_run(self):
        rng = random.Random(RNG_SEED)
        state, f = random_band_limited_state(1, rng)
        a, nus, phi = input_band(state), [8, 16, 32, 64], list(ENTROPY8)
        rec = ConvergenceRecord(1, 1, nus, "phi=deg8", [
            functional_from_moments(
                phi, channel_output_moments(ChannelSpec(1, nu, 1), a, 8))
            for nu in nus], functional_from_moments(
                phi, limit_moments(1, 1, f, 8)))
        assert rec.converged

    def test_fitted_slope_matches_polyfit(self):
        rng = random.Random(RNG_SEED)
        for _ in range(20):
            nus = sorted(rng.sample(range(1, 5000), rng.randint(2, 6)))
            lhs = [1.0 + rng.uniform(1e-9, 1.0) for _ in nus]
            rec = ConvergenceRecord(3, 1, nus, "n=2", lhs, 1.0)
            want = -np.polyfit(np.log(nus), np.log(rec.gaps), 1)[0]
            assert rec.fitted_slope == pytest.approx(want, rel=1e-12,
                                                     abs=1e-12)

    def test_entropy_fit_accuracy(self):
        # ENTROPY8 is the degree-8 fit, up to the fit's LAPACK build; its
        # worst error on [0, 1] is its constant term, at x = 0
        assert len(ENTROPY8) == 9
        assert np.allclose(ENTROPY8, chebyshev_entropy_fit(8), rtol=1e-9,
                           atol=0)
        xs = np.linspace(0.0, 1.0, 20001)
        ref = -xs * np.log(np.maximum(xs, 1e-300))
        err = np.abs(np.polyval(ENTROPY8[::-1], xs) - ref)
        assert err.argmax() == 0 and err[0] == ENTROPY8[0]
        assert 0.0122 < err.max() < 0.01226

    def test_gaps_and_floor_set_at_construction(self):
        rec = ConvergenceRecord(2, 0, [10, 20], "n=3", [0.5, 0.25], 0.75)
        assert rec.gaps == [0.25, 0.5]
        # the floor is the constant GAP_FLOOR, not a parameter: a gap of
        # exactly 1e-12 is at it, the next float above is not
        assert quadrature.GAP_FLOOR == 1e-12 and not hasattr(rec, "floor")
        with pytest.raises(TypeError):
            ConvergenceRecord(2, 0, [10], "n=1", [1.0], 1.0, 0.5)
        at = ConvergenceRecord(2, 0, [10, 20], "n=1", [1e-12, 1e-12], 0.0)
        assert at.gaps == [1e-12, 1e-12]
        assert at.converged and at.fitted_slope is None
        above = math.nextafter(1e-12, 1.0)
        past = ConvergenceRecord(2, 0, [10, 20], "n=1", [above, above], 0.0)
        assert not past.converged and past.fitted_slope == 0.0

    def test_to_row_shape(self):
        rec = ConvergenceRecord(2, 0, [10, 20], "n=3", [0.5, 0.45], 0.4)
        row = rec.to_row()
        assert row["mu"] == 2 and row["k"] == 0 and row["label"] == "n=3"
        assert "converged" in row and "gaps" in row
