"""Tests for invariant-measure quadrature, spectral sampling, the exact
kernel-integral bounds, and the convergence harness."""

import itertools
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from su2chan import quadrature
from su2chan.intertwine import ChannelSpec
from su2chan.quadrature import (
    _fund_bound,
    ENTROPY8,
    ConvergenceRecord,
    NonFiniteSampleError,
    QuadratureGrid,
    SpectrumOutOfRangeError,
    channel_output_spectrum,
    function_values,
    fund_ineq_check,
    i_n_integral,
    limit_functional,
    limit_moment,
    random_band_limited_state,
    random_operator,
    random_psd_trace_one,
    symbol_values,
    trace_functional,
    trace_moment,
)
from su2chan.repspace import operator_trace
from su2chan.symbolcalc import (
    e_limit_apply,
    functions_equal,
    integrate_exact,
    symbol,
)
from test_exactnum import CQ, binomial
from test_repspace import (coeff_rows, kernel_from_rows,
                           reproducing_identity_operator)
from test_symbolcalc import berezin_apply, invariant_monomial_integral

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
    """Quadrature of f against the invariant probability measure."""
    vals = np.array([f(z) for z in grid.points])
    if not np.all(np.isfinite(vals)):
        raise NonFiniteSampleError("integrand not finite on the grid")
    return float(np.real(np.sum(grid.weights * vals)))


def crational_random_operator(mu, rng):
    """random_operator as it drew before it built the integer form: one
    complex rational of two Fractions per entry, over their common
    denominator."""
    def entry():
        return CQ(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                  Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return kernel_from_rows(
        mu, [[entry() for _ in range(mu + 1)] for _ in range(mu + 1)])


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

    def test_total_mass_is_one(self):
        grid = QuadratureGrid.for_degree(6)
        assert abs(np.sum(grid.weights) - 1.0) < 1e-13

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
        # example: five grids of five distinct radial sizes, read for both
        # points and weights
        phi = list(ENTROPY8)
        rng = random.Random(RNG_SEED)
        _, f = random_band_limited_state(3, rng)
        sizes = []
        leggauss = np.polynomial.legendre.leggauss

        def counted(n):
            sizes.append(n)
            return leggauss(n)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
        for n in (1, 2, 3, 4):
            limit_moment(3, 1, f, n)
        limit_functional(3, 1, f, phi)
        assert sorted(sizes) == [4, 7, 10, 13, 25]
        grid = QuadratureGrid.for_degree(6)
        for _ in range(2):
            assert grid.points.shape == grid.weights.shape == (7 * 13,)
        assert sorted(sizes) == [4, 7, 7, 10, 13, 25]

    def test_symbol_values_match_pointwise_evaluation(self):
        rng = random.Random(RNG_SEED)
        a = random_operator(3, rng)
        f = symbol(a)
        zs = np.array([0.3 + 0.1j, -1.2j, 2.0 + 0.5j])
        fast = symbol_values(a, zs)
        slow = np.array([_evaluate(f, z) for z in zs])
        assert np.max(np.abs(fast - slow)) < 1e-12

    def test_symbol_values_in_blocks_match_one_pass(self, monkeypatch):
        rng = random.Random(RNG_SEED)
        a = random_operator(3, rng)
        zs = QuadratureGrid.for_degree(6).points
        whole = symbol_values(a, zs)
        monkeypatch.setattr(quadrature, "VANDER_ENTRIES", 3 * a.dim)
        assert np.array_equal(symbol_values(a, zs), whole)

    @pytest.mark.parametrize("mu", [50, 200])
    def test_symbol_values_finite_far_out(self, mu):
        # the kernel (1 + x y~)^mu has symbol 1 everywhere, though z^mu
        # and (1 + |z|^2)^mu overflow at |z| = 1e6
        zs = np.array([1e6 + 0j, -1e6j, 3e3 + 4e3j, 0.5, 0j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = symbol_values(reproducing_identity_operator(mu), zs)
        assert np.max(np.abs(vals - 1)) < 1e-12

    def test_quadrature_recovers_exact_integral(self):
        rng = random.Random(RNG_SEED)
        a = random_operator(2, rng)
        grid = QuadratureGrid.for_degree(8)
        num = complex(np.sum(grid.weights * symbol_values(a, grid.points)))
        assert abs(num - complex(CQ.of(integrate_exact(symbol(a))))) < 1e-12


class TestRandomStates:

    def test_psd_trace_one(self):
        rng = random.Random(RNG_SEED)
        for mu in (1, 2, 3):
            a = random_psd_trace_one(mu, rng)
            assert operator_trace(a) == 1
            from su2chan.repspace import to_orthonormal_matrix
            eigs = np.linalg.eigvalsh(to_orthonormal_matrix(a))
            assert eigs.min() > -1e-12

    def test_band_limited_state_round_trip(self):
        rng = random.Random(RNG_SEED)
        a, f = random_band_limited_state(2, rng)
        assert functions_equal(berezin_apply(2, f), symbol(a))

    def test_random_operator_matches_crational_oracle(self):
        # the same operator from the same draws, and the generator left in
        # the same state
        for mu in range(7):
            for seed in (mu, 100 + mu):
                rng, ref = random.Random(seed), random.Random(seed)
                assert random_operator(mu, rng) == \
                    crational_random_operator(mu, ref), (mu, seed)
                assert rng.getstate() == ref.getstate()


class TestSpectralFunctionals:

    def test_channel_spectrum_in_unit_interval(self):
        rng = random.Random(RNG_SEED)
        for nu in (6, 10):
            spec = ChannelSpec(2, nu, 1)
            _, f = random_band_limited_state(2, rng)
            lam = channel_output_spectrum(spec, f)
            assert lam.min() > -1e-10
            assert lam.max() < 1.0 + 1e-10

    def test_first_moment_identity(self):
        # (1/dim) Tr T(A) equals (1/(mu+1)) Tr A exactly in the limit too,
        # so the n = 1 moment gap must sit at float noise level
        rng = random.Random(RNG_SEED)
        spec = ChannelSpec(2, 8, 1)
        _, f = random_band_limited_state(2, rng)
        lhs = trace_moment(channel_output_spectrum(spec, f), 1)
        rhs = limit_moment(2, 1, f, 1)
        assert abs(lhs - rhs) < 1e-12

    def test_functional_with_polynomial_equals_moments(self):
        rng = random.Random(RNG_SEED)
        spec = ChannelSpec(2, 8, 0)
        _, f = random_band_limited_state(2, rng)
        # phi(x) = 2x^2 - x as coefficient list
        lam = channel_output_spectrum(spec, f)
        val = trace_functional(lam, [0.0, -1.0, 2.0])
        mom = 2 * trace_moment(lam, 2) - trace_moment(lam, 1)
        assert abs(val - mom) < 1e-12

    def test_functionals_reject_values_outside_unit_interval(self):
        rng = random.Random(RNG_SEED)
        mu, k = 2, 1
        _, f = random_band_limited_state(mu, rng)
        phi = list(ENTROPY8)
        # scale f by an integer so that E(f) exceeds 1 on the default grid
        grid = QuadratureGrid.for_degree(8 * mu)
        peak = np.max(np.real(function_values(e_limit_apply(mu, k, f),
                                              grid.points)))
        assert 0 < peak <= 1
        limit_functional(mu, k, f, phi)
        with pytest.raises(SpectrumOutOfRangeError):
            limit_functional(mu, k, f.scale_components(
                [int(2 / peak) + 1] * (f.level + 1)), phi)
        with pytest.raises(SpectrumOutOfRangeError):
            trace_functional(np.array([0.5, 1.1]), phi)
        with pytest.raises(SpectrumOutOfRangeError):
            trace_functional(np.array([-0.1, 0.5]), phi)


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
            grid = QuadratureGrid.for_degree(6 * nu)
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
                assert _fund_bound(kappa, j) == bound, (kappa, j)

    def test_fund_ineq_shares_one_factorial_table(self, monkeypatch):
        # interleaved kappa, as in a shuffled sweep: every report matches
        # the oracle, and the table never outgrows the largest call's
        monkeypatch.setattr(quadrature, "_factorials", [1])
        grid = [(kappa, j) for kappa in range(13) for j in range(kappa + 1)]
        random.Random(RNG_SEED).shuffle(grid)
        largest = 0
        for kappa, j in grid:
            assert fund_ineq_check(kappa, j)["sum"] \
                == fraction_fund_sum(kappa, j), (kappa, j)
            largest = max(largest, kappa)
            table = quadrature._factorials
            assert len(table) == 2 * largest + 1
            assert table == [math.factorial(i) for i in range(len(table))]

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
        _, f = random_band_limited_state(2, rng)
        nus = [8, 16, 32]
        rec = ConvergenceRecord(2, 1, nus, "n=2", [
            trace_moment(channel_output_spectrum(ChannelSpec(2, nu, 1), f), 2)
            for nu in nus], limit_moment(2, 1, f, 2))
        assert rec.converged
        assert rec.fitted_slope > 0.5

    def test_functional_convergence_run(self):
        rng = random.Random(RNG_SEED)
        _, f = random_band_limited_state(1, rng)
        nus, phi = [8, 16, 32, 64], list(ENTROPY8)
        rec = ConvergenceRecord(1, 1, nus, "phi=deg8", [
            trace_functional(
                channel_output_spectrum(ChannelSpec(1, nu, 1), f), phi)
            for nu in nus], limit_functional(1, 1, f, phi))
        assert rec.converged

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

    def test_to_row_shape(self):
        rec = ConvergenceRecord(2, 0, [10, 20], "n=3", [0.5, 0.45], 0.4)
        row = rec.to_row()
        assert row["mu"] == 2 and row["k"] == 0 and row["label"] == "n=3"
        assert "converged" in row and "gaps" in row
