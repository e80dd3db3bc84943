"""The numpy routes of the float layer, kept as oracles for its stdlib
code: the dense orthonormal matrix of an operator and its eigvalsh
spectrum, moments and functionals of a spectrum, the product rule as
point and weight arrays from numpy's leggauss, symbol values on arrays
of points, and the limit integrals with one rule per statistic."""

import functools
import math

import numpy as np

from su2chan.intertwine import apply_channel
from su2chan.quadrature import QuadratureGrid
from su2chan.repspace import _rows
from su2chan.symbolcalc import e_limit_apply

from bignum_oracles import toeplitz


def coefficient_matrix(a):
    """The kernel coefficients as a complex matrix, each part an integer
    over a.d by true division, which rounds correctly."""
    return np.array([[complex(x / a.d, y / a.d) for x, y in zip(rr, ri)]
                     for rr, ri in zip(*_rows(a))])


def dense_orthonormal_matrix(a):
    """The matrix of the operator in the orthonormal basis z^i / ||z^i||:
    coefficient (i, j) times sqrt(g_i g_j), g_i = 1/C(level, i)."""
    s = np.sqrt(np.array([1 / math.comb(a.level, i)
                          for i in range(a.level + 1)]))
    return coefficient_matrix(a) * np.outer(s, s)


def assert_band_matches_dense(a, band):
    """The diagonals t >= 0 of ``band`` are those of a's dense orthonormal
    matrix, each entry within 1e-15 relative, zeros exactly; the dense
    diagonals past the band are zero."""
    m = dense_orthonormal_matrix(a)
    for t, diag in enumerate(band):
        want = np.diagonal(m, -t)
        assert np.all(np.abs(np.array(diag) - want) <= 1e-15 * np.abs(want))
    assert not np.any(np.tril(m, -len(band)))


class DenseGrid(QuadratureGrid):
    """The package's product rule as arrays, from numpy's leggauss."""

    @property
    def points(self):
        """Complex sample points, shape (n_radial * n_angular,)."""
        t, _ = self._radial
        r = np.sqrt(t / (1.0 - t))
        theta = 2.0 * np.pi * np.arange(self.n_angular) / self.n_angular
        return (r[:, None] * np.exp(1j * theta)[None, :]).ravel()

    @property
    def weights(self):
        """Positive weights summing to 1, matching :attr:`points`."""
        _, w = self._radial
        return np.repeat(w / self.n_angular, self.n_angular)

    @functools.cached_property
    def _radial(self):
        x, w = np.polynomial.legendre.leggauss(self.n_radial)
        return (x + 1.0) / 2.0, w / 2.0


def symbol_values(a, zs):
    """A(z, z) / (1 + |z|^2)^level on a 1-d array of points."""
    p = np.vander(zs, a.dim, increasing=True)
    return np.einsum("ai,ij,aj->a", p, coefficient_matrix(a), p.conj()) \
        / (1.0 + np.abs(zs) ** 2) ** a.level


def function_values(f, zs):
    return symbol_values(f.numerator(), zs)


def channel_output_spectrum(spec, f):
    """eigvalsh of the dense orthonormal matrix of T(R*_mu f)."""
    a = toeplitz(f, spec.mu)
    if not a.is_hermitian():
        raise ValueError("f must be real-valued (hermitian Toeplitz operator)")
    return np.linalg.eigvalsh(dense_orthonormal_matrix(apply_channel(spec, a)))


def trace_moment(lam, n):
    """(1/dim) Tr T^n from the spectrum."""
    return float(np.sum(lam ** n) / lam.size)


def trace_functional(lam, phi):
    """(1/dim) sum phi(lambda_i), phi ascending coefficients."""
    return float(np.sum(np.polynomial.polynomial.polyval(lam, phi))
                 / lam.size)


def limit_moment(mu, k, f, n):
    """Integral of E(f)^n on the rule of degree n mu alone."""
    grid = DenseGrid.for_degree(n * mu)
    vals = function_values(e_limit_apply(mu, k, f), grid.points)
    return float(np.real(np.sum(grid.weights * vals ** n)))


def limit_functional(mu, k, f, phi):
    """Integral of phi(E(f)) on the rule of degree max(1, deg phi mu)."""
    grid = DenseGrid.for_degree(max(1, (len(phi) - 1) * mu))
    vals = np.real(function_values(e_limit_apply(mu, k, f), grid.points))
    return float(np.sum(grid.weights
                        * np.polynomial.polynomial.polyval(vals, phi)))
