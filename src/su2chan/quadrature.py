"""Numerical integration over the projective line and the trace-limit
convergence experiments.

The invariant probability measure becomes uniform on [0,1] x [0,2pi)
under t = r^2/(1+r^2), so a Gauss-Legendre rule in t crossed with a
uniform angular rule integrates band-limited functions of known degree
exactly (up to float roundoff).  Channel outputs themselves are computed
exactly and only diagonalized in floats.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .exactnum import CRational, binomial
from .intertwine import ChannelSpec, apply_channel
from .repspace import (
    KernelOperator,
    compose,
    operator_trace,
    to_orthonormal_matrix,
)
from .symbolcalc import (
    IsotypicFunction,
    e_limit_apply,
    inverse_berezin,
    symbol,
    toeplitz,
)


class NonFiniteSampleError(ValueError):
    pass


class SpectrumOutOfRangeError(ValueError):
    pass


@dataclass(frozen=True)
class QuadratureGrid:
    """Product rule: Gauss-Legendre in t = r^2/(1+r^2), uniform in angle."""

    n_radial: int
    n_angular: int

    @classmethod
    def for_degree(cls, degree: int) -> "QuadratureGrid":
        """Rule exact for symbols of level <= degree."""
        return cls(n_radial=degree + 1, n_angular=2 * degree + 1)

    @property
    def points(self) -> np.ndarray:
        """Complex sample points, shape (n_radial * n_angular,)."""
        t, _ = self._radial()
        r = np.sqrt(t / (1.0 - t))
        theta = 2.0 * np.pi * np.arange(self.n_angular) / self.n_angular
        return (r[:, None] * np.exp(1j * theta)[None, :]).ravel()

    @property
    def weights(self) -> np.ndarray:
        """Positive weights summing to 1, matching :attr:`points`."""
        _, w = self._radial()
        return np.repeat(w / self.n_angular, self.n_angular)

    def _radial(self) -> Tuple[np.ndarray, np.ndarray]:
        x, w = np.polynomial.legendre.leggauss(self.n_radial)
        return (x + 1.0) / 2.0, w / 2.0


def integrate_invariant(f: Callable[[complex], complex],
                        grid: QuadratureGrid) -> float:
    """Quadrature of f against the invariant probability measure."""
    vals = np.array([f(z) for z in grid.points])
    if not np.all(np.isfinite(vals)):
        raise NonFiniteSampleError("integrand not finite on the grid")
    return float(np.real(np.sum(grid.weights * vals)))


def symbol_values(a: KernelOperator, zs: np.ndarray) -> np.ndarray:
    """Values of A(z, z)/(1 + |z|^2)^level on an array of points.

    Avoids the isotypic split, so it stays cheap at large levels.
    """
    p = np.vander(zs, a.dim, increasing=True)
    num = np.einsum("ai,ij,aj->a", p, a.complex_matrix(), p.conj())
    return num / (1.0 + np.abs(zs) ** 2) ** a.level


def function_values(f: IsotypicFunction, zs: np.ndarray) -> np.ndarray:
    return symbol_values(f.numerator(), zs)


# ---------------------------------------------------------------------------
# Random band-limited test inputs
# ---------------------------------------------------------------------------

def random_operator(mu: int, rng: random.Random,
                    span: int = 3) -> KernelOperator:
    """Kernel operator with small random rational entries."""
    def entry():
        return CRational(Fraction(rng.randint(-span, span), rng.randint(1, 2)),
                         Fraction(rng.randint(-span, span), rng.randint(1, 2)))
    return KernelOperator.from_rows(
        mu, [[entry() for _ in range(mu + 1)] for _ in range(mu + 1)])


def random_psd_trace_one(mu: int, rng: random.Random) -> KernelOperator:
    """A = B*B normalized to unit trace: PSD, hermitian, trace 1, exact."""
    while True:
        b = random_operator(mu, rng)
        a = compose(b.adjoint(), b)
        tr = operator_trace(a)
        if tr.re > 0:
            return a.scale(1 / tr.re)


def random_band_limited_state(mu: int, rng: random.Random) \
        -> Tuple[KernelOperator, IsotypicFunction]:
    """PSD trace-1 operator A and the f with toeplitz(f, mu) = A."""
    a = random_psd_trace_one(mu, rng)
    f = inverse_berezin(mu, symbol(a))
    return a, f


# ---------------------------------------------------------------------------
# Trace moments and functional calculus
# ---------------------------------------------------------------------------

def channel_output_spectrum(spec: ChannelSpec, f: IsotypicFunction) \
        -> np.ndarray:
    """Real spectrum of T(R*_mu f), computed from the exact channel output."""
    a = toeplitz(f, spec.mu)
    if not a.is_hermitian():
        raise ValueError("f must be real-valued (hermitian Toeplitz operator)")
    out = apply_channel(spec, a)
    m = to_orthonormal_matrix(out)
    return np.linalg.eigvalsh(m)


def trace_moment(spec: ChannelSpec, f: IsotypicFunction, n: int,
                 eigenvalues: Optional[np.ndarray] = None) -> float:
    """(1/dim) Tr(T(R*_mu f)^n), dimension-normalized."""
    if n < 1:
        raise ValueError(f"moment order must be >= 1, got {n}")
    lam = channel_output_spectrum(spec, f) if eigenvalues is None \
        else eigenvalues
    return float(np.sum(lam ** n) / (spec.target_level + 1))


def limit_moment(mu: int, k: int, f: IsotypicFunction, n: int,
                 grid: Optional[QuadratureGrid] = None) -> float:
    """Integral of the n-th power of the limit-operator image of f."""
    if grid is None:
        grid = QuadratureGrid.for_degree(n * mu)
    e = e_limit_apply(mu, k, f)
    vals = function_values(e, grid.points)
    if not np.all(np.isfinite(vals)):
        raise NonFiniteSampleError("limit integrand not finite on the grid")
    return float(np.real(np.sum(grid.weights * vals ** n)))


def _as_callable(phi) -> Callable[[np.ndarray], np.ndarray]:
    if callable(phi):
        return phi
    coeffs = np.asarray([float(c) for c in phi])
    return lambda x: np.polynomial.polynomial.polyval(x, coeffs)


def _unit_interval(vals: np.ndarray) -> np.ndarray:
    """Values clamped to [0, 1]; anything beyond 1e-8 outside is an error
    (the hypothesis R*_mu f >= 0, trace 1 forces spectrum and limit
    function into [0, 1])."""
    if vals.min() < -1e-8 or vals.max() > 1 + 1e-8:
        raise SpectrumOutOfRangeError(
            f"values [{vals.min()}, {vals.max()}] exit [0, 1]")
    return np.clip(vals, 0.0, 1.0)


def trace_functional(spec: ChannelSpec, f: IsotypicFunction, phi,
                     eigenvalues: Optional[np.ndarray] = None) -> float:
    """(1/dim) sum phi(lambda_i) over the channel output spectrum,
    range-checked by :func:`_unit_interval`."""
    lam = channel_output_spectrum(spec, f) if eigenvalues is None \
        else eigenvalues
    phif = _as_callable(phi)
    return float(np.sum(phif(_unit_interval(lam))) / (spec.target_level + 1))


def limit_functional(mu: int, k: int, f: IsotypicFunction, phi,
                     grid: Optional[QuadratureGrid] = None) -> float:
    """Integral of phi(E(f)) against the invariant measure, with E(f)
    range-checked on the grid by :func:`_unit_interval`.

    The default grid is exact for polynomial coefficients ``phi`` of
    degree len(phi) - 1; a callable phi needs an explicit grid.
    """
    if grid is None:
        grid = QuadratureGrid.for_degree(max(1, (len(phi) - 1) * mu))
    e = e_limit_apply(mu, k, f)
    vals = np.real(function_values(e, grid.points))
    phif = _as_callable(phi)
    return float(np.sum(grid.weights * phif(_unit_interval(vals))))


# ---------------------------------------------------------------------------
# Combinatorial bounds
# ---------------------------------------------------------------------------

def i_n_integral(n: int, nu: int) -> Fraction:
    """The chained-kernel integral I_n at level nu.

    Even nu = 2 kappa: the exact sum over chains of n-1 indices
    0..kappa, summed as a product of (kappa+1)-square transfer matrices
    in O(n kappa^2).  Odd nu: the comparison bound
    ((nu+1)/nu)^n I_n(nu-1), an upper estimate.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if nu < 0:
        raise ValueError(f"need nu >= 0, got {nu}")
    if n == 1:
        return Fraction(1)
    if nu == 0:
        return Fraction(1)
    if nu % 2 == 1:
        return Fraction(nu + 1, nu) ** n * i_n_integral(n, nu - 1)
    kappa = nu // 2
    sq = [binomial(kappa, a) ** 2 for a in range(kappa + 1)]
    c2 = [binomial(2 * kappa, s) for s in range(2 * kappa + 1)]
    v = [sq[a] / c2[a] for a in range(kappa + 1)]
    for _ in range(n - 2):
        v = [sq[b] * sum(v[a] / c2[a + b] for a in range(kappa + 1))
             for b in range(kappa + 1)]
    return sum(v[b] / c2[b] for b in range(kappa + 1))


def fund_ineq_check(kappa: int, j: int) -> dict:
    """Exact check of sum_i C(kappa,i)/C(2kappa,i+j) against its closed
    form (2kappa+1)/(kappa+1) / C(kappa,j) and the bound 2/C(kappa,j)."""
    if not 0 <= j <= kappa:
        raise ValueError(f"need 0 <= j <= kappa, got j={j}, kappa={kappa}")
    s = sum((binomial(kappa, i) / binomial(2 * kappa, i + j)
             for i in range(kappa + 1)), Fraction(0))
    identity_value = Fraction(2 * kappa + 1, kappa + 1) / binomial(kappa, j)
    bound = 2 / binomial(kappa, j)
    return {
        "kappa": kappa,
        "j": j,
        "sum": s,
        "identity_value": identity_value,
        "identity_holds": s == identity_value,
        "bound_holds": s <= bound,
    }


# ---------------------------------------------------------------------------
# Convergence experiments
# ---------------------------------------------------------------------------

GAP_FLOOR = 1e-12


@dataclass
class ConvergenceRecord:
    """One gap sequence |lhs(nu) - rhs| along a nu sweep."""

    mu: int
    k: int
    nus: List[int]
    label: str                      # moment order "n=2" or "phi=..."
    lhs: List[float]
    rhs: float
    floor: float = GAP_FLOOR       # gaps below this count as converged
    gaps: List[float] = field(init=False)

    def __post_init__(self):
        self.gaps = [abs(v - self.rhs) for v in self.lhs]

    @property
    def converged(self) -> bool:
        """Strict decay with final gap below a quarter of the first, or
        a sequence already at the float-noise floor."""
        if all(g <= self.floor for g in self.gaps):
            return True
        strictly_down = all(a > b for a, b in zip(self.gaps, self.gaps[1:]))
        return strictly_down and self.gaps[-1] <= 0.25 * self.gaps[0]

    @property
    def fitted_slope(self) -> Optional[float]:
        """Log-log decay order of the gaps in nu; None at the noise floor."""
        if any(g <= self.floor for g in self.gaps):
            return None
        return float(-np.polyfit(np.log(self.nus), np.log(self.gaps), 1)[0])

    def to_row(self) -> dict:
        return {"mu": self.mu, "k": self.k, "label": self.label,
                "nus": self.nus, "lhs": self.lhs, "rhs": self.rhs,
                "gaps": self.gaps, "converged": self.converged,
                "fitted_slope": self.fitted_slope}


def moment_convergence(mu: int, k: int, f: IsotypicFunction, n: int,
                       nus: Sequence[int],
                       spectra: Optional[Sequence[np.ndarray]] = None) \
        -> ConvergenceRecord:
    """Gap sequence for the n-th trace moment against its limit integral;
    ``spectra``, if given, are the channel output spectra at ``nus``."""
    lams = [None] * len(nus) if spectra is None else spectra
    lhs = [trace_moment(ChannelSpec(mu, nu, k), f, n, eigenvalues=lam)
           for nu, lam in zip(nus, lams, strict=True)]
    rhs = limit_moment(mu, k, f, n)
    return ConvergenceRecord(mu, k, list(nus), f"n={n}", lhs, rhs)


def functional_convergence(mu: int, k: int, f: IsotypicFunction,
                           phi_coeffs: Sequence[float],
                           nus: Sequence[int],
                           spectra: Optional[Sequence[np.ndarray]] = None) \
        -> ConvergenceRecord:
    """Gap sequence for the polynomial functional calculus trace;
    ``spectra`` as in :func:`moment_convergence`."""
    lams = [None] * len(nus) if spectra is None else spectra
    lhs = [trace_functional(ChannelSpec(mu, nu, k), f, phi_coeffs,
                            eigenvalues=lam)
           for nu, lam in zip(nus, lams, strict=True)]
    rhs = limit_functional(mu, k, f, phi_coeffs)
    label = f"phi=deg{len(phi_coeffs) - 1}"
    return ConvergenceRecord(mu, k, list(nus), label, lhs, rhs)


def entropy_poly_coeffs(degree: int = 8) -> List[float]:
    """Power-basis coefficients of a Chebyshev approximation of
    -x log x on [0, 1] (with the value 0 at x = 0)."""
    xs = np.linspace(0.0, 1.0, 2048)
    ys = np.where(xs > 0, -xs * np.log(np.maximum(xs, 1e-300)), 0.0)
    cheb = np.polynomial.chebyshev.Chebyshev.fit(xs, ys, degree,
                                                 domain=[0.0, 1.0])
    poly = cheb.convert(kind=np.polynomial.polynomial.Polynomial)
    return [float(c) for c in poly.coef]
