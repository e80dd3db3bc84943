"""Numerical integration over the projective line and the trace-limit
convergence experiments.

The invariant probability measure becomes uniform on [0,1] x [0,2pi)
under t = r^2/(1+r^2), so a Gauss-Legendre rule in t crossed with a
uniform angular rule integrates band-limited functions of known degree
exactly (up to float roundoff).  Channel outputs themselves are computed
exactly and only diagonalized in floats.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .intertwine import ChannelSpec, apply_channel
from .repspace import (
    KernelOperator,
    _from_dense,
    _gram_integers,
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
    def size(self) -> int:
        """Number of sample points."""
        return self.n_radial * self.n_angular

    @property
    def points(self) -> np.ndarray:
        """Complex sample points, shape (n_radial * n_angular,)."""
        t, _ = self._radial
        r = np.sqrt(t / (1.0 - t))
        theta = 2.0 * np.pi * np.arange(self.n_angular) / self.n_angular
        return (r[:, None] * np.exp(1j * theta)[None, :]).ravel()

    @property
    def weights(self) -> np.ndarray:
        """Positive weights summing to 1, matching :attr:`points`."""
        _, w = self._radial
        return np.repeat(w / self.n_angular, self.n_angular)

    @functools.cached_property
    def _radial(self) -> Tuple[np.ndarray, np.ndarray]:
        x, w = np.polynomial.legendre.leggauss(self.n_radial)
        return (x + 1.0) / 2.0, w / 2.0


# complex entries in one block of symbol_values' Vandermonde rows (16 MB),
# so that the number of points, not the level, sets its memory
VANDER_ENTRIES = 1 << 20


def symbol_values(a: KernelOperator, zs: np.ndarray) -> np.ndarray:
    """Values of A(z, z)/(1 + |z|^2)^level on a 1-d array of points,
    taken in blocks of VANDER_ENTRIES // dim points.

    Avoids the isotypic split, so it stays cheap at large levels.  Where
    z^level or (1 + |z|^2)^level overflows, the row z^i / s^level, with
    s = sqrt(1 + |z|^2), is taken as (z/s)^i (1/s)^(level-i) instead:
    both bases lie in the unit disc.
    """
    m = a.complex_matrix()
    step = max(1, VANDER_ENTRIES // a.dim)
    vals = np.empty(zs.shape, dtype=complex)
    for s in range(0, zs.size, step):
        z = zs[s:s + step]
        with np.errstate(over="ignore", invalid="ignore"):
            p = np.vander(z, a.dim, increasing=True)
            den = (1.0 + np.abs(z) ** 2) ** a.level
            v = np.einsum("ai,ij,aj->a", p, m, p.conj()) / den
        far = ~(np.isfinite(den) & np.isfinite(v))
        if far.any():
            inv = 1.0 / np.sqrt(1.0 + np.abs(z[far]) ** 2)
            p = (np.vander(z[far] * inv, a.dim, increasing=True)
                 * np.vander(inv, a.dim))
            v[far] = np.einsum("ai,ij,aj->a", p, m, p.conj())
        vals[s:s + step] = v
    return vals


def function_values(f: IsotypicFunction, zs: np.ndarray) -> np.ndarray:
    return symbol_values(f.numerator(), zs)


# ---------------------------------------------------------------------------
# Random band-limited test inputs
# ---------------------------------------------------------------------------

def random_operator(mu: int, rng: random.Random) -> KernelOperator:
    """Kernel operator with small random rational entries: the real and
    the imaginary part of each entry, row by row, is a numerator in
    [-3, 3] over a denominator 1 or 2, drawn in that order, so the
    kernel is integers over 2."""
    def part():
        num = rng.randint(-3, 3)
        return num * (2 // rng.randint(1, 2))

    parts = [part() for _ in range(2 * (mu + 1) ** 2)]
    return _from_dense(mu, 2, parts[0::2], parts[1::2])


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


def trace_moment(lam: np.ndarray, n: int) -> float:
    """(1/dim) Tr(T^n) over a channel output spectrum, dimension-normalized."""
    if n < 1:
        raise ValueError(f"moment order must be >= 1, got {n}")
    return float(np.sum(lam ** n) / lam.size)


# Most points a limit rule may have: the rule of degree 1500.  With
# symbol_values in blocks, a run's memory grows with the points alone
MAX_LIMIT_GRID_POINTS = 1501 * 3001


def moment_grid(mu: int, n: int) -> QuadratureGrid:
    """The rule limit_moment integrates the n-th power on at level mu."""
    return QuadratureGrid.for_degree(n * mu)


def functional_grid(mu: int, phi: Sequence[float]) -> QuadratureGrid:
    """The rule limit_functional integrates phi on at level mu."""
    return QuadratureGrid.for_degree(max(1, (len(phi) - 1) * mu))


def limit_moment(mu: int, k: int, f: IsotypicFunction, n: int) -> float:
    """Integral of the n-th power of the limit-operator image of f."""
    grid = moment_grid(mu, n)
    e = e_limit_apply(mu, k, f)
    vals = function_values(e, grid.points)
    if not np.all(np.isfinite(vals)):
        raise NonFiniteSampleError("limit integrand not finite on the grid")
    return float(np.real(np.sum(grid.weights * vals ** n)))


def _unit_interval(vals: np.ndarray) -> np.ndarray:
    """Values clamped to [0, 1]; anything beyond 1e-8 outside is an error
    (the hypothesis R*_mu f >= 0, trace 1 forces spectrum and limit
    function into [0, 1])."""
    if vals.min() < -1e-8 or vals.max() > 1 + 1e-8:
        raise SpectrumOutOfRangeError(
            f"values [{vals.min()}, {vals.max()}] exit [0, 1]")
    return np.clip(vals, 0.0, 1.0)


def trace_functional(lam: np.ndarray, phi: Sequence[float]) -> float:
    """(1/dim) sum phi(lambda_i) over a channel output spectrum, with phi
    its ascending polynomial coefficients, range-checked by
    :func:`_unit_interval`."""
    # np.polynomial loads on first use; imported with this module it would
    # cost every run that does no quadrature (verify among them)
    vals = np.polynomial.polynomial.polyval(_unit_interval(lam), phi)
    return float(np.sum(vals) / lam.size)


def limit_functional(mu: int, k: int, f: IsotypicFunction,
                     phi: Sequence[float]) -> float:
    """Integral of phi(E(f)) against the invariant measure, with E(f)
    range-checked on the grid by :func:`_unit_interval`; the grid is
    exact for the ascending polynomial coefficients ``phi``."""
    grid = functional_grid(mu, phi)
    e = e_limit_apply(mu, k, f)
    vals = np.real(function_values(e, grid.points))
    return float(np.sum(grid.weights * np.polynomial.polynomial.polyval(
        _unit_interval(vals), phi)))


# ---------------------------------------------------------------------------
# Combinatorial bounds
# ---------------------------------------------------------------------------

def i_n_integral(n: int, nu: int) -> Fraction:
    """The chained-kernel integral I_n at level nu.

    Even nu = 2 kappa: the exact sum over chains of n-1 indices
    0..kappa, summed as a product of (kappa+1)-square transfer matrices
    in O(n kappa^2) integer operations, with each 1/C(2kappa, s) taken
    as the level-nu Gram weight d/C(2kappa, s) over d = lcm_s C(2kappa, s)
    from :func:`~su2chan.repspace._gram_integers`.  Odd nu:
    the comparison bound ((nu+1)/nu)^n I_n(nu-1), an upper estimate.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if nu < 0:
        raise ValueError(f"need nu >= 0, got {nu}")
    if n == 1 or nu == 0:
        return Fraction(1)
    if nu % 2 == 1:
        return Fraction(nu + 1, nu) ** n * i_n_integral(n, nu - 1)
    kappa = nu // 2
    d, w = _gram_integers(nu)
    sq = [math.comb(kappa, a) ** 2 for a in range(kappa + 1)]
    v = [sq[a] * w[a] for a in range(kappa + 1)]
    for _ in range(n - 2):
        v = [sq[b] * sum(map(operator.mul, v, w[b:]))
             for b in range(kappa + 1)]
    return Fraction(sum(map(operator.mul, v, w)), d ** n)


# i! at index i, up to the largest 2 kappa fund_ineq_check has been asked
# for: one table for every call, replaced whole (never extended) to grow
_factorials = [1]


def _fund_bound(kappa: int, j: int) -> Fraction:
    """The bound 2/C(kappa,j) that fund_ineq_check holds its sum to."""
    return Fraction(2, math.comb(kappa, j))


def fund_ineq_check(kappa: int, j: int) -> dict:
    """Exact check of sum_i C(kappa,i)/C(2kappa,i+j) against its closed
    form (2kappa+1)/(kappa+1) / C(kappa,j) and the bound 2/C(kappa,j);
    as 1/C(2kappa,s) = s! (2kappa-s)! / (2kappa)!, the sum is the integer
    sum_i C(kappa,i) (i+j)! (2kappa-i-j)! over (2kappa)!."""
    if not 0 <= j <= kappa:
        raise ValueError(f"need 0 <= j <= kappa, got j={j}, kappa={kappa}")
    global _factorials
    n, fact = 2 * kappa, _factorials
    if len(fact) <= n:
        _factorials = fact = list(map(math.factorial, range(n + 1)))
    s = Fraction(sum(math.comb(kappa, i) * fact[i + j] * fact[n - i - j]
                     for i in range(kappa + 1)), fact[n])
    identity_value = Fraction(n + 1, (kappa + 1) * math.comb(kappa, j))
    return {
        "kappa": kappa,
        "j": j,
        "sum": s,
        "identity_value": identity_value,
        "identity_holds": s == identity_value,
        "bound_holds": s <= _fund_bound(kappa, j),
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


# Power-basis coefficients of the degree-8 Chebyshev least-squares fit of
# -x log x on [0, 1] (with the value 0 at x = 0) on 2048 equispaced points
ENTROPY8 = (0.012250156706868243, 3.5317057313983886, -19.375276076758723,
            77.7423689955396, -210.9239271210966, 354.73979962366354,
            -354.9920171773151, 193.2841318131912, -44.020425262317566)
