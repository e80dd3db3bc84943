"""Symbol and Toeplitz maps, the Berezin transform and the component
operators obtained from channels.

A band-limited function on the projective line is stored as an
:class:`IsotypicFunction`: a level L and its (L+1)^2 spin coordinates,
the 2m+1 scalars of each spin-m component.  Its value is N(z, z) /
(1 + |z|^2)^L, with the kernel N rebuilt from the coordinates only where
values are needed.  Raising the level multiplies N by a power of
(1 + |z|^2) and leaves the coordinates as they are (see
:class:`~su2chan.repspace.IsotypicDecomposition`), so functions of any
levels compare coordinate by coordinate; dense lifting of N is the test
oracle.  The transforms here scale spin components by exact closed-form
eigenvalues; quadrature is only an independent cross-check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List

from .exactnum import CRational, binomial, hyp3f2_terminating
from .intertwine import ChannelSpec, c_squared
from .repspace import (
    IsotypicDecomposition,
    KernelOperator,
    isotypic_projectors,
)


class BandLimitExceededError(ValueError):
    pass


class SingularComponentError(ValueError):
    pass


def invariant_monomial_integral(a: int, level: int) -> Fraction:
    """Integral of |z|^(2a) / (1 + |z|^2)^level against the invariant
    probability measure: a! (level - a)! / (level + 1)!."""
    if a < 0 or a > level:
        raise ValueError(f"need 0 <= a <= {level}, got {a}")
    return Fraction(math.factorial(a) * math.factorial(level - a),
                    math.factorial(level + 1))


@dataclass
class IsotypicFunction:
    """Band-limited function in spin coordinates: ``coords[m][m + d]`` is
    the coordinate of spin m on kernel diagonal d, for |d| <= m <= level."""

    level: int
    coords: List[List[CRational]]

    def __post_init__(self):
        if [len(row) for row in self.coords] != \
                [2 * m + 1 for m in range(self.level + 1)]:
            raise ValueError(
                f"expected 2m+1 coordinates for each m = 0..{self.level}")

    @classmethod
    def constant(cls, level: int, value) -> "IsotypicFunction":
        # (1 + x y~)^level is spin 0 with coordinate 1
        return cls(level, [[CRational.of(value)]] + [
            [CRational(0)] * (2 * m + 1) for m in range(1, level + 1)])

    def numerator(self) -> KernelOperator:
        """The kernel N with f = N(z, z)/(1+|z|^2)^level."""
        return _projectors(self.level).operator(self.coords)

    @property
    def components(self) -> List[KernelOperator]:
        """Kernel operator of each spin component.  Nothing in the package
        needs them; the benchmark tracer (perfbench/tracer.py) keys
        channel_output_spectrum calls by them."""
        dec = _projectors(self.level)
        return [dec.operator([[]] * m + [row])
                for m, row in enumerate(self.coords)]

    def scale(self, v) -> "IsotypicFunction":
        return self.scale_components([v] * (self.level + 1))

    def scale_components(self, factors) -> "IsotypicFunction":
        if len(factors) != self.level + 1:
            raise ValueError("one factor per component required")
        return IsotypicFunction(self.level, [
            [c * v for c in row] for row, v in zip(self.coords, factors)])


def functions_equal(f: IsotypicFunction, g: IsotypicFunction) -> bool:
    """Exact equality as functions (levels may differ).  Coordinates do not
    depend on the level, so the lower-level function is padded with zero
    coordinates above its band."""
    low, high = sorted((f.coords, g.coords), key=len)
    return high[:len(low)] == low \
        and not any(c for row in high[len(low):] for c in row)


@functools.lru_cache(maxsize=None)
def _projectors(level: int) -> IsotypicDecomposition:
    return isotypic_projectors(level)


def symbol(a: KernelOperator) -> IsotypicFunction:
    """The function A(z, z) / (1 + |z|^2)^level in spin coordinates."""
    return IsotypicFunction(a.level, _projectors(a.level).coordinates(a))


def toeplitz(f: IsotypicFunction, nu: int) -> KernelOperator:
    """The operator (1/(nu+1)) T_f at level nu >= f.level, exactly.

    Expands the kernel integral of the compression of multiplication by
    f through monomial orthogonality; every integral reduces to the
    rational moment of |z|^(2t) against (1 + |z|^2)^(-total), which is
    1 / ((total + 1) C(total, t)), taken over the lcm of the binomials.
    """
    if nu < f.level:
        raise BandLimitExceededError(
            f"target level {nu} below band limit {f.level}")
    mu = f.level
    n = f.numerator()
    total = mu + nu
    binoms = [math.comb(total, t) for t in range(total + 1)]
    den = math.lcm(*binoms)
    moment = [den // b for b in binoms]
    re = [[0] * (nu + 1) for _ in range(nu + 1)]
    im = [[0] * (nu + 1) for _ in range(nu + 1)]
    for p in range(nu + 1):
        for q in range(max(0, p - mu), min(nu, p + mu) + 1):
            # kernel cells (i, j = q + i - p) of N inside the band
            cells = [(i, q + i - p) for i in range(max(0, p - q),
                                                   min(mu, mu + p - q) + 1)]
            w = math.comb(nu, p) * math.comb(nu, q)
            re[p][q] = w * sum(n.re[i][j] * moment[q + i] for i, j in cells)
            im[p][q] = w * sum(n.im[i][j] * moment[q + i] for i, j in cells)
    return KernelOperator(nu, n.d * den * (total + 1), re, im)


def integrate_exact(f: IsotypicFunction) -> CRational:
    """Integral of f against the invariant probability measure, exactly:
    the spin-0 part of f is the constant c_{0,0}, and spin m >= 1
    integrates to 0."""
    return f.coords[0][0]


def berezin_eigenvalue(nu: int, m: int) -> Fraction:
    """(nu!)^2 / ((nu+m+1)! (nu-m)!) for m <= nu, and 0 for m > nu."""
    if m < 0:
        raise ValueError(f"component index must be nonnegative, got {m}")
    if m > nu:
        return Fraction(0)
    return Fraction(math.factorial(nu) ** 2,
                    math.factorial(nu + m + 1) * math.factorial(nu - m))


def berezin_apply(nu: int, f: IsotypicFunction) -> IsotypicFunction:
    """Scale component m by the Berezin eigenvalue at level nu."""
    if nu < f.level:
        raise BandLimitExceededError(
            f"Berezin level {nu} below band limit {f.level}")
    return _berezin_scale(nu, f)


def _berezin_scale(nu: int, f: IsotypicFunction) -> IsotypicFunction:
    # no band-limit check: components above nu are annihilated
    return f.scale_components(
        [berezin_eigenvalue(nu, m) for m in range(f.level + 1)])


def inverse_berezin(nu: int, f: IsotypicFunction) -> IsotypicFunction:
    """Componentwise division by the Berezin eigenvalues at level nu."""
    if nu < f.level:
        raise SingularComponentError(
            f"components above index {nu} have eigenvalue 0; cannot invert "
            f"at band limit {f.level}")
    return f.scale_components(
        [1 / berezin_eigenvalue(nu, m) for m in range(f.level + 1)])


# ---------------------------------------------------------------------------
# The channel-induced function operators
# ---------------------------------------------------------------------------

def e_nu_coefficient(spec: ChannelSpec, l: int) -> Fraction:
    """Closed-form weight of B_{mu-l} in the Berezin-sum expansion:
    c^2 (-1)^(k-l) C(nu-k, k-l) (nu-k+l)! k! / (nu! l!)."""
    k, nu = spec.k, spec.nu
    if not 0 <= l <= k:
        raise IndexError(f"need 0 <= l <= {k}, got {l}")
    return (c_squared(spec) * Fraction(-1) ** (k - l) * binomial(nu - k, k - l)
            * Fraction(math.factorial(nu - k + l) * math.factorial(k),
                       math.factorial(nu) * math.factorial(l)))


def e_nu_coefficient_sum(spec: ChannelSpec, l: int) -> Fraction:
    """Independent inner-sum form of the same weight:
    c^2 sum_{i=l}^k C(k,i)^2 C(nu,k-i)^{-1} C(i,l) (-1)^(i-l)."""
    k, nu = spec.k, spec.nu
    if not 0 <= l <= k:
        raise IndexError(f"need 0 <= l <= {k}, got {l}")
    acc = Fraction(0)
    for i in range(l, k + 1):
        acc += (binomial(k, i) ** 2 / binomial(nu, k - i) * binomial(i, l)
                * Fraction(-1) ** (i - l))
    return c_squared(spec) * acc


def e_nu_eigenvalue(spec: ChannelSpec, m: int) -> Fraction:
    """Eigenvalue of the finite-level operator on sharp degree 2m."""
    return sum(e_nu_coefficient(spec, l) * berezin_eigenvalue(spec.mu - l, m)
               for l in range(spec.k + 1))


def e_nu_apply(spec: ChannelSpec, f: IsotypicFunction) -> IsotypicFunction:
    """The operator R_{out} T R_mu* on band-limited functions, via its
    expansion as a weighted sum of Berezin transforms."""
    if f.level > spec.mu:
        raise BandLimitExceededError(
            f"band limit {f.level} exceeds channel input level {spec.mu}")
    return f.scale_components(
        [e_nu_eigenvalue(spec, m) for m in range(f.level + 1)])


def e_limit_coefficient(mu: int, k: int, l: int) -> Fraction:
    return (binomial(mu, k) * Fraction(-1) ** (k - l) * binomial(k, l))


def e_limit_eigenvalue(mu: int, k: int, m: int) -> Fraction:
    """Limit-operator eigenvalue as the direct alternating binomial sum."""
    if not 0 <= k <= mu:
        raise ValueError(f"need 0 <= k <= mu, got k={k}, mu={mu}")
    return sum(e_limit_coefficient(mu, k, l) * berezin_eigenvalue(mu - l, m)
               for l in range(k + 1))


def e_limit_apply(mu: int, k: int, f: IsotypicFunction) -> IsotypicFunction:
    """The large-level limit of the channel-induced function operator."""
    if f.level > mu:
        raise BandLimitExceededError(
            f"band limit {f.level} exceeds level {mu}")
    return f.scale_components(
        [e_limit_eigenvalue(mu, k, m) for m in range(f.level + 1)])


def e_eigenvalue_3f2(mu: int, k: int, m: int) -> Fraction:
    """Terminating-3F2 closed form of the limit eigenvalue."""
    if not 0 <= k <= mu:
        raise ValueError(f"need 0 <= k <= mu, got k={k}, mu={mu}")
    if m > mu:
        return Fraction(0)
    hyp = hyp3f2_terminating(-k, -m - mu - 1, m - mu, -mu, -mu)
    return (Fraction(-1) ** k * binomial(mu, k)
            * Fraction(math.factorial(mu) ** 2,
                       math.factorial(mu - m) * math.factorial(mu + m + 1))
            * hyp)
