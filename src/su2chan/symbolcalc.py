"""Symbol and Toeplitz maps, the Berezin transform and the component
operators obtained from channels.

A band-limited function on the projective line is stored as an
:class:`IsotypicFunction`: a level mu and, for each m = 0..mu, the kernel
operator component lying in the sharp-degree-2m subspace of B(H_mu).
The function's value is sum_m A_m(z, z) / (1 + |z|^2)^mu.  All the
transforms here act diagonally on components through exact closed-form
eigenvalues; numerical integration lives in the quadrature module and is
used only as an independent cross-check.
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
    """Band-limited function with components indexed by sharp degree 2m."""

    level: int
    components: List[KernelOperator]

    def __post_init__(self):
        if len(self.components) != self.level + 1:
            raise ValueError(
                f"expected {self.level + 1} components, got "
                f"{len(self.components)}")
        for c in self.components:
            if c.level != self.level:
                raise ValueError("component level mismatch")

    @classmethod
    def constant(cls, level: int, value) -> "IsotypicFunction":
        from .repspace import reproducing_identity_operator
        comps = [KernelOperator.zero(level) for _ in range(level + 1)]
        comps[0] = reproducing_identity_operator(level) \
            .scale(CRational.of(value))
        return cls(level, comps)

    def numerator(self) -> KernelOperator:
        """Sum of components: the kernel N with f = N(z, z)/(1+|z|^2)^level."""
        out = self.components[0]
        for c in self.components[1:]:
            out = out + c
        return out

    def scale(self, v) -> "IsotypicFunction":
        return IsotypicFunction(self.level,
                                [c.scale(v) for c in self.components])

    def scale_components(self, factors) -> "IsotypicFunction":
        if len(factors) != self.level + 1:
            raise ValueError("one factor per component required")
        return IsotypicFunction(self.level, [
            c.scale(v) for c, v in zip(self.components, factors)])

    def __add__(self, other: "IsotypicFunction") -> "IsotypicFunction":
        if self.level != other.level:
            raise BandLimitExceededError("levels differ")
        return IsotypicFunction(self.level, [
            a + b for a, b in zip(self.components, other.components)])

    def evaluate(self, z: complex) -> complex:
        n = self.numerator()
        return n.kernel_at_float(z, z) / (1 + abs(z) ** 2) ** self.level

    def component_numerator_at_level(self, m: int, level: int) \
            -> List[List[CRational]]:
        """Kernel coefficients of component m rewritten over
        (1 + |z|^2)^level, i.e. convolved with (1 + z z~)^(level - self.level)."""
        if level < self.level:
            raise BandLimitExceededError(
                f"cannot lower level {self.level} to {level}")
        d = level - self.level
        src = self.components[m].coeffs if m <= self.level else None
        out = [[CRational(0) for _ in range(level + 1)]
               for _ in range(level + 1)]
        if src is None:
            return out
        for t in range(d + 1):
            w = binomial(d, t)
            for i in range(self.level + 1):
                for j in range(self.level + 1):
                    if src[i][j]:
                        out[i + t][j + t] = out[i + t][j + t] + src[i][j] * w
        return out


def functions_equal(f: IsotypicFunction, g: IsotypicFunction) -> bool:
    """Exact componentwise equality as functions (levels may differ)."""
    level = max(f.level, g.level)
    for m in range(level + 1):
        if f.component_numerator_at_level(m, level) \
                != g.component_numerator_at_level(m, level):
            return False
    return True


@functools.lru_cache(maxsize=None)
def _projectors(level: int) -> IsotypicDecomposition:
    return isotypic_projectors(level)


def symbol(a: KernelOperator) -> IsotypicFunction:
    """The function A(z, z) / (1 + |z|^2)^level, split into components."""
    dec = _projectors(a.level)
    return IsotypicFunction(a.level, dec.components(a))


def toeplitz(f: IsotypicFunction, nu: int) -> KernelOperator:
    """The operator (1/(nu+1)) T_f at level nu >= f.level, exactly.

    Expands the kernel integral of the compression of multiplication by
    f through monomial orthogonality; every integral reduces to a
    rational moment since f is a polynomial ratio.
    """
    if nu < f.level:
        raise BandLimitExceededError(
            f"target level {nu} below band limit {f.level}")
    mu = f.level
    n = f.numerator()
    total = mu + nu
    coeffs = [[CRational(0) for _ in range(nu + 1)] for _ in range(nu + 1)]
    for p in range(nu + 1):
        bp = binomial(nu, p)
        for q in range(nu + 1):
            w = bp * binomial(nu, q)
            acc = CRational(0)
            for i in range(mu + 1):
                j = q + i - p
                if 0 <= j <= mu and n.coeffs[i][j]:
                    acc = acc + n.coeffs[i][j] \
                        * invariant_monomial_integral(q + i, total)
            coeffs[p][q] = acc * w
    return KernelOperator(nu, coeffs)


def integrate_exact(f: IsotypicFunction) -> CRational:
    """Integral of f against the invariant probability measure, exactly."""
    n = f.numerator()
    out = CRational(0)
    for i in range(f.level + 1):
        out = out + n.coeffs[i][i] * invariant_monomial_integral(i, f.level)
    return out


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
