"""The symbol map, the Berezin transform and the component operators
obtained from channels.

A band-limited function on the projective line is stored as an
:class:`IsotypicFunction`: a level L and its (L+1)^2 spin coordinates,
the 2m+1 scalars of each spin-m component, as integers over one
denominator in lowest terms.  Its value is N(z, z) / (1 + |z|^2)^L,
with the kernel N rebuilt from the coordinates only where values or
operators are needed.  Raising the level multiplies N by a power of
(1 + |z|^2) and leaves the coordinates as they are (see
:class:`~su2chan.repspace.IsotypicDecomposition`), so functions of any
levels are equal when their coordinates are equal after zero padding.
Every transform here scales spin components by exact closed-form
eigenvalues: the integer rows times the eigenvalues' numerators over
their common denominator.  The integral of f against the invariant
probability measure is its spin-0 coordinate.  The Toeplitz map,
dense lifting, monomial moments and quadrature are the tests' oracles.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import chain
from typing import List, Sequence

from .exactnum import terminating_pair
from .intertwine import ChannelSpec, c_squared
from .repspace import (
    IsotypicDecomposition,
    KernelOperator,
    _IntegerForm,
    _common_denominator,
    _lowest_terms,
)


class IsotypicFunction(_IntegerForm):
    """Band-limited function in spin coordinates over one denominator: the
    coordinate of spin m on kernel diagonal d, |d| <= m <= level, is
    (re[m][m + d] + i im[m][m + d]) / d.  The integers are kept in lowest
    terms with d > 0, as :class:`~su2chan.repspace.KernelOperator` keeps
    its kernels, so the zero function has d = 1 and equal functions of one
    level have equal (level, d, re, im)."""

    __slots__ = ()

    def __init__(self, level: int, d: int, re: Sequence[Sequence[int]],
                 im: Sequence[Sequence[int]]):
        shape = [2 * m + 1 for m in range(level + 1)]
        if [len(row) for row in re] != shape \
                or [len(row) for row in im] != shape:
            raise ValueError(
                f"expected 2m+1 coordinates for each m = 0..{level}")
        self.level = level
        self.d, self.re, self.im = _lowest_terms(d, re, im)

    def numerator(self) -> KernelOperator:
        """The kernel N with f = N(z, z)/(1+|z|^2)^level."""
        return _projectors(self.level).operator(self.d, self.re, self.im)

    def scale_components(self, factors) -> "IsotypicFunction":
        """Component m times the rational factors[m]: each row times its
        factor's numerator over the factors' common denominator."""
        if len(factors) != self.level + 1:
            raise ValueError("one factor per component required")
        den, nums = _common_denominator(factors)
        return IsotypicFunction(self.level, self.d * den, *(
            [[x * c for x in row] for row, c in zip(rows, nums)]
            for rows in (self.re, self.im)))


def functions_equal(f: IsotypicFunction, g: IsotypicFunction) -> bool:
    """Exact equality as functions (levels may differ).  Coordinates do not
    depend on the level, so the lower-level function is padded with zero
    coordinates above its band; both are in lowest terms, so the padded
    forms are equal as tuples."""
    low, high = sorted((f, g), key=lambda h: h.level)
    n = low.level + 1
    return (low.d, low.re, low.im) == (high.d, high.re[:n], high.im[:n]) \
        and not any(chain(*high.re[n:], *high.im[n:]))


_projectors = functools.lru_cache(maxsize=None)(IsotypicDecomposition)


def symbol(a: KernelOperator) -> IsotypicFunction:
    """The function A(z, z) / (1 + |z|^2)^level in spin coordinates."""
    return IsotypicFunction(a.level, *_projectors(a.level).coordinates(a))


def berezin_eigenvalue(nu: int, m: int) -> Fraction:
    """(nu!)^2 / ((nu+m+1)! (nu-m)!) for m <= nu, and 0 for m > nu."""
    if m < 0:
        raise ValueError(f"component index must be nonnegative, got {m}")
    if m > nu:
        return Fraction(0)
    return Fraction(math.perm(nu, m) ** 2, math.perm(nu + m + 1, 2 * m + 1))


def inverse_berezin(nu: int, f: IsotypicFunction) -> IsotypicFunction:
    """Componentwise division by the Berezin eigenvalues at level nu."""
    if nu < f.level:
        raise ValueError(
            f"components above index {nu} have eigenvalue 0; cannot invert "
            f"at band limit {f.level}")
    return f.scale_components(
        [1 / berezin_eigenvalue(nu, m) for m in range(f.level + 1)])


# ---------------------------------------------------------------------------
# The channel-induced function operators
# ---------------------------------------------------------------------------

def _berezin_numerators(mu: int, k: int, m: int) -> List[int]:
    """berezin_eigenvalue(mu - l, m) (mu+m+1)! (mu-m)!, integers, for
    l = 0..min(k, mu - m); the eigenvalues with l > mu - m vanish."""
    if m < 0:
        raise ValueError(f"component index must be nonnegative, got {m}")
    return [math.factorial(mu - l) ** 2 * math.perm(mu + m + 1, l)
            * math.perm(mu - m, l) for l in range(min(k, mu - m) + 1)]


def e_nu_eigenvalue(spec: ChannelSpec, m: int) -> Fraction:
    """Eigenvalue of the finite-level operator on sharp degree 2m: the sum
    over l = 0..k of the weight c^2 (-1)^(k-l) C(nu-k, k-l) (nu-k+l)! k! /
    (nu! l!) = c^2 (-1)^(k-l) C(nu-k, k-l) perm(k, k-l) perm(nu-k+l, l) /
    perm(nu, k) of B_{mu-l} times berezin_eigenvalue(mu - l, m), in
    integers over perm(nu, k) (mu+m+1)! (mu-m)!, c^2 entering once."""
    mu, nu, k = spec.mu, spec.nu, spec.k
    berezin = _berezin_numerators(mu, k, m)
    if not berezin:
        return Fraction(0)
    c2 = c_squared(spec)
    s = sum((-1) ** (k - l) * math.comb(nu - k, k - l) * math.perm(k, k - l)
            * math.perm(nu - k + l, l) * b for l, b in enumerate(berezin))
    return Fraction(c2.numerator * s, c2.denominator * math.perm(nu, k)
                    * math.factorial(mu + m + 1) * math.factorial(mu - m))


def e_nu_apply(spec: ChannelSpec, f: IsotypicFunction) -> IsotypicFunction:
    """The operator R_{out} T R_mu* on band-limited functions, via its
    expansion as a weighted sum of Berezin transforms."""
    if f.level > spec.mu:
        raise ValueError(
            f"band limit {f.level} exceeds channel input level {spec.mu}")
    return f.scale_components(
        [e_nu_eigenvalue(spec, m) for m in range(f.level + 1)])


def e_limit_eigenvalue(mu: int, k: int, m: int) -> Fraction:
    """Limit-operator eigenvalue as the direct alternating binomial sum of
    C(mu,k) (-1)^(k-l) C(k,l) berezin_eigenvalue(mu - l, m), in integers
    over (mu+m+1)! (mu-m)!."""
    if not 0 <= k <= mu:
        raise ValueError(f"need 0 <= k <= mu, got k={k}, mu={mu}")
    return _limit_eigenvalue(mu, k, m, _berezin_numerators(mu, k, m))


def _limit_eigenvalue(mu: int, k: int, m: int, berezin) -> Fraction:
    """e_limit_eigenvalue(mu, k, m) from _berezin_numerators(mu, k, m)."""
    if not berezin:
        return Fraction(0)
    s = sum((-1) ** (k - l) * math.comb(k, l) * b
            for l, b in enumerate(berezin))
    return Fraction(math.comb(mu, k) * s,
                    math.factorial(mu + m + 1) * math.factorial(mu - m))


def e_limit_apply(mu: int, k: int, f: IsotypicFunction) -> IsotypicFunction:
    """The large-level limit of the channel-induced function operator."""
    if f.level > mu:
        raise ValueError(f"band limit {f.level} exceeds level {mu}")
    return f.scale_components(
        [e_limit_eigenvalue(mu, k, m) for m in range(f.level + 1)])


def e_eigenvalue_3f2(mu: int, k: int, m: int) -> Fraction:
    """Terminating-3F2 closed form of the limit eigenvalue, (-1)^k C(mu,k)
    (mu!/(mu-m)!)^2 / ((mu+m+1)!/(mu-m)!) 3F2(-k, -m-mu-1, m-mu; -mu, -mu;
    1), as one integer product over the 3F2's unreduced denominator."""
    if not 0 <= k <= mu:
        raise ValueError(f"need 0 <= k <= mu, got k={k}, mu={mu}")
    if m > mu:
        return Fraction(0)
    top, bot = terminating_pair((-k, -m - mu - 1, m - mu), (-mu, -mu))
    return Fraction((-1) ** k * math.comb(mu, k) * math.perm(mu, m) ** 2
                    * top, math.perm(mu + m + 1, 2 * m + 1) * bot)
