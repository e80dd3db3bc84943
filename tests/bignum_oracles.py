"""The big-integer routes that the float band and the factorised Kraus
table replaced, kept as their oracles: the orthonormal band of an exact
kernel operator, read entry by entry through one big-integer quotient,
and the Kraus weights over whole binomials C(nu, b) and C(L, r)."""

import math
from fractions import Fraction

from su2chan.intertwine import (
    _jk_integers,
    c_squared,
    normalization_factor,
)
from su2chan.repspace import _binomial_row


def orthonormal_band(a):
    """Diagonals t = 0..width of a's matrix in the orthonormal basis
    z^i / ||z^i||: M[j + t][j] = a_(j+t)j / sqrt(C(L, j+t) C(L, j)).  Each
    part of an entry, an integer x over a's denominator d, is taken as
    sign(x) sqrt(x^2 / (d^2 C(L, j+t) C(L, j))): the integer quotient
    rounds correctly and is at most |M|^2, so no float overflows at any
    level, as the binomials alone would past level 1029."""
    binom = _binomial_row(a.level)
    w, dd = a.width, a.d * a.d
    band = []
    for t in range(w + 1):
        diag = []
        for j, x, y in zip(range(a.dim - t), a.re[w + t], a.im[w + t]):
            den = dd * binom[j] * binom[j + t]
            diag.append(complex(signed_root(x, den), signed_root(y, den)))
        band.append(diag)
    return band


def signed_root(x, den):
    """sign(x) sqrt(x^2 / den) for integers x and den > 0."""
    r = math.sqrt(x * x / den) if x else 0.0
    return r if x > 0 else -r


def kraus_weights(spec):
    """x[i][b] = s C(nu, b) J(i, b)^2 C(mu, i) / C(L, i+b-k), with
    s = c^2 (mu+1)/(L+1), one Fraction of whole binomials per entry."""
    mu, nu, k, big_l = spec.mu, spec.nu, spec.k, spec.target_level
    dj, jint = _jk_integers(spec)
    scalar = c_squared(spec) * normalization_factor(spec)
    p, q = scalar.numerator, scalar.denominator * dj * dj
    cmu, cnu, cl = map(_binomial_row, (mu, nu, big_l))
    x = [[Fraction(0)] * (nu + 1) for _ in range(mu + 1)]
    for i in range(mu + 1):
        for b in range(max(0, k - i), min(nu, big_l + k - i) + 1):
            x[i][b] = Fraction(p * cnu[b] * jint[i][b] ** 2 * cmu[i],
                               q * cl[i + b - k])
    return x
