"""Finite-dimensional representation spaces of polynomials of degree <= nu.

The space of level nu has orthogonal monomial basis {z^i} with
``||z^i||^2 = 1/C(nu, i)`` (the convention forced by the reproducing
kernel (1 + z w~)^nu) and carries the standard SU(2) action.  Operators
are stored by their kernel coefficient matrices, as two integer matrices
over one denominator: an operator with kernel A(x, y) = sum a_ij x^i y~^j
acts by integration against the level measure, so the matrix of the
operator on the monomial basis is ``coeffs @ diag(norms)``.  The
isotypic decomposition of the operator space gives each operator its
spin coordinates, integers over one denominator as well.

Everything in this module is exact; floats appear only in
:meth:`KernelOperator.complex_matrix` and :func:`to_orthonormal_matrix`.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from itertools import chain
from typing import List, Sequence, Tuple

import numpy as np

from .exactnum import CRational


class LevelMismatchError(ValueError):
    pass


@functools.lru_cache(maxsize=256)
def _gram_integers(level: int) -> Tuple[int, Tuple[int, ...]]:
    """The Gram diagonal ||z^i||^2 = 1/C(level, i) over one denominator:
    (W, (W/C(level, i))_i) with W the lcm of the binomials, built once per
    level."""
    binoms = [math.comb(level, i) for i in range(level + 1)]
    big_w = math.lcm(*binoms)
    return big_w, tuple(big_w // c for c in binoms)


def _lowest_terms(d: int, *rows):
    """d and each row of integer rows divided by the gcd of d and every
    entry, as tuples; most entries of a banded operator are 0, and they
    take no part in the gcd and need no division."""
    if d <= 0:
        raise ValueError(f"denominator must be positive, got {d}")
    g = math.gcd(d, *filter(None, chain(*chain(*rows))))
    return (d // g, *(tuple(tuple(row) if g == 1 else
                            tuple([x // g if x else 0 for x in row])
                            for row in m) for m in rows))


def _common_denominator(values) -> Tuple[int, List[int]]:
    """The lcm d of the denominators of some rationals, and each times d."""
    pairs = [v.as_integer_ratio() for v in values]
    d = math.lcm(1, *(q for _, q in pairs))
    return d, [p * (d // q) for p, q in pairs]


class KernelOperator:
    """Operator on the level-mu space stored as its kernel coefficients.

    The coefficient of x^i y~^j in the kernel A(x, y) is
    (re[i][j] + i im[i][j]) / d over one positive integer denominator d,
    kept in lowest terms (d and all entries have gcd 1), so equal
    operators have equal (level, d, re, im).  :attr:`coeffs` gives the
    coefficients as :class:`CRational` rows.
    """

    __slots__ = ("level", "d", "re", "im")

    def __init__(self, level: int, d: int, re: Sequence[Sequence[int]],
                 im: Sequence[Sequence[int]]):
        if level < 0:
            raise ValueError(f"level must be nonnegative, got {level}")
        n = level + 1
        if len(re) != n or len(im) != n \
                or any(len(row) != n for row in (*re, *im)):
            raise ValueError(f"coefficient matrices must be {n}x{n}")
        self.level = level
        self.d, self.re, self.im = _lowest_terms(d, re, im)

    @property
    def coeffs(self) -> List[List[CRational]]:
        """``coeffs[i][j]`` is the coefficient of x^i y~^j, as a new list."""
        return [[CRational(Fraction(x, self.d), Fraction(y, self.d))
                 for x, y in zip(rr, ri)] for rr, ri in zip(self.re, self.im)]

    @property
    def dim(self) -> int:
        return self.level + 1

    def _check_level(self, other: "KernelOperator"):
        if self.level != other.level:
            raise LevelMismatchError(
                f"levels differ: {self.level} vs {other.level}")

    def _combine(self, other: "KernelOperator", sign: int) -> "KernelOperator":
        self._check_level(other)
        d = math.lcm(self.d, other.d)
        s, t = d // self.d, sign * (d // other.d)
        return KernelOperator(self.level, d, *(
            [[x * s + y * t for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
            for a, b in ((self.re, other.re), (self.im, other.im))))

    def __add__(self, other: "KernelOperator") -> "KernelOperator":
        return self._combine(other, 1)

    def __sub__(self, other: "KernelOperator") -> "KernelOperator":
        return self._combine(other, -1)

    def scale(self, c) -> "KernelOperator":
        c = CRational.of(c)
        cd, (p, q) = _common_denominator((c.re, c.im))
        return KernelOperator(self.level, self.d * cd, [
            [p * x - q * y for x, y in zip(rr, ri)]
            for rr, ri in zip(self.re, self.im)], [
            [p * y + q * x for x, y in zip(rr, ri)]
            for rr, ri in zip(self.re, self.im)])

    def adjoint(self) -> "KernelOperator":
        return KernelOperator(self.level, self.d, list(zip(*self.re)),
                              [[-y for y in col] for col in zip(*self.im)])

    def is_hermitian(self) -> bool:
        return self.re == tuple(zip(*self.re)) and self.im == tuple(
            tuple(-y for y in col) for col in zip(*self.im))

    def __eq__(self, other):
        if not isinstance(other, KernelOperator):
            return NotImplemented
        return (self.level, self.d, self.re, self.im) == \
            (other.level, other.d, other.re, other.im)

    def complex_matrix(self) -> np.ndarray:
        """The kernel coefficients in floats; x / d rounds correctly."""
        d = self.d
        return np.array([[complex(x / d, y / d) if x or y else 0j
                          for x, y in zip(rr, ri)]
                         for rr, ri in zip(self.re, self.im)])

    def to_json_dict(self) -> dict:
        return {"level": self.level,
                "coeffs": [{"re": str(v.re), "im": str(v.im)}
                           for row in self.coeffs for v in row]}

    def __repr__(self):
        return f"KernelOperator(level={self.level})"


def reproducing_identity_operator(mu: int) -> KernelOperator:
    """The kernel (1 + x y~)^mu, which acts as the identity."""
    n = mu + 1
    return KernelOperator(mu, 1, [[math.comb(mu, i) if i == j else 0
                                   for j in range(n)] for i in range(n)],
                          [[0] * n for _ in range(n)])


def compose(a: KernelOperator, b: KernelOperator) -> KernelOperator:
    """Kernel composition: coefficient matrix a . G . b, with the complex
    product as one real product [[a_re, -a_im], [a_im, a_re]] [b_re; b_im]."""
    a._check_level(b)
    big_w, w = _gram_integers(a.level)
    ar = [[x * v for x, v in zip(row, w)] for row in a.re]
    ai = [[x * v for x, v in zip(row, w)] for row in a.im]
    out = _matmul([r + [-x for x in i] for r, i in zip(ar, ai)]
                  + [i + r for r, i in zip(ar, ai)], b.re + b.im)
    return KernelOperator(a.level, a.d * b.d * big_w,
                          out[:a.dim], out[a.dim:])


def operator_trace(a: KernelOperator) -> CRational:
    big_w, w = _gram_integers(a.level)
    den = big_w * a.d
    return CRational(*(Fraction(sum(x * m[i][i] for i, x in enumerate(w)), den)
                       for m in (a.re, a.im)))


def to_orthonormal_matrix(a: KernelOperator) -> np.ndarray:
    """Matrix of the operator in the orthonormal basis z^i / ||z^i||.

    M[i][j] = a_ij sqrt(g_i g_j); hermitian iff the operator is
    self-adjoint, and its eigenvalues are the operator's spectrum.
    """
    # sqrt(g_i) in floats; 1 / C rounds correctly
    s = np.sqrt(np.array([1 / math.comb(a.level, i)
                          for i in range(a.level + 1)]))
    return a.complex_matrix() * np.outer(s, s)


def _matmul(a, b):
    """Exact matrix product of integer (or any exact) matrices; zero
    entries are skipped."""
    n, k, mcols = len(a), len(b), len(b[0])
    out = [[0] * mcols for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            v = ai[t]
            if v:
                bt = b[t]
                for j in range(mcols):
                    if bt[j]:
                        oi[j] = oi[j] + v * bt[j]
    return out


# ---------------------------------------------------------------------------
# Isotypic projectors of the adjoint action
# ---------------------------------------------------------------------------

class IsotypicDecomposition:
    """Spectral projectors of the adjoint-action Casimir at level mu.

    Projector m maps B(H_mu) onto the copy of the spin-m irreducible
    (the 2m+1-dimensional component of functions of sharp degree 2m).
    Projectors are exact, idempotent, mutually annihilating and sum to
    the identity on the operator space.

    The Casimir keeps each coefficient diagonal i - j = d.  On the matrix
    units E_ij of that diagonal it is the integer tridiagonal map

      E_ij -> (s_i + s_j + d^2) E_ij - (L-i)(L-j) E_{i+1,j+1} - ij E_{i-1,j-1},

    with s_i = (i(L-i+1) + (i+1)(L-i))/2 and L = mu, whose eigenvalues
    m(m+1), m = |d|..L, are simple.  So projector m on diagonal d is the
    rank-one map v w^T / (w^T v): v is the eigenvector (a dual-Hahn or
    Clebsch-Gordan vector), found exactly by its three-term recurrence,
    and w_t = v_t / (C(L,i) C(L,j)) is its dual under the Hilbert-Schmidt
    form, for which the Casimir is self-adjoint.  The map is symmetric in
    i and j, so the diagonals d and -d share their vectors.

    The scalars c_{m,d} = w^T A / (w^T v), |d| <= m, are the (L+1)^2 spin
    coordinates of A: Pi_m A is c_{m,d} v on diagonal d.  Each v starts at
    v_0 = 1 in the corner cell (d, 0) or (0, -d).  Multiplying a kernel by
    the invariant (1 + x y~)^D keeps its spin and its corner cells, so it
    maps v at level L to exactly v at level L + D: spin coordinates do not
    depend on the level.

    Every v is kept over one denominator of the level, and every w / (w.v)
    over another, so the coordinates of an integer kernel are integer dot
    products over one denominator, and an operator is rebuilt from integer
    coordinates in integers.
    """

    def __init__(self, mu: int):
        self.level = L = mu
        # (m, |d|) -> (dv, v dv, dw, dual dw): v and its dual w / (w.v),
        # each over its common denominator in lowest terms
        rank_one = {}
        for d in range(L + 1):
            n = L - d + 1
            # w_j = v_j / B_j with B_j = C(L, j+d) C(L, j); h_j = lcm(B) / B_j
            hs = [math.comb(L, j + d) * math.comb(L, j) for j in range(n)]
            big_b = math.lcm(*hs)
            h = [big_b // x for x in hs]
            for m in range(d, L + 1):
                lam = m * (m + 1)
                # row (i, j) of (Cas - lam) v = 0 gives v at (i+1, j+1) over
                # (i+1)(j+1); u_j = v_j P_j with P_j = prod_{t<j} (t+d+1)(t+1)
                # runs the recurrence fraction-free
                u = [1]
                for j in range(n - 1):
                    i = j + d
                    # s_i + s_j + d^2 - lam
                    a = (i + j + 1) * L - i * i - j * j + d * d - lam
                    below = (L - i + 1) * (L - j + 1) * i * j * u[j - 1] \
                        if j else 0
                    u.append(a * u[j] - below)
                # v over the common denominator P_{n-1}, reduced by one gcd
                v, big_p = [0] * n, 1
                for j in range(n - 1, 0, -1):
                    v[j] = u[j] * big_p
                    big_p *= (j + d) * j
                v[0] = big_p
                g = math.gcd(big_p, *v)
                dv, v = big_p // g, [x // g for x in v]
                # w / (w.v) = v_j dv h_j / sum_t v_t^2 h_t over the integer v
                dual = [x * dv * y for x, y in zip(v, h)]
                dw = sum(x * x * y for x, y in zip(v, h))
                g = math.gcd(dw, *dual)
                rank_one[(m, d)] = (dv, v, dw // g, [x // g for x in dual])
        # every v over one denominator of the level, and every dual over
        # another: (m, |d|) -> (v v_den, dual dual_den)
        self._v_den = math.lcm(*(t[0] for t in rank_one.values()))
        self._dual_den = math.lcm(*(t[2] for t in rank_one.values()))
        self._vectors = {
            key: (tuple([x * (self._v_den // dv) for x in v]),
                  tuple([x * (self._dual_den // dw) for x in dual]))
            for key, (dv, v, dw, dual) in rank_one.items()}

    def coordinates(self, a: KernelOperator) \
            -> Tuple[int, List[List[int]], List[List[int]]]:
        """Spin coordinates of A over one denominator: (den, re, im) with
        (re[m][m + d] + i im[m][m + d]) / den = c_{m,d}, d = -m..m."""
        if a.level != self.level:
            raise LevelMismatchError(
                f"expected level {self.level}, got {a.level}")
        L = self.level
        re = [[0] * (2 * m + 1) for m in range(L + 1)]
        im = [[0] * (2 * m + 1) for m in range(L + 1)]
        for d in range(-L, L + 1):
            # diagonal d of the kernel, from its corner cell (d, 0) or (0, -d)
            r0, c0 = max(d, 0), max(-d, 0)
            xr = [a.re[r0 + j][c0 + j] for j in range(L + 1 - abs(d))]
            xi = [a.im[r0 + j][c0 + j] for j in range(L + 1 - abs(d))]
            if not (any(xr) or any(xi)):
                continue
            for m in range(abs(d), L + 1):
                dual = self._vectors[(m, abs(d))][1]
                re[m][m + d] = sum(map(operator.mul, dual, xr))
                im[m][m + d] = sum(map(operator.mul, dual, xi))
        return self._dual_den * a.d, re, im

    def operator(self, den: int, re: Sequence[Sequence[int]],
                 im: Sequence[Sequence[int]]) -> KernelOperator:
        """The operator with spin coordinates (re + i im) / den, rows as in
        :meth:`coordinates`; rows past the end, and empty rows, are zero
        components."""
        n = self.level + 1
        kre = [[0] * n for _ in range(n)]
        kim = [[0] * n for _ in range(n)]
        for m, (rr, ri) in enumerate(zip(re, im)):
            for d, x, y in zip(range(-m, m + 1), rr, ri):
                if x or y:
                    r0, c0 = max(d, 0), max(-d, 0)
                    for j, t in enumerate(self._vectors[(m, abs(d))][0]):
                        kre[r0 + j][c0 + j] += x * t
                        kim[r0 + j][c0 + j] += y * t
        return KernelOperator(self.level, den * self._v_den, kre, kim)

    def project(self, m: int, a: KernelOperator) -> KernelOperator:
        """Spectral projector Pi_m applied to A."""
        if not 0 <= m <= self.level:
            raise IndexError(f"component {m} out of range for level {self.level}")
        den, re, im = self.coordinates(a)
        return self.operator(den, [()] * m + [re[m]], [()] * m + [im[m]])


def isotypic_projectors(mu: int) -> IsotypicDecomposition:
    return IsotypicDecomposition(mu)
