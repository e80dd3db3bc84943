"""Finite-dimensional representation spaces of polynomials of degree <= nu.

The space of level nu has orthogonal monomial basis {z^i} with
``||z^i||^2 = 1/C(nu, i)`` (the convention forced by the reproducing
kernel (1 + z w~)^nu) and carries the standard SU(2) action.  An operator
with kernel A(x, y) = sum a_ij x^i y~^j acts by integration against the
level measure, so its matrix on the monomial basis is its coefficient
matrix times ``diag(norms)``.  Operators are stored by kernel diagonal
i - j = t, |t| <= w, as two integer parts over one denominator, so the
banded channel outputs cost O(L w), not O(L^2).  The isotypic
decomposition of the operator space gives each operator its spin
coordinates, integers over one denominator as well.

Everything in this module is exact.
"""

from __future__ import annotations

import functools
import math
import operator
from itertools import chain
from typing import List, Sequence, Tuple


@functools.lru_cache(maxsize=256)
def _binomial_row(n: int) -> Tuple[int, ...]:
    """C(n, i) for i = 0..n, each from the one before: C(n, i+1) =
    C(n, i) (n - i) / (i + 1), a small factor and an exact division where
    math.comb would start over for every i; cached as _gram_integers is."""
    row = [1]
    for i in range(n):
        row.append(row[-1] * (n - i) // (i + 1))
    return tuple(row)


@functools.lru_cache(maxsize=256)
def _gram_integers(level: int) -> Tuple[int, Tuple[int, ...]]:
    """The Gram diagonal ||z^i||^2 = 1/C(level, i) over one denominator:
    (W, (W/C(level, i))_i) with W the lcm of the binomials, built once per
    level."""
    binoms = _binomial_row(level)
    big_w = math.lcm(*binoms)
    return big_w, tuple(big_w // c for c in binoms)


def _lowest_terms(d: int, *rows):
    """d and each row of integer rows divided by the gcd of d and every
    entry, as tuples; zero entries take no part in the gcd."""
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


class _IntegerForm:
    """(level, d, re, im) in lowest terms: equal values, equal tuples."""

    __slots__ = ("level", "d", "re", "im")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.level, self.d, self.re, self.im) == \
            (other.level, other.d, other.re, other.im)

    def __repr__(self):
        return f"{type(self).__name__}(level={self.level})"


class KernelOperator(_IntegerForm):
    """Operator on the level-mu space stored as its kernel coefficients.

    The coefficient of x^i y~^j is (x + i y) / d over one positive integer
    denominator d.  ``re[w + t]`` and ``im[w + t]`` hold diagonal i - j = t,
    |t| <= w <= level, from its corner cell (max(t, 0), max(-t, 0)) down;
    outer diagonals that are zero in both parts are dropped, and d and all
    entries have gcd 1, so equal operators have equal (level, d, re, im).
    A dense operator has w = level.
    """

    __slots__ = ()

    def __init__(self, level: int, d: int, re: Sequence[Sequence[int]],
                 im: Sequence[Sequence[int]]):
        w = len(re) // 2
        shape = [level + 1 - abs(t) for t in range(-w, w + 1)]
        if not 0 <= w <= level or list(map(len, re)) != shape \
                or list(map(len, im)) != shape:
            raise ValueError(f"need 2w+1 diagonals of lengths level+1-|t|, "
                             f"w <= level = {level}")
        self.level = level
        d, re, im = _lowest_terms(d, re, im)
        while w and not any(chain(re[0], re[-1], im[0], im[-1])):
            re, im, w = re[1:-1], im[1:-1], w - 1
        self.d, self.re, self.im = d, re, im

    @property
    def width(self) -> int:
        """The band: every stored diagonal t has |t| <= width."""
        return len(self.re) // 2

    @property
    def dim(self) -> int:
        return self.level + 1

    def scale(self, c) -> "KernelOperator":
        """c times the operator, for a rational c (an int or a Fraction)."""
        p, q = c.numerator, c.denominator
        return KernelOperator(self.level, self.d * q,
                              *([[p * x for x in row] for row in m]
                                for m in (self.re, self.im)))

    def adjoint(self) -> "KernelOperator":
        """Coefficient (i, j) of A* is that of A at (j, i), conjugated:
        diagonal t of A* is diagonal -t of A."""
        return KernelOperator(self.level, self.d, self.re[::-1],
                              [[-y for y in x] for x in self.im[::-1]])

    def is_hermitian(self) -> bool:
        return self == self.adjoint()


def _rows(a: KernelOperator) -> Tuple[List[List[int]], List[List[int]]]:
    """a's two parts as dense integer rows: (i, j) from diagonal i - j."""
    n, w = a.dim, a.width
    return tuple([[x[w + i - j][min(i, j)] if abs(i - j) <= w else 0
                   for j in range(n)] for i in range(n)] for x in (a.re, a.im))


def _from_dense(level: int, d: int, re, im) -> KernelOperator:
    """(re + i im) / d, each part a matrix laid out row by row in a list."""
    n = level + 1
    return KernelOperator(level, d, *(
        [x[max(t * n, -t)::n + 1][:n - abs(t)] for t in range(-level, n)]
        for x in (re, im)))


def compose(a: KernelOperator, b: KernelOperator) -> KernelOperator:
    """Kernel composition: coefficient matrix a . G . b, with the complex
    product as one real product [[a_re, -a_im], [a_im, a_re]] [b_re; b_im]."""
    if a.level != b.level:
        raise ValueError(f"levels differ: {a.level} vs {b.level}")
    big_w, w = _gram_integers(a.level)
    ar, ai = ([[x * v for x, v in zip(row, w)] for row in m]
              for m in _rows(a))
    br, bi = _rows(b)
    out = _matmul([r + [-x for x in i] for r, i in zip(ar, ai)]
                  + [i + r for r, i in zip(ar, ai)], br + bi)
    return _from_dense(a.level, a.d * b.d * big_w, list(chain(*out[:a.dim])),
                       list(chain(*out[a.dim:])))


def _trace_integers(a: KernelOperator) -> Tuple[int, int, int]:
    """(den, re, im): the trace sum_i a_ii / C(level, i), from diagonal 0."""
    big_w, w = _gram_integers(a.level)
    return (big_w * a.d, *(sum(map(operator.mul, w, m[a.width]))
                           for m in (a.re, a.im)))


def _matmul(a, b):
    """Exact matrix product of integer (or any exact) matrices, row by row;
    zero entries of a are skipped."""
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for v, brow in zip(row, b):
            if v:
                acc = [o + v * x for o, x in zip(acc, brow)]
        out.append(acc)
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
            raise ValueError(f"expected level {self.level}, got {a.level}")
        L, w = self.level, a.width
        re, im = ([[0] * (2 * m + 1) for m in range(L + 1)] for _ in range(2))
        for d, xr, xi in zip(range(-w, w + 1), a.re, a.im):
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
        L = self.level
        kre, kim = ([[0] * (L + 1 - abs(d)) for d in range(-L, L + 1)]
                    for _ in range(2))
        for m, (rr, ri) in enumerate(zip(re, im)):
            for d, x, y in zip(range(-m, m + 1), rr, ri):
                if x or y:
                    for j, t in enumerate(self._vectors[(m, abs(d))][0]):
                        kre[L + d][j] += x * t
                        kim[L + d][j] += y * t
        return KernelOperator(L, den * self._v_den, kre, kim)

    def project(self, m: int, a: KernelOperator) -> KernelOperator:
        """Spectral projector Pi_m applied to A."""
        if not 0 <= m <= self.level:
            raise IndexError(f"component {m} out of range for level {self.level}")
        den, re, im = self.coordinates(a)
        return self.operator(den, [()] * m + [re[m]], [()] * m + [im[m]])
