"""Finite-dimensional representation spaces of polynomials of degree <= nu.

The space of level nu has orthogonal monomial basis {z^i} with
``||z^i||^2 = 1/C(nu, i)`` (the convention forced by the reproducing
kernel (1 + z w~)^nu) and carries the standard SU(2) action.  Operators
are stored by their kernel coefficient matrices, as two integer matrices
over one denominator: an operator with kernel A(x, y) = sum a_ij x^i y~^j
acts by integration against the level measure, so the matrix of the
operator on the monomial basis is ``coeffs @ diag(norms)``.

Everything in this module is exact; floats appear only in
:meth:`KernelOperator.complex_matrix` and :func:`to_orthonormal_matrix`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import List, Sequence, Tuple

import numpy as np

from .exactnum import CRational, Rational, binomial


class LevelMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class PolySpaceParams:
    """Level nu of a polynomial representation space (dimension nu + 1)."""

    nu: int

    def __post_init__(self):
        if self.nu < 0:
            raise ValueError(f"level must be nonnegative, got {self.nu}")

    @property
    def dim(self) -> int:
        return self.nu + 1


def monomial_norm_sq(space: PolySpaceParams, i: int) -> Rational:
    """Squared norm of z^i at level nu: 1/C(nu, i)."""
    if i < 0 or i > space.nu:
        raise IndexError(f"monomial index {i} out of range for level {space.nu}")
    return 1 / binomial(space.nu, i)


def gram_diagonal(nu: int) -> List[Rational]:
    space = PolySpaceParams(nu)
    return [monomial_norm_sq(space, i) for i in range(nu + 1)]


def inner_product(space: PolySpaceParams, f: Sequence, g: Sequence) -> CRational:
    """<f, g> for monomial coefficient vectors of length nu + 1."""
    if len(f) != space.dim or len(g) != space.dim:
        raise ValueError(
            f"coefficient vectors must have length {space.dim}, "
            f"got {len(f)} and {len(g)}")
    out = CRational(0)
    for i in range(space.dim):
        out = out + CRational.of(f[i]) * CRational.of(g[i]).conj() \
            * monomial_norm_sq(space, i)
    return out


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
        if d <= 0:
            raise ValueError(f"denominator must be positive, got {d}")
        # most entries of a banded operator are 0: they take no part in
        # the gcd and need no division
        g = math.gcd(d, *filter(None, chain(*re, *im)))
        self.level, self.d = level, d // g
        self.re, self.im = (tuple(tuple(row) if g == 1 else
                                  tuple([x // g if x else 0 for x in row])
                                  for row in m) for m in (re, im))

    @classmethod
    def from_rows(cls, level: int, coeffs: Sequence[Sequence]) \
            -> "KernelOperator":
        """The operator whose kernel coefficients are the given scalars."""
        n = level + 1
        if len(coeffs) != n or any(len(row) != n for row in coeffs):
            raise ValueError(f"coefficient matrix must be {n}x{n}")
        flat = [CRational.of(v) for row in coeffs for v in row]
        d, ints = _common_denominator([v.re for v in flat]
                                      + [v.im for v in flat])
        return cls(level, d, [ints[i:i + n] for i in range(0, n * n, n)],
                   [ints[i:i + n] for i in range(n * n, 2 * n * n, n)])

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


def rank_one(level: int, f: Sequence, g: Sequence) -> KernelOperator:
    """The operator f (x) g~ with kernel f(x) g(y)~."""
    fv = [CRational.of(v) for v in f]
    gv = [CRational.of(v) for v in g]
    return KernelOperator.from_rows(level, [[fv[i] * gv[j].conj()
                                             for j in range(level + 1)]
                                            for i in range(level + 1)])


def compose(a: KernelOperator, b: KernelOperator) -> KernelOperator:
    """Kernel composition: coefficient matrix a . G . b, with the complex
    product as one real product [[a_re, -a_im], [a_im, a_re]] [b_re; b_im]."""
    a._check_level(b)
    big_w, w = _common_denominator(gram_diagonal(a.level))
    ar = [[x * v for x, v in zip(row, w)] for row in a.re]
    ai = [[x * v for x, v in zip(row, w)] for row in a.im]
    out = _matmul([r + [-x for x in i] for r, i in zip(ar, ai)]
                  + [i + r for r, i in zip(ar, ai)], b.re + b.im)
    return KernelOperator(a.level, a.d * b.d * big_w,
                          out[:a.dim], out[a.dim:])


def operator_trace(a: KernelOperator) -> CRational:
    big_w, w = _common_denominator(gram_diagonal(a.level))
    den = big_w * a.d
    return CRational(*(Fraction(sum(x * m[i][i] for i, x in enumerate(w)), den)
                       for m in (a.re, a.im)))


def to_orthonormal_matrix(a: KernelOperator) -> np.ndarray:
    """Matrix of the operator in the orthonormal basis z^i / ||z^i||.

    M[i][j] = a_ij sqrt(g_i g_j); hermitian iff the operator is
    self-adjoint, and its eigenvalues are the operator's spectrum.
    """
    s = _orthonormal_scale(a.level)
    return a.complex_matrix() * np.outer(s, s)


def _orthonormal_scale(level: int) -> np.ndarray:
    """sqrt(g_i) in floats; 1 / C rounds correctly."""
    return np.sqrt(np.array([1 / math.comb(level, i)
                             for i in range(level + 1)]))


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
    """

    def __init__(self, mu: int):
        self.level = L = mu
        # (m, |d|) -> (dv, v dv, dw, dual dw): v and its dual w / (w.v),
        # each over its common denominator
        self._rank_one: dict = {}
        for d in range(L + 1):
            for m in range(d, L + 1):
                lam = m * (m + 1)
                # row (i, j) of (Cas - lam) v = 0 gives v at (i+1, j+1)
                v = [Fraction(1)]
                for j in range(L - d):
                    i = j + d
                    # s_i + s_j + d^2 - lam
                    a = (i + j + 1) * L - i * i - j * j + d * d - lam
                    below = (L - i + 1) * (L - j + 1) * v[j - 1] if j else 0
                    v.append((a * v[j] - below) / ((i + 1) * (j + 1)))
                w = [x / (math.comb(L, j + d) * math.comb(L, j))
                     for j, x in enumerate(v)]
                norm = sum(x * y for x, y in zip(v, w))
                self._rank_one[(m, d)] = (
                    *_common_denominator(v),
                    *_common_denominator(x / norm for x in w))

    def _diagonal(self, m: int, d: int):
        """dv, v dv, dw, dual dw and the kernel cells (i, j) of spin m on
        diagonal d."""
        dv, v, dw, dual = self._rank_one[(m, abs(d))]
        return dv, v, dw, dual, [(j + d, j) if d >= 0 else (j, j - d)
                                 for j in range(len(v))]

    def _row(self, a: KernelOperator, m: int) -> List[CRational]:
        """The 2m+1 spin-m coordinates c_{m,d} of A, d = -m..m."""
        if a.level != self.level:
            raise LevelMismatchError(
                f"expected level {self.level}, got {a.level}")
        row = []
        for d in range(-m, m + 1):
            _, _, dw, dual, cells = self._diagonal(m, d)
            den = dw * a.d
            row.append(CRational(
                Fraction(sum(c * a.re[i][j] for c, (i, j) in zip(dual, cells)),
                         den),
                Fraction(sum(c * a.im[i][j] for c, (i, j) in zip(dual, cells)),
                         den)))
        return row

    def coordinates(self, a: KernelOperator) -> List[List[CRational]]:
        """Spin coordinates of A: row m holds c_{m,d} for d = -m..m."""
        return [self._row(a, m) for m in range(self.level + 1)]

    def operator(self, coords: Sequence[Sequence]) -> KernelOperator:
        """The operator with the given spin coordinates; rows past the end
        of ``coords``, and empty rows, are zero components."""
        terms = []      # (denominator, re, im numerators, v dv, cells)
        for m, row in enumerate(coords):
            for d, c in zip(range(-m, m + 1), row):
                if c:
                    c = CRational.of(c)
                    cd, (p, q) = _common_denominator((c.re, c.im))
                    dv, v, _, _, cells = self._diagonal(m, d)
                    terms.append((cd * dv, p, q, v, cells))
        den = math.lcm(1, *(t[0] for t in terms))
        n = self.level + 1
        re = [[0] * n for _ in range(n)]
        im = [[0] * n for _ in range(n)]
        for t, p, q, v, cells in terms:
            p, q = p * (den // t), q * (den // t)
            for x, (i, j) in zip(v, cells):
                re[i][j] += p * x
                im[i][j] += q * x
        return KernelOperator(self.level, den, re, im)

    def project(self, m: int, a: KernelOperator) -> KernelOperator:
        """Spectral projector Pi_m applied to A."""
        if not 0 <= m <= self.level:
            raise IndexError(f"component {m} out of range for level {self.level}")
        return self.operator([[]] * m + [self._row(a, m)])

    def components(self, a: KernelOperator) -> List[KernelOperator]:
        return [self.project(m, a) for m in range(self.level + 1)]


def isotypic_projectors(mu: int) -> IsotypicDecomposition:
    return IsotypicDecomposition(mu)
