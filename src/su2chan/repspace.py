"""Finite-dimensional representation spaces of polynomials of degree <= nu.

The space of level nu has orthogonal monomial basis {z^i} with
``||z^i||^2 = 1/C(nu, i)`` (the convention forced by the reproducing
kernel (1 + z w~)^nu) and carries the standard SU(2) action.  Operators
are stored by their kernel coefficient matrices: an operator with kernel
A(x, y) = sum a_ij x^i y~^j acts by integration against the level
measure, so the matrix of the operator on the monomial basis is
``coeffs @ diag(norms)``.

Everything in this module is exact; floats appear only in
:func:`to_orthonormal_matrix`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence

import numpy as np

from .exactnum import CRational, Rational, binomial


class LevelMismatchError(ValueError):
    pass


class NotUnitaryInputError(ValueError):
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


def _zero_coeffs(n: int) -> List[List[CRational]]:
    return [[CRational(0) for _ in range(n)] for _ in range(n)]


class KernelOperator:
    """Operator on the level-mu space stored as its kernel coefficients.

    ``coeffs[i][j]`` is the coefficient of x^i y~^j in the kernel A(x, y).
    """

    __slots__ = ("level", "coeffs")

    def __init__(self, level: int, coeffs: Sequence[Sequence]):
        if level < 0:
            raise ValueError(f"level must be nonnegative, got {level}")
        n = level + 1
        if len(coeffs) != n or any(len(row) != n for row in coeffs):
            raise ValueError(f"coefficient matrix must be {n}x{n}")
        self.level = level
        self.coeffs = [[CRational.of(v) for v in row] for row in coeffs]

    @classmethod
    def zero(cls, level: int) -> "KernelOperator":
        return cls(level, _zero_coeffs(level + 1))

    @property
    def dim(self) -> int:
        return self.level + 1

    def _check_level(self, other: "KernelOperator"):
        if self.level != other.level:
            raise LevelMismatchError(
                f"levels differ: {self.level} vs {other.level}")

    def __add__(self, other: "KernelOperator") -> "KernelOperator":
        self._check_level(other)
        return KernelOperator(self.level, [
            [a + b for a, b in zip(ra, rb)]
            for ra, rb in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "KernelOperator") -> "KernelOperator":
        self._check_level(other)
        return KernelOperator(self.level, [
            [a - b for a, b in zip(ra, rb)]
            for ra, rb in zip(self.coeffs, other.coeffs)])

    def scale(self, c) -> "KernelOperator":
        c = CRational.of(c)
        return KernelOperator(self.level,
                              [[c * v for v in row] for row in self.coeffs])

    def adjoint(self) -> "KernelOperator":
        n = self.dim
        return KernelOperator(self.level, [
            [self.coeffs[j][i].conj() for j in range(n)] for i in range(n)])

    def is_hermitian(self) -> bool:
        n = self.dim
        return all(self.coeffs[i][j] == self.coeffs[j][i].conj()
                   for i in range(n) for j in range(i, n))

    def is_zero(self) -> bool:
        return all(not v for row in self.coeffs for v in row)

    def __eq__(self, other):
        if not isinstance(other, KernelOperator):
            return NotImplemented
        return self.level == other.level and all(
            a == b for ra, rb in zip(self.coeffs, other.coeffs)
            for a, b in zip(ra, rb))

    def apply(self, vec: Sequence) -> List[CRational]:
        """Apply to a monomial coefficient vector: (A f)_i = sum_j a_ij g_j f_j."""
        if len(vec) != self.dim:
            raise ValueError(f"expected vector of length {self.dim}")
        g = gram_diagonal(self.level)
        return [sum((self.coeffs[i][j] * g[j] * CRational.of(vec[j])
                     for j in range(self.dim)), CRational(0))
                for i in range(self.dim)]

    def to_json_dict(self) -> dict:
        def fmt(v: CRational) -> dict:
            return {"re": str(v.re), "im": str(v.im)}
        return {"level": self.level,
                "coeffs": [fmt(v) for row in self.coeffs for v in row]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "KernelOperator":
        level = int(d["level"])
        n = level + 1
        flat = [CRational(Fraction(v["re"]), Fraction(v["im"]))
                for v in d["coeffs"]]
        if len(flat) != n * n:
            raise ValueError("coefficient array has wrong length")
        return cls(level, [flat[i * n:(i + 1) * n] for i in range(n)])

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    def __repr__(self):
        return f"KernelOperator(level={self.level})"


def reproducing_identity_operator(mu: int) -> KernelOperator:
    """The kernel (1 + x y~)^mu, which acts as the identity."""
    coeffs = _zero_coeffs(mu + 1)
    for i in range(mu + 1):
        coeffs[i][i] = CRational(binomial(mu, i))
    return KernelOperator(mu, coeffs)


def rank_one(level: int, f: Sequence, g: Sequence) -> KernelOperator:
    """The operator f (x) g~ with kernel f(x) g(y)~."""
    fv = [CRational.of(v) for v in f]
    gv = [CRational.of(v) for v in g]
    return KernelOperator(level, [[fv[i] * gv[j].conj()
                                   for j in range(level + 1)]
                                  for i in range(level + 1)])


def compose(a: KernelOperator, b: KernelOperator) -> KernelOperator:
    """Kernel composition: coefficient matrix a . G . b."""
    a._check_level(b)
    g = gram_diagonal(a.level)
    ag = [[v * g[m] for m, v in enumerate(row)] for row in a.coeffs]
    return KernelOperator(a.level, _matmul(ag, b.coeffs))


def operator_trace(a: KernelOperator) -> CRational:
    g = gram_diagonal(a.level)
    out = CRational(0)
    for i in range(a.dim):
        out = out + a.coeffs[i][i] * g[i]
    return out


def to_orthonormal_matrix(a: KernelOperator) -> np.ndarray:
    """Matrix of the operator in the orthonormal basis z^i / ||z^i||.

    M[i][j] = a_ij sqrt(g_i g_j); hermitian iff the operator is
    self-adjoint, and its eigenvalues are the operator's spectrum.
    """
    g = np.array([float(v) for v in gram_diagonal(a.level)])
    s = np.sqrt(g)
    # a channel output is banded, so most entries are exact zeros
    c = np.array([[complex(v) if v else 0j for v in row]
                  for row in a.coeffs])
    return c * np.outer(s, s)


@dataclass(frozen=True)
class GroupElement:
    """Rational point (a, b) of SU(2): |a|^2 + |b|^2 = 1 exactly."""

    a: CRational
    b: CRational

    def __post_init__(self):
        if self.a.abs2() + self.b.abs2() != 1:
            raise NotUnitaryInputError(
                "group element requires |a|^2 + |b|^2 = 1 exactly")

    @classmethod
    def identity(cls) -> "GroupElement":
        return cls(CRational(1), CRational(0))

    @classmethod
    def from_rationals(cls, a_re, a_im, b_re, b_im) -> "GroupElement":
        return cls(CRational(Fraction(a_re), Fraction(a_im)),
                   CRational(Fraction(b_re), Fraction(b_im)))


def _poly_mul(p: List[CRational], q: List[CRational]) -> List[CRational]:
    out = [CRational(0)] * (len(p) + len(q) - 1)
    for i, pv in enumerate(p):
        if not pv:
            continue
        for j, qv in enumerate(q):
            if qv:
                out[i + j] = out[i + j] + pv * qv
    return out


def _poly_pow(p: List[CRational], n: int) -> List[CRational]:
    out = [CRational(1)]
    for _ in range(n):
        out = _poly_mul(out, p)
    return out


def group_action_matrix(space: PolySpaceParams, g: GroupElement) \
        -> List[List[CRational]]:
    """Matrix of the action on the monomial basis.

    Column j holds the coefficients of (a z + b)^j (-b~ z + a~)^(nu - j),
    the image of z^j.  The result is unitary for the Gram form G:
    M* G M = G exactly.
    """
    nu = space.nu
    cols = []
    for j in range(nu + 1):
        p = _poly_pow([g.b, g.a], j)
        q = _poly_pow([g.a.conj(), -g.b.conj()], nu - j)
        col = _poly_mul(p, q)
        col += [CRational(0)] * (nu + 1 - len(col))
        cols.append(col[:nu + 1])
    return [[cols[j][i] for j in range(nu + 1)] for i in range(nu + 1)]


def conjugate_operator(a: KernelOperator, g: GroupElement) -> KernelOperator:
    """g A g^{-1} computed on operator matrices, returned as kernel coeffs."""
    nu = a.level
    m = group_action_matrix(PolySpaceParams(nu), g)
    gram = gram_diagonal(nu)
    n = nu + 1
    # operator matrix of A on monomials
    op = [[a.coeffs[i][j] * gram[j] for j in range(n)] for i in range(n)]
    # m_inv = G^{-1} m^H G  (unitarity w.r.t. the Gram form)
    m_inv = [[m[j][i].conj() * gram[j] / gram[i] for j in range(n)]
             for i in range(n)]
    prod = _matmul(_matmul(m, op), m_inv)
    coeffs = [[prod[i][j] / gram[j] for j in range(n)] for i in range(n)]
    return KernelOperator(nu, coeffs)


def _matmul(a, b):
    """Exact matrix product over any mix of int/Fraction/CRational entries."""
    n, k, mcols = len(a), len(b), len(b[0])
    out = [[CRational(0) for _ in range(mcols)] for _ in range(n)]
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
        # (m, |d|) -> (v, w / (w.v))
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
                self._rank_one[(m, d)] = (v, [x / norm for x in w])

    def _diagonal(self, m: int, d: int):
        """Vector, scaled dual and kernel cells (i, j) of spin m on diagonal d."""
        v, dual = self._rank_one[(m, abs(d))]
        return v, dual, [(j + d, j) if d >= 0 else (j, j - d)
                         for j in range(len(v))]

    def _row(self, a: KernelOperator, m: int) -> List[CRational]:
        """The 2m+1 spin-m coordinates c_{m,d} of A, d = -m..m."""
        if a.level != self.level:
            raise LevelMismatchError(
                f"expected level {self.level}, got {a.level}")
        row = []
        for d in range(-m, m + 1):
            _, dual, cells = self._diagonal(m, d)
            entries = [a.coeffs[i][j] for i, j in cells]
            row.append(CRational(sum(c * e.re for c, e in zip(dual, entries)),
                                 sum(c * e.im for c, e in zip(dual, entries))))
        return row

    def coordinates(self, a: KernelOperator) -> List[List[CRational]]:
        """Spin coordinates of A: row m holds c_{m,d} for d = -m..m."""
        return [self._row(a, m) for m in range(self.level + 1)]

    def operator(self, coords: Sequence[Sequence]) -> KernelOperator:
        """The operator with the given spin coordinates; rows past the end
        of ``coords``, and empty rows, are zero components."""
        out = KernelOperator.zero(self.level)
        for m, row in enumerate(coords):
            for d, c in zip(range(-m, m + 1), row):
                if c:
                    v, _, cells = self._diagonal(m, d)
                    for x, (i, j) in zip(v, cells):
                        out.coeffs[i][j] = out.coeffs[i][j] + c * x
        return out

    def project(self, m: int, a: KernelOperator) -> KernelOperator:
        """Spectral projector Pi_m applied to A."""
        if not 0 <= m <= self.level:
            raise IndexError(f"component {m} out of range for level {self.level}")
        return self.operator([[]] * m + [self._row(a, m)])

    def components(self, a: KernelOperator) -> List[KernelOperator]:
        return [self.project(m, a) for m in range(self.level + 1)]


def isotypic_projectors(mu: int) -> IsotypicDecomposition:
    return IsotypicDecomposition(mu)
