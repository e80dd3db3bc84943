"""Tests for the polynomial representation spaces, kernel operators,
group action, and isotypic decomposition of the operator algebra."""

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from su2chan.quadrature import random_operator
from su2chan.symbolcalc import symbol
from su2chan.repspace import (
    IsotypicDecomposition,
    KernelOperator,
    _common_denominator,
    _from_dense,
    _gram_integers,
    _rows,
    _trace_integers,
    compose,
)

from bignum_oracles import orthonormal_band, toeplitz
from numpy_oracles import (DenseGrid, assert_band_matches_dense,
                           dense_orthonormal_matrix)
from test_exactnum import CQ, binomial

RNG_SEED = 1234


# ---------------------------------------------------------------------------
# The level-nu space with its Gram form as Fractions: the package keeps the
# Gram diagonal only as integers over one denominator (_gram_integers)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolySpaceParams:
    """Level nu of a polynomial representation space (dimension nu + 1)."""

    nu: int

    def __post_init__(self):
        if self.nu < 0:
            raise ValueError(f"level must be nonnegative, got {self.nu}")

    @property
    def dim(self):
        return self.nu + 1


def monomial_norm_sq(space, i):
    """Squared norm of z^i at level nu: 1/C(nu, i)."""
    if i < 0 or i > space.nu:
        raise IndexError(f"monomial index {i} out of range for level {space.nu}")
    return 1 / binomial(space.nu, i)


def gram_diagonal(nu):
    space = PolySpaceParams(nu)
    return [monomial_norm_sq(space, i) for i in range(nu + 1)]


def inner_product(space, f, g):
    """<f, g> for monomial coefficient vectors of length nu + 1."""
    if len(f) != space.dim or len(g) != space.dim:
        raise ValueError(
            f"coefficient vectors must have length {space.dim}, "
            f"got {len(f)} and {len(g)}")
    out = CQ(0)
    for i in range(space.dim):
        out = out + CQ.of(f[i]) * CQ.of(g[i]).conj() \
            * monomial_norm_sq(space, i)
    return out


def kernel_from_rows(level, coeffs):
    """The operator whose kernel coefficients are the given scalars, over
    their common denominator."""
    n = level + 1
    if len(coeffs) != n or any(len(row) != n for row in coeffs):
        raise ValueError(f"coefficient matrix must be {n}x{n}")
    flat = [CQ.of(v) for row in coeffs for v in row]
    d, ints = _common_denominator([v.re for v in flat]
                                  + [v.im for v in flat])
    return _from_dense(level, d, ints[:n * n], ints[n * n:])


def banded_rows(level, w, diagonals):
    """Dense rows with the given diagonals t = -w..w, each from its
    corner cell, and zeros outside the band."""
    n = level + 1
    rows = [[0] * n for _ in range(n)]
    for t, diag in zip(range(-w, w + 1), diagonals):
        for j, x in enumerate(diag):
            rows[max(t, 0) + j][max(-t, 0) + j] = x
    return rows


def kernel_sum(a, b, sign=1):
    """a + sign b through the CQ coefficient rows (the package itself never
    adds operators)."""
    assert a.level == b.level
    return kernel_from_rows(a.level, [
        [x + y if sign > 0 else x - y for x, y in zip(ra, rb)]
        for ra, rb in zip(coeff_rows(a), coeff_rows(b))])


def coordinate_rows(den, re, im):
    """Integer rows over den, kernel coefficients or spin coordinates, as
    CQ rows."""
    return [[CQ(Fraction(x, den), Fraction(y, den)) for x, y in zip(rr, ri)]
            for rr, ri in zip(re, im)]


def coeff_rows(a):
    """The kernel coefficients of a as CQ rows: coeff_rows(a)[i][j] is the
    coefficient of x^i y~^j."""
    return coordinate_rows(a.d, *_rows(a))


def trace(a):
    """Tr a as a CQ, from the package's integer trace."""
    den, re, im = _trace_integers(a)
    return CQ(Fraction(re, den), Fraction(im, den))


def rank_one(level, f, g):
    """The operator f (x) g~ with kernel f(x) g(y)~."""
    fv = [CQ.of(v) for v in f]
    gv = [CQ.of(v) for v in g]
    return kernel_from_rows(level, [[fv[i] * gv[j].conj()
                                     for j in range(level + 1)]
                                    for i in range(level + 1)])


# ---------------------------------------------------------------------------
# Independent oracle: the adjoint Casimir built from the sl2 generators
# ---------------------------------------------------------------------------

def su2_generator_matrices(mu):
    """Monomial-basis matrices of the sl2 triple (E, F, H) at level mu.

    E = z^2 d/dz - mu z (raising), F = -d/dz (lowering) and
    H = 2 z d/dz - mu (weight), so [E, F] = H, [H, E] = 2E,
    [H, F] = -2F.  Integer entries.
    """
    n = mu + 1
    e = [[Fraction(0)] * n for _ in range(n)]
    f = [[Fraction(0)] * n for _ in range(n)]
    h = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        if j + 1 <= mu:
            e[j + 1][j] = Fraction(j - mu)
        if j >= 1:
            f[j - 1][j] = Fraction(-j)
        h[j][j] = Fraction(2 * j - mu)
    return e, f, h


def casimir_on_operators(mu):
    """Quadratic Casimir of the adjoint action on operators at level mu.

    Normalized so the component isomorphic to the spin-m irreducible has
    eigenvalue m (m + 1):  Cas(A) = ([E,[F,A]] + [F,[E,A]]) / 2 + [H,[H,A]] / 4,
    computed with commutators of operator matrices.
    """
    e, f, h = su2_generator_matrices(mu)
    gram = gram_diagonal(mu)
    n = mu + 1

    def comm(x, m):
        # [x, m] summed over the few nonzero generator entries x[p][q]
        out = [[CQ(0)] * n for _ in range(n)]
        for p in range(n):
            for q in range(n):
                if x[p][q]:
                    for j in range(n):
                        out[p][j] = out[p][j] + x[p][q] * m[q][j]
                        out[j][q] = out[j][q] - m[j][p] * x[p][q]
        return out

    def cas(a):
        assert a.level == mu
        m = [[v * gram[j] for j, v in enumerate(row)]
             for row in coeff_rows(a)]
        ef = comm(e, comm(f, m))
        fe = comm(f, comm(e, m))
        hh = comm(h, comm(h, m))
        return kernel_from_rows(mu, [
            [((ef[i][j] + fe[i][j]) * Fraction(1, 2)
              + hh[i][j] * Fraction(1, 4)) / gram[j] for j in range(n)]
            for i in range(n)])

    return cas


# ---------------------------------------------------------------------------
# The group action on monomials, the oracle for equivariance
# ---------------------------------------------------------------------------

class NotUnitaryInputError(ValueError):
    pass


@dataclass(frozen=True)
class GroupElement:
    """Rational point (a, b) of SU(2): |a|^2 + |b|^2 = 1 exactly."""

    a: CQ
    b: CQ

    def __post_init__(self):
        if self.a.abs2() + self.b.abs2() != 1:
            raise NotUnitaryInputError(
                "group element requires |a|^2 + |b|^2 = 1 exactly")


def _poly_mul(p, q):
    out = [CQ(0)] * (len(p) + len(q) - 1)
    for i, pv in enumerate(p):
        if not pv:
            continue
        for j, qv in enumerate(q):
            if qv:
                out[i + j] = out[i + j] + pv * qv
    return out


def _poly_pow(p, n):
    out = [CQ(1)]
    for _ in range(n):
        out = _poly_mul(out, p)
    return out


def _dense_matmul(x, y):
    return [[sum((xi[t] * y[t][j] for t in range(len(y))), CQ(0))
             for j in range(len(y[0]))] for xi in x]


def group_action_matrix(space, g):
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
        col += [CQ(0)] * (nu + 1 - len(col))
        cols.append(col[:nu + 1])
    return [[cols[j][i] for j in range(nu + 1)] for i in range(nu + 1)]


def conjugate_operator(a, g):
    """g A g^{-1} computed on operator matrices, returned as kernel coeffs."""
    nu = a.level
    m = group_action_matrix(PolySpaceParams(nu), g)
    gram = gram_diagonal(nu)
    n = nu + 1
    # operator matrix of A on monomials
    op = [[v * gram[j] for j, v in enumerate(row)] for row in coeff_rows(a)]
    # m_inv = G^{-1} m^H G  (unitarity w.r.t. the Gram form)
    m_inv = [[m[j][i].conj() * gram[j] / gram[i] for j in range(n)]
             for i in range(n)]
    prod = _dense_matmul(_dense_matmul(m, op), m_inv)
    coeffs = [[prod[i][j] / gram[j] for j in range(n)] for i in range(n)]
    return kernel_from_rows(nu, coeffs)


# ---------------------------------------------------------------------------
# Operations only the tests need, over the CQ coefficient rows
# ---------------------------------------------------------------------------

def apply(a, vec):
    """Apply to a monomial coefficient vector: (A f)_i = sum_j a_ij g_j f_j."""
    if len(vec) != a.dim:
        raise ValueError(f"expected vector of length {a.dim}")
    g = gram_diagonal(a.level)
    coeffs = coeff_rows(a)
    return [sum((coeffs[i][j] * g[j] * CQ.of(vec[j])
                 for j in range(a.dim)), CQ(0))
            for i in range(a.dim)]


def reproducing_identity_operator(mu):
    """The kernel (1 + x y~)^mu, which acts as the identity."""
    return KernelOperator(mu, 1, [[math.comb(mu, i) for i in range(mu + 1)]],
                          [[0] * (mu + 1)])


def is_zero(a):
    return all(not v for row in coeff_rows(a) for v in row)


def fraction_rank_one_vectors(L, m, e):
    """The dual-Hahn vector v of spin m on the diagonals +-e and its dual
    w / (w.v), with w_j = v_j / (C(L, j+e) C(L, j)), by the three-term
    recurrence in Fractions: the form IsotypicDecomposition built them in
    before its recurrence ran fraction-free."""
    v = [Fraction(1)]
    for j in range(L - e):
        i = j + e
        t = (i + j + 1) * L - i * i - j * j + e * e - m * (m + 1)
        below = (L - i + 1) * (L - j + 1) * v[j - 1] if j else 0
        v.append((t * v[j] - below) / ((i + 1) * (j + 1)))
    w = [x / (math.comb(L, j + e) * math.comb(L, j))
         for j, x in enumerate(v)]
    norm = sum(x * y for x, y in zip(v, w))
    return v, [x / norm for x in w]


@functools.lru_cache(maxsize=None)
def fraction_rank_one(L):
    """(m, e) -> (dv, v dv, dw, dual dw) from the Fraction vectors, each
    over its own common denominator: the form IsotypicDecomposition kept
    them in before it put them over one denominator per level."""
    return {(m, e): (*_common_denominator(v), *_common_denominator(dual))
            for e in range(L + 1) for m in range(e, L + 1)
            for v, dual in [fraction_rank_one_vectors(L, m, e)]}


def fraction_level_vectors(L):
    """IsotypicDecomposition's (_v_den, _dual_den, _vectors) from the
    Fraction vectors: every v over the lcm of the denominators of all
    their entries, and every dual over that of theirs."""
    keys = [(m, e) for e in range(L + 1) for m in range(e, L + 1)]
    pairs = [fraction_rank_one_vectors(L, m, e) for m, e in keys]
    out = []
    for side in (0, 1):
        den, ints = _common_denominator([x for p in pairs for x in p[side]])
        rows, start = [], 0
        for p in pairs:
            rows.append(tuple(ints[start:start + len(p[side])]))
            start += len(p[side])
        out.append((den, rows))
    (v_den, vs), (dual_den, duals) = out
    return v_den, dual_den, dict(zip(keys, zip(vs, duals)))


def fraction_dual_coordinates(a):
    """Spin coordinates c_{m,d} = w.A / (w.v) with the dual-Hahn vector v
    and its dual w as Fraction vectors, summed in Fractions over the
    CQ coefficient rows: the form coordinates had before the duals were
    kept over common integer denominators."""
    L = a.level
    coeffs = coeff_rows(a)
    out = []
    for m in range(L + 1):
        row = []
        for d in range(-m, m + 1):
            v, dual = fraction_rank_one_vectors(L, m, abs(d))
            cells = [(j + d, j) if d >= 0 else (j, j - d)
                     for j in range(len(v))]
            row.append(sum((coeffs[i][j] * x
                            for x, (i, j) in zip(dual, cells)), CQ(0)))
        out.append(row)
    return out


def crational_coordinates(a):
    """Spin coordinates as IsotypicDecomposition built them before they
    were integers over one denominator: per (m, d) the dual over its own
    denominator, and one complex rational of two Fractions per
    coordinate."""
    rank_one = fraction_rank_one(a.level)
    rows = []
    for m in range(a.level + 1):
        row = []
        for d in range(-m, m + 1):
            _, _, dw, dual = rank_one[(m, abs(d))]
            cells = [(j + d, j) if d >= 0 else (j, j - d)
                     for j in range(len(dual))]
            den = dw * a.d
            row.append(CQ(*(Fraction(sum(c * x[i][j]
                                         for c, (i, j) in zip(dual, cells)),
                                     den) for x in _rows(a))))
        rows.append(row)
    return rows


def random_poly(rng, deg):
    return [CQ(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
               Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
            for _ in range(deg + 1)]


class TestInnerProduct:

    def test_monomial_norms_inverse_binomial(self):
        for nu in range(0, 9):
            space = PolySpaceParams(nu)
            for i in range(nu + 1):
                assert monomial_norm_sq(space, i) == Fraction(1, binomial(nu, i))

    def test_monomial_norms_against_quadrature(self):
        # independent numeric oracle: the weighted integral of |z^i|^2
        for nu in range(0, 7):
            grid = DenseGrid.for_degree(2 * nu + 2)
            space = PolySpaceParams(nu)
            for i in range(nu + 1):
                zs = grid.points
                vals = (nu + 1) * np.abs(zs) ** (2 * i) \
                    * (1.0 + np.abs(zs) ** 2) ** (-nu)
                num = float(np.sum(grid.weights * vals))
                assert abs(num - float(monomial_norm_sq(space, i))) < 1e-10

    def test_reproducing_property(self):
        # <f, K_w> = f(w) for the kernel K_w(z) = (1 + z conj(w))^nu
        rng = random.Random(RNG_SEED)
        for nu in (1, 3, 5):
            space = PolySpaceParams(nu)
            f = random_poly(rng, nu)
            w = CQ(Fraction(2, 3), Fraction(-1, 4))
            wp = [CQ(1)]
            for _ in range(nu):
                wp.append(wp[-1] * w)
            kw = [binomial(nu, j) * wp[j].conj() for j in range(nu + 1)]
            fw = sum((f[j] * wp[j] for j in range(nu + 1)), CQ(0))
            assert inner_product(space, f, kw) == fw

    def test_gram_diagonal(self):
        assert gram_diagonal(3) == [Fraction(1, 1), Fraction(1, 3),
                                    Fraction(1, 3), Fraction(1, 1)]

    def test_gram_integers_match_fraction_gram(self):
        for level in range(41):
            big_w, w = _gram_integers(level)
            assert (big_w, list(w)) == \
                _common_denominator(gram_diagonal(level)), level


class TestKernelOperator:

    def test_identity_kernel_coefficients(self):
        ident = reproducing_identity_operator(4)
        coeffs = coeff_rows(ident)
        for i in range(5):
            assert coeffs[i][i] == binomial(4, i)

    def test_identity_is_neutral_for_composition(self):
        rng = random.Random(RNG_SEED)
        a = random_operator(3, rng)
        ident = reproducing_identity_operator(3)
        assert compose(a, ident) == a
        assert compose(ident, a) == a

    def test_identity_applies_as_identity(self):
        rng = random.Random(RNG_SEED)
        ident = reproducing_identity_operator(4)
        f = random_poly(rng, 4)
        assert apply(ident, f) == f

    def test_rank_one_composition(self):
        # (f x g*)(h x l*) = <h, g> (f x l*)
        rng = random.Random(RNG_SEED)
        nu = 4
        space = PolySpaceParams(nu)
        f, g, h, l = (random_poly(rng, nu) for _ in range(4))
        lhs = compose(rank_one(nu, f, g), rank_one(nu, h, l))
        c = inner_product(space, h, g)
        rhs = rank_one(nu, [c * v for v in f], l)
        assert lhs == rhs

    def test_rank_one_trace(self):
        rng = random.Random(RNG_SEED)
        nu = 5
        space = PolySpaceParams(nu)
        f, g = random_poly(rng, nu), random_poly(rng, nu)
        assert trace(rank_one(nu, f, g)) == inner_product(space, f, g)

    def test_trace_cyclicity(self):
        rng = random.Random(RNG_SEED)
        a, b = random_operator(4, rng), random_operator(4, rng)
        assert trace(compose(a, b)) == trace(compose(b, a))

    def test_adjoint_is_involution_and_moves_across_inner_product(self):
        rng = random.Random(RNG_SEED)
        nu = 4
        space = PolySpaceParams(nu)
        a = random_operator(nu, rng)
        assert a.adjoint().adjoint() == a
        f, g = random_poly(rng, nu), random_poly(rng, nu)
        assert inner_product(space, apply(a, f), g) == \
            inner_product(space, f, apply(a.adjoint(), g))

    def test_orthonormal_matrix_preserves_trace_and_products(self):
        rng = random.Random(RNG_SEED)
        a, b = random_operator(4, rng), random_operator(4, rng)
        ma, mb = dense_orthonormal_matrix(a), dense_orthonormal_matrix(b)
        assert abs(np.trace(ma) - complex(trace(a))) < 1e-12
        mab = dense_orthonormal_matrix(compose(a, b))
        assert np.max(np.abs(mab - ma @ mb)) < 1e-12

    def test_level_mismatch_rejected(self):
        with pytest.raises(ValueError, match="levels differ: 2 vs 3"):
            compose(reproducing_identity_operator(2),
                    reproducing_identity_operator(3))

    def test_one_form_over_any_common_denominator(self):
        # the same coefficients over d and over 6d are one operator, kept
        # in lowest terms, and its coefficient rows give it back
        rng = random.Random(RNG_SEED)
        for mu in range(5):
            a = random_operator(mu, rng)
            assert math.gcd(a.d, *(x for row in a.re + a.im for x in row)) == 1
            b = KernelOperator(mu, 6 * a.d,
                               [[6 * x for x in row] for row in a.re],
                               [[6 * y for y in row] for row in a.im])
            assert b == a
            assert (b.d, b.re, b.im) == (a.d, a.re, a.im)
            assert kernel_from_rows(mu, coeff_rows(b)) == a
            assert coeff_rows(b) == coeff_rows(a)

    def test_zero_has_denominator_one(self):
        a = random_operator(2, random.Random(RNG_SEED))
        z = kernel_sum(a, a, -1)
        # and band 0: only diagonal 0 is kept
        assert (z.d, z.re, z.im) == (1, ((0,) * 3,), ((0,) * 3,))
        assert z.width == 0

    def test_coefficient_rows_are_a_copy(self):
        a = random_operator(2, random.Random(RNG_SEED))
        re, im = _rows(a)
        re[0][0] = im[0][0] = 99
        assert _rows(a)[0][0][0] != 99 and _rows(a)[1][0][0] != 99


class TestBandForm:
    """KernelOperator keeps its kernel by diagonal, |i - j| <= width."""

    def test_dense_rows_with_zero_outer_diagonals_equal_banded(self):
        rng = random.Random(RNG_SEED)
        for level in range(6):
            for w in range(level + 1):
                diags = [[[rng.randint(-4, 4)
                           for _ in range(level + 1 - abs(t))]
                          for t in range(-w, w + 1)] for _ in range(2)]
                # a nonzero corner cell on diagonal w keeps the band
                diags[0][-1][0] = 1
                banded = KernelOperator(level, 6, *diags)
                dense = _from_dense(level, 6, *(
                    [v for row in banded_rows(level, w, x) for v in row]
                    for x in diags))
                assert dense == banded
                assert dense.width == banded.width == w
                assert _rows(banded) == tuple(banded_rows(level, w, x)
                                              for x in diags)

    def test_zero_outer_diagonals_are_dropped(self):
        # the band is canonical: padding with zero diagonals changes nothing
        a = KernelOperator(3, 2, [[1, 2, 3], [4, 5, 6, 7], [0, 1, 0]],
                           [[0, 0, 0], [1, 0, 0, 0], [0, 0, 0]])
        padded = KernelOperator(3, 2, [[0], [0, 0], [1, 2, 3],
                                       [4, 5, 6, 7], [0, 1, 0], [0, 0],
                                       [0]],
                                [[0], [0, 0], [0, 0, 0], [1, 0, 0, 0],
                                 [0, 0, 0], [0, 0], [0]])
        assert padded == a and padded.width == a.width == 1
        assert KernelOperator(3, 1, [[0, 0, 0], [0] * 4, [0, 0, 0]],
                              [[0, 0, 0], [0] * 4, [0, 0, 1]]).width == 1

    @pytest.mark.parametrize("re,im", [
        ([[1, 2]], [[0, 0]]),                         # diagonal 0 too short
        ([[1], [1, 2, 3]], [[0], [0, 0, 0]]),         # even count
        ([[1, 2, 3]], [[0, 0, 0], [0, 0, 0]]),        # parts differ
        ([[0]] + [[0] * k for k in (2, 3, 2)] + [[0]] * 3,
         [[0]] + [[0] * k for k in (2, 3, 2)] + [[0]] * 3),  # w > level
    ])
    def test_malformed_diagonals_rejected(self, re, im):
        with pytest.raises(ValueError):
            KernelOperator(2, 1, re, im)

    def test_edge_levels(self):
        # mu = 0: one diagonal; nu = mu: toeplitz keeps the band of the
        # numerator, at most mu
        rng = random.Random(RNG_SEED)
        a = random_operator(0, rng)
        assert a.width == 0 and len(a.re) == 1
        assert reproducing_identity_operator(0).width == 0
        for mu in range(5):
            a = random_operator(mu, rng)
            assert a.width == mu
            assert reproducing_identity_operator(mu).width == 0
            f = symbol(a)
            t = toeplitz(f, mu)
            assert t.level == mu and t.width <= mu
            assert t.width == f.numerator().width

    def test_adjoint_swaps_diagonals(self):
        rng = random.Random(RNG_SEED)
        for mu in range(5):
            a = random_operator(mu, rng)
            re, im = _rows(a)
            assert _rows(a.adjoint()) == (
                [list(col) for col in zip(*re)],
                [[-y for y in col] for col in zip(*im)])

    def test_orthonormal_matrix_matches_dense_oracle(self):
        # the orthonormal band read from the exact diagonals, against the
        # dense matrix: dense and banded operators, products and sums
        rng = random.Random(RNG_SEED)
        ops = [random_operator(mu, rng) for mu in range(7)]
        ops += [compose(a.adjoint(), a) for a in ops]
        ops += [toeplitz(symbol(a), nu) for a in ops[:4] for nu in (4, 9)]
        ops += [reproducing_identity_operator(5),
                kernel_sum(ops[3], ops[3], -1),
                kernel_sum(ops[2], ops[2].adjoint())]
        for a in ops:
            assert_band_matches_dense(a, orthonormal_band(a))


class TestGroupAction:

    G = GroupElement(CQ(Fraction(3, 5)), CQ(Fraction(4, 5)))
    H = GroupElement(CQ(Fraction(5, 13), Fraction(12, 13)), CQ(0))

    def test_non_unitary_rejected(self):
        with pytest.raises(NotUnitaryInputError):
            GroupElement(CQ(1), CQ(1))

    def test_action_is_unitary(self):
        for nu in (1, 2, 4):
            space = PolySpaceParams(nu)
            m = group_action_matrix(space, self.G)
            g = gram_diagonal(nu)
            n = nu + 1
            for p in range(n):
                for q in range(n):
                    s = sum((m[i][p].conj() * g[i] * m[i][q]
                             for i in range(n)), CQ(0))
                    assert s == (g[p] if p == q else 0)

    def test_conjugation_preserves_trace(self):
        rng = random.Random(RNG_SEED)
        a = random_operator(3, rng)
        for g in (self.G, self.H):
            assert trace(conjugate_operator(a, g)) == trace(a)

    def test_conjugation_fixes_identity(self):
        ident = reproducing_identity_operator(4)
        assert conjugate_operator(ident, self.G) == ident

    def test_conjugation_is_multiplicative_on_products(self):
        rng = random.Random(RNG_SEED)
        a, b = random_operator(3, rng), random_operator(3, rng)
        lhs = conjugate_operator(compose(a, b), self.G)
        rhs = compose(conjugate_operator(a, self.G),
                      conjugate_operator(b, self.G))
        assert lhs == rhs


class TestLieAlgebra:

    def test_commutation_relations(self):
        for mu in (1, 2, 4):
            e, f, h = su2_generator_matrices(mu)
            n = mu + 1

            def comm(x, y):
                return [[sum(x[i][t] * y[t][j] - y[i][t] * x[t][j]
                             for t in range(n)) for j in range(n)]
                        for i in range(n)]

            assert comm(h, e) == [[2 * e[i][j] for j in range(n)]
                                  for i in range(n)]
            assert comm(h, f) == [[-2 * f[i][j] for j in range(n)]
                                  for i in range(n)]
            assert comm(e, f) == h

    def test_casimir_spectrum_on_operator_algebra(self):
        # each projection is a Casimir eigenvector with eigenvalue m(m+1),
        # checked against the generator-built Casimir
        for mu in range(7):
            cas = casimir_on_operators(mu)
            dec = IsotypicDecomposition(mu)
            for a_idx in range(3):
                rng = random.Random(RNG_SEED + a_idx)
                a = random_operator(mu, rng)
                for m in range(mu + 1):
                    pm = dec.project(m, a)
                    assert cas(pm) == pm.scale(Fraction(m * (m + 1)))


class TestIsotypicProjectors:

    def test_completeness_orthogonality_idempotence(self):
        rng = random.Random(RNG_SEED)
        for mu in range(7):
            dec = IsotypicDecomposition(mu)
            a = random_operator(mu, rng)
            parts = [dec.project(m, a) for m in range(mu + 1)]
            total = parts[0]
            for p in parts[1:]:
                total = kernel_sum(total, p)
            assert total == a
            for m in range(mu + 1):
                assert dec.project(m, parts[m]) == parts[m]
                for l in range(mu + 1):
                    if l != m:
                        assert is_zero(dec.project(l, parts[m]))

    def test_coordinates_and_operator_are_inverse(self):
        # (mu+1)^2 spin coordinates fix an operator, and every list of
        # coordinates is some operator's
        rng = random.Random(RNG_SEED)
        for mu in range(7):
            dec = IsotypicDecomposition(mu)
            a = random_operator(mu, rng)
            assert dec.operator(*dec.coordinates(a)) == a
            den = rng.randint(1, 6)
            re, im = ([[rng.randint(-3, 3) for _ in range(2 * m + 1)]
                       for m in range(mu + 1)] for _ in range(2))
            assert coordinate_rows(*dec.coordinates(
                dec.operator(den, re, im))) == coordinate_rows(den, re, im)

    def test_fraction_free_recurrence_matches_fraction_oracle(self):
        # the stored integer vectors and their two denominators, bit for bit
        for mu in range(21):
            dec = IsotypicDecomposition(mu)
            assert (dec._v_den, dec._dual_den, dec._vectors) == \
                fraction_level_vectors(mu), mu

    def test_coordinates_match_fraction_dual_oracle(self):
        rng = random.Random(RNG_SEED)
        for mu in range(7):
            dec = IsotypicDecomposition(mu)
            for _ in range(2):
                a = random_operator(mu, rng)
                assert coordinate_rows(*dec.coordinates(a)) == \
                    fraction_dual_coordinates(a)

    def test_equivariance_under_group_conjugation(self):
        g = GroupElement(CQ(Fraction(3, 5)), CQ(Fraction(4, 5)))
        rng = random.Random(RNG_SEED)
        mu = 3
        dec = IsotypicDecomposition(mu)
        a = random_operator(mu, rng)
        for m in range(mu + 1):
            assert conjugate_operator(dec.project(m, a), g) == \
                dec.project(m, conjugate_operator(a, g))
