"""Tests for the polynomial representation spaces, kernel operators,
group action, and isotypic decomposition of the operator algebra."""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from su2chan.exactnum import CRational, binomial
from su2chan.quadrature import QuadratureGrid, random_operator
from su2chan.repspace import (
    KernelOperator,
    LevelMismatchError,
    PolySpaceParams,
    compose,
    gram_diagonal,
    inner_product,
    isotypic_projectors,
    monomial_norm_sq,
    operator_trace,
    rank_one,
    reproducing_identity_operator,
    to_orthonormal_matrix,
)

RNG_SEED = 1234


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
        out = [[CRational(0)] * n for _ in range(n)]
        for p in range(n):
            for q in range(n):
                if x[p][q]:
                    for j in range(n):
                        out[p][j] = out[p][j] + x[p][q] * m[q][j]
                        out[j][q] = out[j][q] - m[j][p] * x[p][q]
        return out

    def cas(a):
        assert a.level == mu
        m = [[v * gram[j] for j, v in enumerate(row)] for row in a.coeffs]
        ef = comm(e, comm(f, m))
        fe = comm(f, comm(e, m))
        hh = comm(h, comm(h, m))
        return KernelOperator.from_rows(mu, [
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

    a: CRational
    b: CRational

    def __post_init__(self):
        if self.a.abs2() + self.b.abs2() != 1:
            raise NotUnitaryInputError(
                "group element requires |a|^2 + |b|^2 = 1 exactly")


def _poly_mul(p, q):
    out = [CRational(0)] * (len(p) + len(q) - 1)
    for i, pv in enumerate(p):
        if not pv:
            continue
        for j, qv in enumerate(q):
            if qv:
                out[i + j] = out[i + j] + pv * qv
    return out


def _poly_pow(p, n):
    out = [CRational(1)]
    for _ in range(n):
        out = _poly_mul(out, p)
    return out


def _dense_matmul(x, y):
    return [[sum((xi[t] * y[t][j] for t in range(len(y))), CRational(0))
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
        col += [CRational(0)] * (nu + 1 - len(col))
        cols.append(col[:nu + 1])
    return [[cols[j][i] for j in range(nu + 1)] for i in range(nu + 1)]


def conjugate_operator(a, g):
    """g A g^{-1} computed on operator matrices, returned as kernel coeffs."""
    nu = a.level
    m = group_action_matrix(PolySpaceParams(nu), g)
    gram = gram_diagonal(nu)
    n = nu + 1
    # operator matrix of A on monomials
    op = [[v * gram[j] for j, v in enumerate(row)] for row in a.coeffs]
    # m_inv = G^{-1} m^H G  (unitarity w.r.t. the Gram form)
    m_inv = [[m[j][i].conj() * gram[j] / gram[i] for j in range(n)]
             for i in range(n)]
    prod = _dense_matmul(_dense_matmul(m, op), m_inv)
    coeffs = [[prod[i][j] / gram[j] for j in range(n)] for i in range(n)]
    return KernelOperator.from_rows(nu, coeffs)


# ---------------------------------------------------------------------------
# Operations only the tests need, over the CRational coefficient rows
# ---------------------------------------------------------------------------

def apply(a, vec):
    """Apply to a monomial coefficient vector: (A f)_i = sum_j a_ij g_j f_j."""
    if len(vec) != a.dim:
        raise ValueError(f"expected vector of length {a.dim}")
    g = gram_diagonal(a.level)
    coeffs = a.coeffs
    return [sum((coeffs[i][j] * g[j] * CRational.of(vec[j])
                 for j in range(a.dim)), CRational(0))
            for i in range(a.dim)]


def from_json_dict(d):
    level = int(d["level"])
    n = level + 1
    flat = [CRational(Fraction(v["re"]), Fraction(v["im"]))
            for v in d["coeffs"]]
    if len(flat) != n * n:
        raise ValueError("coefficient array has wrong length")
    return KernelOperator.from_rows(
        level, [flat[i * n:(i + 1) * n] for i in range(n)])


def is_zero(a):
    return all(not v for row in a.coeffs for v in row)


def fraction_dual_coordinates(a):
    """Spin coordinates c_{m,d} = w.A / (w.v) with the dual-Hahn vector v
    and its dual w as Fraction vectors, summed in Fractions over the
    CRational coefficient rows: the form coordinates had before the duals
    were kept over common integer denominators."""
    L = a.level
    coeffs = a.coeffs
    out = []
    for m in range(L + 1):
        row = []
        for d in range(-m, m + 1):
            e = abs(d)
            v = [Fraction(1)]
            for j in range(L - e):
                i = j + e
                t = (i + j + 1) * L - i * i - j * j + e * e - m * (m + 1)
                below = (L - i + 1) * (L - j + 1) * v[j - 1] if j else 0
                v.append((t * v[j] - below) / ((i + 1) * (j + 1)))
            w = [x / (math.comb(L, j + e) * math.comb(L, j))
                 for j, x in enumerate(v)]
            norm = sum(x * y for x, y in zip(v, w))
            cells = [(j + d, j) if d >= 0 else (j, j - d)
                     for j in range(len(v))]
            row.append(sum((coeffs[i][j] * (x / norm)
                            for x, (i, j) in zip(w, cells)), CRational(0)))
        out.append(row)
    return out


def random_poly(rng, deg):
    return [CRational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
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
            grid = QuadratureGrid.for_degree(2 * nu + 2)
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
            w = CRational(Fraction(2, 3), Fraction(-1, 4))
            wp = [CRational(1)]
            for _ in range(nu):
                wp.append(wp[-1] * w)
            kw = [binomial(nu, j) * wp[j].conj() for j in range(nu + 1)]
            fw = sum((f[j] * wp[j] for j in range(nu + 1)), CRational(0))
            assert inner_product(space, f, kw) == fw

    def test_gram_diagonal(self):
        assert gram_diagonal(3) == [Fraction(1, 1), Fraction(1, 3),
                                    Fraction(1, 3), Fraction(1, 1)]


class TestKernelOperator:

    def test_identity_kernel_coefficients(self):
        ident = reproducing_identity_operator(4)
        coeffs = ident.coeffs
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
        rhs = rank_one(nu, f, l).scale(inner_product(space, h, g))
        assert lhs == rhs

    def test_rank_one_trace(self):
        rng = random.Random(RNG_SEED)
        nu = 5
        space = PolySpaceParams(nu)
        f, g = random_poly(rng, nu), random_poly(rng, nu)
        assert operator_trace(rank_one(nu, f, g)) == inner_product(space, f, g)

    def test_trace_cyclicity(self):
        rng = random.Random(RNG_SEED)
        a, b = random_operator(4, rng), random_operator(4, rng)
        assert operator_trace(compose(a, b)) == operator_trace(compose(b, a))

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
        ma, mb = to_orthonormal_matrix(a), to_orthonormal_matrix(b)
        assert abs(np.trace(ma) - complex(operator_trace(a))) < 1e-12
        mab = to_orthonormal_matrix(compose(a, b))
        assert np.max(np.abs(mab - ma @ mb)) < 1e-12

    def test_level_mismatch_rejected(self):
        with pytest.raises(LevelMismatchError):
            compose(reproducing_identity_operator(2),
                    reproducing_identity_operator(3))

    def test_one_form_over_any_common_denominator(self):
        # the same coefficients over d and over 6d are one operator, kept
        # in lowest terms, and the CRational rows give it back
        rng = random.Random(RNG_SEED)
        for mu in range(5):
            a = random_operator(mu, rng)
            assert math.gcd(a.d, *(x for row in a.re + a.im for x in row)) == 1
            b = KernelOperator(mu, 6 * a.d,
                               [[6 * x for x in row] for row in a.re],
                               [[6 * y for y in row] for row in a.im])
            assert b == a
            assert (b.d, b.re, b.im) == (a.d, a.re, a.im)
            assert KernelOperator.from_rows(mu, b.coeffs) == a
            assert b.coeffs == a.coeffs

    def test_zero_has_denominator_one(self):
        a = random_operator(2, random.Random(RNG_SEED))
        z = a - a
        assert (z.d, z.re, z.im) == (1, ((0,) * 3,) * 3, ((0,) * 3,) * 3)

    def test_coefficient_rows_are_a_copy(self):
        a = random_operator(2, random.Random(RNG_SEED))
        rows = a.coeffs
        rows[0][0] = CRational(99)
        assert a.coeffs[0][0] != 99

    def test_json_round_trip(self):
        rng = random.Random(RNG_SEED)
        a = random_operator(3, rng)
        assert from_json_dict(a.to_json_dict()) == a


class TestGroupAction:

    G = GroupElement(CRational(Fraction(3, 5)), CRational(Fraction(4, 5)))
    H = GroupElement(CRational(Fraction(5, 13), Fraction(12, 13)),
                     CRational(0))

    def test_non_unitary_rejected(self):
        with pytest.raises(NotUnitaryInputError):
            GroupElement(CRational(1), CRational(1))

    def test_action_is_unitary(self):
        for nu in (1, 2, 4):
            space = PolySpaceParams(nu)
            m = group_action_matrix(space, self.G)
            g = gram_diagonal(nu)
            n = nu + 1
            for p in range(n):
                for q in range(n):
                    s = sum((m[i][p].conj() * g[i] * m[i][q]
                             for i in range(n)), CRational(0))
                    assert s == (g[p] if p == q else 0)

    def test_conjugation_preserves_trace(self):
        rng = random.Random(RNG_SEED)
        a = random_operator(3, rng)
        for g in (self.G, self.H):
            assert operator_trace(conjugate_operator(a, g)) == \
                operator_trace(a)

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
            dec = isotypic_projectors(mu)
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
            dec = isotypic_projectors(mu)
            a = random_operator(mu, rng)
            parts = [dec.project(m, a) for m in range(mu + 1)]
            total = parts[0]
            for p in parts[1:]:
                total = total + p
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
            dec = isotypic_projectors(mu)
            a = random_operator(mu, rng)
            assert dec.operator(dec.coordinates(a)) == a
            coords = [[CRational(rng.randint(-3, 3), rng.randint(-3, 3))
                       for _ in range(2 * m + 1)] for m in range(mu + 1)]
            assert dec.coordinates(dec.operator(coords)) == coords

    def test_coordinates_match_fraction_dual_oracle(self):
        rng = random.Random(RNG_SEED)
        for mu in range(7):
            dec = isotypic_projectors(mu)
            for _ in range(2):
                a = random_operator(mu, rng)
                assert dec.coordinates(a) == fraction_dual_coordinates(a)

    def test_equivariance_under_group_conjugation(self):
        g = GroupElement(CRational(Fraction(3, 5)), CRational(Fraction(4, 5)))
        rng = random.Random(RNG_SEED)
        mu = 3
        dec = isotypic_projectors(mu)
        a = random_operator(mu, rng)
        for m in range(mu + 1):
            assert conjugate_operator(dec.project(m, a), g) == \
                dec.project(m, conjugate_operator(a, g))
