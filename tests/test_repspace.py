"""Tests for the polynomial representation spaces, kernel operators,
group action, and isotypic decomposition of the operator algebra."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from su2chan.exactnum import CRational, binomial
from su2chan.quadrature import QuadratureGrid, random_operator
from su2chan.repspace import (
    GroupElement,
    KernelOperator,
    LevelMismatchError,
    NotUnitaryInputError,
    PolySpaceParams,
    compose,
    conjugate_operator,
    gram_diagonal,
    group_action_matrix,
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
        m = [[a.coeffs[i][j] * gram[j] for j in range(n)] for i in range(n)]
        ef = comm(e, comm(f, m))
        fe = comm(f, comm(e, m))
        hh = comm(h, comm(h, m))
        return KernelOperator(mu, [
            [((ef[i][j] + fe[i][j]) * Fraction(1, 2)
              + hh[i][j] * Fraction(1, 4)) / gram[j] for j in range(n)]
            for i in range(n)])

    return cas


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
        for i in range(5):
            assert ident.coeffs[i][i] == binomial(4, i)

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
        assert ident.apply(f) == f

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
        assert inner_product(space, a.apply(f), g) == \
            inner_product(space, f, a.adjoint().apply(g))

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

    def test_json_round_trip(self):
        rng = random.Random(RNG_SEED)
        a = random_operator(3, rng)
        assert KernelOperator.from_json_dict(a.to_json_dict()) == a


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
                        assert dec.project(l, parts[m]).is_zero()

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

    def test_equivariance_under_group_conjugation(self):
        g = GroupElement(CRational(Fraction(3, 5)), CRational(Fraction(4, 5)))
        rng = random.Random(RNG_SEED)
        mu = 3
        dec = isotypic_projectors(mu)
        a = random_operator(mu, rng)
        for m in range(mu + 1):
            assert conjugate_operator(dec.project(m, a), g) == \
                dec.project(m, conjugate_operator(a, g))
