"""Tests for the component intertwiners, the Schur constant, and the
induced quantum channels."""

import random
from fractions import Fraction

import numpy as np
import pytest

from su2chan.exactnum import (
    CRational,
    binomial,
    falling_pochhammer,
    rising_pochhammer,
)
from su2chan.intertwine import (
    ChannelSpec,
    InvalidSpecError,
    apply_channel,
    apply_normalized_channel,
    c_squared,
    choi_matrix,
    choi_min_eigenvalue,
    choi_partial_trace_output,
    jk_adjoint_matrix,
    jk_matrix,
    jk_product,
    normalization_factor,
    pk_orthogonality_check,
)
from su2chan.quadrature import random_operator, random_psd_trace_one
from su2chan.repspace import (
    KernelOperator,
    gram_diagonal,
    operator_trace,
    reproducing_identity_operator,
    to_orthonormal_matrix,
)

RNG_SEED = 777


def dense_apply_channel(spec, a, c2=None):
    """T(A) = c^2 J_k (A (x) I) J_k* through the dense J_k and J_k*
    matrices, column by column: the route apply_channel took before its
    banded kernel.  It shares only the column coefficients with that
    kernel (which pk_orthogonality_check verifies), so it is an oracle
    for the kernel's index algebra and Gram-factor cancellation."""
    mu, nu, k = spec.mu, spec.nu, spec.k
    out_level = spec.target_level
    gm = gram_diagonal(mu)
    go = gram_diagonal(out_level)
    jk = jk_matrix(spec).matrix
    adj = jk_adjoint_matrix(spec)
    if c2 is None:
        c2 = c_squared(spec)
    out = [[CRational(0) for _ in range(out_level + 1)]
           for _ in range(out_level + 1)]
    for c in range(out_level + 1):
        # (A (x) I) J* applied to xi^c, as a sparse tensor coefficient map
        tensor_col = {}
        for a_idx in range(mu + 1):
            for b_idx in range(nu + 1):
                v = adj[spec.tensor_index(a_idx, b_idx)][c]
                if not v:
                    continue
                w = gm[a_idx] * v
                for i in range(mu + 1):
                    if a.coeffs[i][a_idx]:
                        key = (i, b_idx)
                        cur = tensor_col.get(key, CRational(0))
                        tensor_col[key] = cur + a.coeffs[i][a_idx] * w
        # apply J_k
        for (i, b_idx), v in tensor_col.items():
            r = i + b_idx - k
            if 0 <= r <= out_level:
                jv = jk[r][spec.tensor_index(i, b_idx)]
                if jv:
                    out[r][c] = out[r][c] + v * jv * c2
    # operator matrix -> kernel coefficients
    return KernelOperator(out_level, [
        [out[i][c] / go[c] for c in range(out_level + 1)]
        for i in range(out_level + 1)])


def random_nonhermitian(mu, rng):
    while True:
        a = random_operator(mu, rng)
        if not a.is_hermitian():
            return a


class TestSpec:

    def test_valid_spec(self):
        s = ChannelSpec(2, 5, 1)
        assert s.target_level == 5
        assert s.tensor_dim == 18

    @pytest.mark.parametrize("mu,nu,k", [(3, 2, 0), (2, 5, 3), (2, 5, -1),
                                         (-1, 3, 0)])
    def test_invalid_spec_rejected(self, mu, nu, k):
        with pytest.raises(InvalidSpecError):
            ChannelSpec(mu, nu, k)

    def test_boundary_nu_equals_mu(self):
        # the equal-level case is allowed and its top component is scalar
        s = ChannelSpec(2, 2, 2)
        assert s.target_level == 0


class TestIntertwiner:

    def test_adjoint_of_constant_is_difference_power(self):
        # J_k*(1) has the coefficients of (w - z)^k in the tensor basis
        # (z the first-factor variable, w the second)
        for (mu, nu, k) in [(2, 4, 2), (1, 3, 1), (3, 3, 3)]:
            spec = ChannelSpec(mu, nu, k)
            adj = jk_adjoint_matrix(spec)
            for a in range(mu + 1):
                for b in range(nu + 1):
                    expected = Fraction(0)
                    if a + b == k:
                        expected = Fraction((-1) ** a * binomial(k, a))
                    assert adj[spec.tensor_index(a, b)][0] == expected

    def test_schur_constant_closed_form(self):
        for mu in range(0, 4):
            for nu in range(mu, 7):
                for k in range(mu + 1):
                    spec = ChannelSpec(mu, nu, k)
                    expected = Fraction(
                        rising_pochhammer(-nu, k) * rising_pochhammer(-mu, k),
                        falling_pochhammer(k, k)
                        * rising_pochhammer(mu + nu - 2 * k + 2, k))
                    assert c_squared(spec) == expected

    def test_schur_scalar_and_orthogonality_sweep(self):
        for mu in range(0, 3):
            for nu in range(mu, 6):
                rep = pk_orthogonality_check(mu, nu)
                assert rep["ok"], rep["witness"]

    def test_product_is_scalar(self):
        spec = ChannelSpec(2, 4, 1)
        prod = jk_product(spec, spec)
        n = spec.target_level + 1
        inv_c2 = 1 / c_squared(spec)
        for i in range(n):
            for j in range(n):
                assert prod[i][j] == (inv_c2 if i == j else 0)

    def test_cross_products_vanish(self):
        mu, nu = 3, 5
        for k in range(mu + 1):
            for l in range(mu + 1):
                if k == l:
                    continue
                prod = jk_product(ChannelSpec(mu, nu, k),
                                  ChannelSpec(mu, nu, l))
                assert all(v == 0 for row in prod for v in row)

    def test_jk_columns_have_single_output_degree(self):
        spec = ChannelSpec(2, 5, 1)
        m = jk_matrix(spec)
        for a in range(3):
            for b in range(6):
                col = spec.tensor_index(a, b)
                for r in range(spec.target_level + 1):
                    if r != a + b - spec.k and m.matrix[r][col] != 0:
                        raise AssertionError((a, b, r))


class TestChannel:

    def test_trace_preservation_random_inputs(self):
        rng = random.Random(RNG_SEED)
        for mu in range(0, 3):
            for nu in range(mu, 6):
                for k in range(mu + 1):
                    spec = ChannelSpec(mu, nu, k)
                    for _ in range(3):
                        a = random_operator(mu, rng)
                        ta = apply_normalized_channel(spec, a)
                        assert operator_trace(ta) == operator_trace(a)

    def test_identity_maps_to_scalar(self):
        spec = ChannelSpec(2, 5, 1)
        t_ident = apply_normalized_channel(
            spec, reproducing_identity_operator(2))
        target_ident = reproducing_identity_operator(spec.target_level)
        scale = Fraction(3, spec.target_level + 1)
        assert t_ident == target_ident.scale(scale)

    def test_positivity_preserved_numerically(self):
        rng = random.Random(RNG_SEED)
        spec = ChannelSpec(3, 6, 2)
        a = random_psd_trace_one(3, rng)
        m = to_orthonormal_matrix(apply_normalized_channel(spec, a))
        eigs = np.linalg.eigvalsh(m)
        assert eigs.min() > -1e-12

    def test_multiplicativity_with_adjoint_inputs(self):
        # T(A*) = T(A)* since the channel is hermiticity-preserving
        rng = random.Random(RNG_SEED)
        spec = ChannelSpec(2, 4, 1)
        a = random_operator(2, rng)
        assert apply_channel(spec, a.adjoint()) == \
            apply_channel(spec, a).adjoint()

    def test_normalization_factor(self):
        spec = ChannelSpec(2, 6, 1)
        assert normalization_factor(spec) == Fraction(3, 7)


class TestBandedKernel:
    """apply_channel against the dense oracle, bit for bit over Q(i)."""

    def test_matches_dense_oracle(self):
        rng = random.Random(RNG_SEED)
        for mu in range(0, 4):
            for nu in range(mu, 12):
                for k in range(mu + 1):
                    spec = ChannelSpec(mu, nu, k)
                    for _ in range(2):
                        a = random_nonhermitian(mu, rng)
                        assert apply_channel(spec, a) == \
                            dense_apply_channel(spec, a), (mu, nu, k)

    # mu = 0, nu = mu, and output levels L = mu + nu - 2k below mu
    @pytest.mark.parametrize("mu,nu,k", [(0, 0, 0), (0, 6, 0), (1, 1, 1),
                                         (2, 2, 1), (3, 3, 0), (3, 3, 2),
                                         (3, 3, 3), (3, 4, 3), (2, 3, 2)])
    def test_edge_levels(self, mu, nu, k):
        rng = random.Random(RNG_SEED)
        spec = ChannelSpec(mu, nu, k)
        for _ in range(5):
            a = random_nonhermitian(mu, rng)
            out = apply_channel(spec, a)
            assert out.level == spec.target_level
            assert out == dense_apply_channel(spec, a)

    def test_output_is_banded(self):
        rng = random.Random(RNG_SEED)
        spec = ChannelSpec(2, 9, 1)
        out = apply_channel(spec, random_nonhermitian(2, rng))
        for r, row in enumerate(out.coeffs):
            for c, v in enumerate(row):
                if abs(r - c) > spec.mu:
                    assert v == 0, (r, c)

    def test_c2_override_scales_exactly(self):
        rng = random.Random(RNG_SEED)
        spec = ChannelSpec(3, 7, 2)
        factor = Fraction(3, 2)
        c2 = c_squared(spec) * factor
        a = random_nonhermitian(3, rng)
        out = apply_channel(spec, a, _c2_override=c2)
        assert out == apply_channel(spec, a).scale(factor)
        assert out == dense_apply_channel(spec, a, c2=c2)


class TestChoi:

    @pytest.mark.parametrize("mu,nu,k", [(1, 3, 1), (2, 4, 0), (2, 5, 2),
                                         (3, 6, 1)])
    def test_choi_positive_and_trace_consistent(self, mu, nu, k):
        spec = ChannelSpec(mu, nu, k)
        choi = choi_matrix(spec)
        assert np.max(np.abs(choi - choi.conj().T)) < 1e-12
        assert choi_min_eigenvalue(spec) > -1e-10
        pt = choi_partial_trace_output(choi, spec)
        assert np.max(np.abs(pt - np.eye(mu + 1))) < 1e-10
