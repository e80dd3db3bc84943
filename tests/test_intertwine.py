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
from su2chan import intertwine
from su2chan.intertwine import (
    ChannelSpec,
    InvalidSpecError,
    apply_channel,
    apply_normalized_channel,
    c_squared,
    choi_matrix,
    choi_min_eigenvalue,
    choi_partial_trace_output,
    jk_columns,
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


# ---------------------------------------------------------------------------
# Dense oracles: J_k and J_k* as full exact matrices.  They share only the
# column coefficients with the package (looked up on the module, so a
# monkeypatched fault reaches both), and multiply them out entry by entry.
# ---------------------------------------------------------------------------

def dense_jk_matrix(spec):
    """J_k as a (target_dim) x (tensor_dim) matrix; column (a, b) has its
    single nonzero in row a + b - k."""
    m = [[Fraction(0)] * spec.tensor_dim
         for _ in range(spec.target_level + 1)]
    for a, row in enumerate(intertwine.jk_columns(spec)):
        for b, v in enumerate(row):
            if v:
                m[a + b - spec.k][spec.tensor_index(a, b)] = v
    return m


def dense_jk_adjoint(spec):
    """J_k* = G_tensor^{-1} J_k^T G_target (J_k is real)."""
    jk = dense_jk_matrix(spec)
    gm, gn = gram_diagonal(spec.mu), gram_diagonal(spec.nu)
    go = gram_diagonal(spec.target_level)
    return [[jk[c][spec.tensor_index(a, b)] * go[c] / (gm[a] * gn[b])
             for c in range(spec.target_level + 1)]
            for a in range(spec.mu + 1) for b in range(spec.nu + 1)]


def dense_matmul(x, y):
    out = [[Fraction(0)] * len(y[0]) for _ in x]
    for row, out_row in zip(x, out):
        for v, y_row in zip(row, y):
            if v:
                for j, w in enumerate(y_row):
                    if w:
                        out_row[j] += v * w
    return out


def dense_jk_product(spec_k, spec_l):
    """J_k J_l* on the level-(mu+nu-2l) target space."""
    return dense_matmul(dense_jk_matrix(spec_k), dense_jk_adjoint(spec_l))


def dense_pk_orthogonality_check(mu, nu):
    """pk_orthogonality_check through the dense products, scanning every
    entry in row-major order; the report has the same keys and witness."""
    report = {"mu": mu, "nu": nu, "schur_scalar": True,
              "cross_vanish": True, "completeness": True, "witness": None}

    def witness(kind, k, l, i, j, value):
        if report["witness"] is None:
            report["witness"] = {"identity": kind, "k": k, "l": l,
                                 "row": i, "col": j, "value": str(value)}

    specs = [ChannelSpec(mu, nu, k) for k in range(mu + 1)]
    c2 = [c_squared(sk) for sk in specs]
    for k, sk in enumerate(specs):
        for l, sl in enumerate(specs):
            for i, row in enumerate(dense_jk_product(sk, sl)):
                for j, v in enumerate(row):
                    if k == l:
                        want = 1 / c2[k] if i == j else 0
                        if v != want:
                            report["schur_scalar"] = False
                            witness("schur_scalar", k, l, i, j, v)
                    elif v != 0:
                        report["cross_vanish"] = False
                        witness("cross_vanish", k, l, i, j, v)
    dim = (mu + 1) * (nu + 1)
    total = [[Fraction(0)] * dim for _ in range(dim)]
    for k, sk in enumerate(specs):
        term = dense_matmul(dense_jk_adjoint(sk), dense_jk_matrix(sk))
        for i in range(dim):
            for j in range(dim):
                if term[i][j]:
                    total[i][j] += c2[k] * term[i][j]
    for i in range(dim):
        for j in range(dim):
            if total[i][j] != (1 if i == j else 0):
                report["completeness"] = False
                witness("completeness", None, None, i, j, total[i][j])
    report["ok"] = (report["schur_scalar"] and report["cross_vanish"]
                    and report["completeness"])
    return report


def dense_apply_channel(spec, a):
    """T(A) = c^2 J_k (A (x) I) J_k* through the dense J_k and J_k*
    matrices, column by column: the route apply_channel took before its
    banded kernel.  It shares only the column coefficients with that
    kernel (which pk_orthogonality_check verifies), so it is an oracle
    for the kernel's index algebra and Gram-factor cancellation."""
    mu, nu, k = spec.mu, spec.nu, spec.k
    out_level = spec.target_level
    gm = gram_diagonal(mu)
    go = gram_diagonal(out_level)
    jk = dense_jk_matrix(spec)
    adj = dense_jk_adjoint(spec)
    c2 = c_squared(spec)
    coeffs = a.coeffs
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
                    if coeffs[i][a_idx]:
                        key = (i, b_idx)
                        cur = tensor_col.get(key, CRational(0))
                        tensor_col[key] = cur + coeffs[i][a_idx] * w
        # apply J_k
        for (i, b_idx), v in tensor_col.items():
            r = i + b_idx - k
            if 0 <= r <= out_level:
                jv = jk[r][spec.tensor_index(i, b_idx)]
                if jv:
                    out[r][c] = out[r][c] + v * jv * c2
    # operator matrix -> kernel coefficients
    return KernelOperator.from_rows(out_level, [
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
            adj = dense_jk_adjoint(spec)
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
        # the total-degree check against the dense products; mu = 0,
        # nu = mu and output levels below mu all occur on this grid
        for mu in range(0, 5):
            for nu in range(mu, 9):
                rep = pk_orthogonality_check(mu, nu)
                assert rep["ok"], rep["witness"]
                assert rep == dense_pk_orthogonality_check(mu, nu), (mu, nu)

    def test_product_is_scalar(self):
        spec = ChannelSpec(2, 4, 1)
        prod = dense_jk_product(spec, spec)
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
                prod = dense_jk_product(ChannelSpec(mu, nu, k),
                                        ChannelSpec(mu, nu, l))
                assert all(v == 0 for row in prod for v in row)

    def test_jk_columns_have_single_output_degree(self):
        # cols[a][b] is the coefficient of xi^(a+b-k): zero exactly where
        # that degree lies outside the target level, and every target
        # degree is reached (J_k is onto)
        for (mu, nu, k) in [(2, 5, 1), (0, 3, 0), (3, 3, 3), (3, 4, 3),
                            (2, 2, 1)]:
            spec = ChannelSpec(mu, nu, k)
            cols = jk_columns(spec)
            reached = set()
            for a in range(mu + 1):
                for b in range(nu + 1):
                    r = a + b - k
                    if not 0 <= r <= spec.target_level:
                        assert cols[a][b] == 0, (spec, a, b)
                    elif cols[a][b]:
                        reached.add(r)
            assert reached == set(range(spec.target_level + 1)), spec

    # one coefficient scaled, or (a = b = None) all of J_k, which breaks
    # every row of its Schur block and so tests the scan order
    @pytest.mark.parametrize("mu,nu,k,a,b", [(3, 5, 1, 1, 2), (2, 2, 2, 2, 0),
                                             (4, 8, 0, 0, 3), (1, 1, 0, 1, 1),
                                             (3, 6, 2, None, None)])
    def test_fault_gives_dense_witness(self, monkeypatch, mu, nu, k, a, b):
        clean = intertwine.jk_columns

        def faulty(spec):
            cols = clean(spec)
            if spec.k == k:
                for i, row in enumerate(cols):
                    for j in range(len(row)):
                        if a is None or (i, j) == (a, b):
                            row[j] *= Fraction(3, 2)
            return cols

        monkeypatch.setattr(intertwine, "jk_columns", faulty)
        rep = pk_orthogonality_check(mu, nu)
        assert not rep["ok"]
        assert rep["witness"] is not None
        assert rep == dense_pk_orthogonality_check(mu, nu)


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

    def test_columns_built_once_per_spec(self, monkeypatch):
        real = intertwine.jk_columns
        calls = []

        def counting(spec):
            calls.append(spec)
            return real(spec)

        intertwine._jk_integers.cache_clear()
        monkeypatch.setattr(intertwine, "jk_columns", counting)
        rng = random.Random(RNG_SEED)
        spec = ChannelSpec(3, 5, 1)
        choi_matrix(spec)
        for _ in range(5):
            apply_normalized_channel(spec, random_nonhermitian(3, rng))
        assert calls == [spec]
        # cached rows are shared between calls, so they must be immutable
        _, rows = intertwine._jk_integers(spec)
        assert isinstance(rows, tuple)
        assert all(isinstance(row, tuple) for row in rows)

    def test_normalized_channel_matches_dense_oracle(self):
        rng = random.Random(RNG_SEED)
        for mu in range(0, 4):
            for nu in range(mu, 12):
                for k in range(mu + 1):
                    spec = ChannelSpec(mu, nu, k)
                    a = random_nonhermitian(mu, rng)
                    assert apply_normalized_channel(spec, a) == \
                        dense_apply_channel(spec, a).scale(
                            normalization_factor(spec)), (mu, nu, k)


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

    @staticmethod
    def dense_choi_matrix(spec):
        """The Choi matrix from each orthonormal unit's image through the
        dense channel, turned to floats entry by entry with
        float(Fraction), with choi_matrix's float operations in the same
        order."""
        mu = spec.mu
        out_dim = spec.target_level + 1
        gm, go = gram_diagonal(mu), gram_diagonal(spec.target_level)
        s = np.sqrt(np.array([float(v) for v in go]))
        choi = np.zeros(((mu + 1) * out_dim, (mu + 1) * out_dim),
                        dtype=complex)
        for i in range(mu + 1):
            for j in range(mu + 1):
                unit = KernelOperator.from_rows(mu, [
                    [int((r, c) == (i, j)) for c in range(mu + 1)]
                    for r in range(mu + 1)])
                img = dense_apply_channel(spec, unit).scale(
                    normalization_factor(spec))
                c = np.array([[complex(v) if v else 0j for v in row]
                              for row in img.coeffs])
                choi[i * out_dim:(i + 1) * out_dim,
                     j * out_dim:(j + 1) * out_dim] = \
                    c * np.outer(s, s) / np.sqrt(float(gm[i] * gm[j]))
        return choi

    # every spec of the default verify sweep; it holds the edge levels
    # mu = 0, nu = mu and output levels below mu, (3, 3, 3) and (3, 4, 3)
    @pytest.mark.parametrize("mu,nu,k", [
        (mu, nu, k) for mu in range(4) for nu in range(mu, 8)
        for k in range(mu + 1)])
    def test_choi_bit_identical_to_dense_unit_images(self, mu, nu, k):
        spec = ChannelSpec(mu, nu, k)
        assert choi_matrix(spec).tobytes() == \
            self.dense_choi_matrix(spec).tobytes()
