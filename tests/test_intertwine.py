"""Tests for the component intertwiners, the Schur constant, and the
induced quantum channels."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from su2chan import intertwine
from su2chan.intertwine import (
    ChannelSpec,
    InvalidSpecError,
    apply_channel,
    apply_normalized_channel,
    c_squared,
    channel_report,
    choi_min_eigenvalue,
    normalization_factor,
    pk_orthogonality_check,
)
from su2chan.quadrature import random_operator, random_psd_trace_one
from su2chan.repspace import _common_denominator, _rows
from bignum_oracles import kraus_weights, orthonormal_band
from numpy_oracles import assert_band_matches_dense, dense_orthonormal_matrix
from test_exactnum import CQ, binomial, falling_pochhammer, rising_pochhammer
from test_repspace import (
    coeff_rows,
    gram_diagonal,
    kernel_from_rows,
    reproducing_identity_operator,
    trace,
)

RNG_SEED = 777

# every spec of the default verify sweep; it holds the edge levels
# mu = 0, nu = mu and output levels below mu, (3, 3, 3) and (3, 4, 3)
VERIFY_SWEEP = [(mu, nu, k) for mu in range(4) for nu in range(mu, 8)
                for k in range(mu + 1)]


# ---------------------------------------------------------------------------
# Dense oracles: J_k and J_k* as full exact matrices.  They share only the
# column coefficients with the package (looked up on the module, so a
# monkeypatched fault reaches both), and multiply them out entry by entry.
# ---------------------------------------------------------------------------

def tensor_dim(spec):
    return (spec.mu + 1) * (spec.nu + 1)


def jk_columns(spec):
    """The package's column coefficients as Fractions: J_k(z^a w^b) =
    cols[a][b] xi^(a + b - k), read from intertwine._jk_integers."""
    d, rows = intertwine._jk_integers(spec)
    return [[Fraction(x, d) for x in row] for row in rows]


def pochhammer_c_squared(spec):
    """The Schur constant (-nu)_k (-mu)_k / (k! (L+2)_k), L the target
    level, from Pochhammer Fractions (k! as the falling (k)_k)."""
    mu, nu, k = spec.mu, spec.nu, spec.k
    return Fraction(rising_pochhammer(-nu, k) * rising_pochhammer(-mu, k),
                    falling_pochhammer(k, k)
                    * rising_pochhammer(spec.target_level + 2, k))


def dense_jk_matrix(spec):
    """J_k as a (target_dim) x (tensor_dim) matrix; column (a, b) has its
    single nonzero in row a + b - k."""
    m = [[Fraction(0)] * tensor_dim(spec)
         for _ in range(spec.target_level + 1)]
    for a, row in enumerate(jk_columns(spec)):
        for b, v in enumerate(row):
            if v:
                m[a + b - spec.k][spec.tensor_index(a, b)] = v
    return m


def fraction_jk_columns(spec):
    """The column coefficients summed term by term in Fractions, with the
    Pochhammer weights of the differential-operator form: the oracle for
    the package's integer sums over one denominator."""
    mu, nu, k = spec.mu, spec.nu, spec.k
    cols = [[Fraction(0)] * (nu + 1) for _ in range(mu + 1)]
    for j in range(k + 1):
        w = Fraction(-1) ** (k + j) * binomial(k, j) \
            / (rising_pochhammer(-mu, j) * rising_pochhammer(-nu, k - j))
        for a in range(mu + 1):
            for b in range(max(0, k - a),
                           min(nu, spec.target_level + k - a) + 1):
                cols[a][b] += w * falling_pochhammer(a, j) \
                    * falling_pochhammer(b, k - j)
    return cols


def dense_jk_adjoint(spec):
    """J_k* = G_tensor^{-1} J_k^T G_target (J_k is real)."""
    jk = dense_jk_matrix(spec)
    gm, gn = gram_diagonal(spec.mu), gram_diagonal(spec.nu)
    go = gram_diagonal(spec.target_level)
    return [[jk[c][spec.tensor_index(a, b)] * go[c] / (gm[a] * gn[b])
             if jk[c][spec.tensor_index(a, b)] else Fraction(0)
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
    jks = [dense_jk_matrix(sk) for sk in specs]
    adjs = [dense_jk_adjoint(sk) for sk in specs]
    for k in range(mu + 1):
        for l in range(mu + 1):
            for i, row in enumerate(dense_matmul(jks[k], adjs[l])):
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
    for k in range(mu + 1):
        term = dense_matmul(adjs[k], jks[k])
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
    coeffs = coeff_rows(a)
    out = [[CQ(0) for _ in range(out_level + 1)]
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
                        cur = tensor_col.get(key, CQ(0))
                        tensor_col[key] = cur + coeffs[i][a_idx] * w
        # apply J_k
        for (i, b_idx), v in tensor_col.items():
            r = i + b_idx - k
            if 0 <= r <= out_level:
                jv = jk[r][spec.tensor_index(i, b_idx)]
                if jv:
                    out[r][c] = out[r][c] + v * jv * c2
    # operator matrix -> kernel coefficients
    return kernel_from_rows(out_level, [
        [out[i][c] / go[c] for c in range(out_level + 1)]
        for i in range(out_level + 1)])


def choi_partial_trace_output(choi, spec):
    """Trace out the output factor; trace preservation gives the identity."""
    n_in = spec.mu + 1
    out_dim = spec.target_level + 1
    pt = np.zeros((n_in, n_in), dtype=complex)
    for i in range(n_in):
        for j in range(n_in):
            block = choi[i * out_dim:(i + 1) * out_dim,
                         j * out_dim:(j + 1) * out_dim]
            pt[i, j] = np.trace(block)
    return pt


def racah_cg_squared(j1, m1, j2, m2, j, m):
    """<j1/2, m1/2; j2/2, m2/2 | j/2, m/2>^2 by Racah's closed form, with
    every spin and projection given doubled (G. Racah, Phys. Rev. 62
    (1942) 438): an oracle for the Kraus weights that never reads J_k."""
    if m1 + m2 != m or not abs(j1 - j2) <= j <= j1 + j2 or abs(m) > j:
        return Fraction(0)

    def fact(twice):
        return math.factorial(twice // 2)

    norm = Fraction(
        (j + 1) * fact(j + j1 - j2) * fact(j - j1 + j2) * fact(j1 + j2 - j)
        * fact(j + m) * fact(j - m) * fact(j1 - m1) * fact(j1 + m1)
        * fact(j2 - m2) * fact(j2 + m2), fact(j1 + j2 + j + 2))
    total = Fraction(0)
    for z in range(0, j1 + j2 - j + 1, 2):
        args = (z, j1 + j2 - j - z, j1 - m1 - z, j2 + m2 - z,
                j - j2 + m1 + z, j - j1 - m2 + z)
        if min(args) >= 0:
            total += Fraction((-1) ** (z // 2), math.prod(map(fact, args)))
    return norm * total ** 2


def random_nonhermitian(mu, rng):
    while True:
        a = random_operator(mu, rng)
        if not a.is_hermitian():
            return a


class TestSpec:

    def test_valid_spec(self):
        s = ChannelSpec(2, 5, 1)
        assert s.target_level == 5
        assert tensor_dim(s) == 18

    @pytest.mark.parametrize("mu,nu,k", [(3, 2, 0), (2, 5, 3), (2, 5, -1),
                                         (-1, 3, 0)])
    def test_invalid_spec_rejected(self, mu, nu, k):
        # by position and by keyword, with one message
        want = f"need 0 <= k <= mu <= nu, got (mu={mu}, nu={nu}, k={k})"
        for build in (lambda: ChannelSpec(mu, nu, k),
                      lambda: ChannelSpec(k=k, nu=nu, mu=mu)):
            with pytest.raises(InvalidSpecError) as info:
                build()
            assert str(info.value) == want

    def test_boundary_nu_equals_mu(self):
        # the equal-level case is allowed and its top component is scalar
        s = ChannelSpec(2, 2, 2)
        assert s.target_level == 0

    # mu = 0, nu = mu, output level L = mu + nu - 2k below mu
    @pytest.mark.parametrize("mu,nu,k,level", [(0, 0, 0, 0), (0, 4, 0, 4),
                                               (2, 2, 1, 2), (3, 4, 3, 1)])
    def test_value_contract(self, mu, nu, k, level):
        s = ChannelSpec(mu, nu, k)
        assert repr(s) == f"ChannelSpec(mu={mu}, nu={nu}, k={k})"
        assert (s.mu, s.nu, s.k, s.target_level) == (mu, nu, k, level)
        assert s.tensor_index(mu, nu) == tensor_dim(s) - 1
        same = ChannelSpec(mu=mu, nu=nu, k=k)
        assert same == s and hash(same) == hash(s)
        assert len({s, same}) == 1
        for field in ("mu", "nu", "k"):
            with pytest.raises(AttributeError):
                setattr(s, field, 1)
        assert (s.mu, s.nu, s.k) == (mu, nu, k)


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
        # the Pochhammer form is the oracle for c_squared's integer ratio
        for mu in range(41):
            for nu in range(mu, 41):
                for k in range(mu + 1):
                    spec = ChannelSpec(mu, nu, k)
                    got = c_squared(spec)
                    assert type(got) is Fraction
                    assert got == pochhammer_c_squared(spec), spec

    def test_schur_scalar_and_orthogonality_sweep(self):
        # the total-degree check against the dense products; mu = 0,
        # nu = mu and output levels below mu all occur on this grid
        for mu in range(0, 6):
            for nu in range(mu, 15):
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

    def test_jk_columns_match_fraction_oracle(self):
        specs = [ChannelSpec(mu, nu, k) for mu in range(6)
                 for nu in range(mu, 15) for k in range(mu + 1)]
        specs += [ChannelSpec(3, 160, k) for k in range(4)]
        for spec in specs:
            want = fraction_jk_columns(spec)
            assert jk_columns(spec) == want, spec
            # the integer table is the Fractions' lcm form: one gcd of
            # the sums over the lcm of the term denominators gives it
            d, flat = _common_denominator(v for row in want for v in row)
            n = spec.nu + 1
            assert intertwine._jk_integers(spec) == (d, tuple(
                tuple(flat[i:i + n]) for i in range(0, len(flat), n))), spec

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
        clean = intertwine._jk_integers.__wrapped__

        def faulty(spec):
            # the chosen coefficients times 3/2: all over 2d, those times 3
            d, rows = clean(spec)
            if spec.k != k:
                return d, rows
            return 2 * d, tuple(
                tuple(x * (3 if a is None or (i, j) == (a, b) else 2)
                      for j, x in enumerate(row))
                for i, row in enumerate(rows))

        # the check and the dense oracle both read the columns from the
        # module, so both see the fault, and the cache stays clean
        monkeypatch.setattr(intertwine, "_jk_integers", faulty)
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
                        assert trace(ta) == trace(a)

    def test_identity_maps_to_scalar(self):
        # the report's output-index sums against the dense image of I, at
        # every edge level: c = 4 at (3, 3, 3), where L = 0
        for mu, nu, k in VERIFY_SWEEP:
            spec = ChannelSpec(mu, nu, k)
            scale = Fraction(mu + 1, spec.target_level + 1)
            assert channel_report(spec)["unital_scalar"] == str(scale)
            t_ident = apply_normalized_channel(
                spec, reproducing_identity_operator(mu))
            target_ident = reproducing_identity_operator(spec.target_level)
            assert t_ident == target_ident.scale(scale), (mu, nu, k)

    def test_moved_output_weight_is_not_unital(self, monkeypatch):
        # weight moved along row 0 from output index r to r + 1 keeps every
        # row sum, so the faulty channel is trace preserving but not unital
        clean = intertwine._kraus_weights

        def faulty(spec):
            x = clean(spec)
            b = next(b for b, v in enumerate(x[0]) if v)
            x[0][b], x[0][b + 1] = x[0][b] / 2, x[0][b + 1] + x[0][b] / 2
            return x

        monkeypatch.setattr(intertwine, "_kraus_weights", faulty)
        report = channel_report(ChannelSpec(2, 4, 1))
        assert report["trace_preserving"] is True
        assert report["unital_scalar"] is None

    def test_positivity_preserved_numerically(self):
        rng = random.Random(RNG_SEED)
        spec = ChannelSpec(3, 6, 2)
        a = random_psd_trace_one(3, rng)
        m = dense_orthonormal_matrix(apply_normalized_channel(spec, a))
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
        # the output band is at most min(mu, L): 0 at mu = 0, L when L < mu
        rng = random.Random(RNG_SEED)
        spec = ChannelSpec(mu, nu, k)
        n = spec.target_level + 1
        for _ in range(5):
            a = random_nonhermitian(mu, rng)
            out = apply_channel(spec, a)
            assert out.level == spec.target_level
            assert out == dense_apply_channel(spec, a)
            assert out.width <= min(mu, spec.target_level, a.width)
            assert sum(map(len, out.re)) == sum(map(len, out.im)) \
                <= (2 * min(mu, spec.target_level) + 1) * n

    def test_output_is_banded(self):
        rng = random.Random(RNG_SEED)
        spec = ChannelSpec(2, 9, 1)
        out = apply_channel(spec, random_nonhermitian(2, rng))
        for r, row in enumerate(coeff_rows(out)):
            for c, v in enumerate(row):
                if abs(r - c) > spec.mu:
                    assert v == 0, (r, c)

    def test_columns_built_once_per_spec(self):
        intertwine._jk_integers.cache_clear()
        rng = random.Random(RNG_SEED)
        spec = ChannelSpec(3, 5, 1)
        choi_min_eigenvalue(spec)
        for _ in range(5):
            apply_normalized_channel(spec, random_nonhermitian(3, rng))
        info = intertwine._jk_integers.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        # cached rows are shared between calls, so they must be immutable
        _, rows = intertwine._jk_integers(spec)
        assert isinstance(rows, tuple)
        assert all(isinstance(row, tuple) for row in rows)

    def test_storage_at_large_level(self):
        # seven diagonals of a level-2001 output, 7(L+1) - 12 integers a part
        rng = random.Random(RNG_SEED)
        spec = ChannelSpec(3, 2000, 1)
        out = apply_channel(spec, random_nonhermitian(3, rng))
        n = spec.target_level + 1
        assert out.width == 3
        assert sum(map(len, out.re)) == sum(map(len, out.im)) == 7 * n - 12

    def test_orthonormal_matrix_matches_dense_oracle(self):
        # the orthonormal band of channel outputs up to nu = 160
        rng = random.Random(RNG_SEED)
        for _ in range(12):
            mu = rng.randint(0, 4)
            spec = ChannelSpec(mu, rng.randint(mu, 160), rng.randint(0, mu))
            for out in (apply_channel(spec, random_nonhermitian(mu, rng)),
                        apply_normalized_channel(
                            spec, random_psd_trace_one(mu, rng))):
                assert_band_matches_dense(out, orthonormal_band(out))

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
        choi = self.dense_choi_matrix(spec)
        assert np.max(np.abs(choi - choi.conj().T)) < 1e-12
        assert choi_min_eigenvalue(spec) >= 0
        assert channel_report(spec)["trace_preserving"]
        pt = choi_partial_trace_output(choi, spec)
        assert np.max(np.abs(pt - np.eye(mu + 1))) < 1e-10

    @staticmethod
    def dense_choi_matrix(spec):
        """The Choi matrix of the normalized channel in orthonormal bases,
        from each orthonormal unit's image through the dense channel,
        turned to floats entry by entry with float(Fraction)."""
        mu = spec.mu
        out_dim = spec.target_level + 1
        gm, go = gram_diagonal(mu), gram_diagonal(spec.target_level)
        s = np.sqrt(np.array([float(v) for v in go]))
        choi = np.zeros(((mu + 1) * out_dim, (mu + 1) * out_dim),
                        dtype=complex)
        for i in range(mu + 1):
            for j in range(mu + 1):
                unit = kernel_from_rows(mu, [
                    [int((r, c) == (i, j)) for c in range(mu + 1)]
                    for r in range(mu + 1)])
                img = dense_apply_channel(spec, unit).scale(
                    normalization_factor(spec))
                c = np.array([[complex(v) if v else 0j for v in row]
                              for row in coeff_rows(img)])
                choi[i * out_dim:(i + 1) * out_dim,
                     j * out_dim:(j + 1) * out_dim] = \
                    c * np.outer(s, s) / np.sqrt(float(gm[i] * gm[j]))
        return choi

    @pytest.mark.parametrize("mu,nu,k", VERIFY_SWEEP)
    def test_choi_spectrum_is_kraus_column_sums(self, mu, nu, k):
        # one eigenvalue per rank-one block b, and zeros for the rest
        spec = ChannelSpec(mu, nu, k)
        weights = intertwine._kraus_weights(spec)
        assert all(v >= 0 for row in weights for v in row)
        assert all(sum(row) == 1 for row in weights)
        exact = sorted([sum(col) for col in zip(*weights)] + [Fraction(0)] * (
            (mu + 1) * (spec.target_level + 1) - (nu + 1)))
        got = np.linalg.eigvalsh(self.dense_choi_matrix(spec))
        assert np.max(np.abs(got - [float(v) for v in exact])) < 1e-12
        lowest = choi_min_eigenvalue(spec)
        assert type(lowest) is Fraction and lowest == exact[0]

    def test_kraus_weights_are_squared_clebsch_gordan(self):
        # x[i][b] = (mu+1)/(L+1) <mu/2, mu/2-i; nu/2, nu/2-b | L/2, L/2-r>^2
        # with r = i + b - k, every entry, zero or not
        for mu in range(5):
            for nu in range(mu, 13):
                for k in range(mu + 1):
                    spec = ChannelSpec(mu, nu, k)
                    L = spec.target_level
                    x = intertwine._kraus_weights(spec)
                    for i in range(mu + 1):
                        for b in range(nu + 1):
                            r = i + b - k
                            assert x[i][b] == Fraction(mu + 1, L + 1) * \
                                racah_cg_squared(mu, mu - 2 * i, nu,
                                                 nu - 2 * b, L, L - 2 * r), \
                                (mu, nu, k, i, b)

    @pytest.mark.parametrize("mu,nu,k", [
        (mu, nu, k) for mu in range(5) for nu in range(mu, 13)
        for k in range(mu + 1)] + [(3, 1100, k) for k in range(4)])
    def test_factorised_kraus_weights_match_whole_binomials(self, mu, nu, k):
        # mu = 0, nu = mu, k = 0 and k = mu, L < mu, and an output level
        # whose binomials pass the float range
        spec = ChannelSpec(mu, nu, k)
        assert intertwine._kraus_weights(spec) == kraus_weights(spec)

    def test_rows_give_the_trace_of_every_operator(self):
        # Tr T(A) = sum_i (row i) A_ii g_i, with A_ii g_i the diagonal of
        # A in orthonormal bases and g_i = 1/C(mu, i)
        rng = random.Random(RNG_SEED)
        for mu in range(0, 4):
            for nu in range(mu, 12):
                for k in range(mu + 1):
                    spec = ChannelSpec(mu, nu, k)
                    rows = [sum(row) for row in intertwine._kraus_weights(spec)]
                    a = random_nonhermitian(mu, rng)
                    want = [sum(r * Fraction(m[i][i], a.d * math.comb(mu, i))
                                for i, r in enumerate(rows))
                            for m in _rows(a)]
                    assert trace(apply_normalized_channel(spec, a)) \
                        == CQ(*want), (mu, nu, k)

    def test_exact_at_output_levels_past_float_range(self):
        # C(L, L/2) passes the float maximum at L = 1030; the exact form
        # never leaves the integers
        spec = ChannelSpec(1, 1100, 0)
        assert choi_min_eigenvalue(spec) == Fraction(0)
        assert channel_report(spec)["trace_preserving"] is True
