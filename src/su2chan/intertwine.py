"""Intertwiners between tensor products and irreducible components, and
the quantum channels built from them.

The map J_k sends the tensor space of levels (mu, nu) onto the component
of level mu + nu - 2k.  On monomials it is diagonal in total degree:
z^a w^b goes to a multiple of xi^(a + b - k), with the multiple given by
the differential-operator form

    J_k = (-1)^k sum_j (-1)^j C(k,j) [(-mu)_j (-nu)_{k-j}]^{-1}
          d_z^j d_w^{k-j}  evaluated at z = w = xi.

J_k is kept only in this one-nonzero-per-column form (:func:`jk_columns`);
the channel kernel and the orthogonality check work from the columns by
total degree a + b, and the Gram forms enter only through adjoints.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

import numpy as np

from .exactnum import binomial, falling_pochhammer, rising_pochhammer
from .repspace import (
    KernelOperator,
    LevelMismatchError,
    _common_denominator,
    _orthonormal_scale,
    gram_diagonal,
)


class InvalidSpecError(ValueError):
    pass


@dataclass(frozen=True)
class ChannelSpec:
    """The triple (mu, nu, k) selecting one component channel."""

    mu: int
    nu: int
    k: int

    def __post_init__(self):
        if not (0 <= self.k <= self.mu <= self.nu):
            raise InvalidSpecError(
                f"need 0 <= k <= mu <= nu, got (mu={self.mu}, nu={self.nu}, "
                f"k={self.k})")

    @property
    def target_level(self) -> int:
        return self.mu + self.nu - 2 * self.k

    @property
    def tensor_dim(self) -> int:
        return (self.mu + 1) * (self.nu + 1)

    def tensor_index(self, a: int, b: int) -> int:
        return a * (self.nu + 1) + b


def jk_columns(spec: ChannelSpec) -> List[List[Fraction]]:
    """Column coefficients: J_k(z^a w^b) = cols[a][b] xi^(a + b - k), with
    cols[a][b] = 0 where a + b - k lies outside the target level.  All
    columns share the weights of the k + 1 differential-operator terms."""
    mu, nu, k = spec.mu, spec.nu, spec.k
    terms = []
    for j in range(k + 1):
        den = rising_pochhammer(-mu, j) * rising_pochhammer(-nu, k - j)
        # (-mu)_j vanishes only for j > mu, where the derivative factor
        # (a)_j^- also vanishes; skip such terms.
        if den == 0:
            continue
        weight = Fraction(-1) ** (k + j) * binomial(k, j) / den
        terms.append((weight,
                      [falling_pochhammer(a, j) for a in range(mu + 1)],
                      [falling_pochhammer(b, k - j) for b in range(nu + 1)]))
    cols = [[Fraction(0)] * (nu + 1) for _ in range(mu + 1)]
    for a in range(mu + 1):
        for b in range(max(0, k - a), min(nu, spec.target_level + k - a) + 1):
            cols[a][b] = sum((w * fa[a] * fb[b] for w, fa, fb in terms),
                             Fraction(0))
    return cols


def c_squared(spec: ChannelSpec) -> Fraction:
    """Schur constant with J_k J_k* = C^{-2} I on the target space."""
    mu, nu, k = spec.mu, spec.nu, spec.k
    num = rising_pochhammer(-nu, k) * rising_pochhammer(-mu, k)
    den = Fraction(math.factorial(k)) \
        * rising_pochhammer(mu + nu - 2 * k + 2, k)
    return num / den


def pk_orthogonality_check(mu: int, nu: int) -> dict:
    """Exact verification of the orthogonal decomposition at (mu, nu).

    Checks, for all 0 <= k, l <= mu:
      * c_squared(k) J_k J_k* = I on the target space,
      * J_k J_l* = 0 for k != l,
      * sum_k c_squared(k) J_k* J_k = I on the tensor space.

    With x_k the column coefficients and g_k the Gram diagonal of level
    mu + nu - 2k, J_k* = G_tensor^{-1} J_k^T G_target carries the weight
    C(mu,a) C(nu,b) g_k(c), so every entry is a sum over one total degree:

      (J_k J_l*)[r][r+k-l] = g_l(r+k-l) sum_{a+b=r+k} x_k x_l C(mu,a) C(nu,b),
      (sum_k c_k^2 J_k* J_k)[(a,b)][(a',b')]
          = C(mu,a) C(nu,b) sum_k c_k^2 g_k(s-k) x_k[a][b] x_k[a'][b'],

    with s = a + b = a' + b'; all other entries vanish by construction.
    Entries are visited in row-major order, so the witness in the returned
    report is the first failing entry of the dense matrices.
    """
    report = {"mu": mu, "nu": nu, "schur_scalar": True,
              "cross_vanish": True, "completeness": True, "witness": None}

    def witness(kind, k, l, i, j, value):
        if report["witness"] is None:
            report["witness"] = {"identity": kind, "k": k, "l": l,
                                 "row": i, "col": j, "value": str(value)}

    specs = [ChannelSpec(mu, nu, k) for k in range(mu + 1)]
    cols = [jk_columns(spec) for spec in specs]
    c2 = [c_squared(spec) for spec in specs]
    grams = [gram_diagonal(spec.target_level) for spec in specs]
    weight = [[math.comb(mu, a) * math.comb(nu, b) for b in range(nu + 1)]
              for a in range(mu + 1)]

    def degree(s):
        """The (a, b) of the tensor basis with a + b = s."""
        return [(a, s - a) for a in range(max(0, s - nu), min(mu, s) + 1)]

    for k, xk in enumerate(cols):
        for l, xl in enumerate(cols):
            for r in range(specs[k].target_level + 1):
                c = r + k - l
                if not 0 <= c <= specs[l].target_level:
                    continue
                v = grams[l][c] * sum((xk[a][b] * xl[a][b] * weight[a][b]
                                       for a, b in degree(r + k)), Fraction(0))
                if k == l and v != 1 / c2[k]:
                    report["schur_scalar"] = False
                    witness("schur_scalar", k, l, r, c, v)
                elif k != l and v:
                    report["cross_vanish"] = False
                    witness("cross_vanish", k, l, r, c, v)

    for a in range(mu + 1):
        for b in range(nu + 1):
            s = a + b
            terms = [(c2[k] * grams[k][s - k] * x[a][b], x)
                     for k, x in enumerate(cols)
                     if 0 <= s - k <= specs[k].target_level]
            for a2, b2 in degree(s):
                v = weight[a][b] * sum((t * x[a2][b2] for t, x in terms),
                                       Fraction(0))
                if v != (1 if (a2, b2) == (a, b) else 0):
                    report["completeness"] = False
                    witness("completeness", None, None,
                            specs[0].tensor_index(a, b),
                            specs[0].tensor_index(a2, b2), v)
    report["ok"] = (report["schur_scalar"] and report["cross_vanish"]
                    and report["completeness"])
    return report


@functools.lru_cache(maxsize=256)
def _jk_integers(spec: ChannelSpec) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """The J_k columns over a common denominator, built once per spec."""
    n = spec.nu + 1
    d, flat = _common_denominator(v for row in jk_columns(spec) for v in row)
    return d, tuple(tuple(flat[i:i + n]) for i in range(0, len(flat), n))


def _channel(spec: ChannelSpec, a: KernelOperator,
             scalar: Fraction) -> KernelOperator:
    """scalar J_k (A (x) I) J_k* as exact kernel coefficients.

    In J_k* = G_tensor^{-1} J^T G_target both Gram factors cancel.  With
    J(a, b) the column coefficients, b = c + k - a' and i = r - c + a':

        T(A)[r][c] = scalar sum_{a'} C(nu, b) J(i, b) J(a', b) A[i][a'],

    zero for |r - c| > mu, so a call costs O(L mu^2) integer operations
    on A's integer form, and the scalar p/q enters once: p in the
    weights, q in the denominator.
    """
    if a.level != spec.mu:
        raise LevelMismatchError(
            f"operator level {a.level} does not match spec mu={spec.mu}")
    mu, nu, k = spec.mu, spec.nu, spec.k
    out_level = spec.target_level
    dj, jint = _jk_integers(spec)
    p, q = scalar.numerator, scalar.denominator
    weight = [p * math.comb(nu, b) for b in range(nu + 1)]

    n = out_level + 1
    sre = [[0] * n for _ in range(n)]
    sim = [[0] * n for _ in range(n)]
    for c in range(n):
        for a2 in range(max(0, c + k - nu), min(mu, c + k) + 1):
            b = c + k - a2
            w = weight[b] * jint[a2][b]
            for i in range(max(0, a2 - c), min(mu, out_level - c + a2) + 1):
                v = w * jint[i][b]
                sre[c + i - a2][c] += v * a.re[i][a2]
                sim[c + i - a2][c] += v * a.im[i][a2]
    return KernelOperator(out_level, q * dj * dj * a.d, sre, sim)


def apply_channel(spec: ChannelSpec, a: KernelOperator) -> KernelOperator:
    """T(A) = c^2 J_k (A (x) I) J_k*."""
    return _channel(spec, a, c_squared(spec))


def normalization_factor(spec: ChannelSpec) -> Fraction:
    return Fraction(spec.mu + 1, spec.target_level + 1)


def apply_normalized_channel(spec: ChannelSpec,
                             a: KernelOperator) -> KernelOperator:
    """Trace-preserving rescaling (mu+1)/(mu+nu-2k+1) of the channel."""
    return _channel(spec, a, c_squared(spec) * normalization_factor(spec))


def choi_matrix(spec: ChannelSpec) -> np.ndarray:
    """Choi matrix of the normalized channel in orthonormal bases.

    Entry [(i, a), (j, b)] equals <e_a, That(E_ij) e_b> with E_ij the
    orthonormal matrix units at level mu.  Positive semidefiniteness of
    this hermitian matrix certifies complete positivity.

    With p/q the scalar of the normalized channel, the kernel unit E_ij
    has one image entry p C(nu, b) J(i, b) J(j, b) / q at (c + i - j, c),
    b = c + k - j, in each column c (the :func:`_channel` sum with
    A = E_ij), so each block is read from the columns and scaled to
    orthonormal bases in floats.
    """
    mu, nu, k = spec.mu, spec.nu, spec.k
    out_dim = spec.target_level + 1
    n_in = mu + 1
    dj, jint = _jk_integers(spec)
    scalar = c_squared(spec) * normalization_factor(spec)
    q = scalar.denominator * dj * dj
    weight = [scalar.numerator * math.comb(nu, b) for b in range(nu + 1)]
    s = _orthonormal_scale(spec.target_level)
    ss = np.outer(s, s)
    choi = np.zeros((n_in * out_dim, n_in * out_dim), dtype=complex)
    for i in range(n_in):
        for j in range(n_in):
            block = np.zeros((out_dim, out_dim), dtype=complex)
            for c in range(max(0, j - k), min(out_dim, nu + j - k + 1)):
                b, r = c + k - j, c + i - j
                if 0 <= r < out_dim:
                    block[r, c] = weight[b] * jint[i][b] * jint[j][b] / q
            # E_ij in kernel form is 1 / sqrt(g_i g_j) at (i, j)
            choi[i * out_dim:(i + 1) * out_dim,
                 j * out_dim:(j + 1) * out_dim] = block * ss / np.sqrt(
                     1 / (math.comb(mu, i) * math.comb(mu, j)))
    return choi


def choi_min_eigenvalue(spec: ChannelSpec) -> float:
    return float(np.linalg.eigvalsh(choi_matrix(spec)).min())


def choi_partial_trace_output(choi: np.ndarray, spec: ChannelSpec) -> np.ndarray:
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


def channel_report(spec: ChannelSpec, operators: List[KernelOperator]) -> dict:
    """JSON-ready structural report for one channel spec."""
    from .repspace import operator_trace
    trace_ok = True
    for a in operators:
        if operator_trace(apply_normalized_channel(spec, a)) \
                != operator_trace(a):
            trace_ok = False
            break
    return {
        "spec": {"mu": spec.mu, "nu": spec.nu, "k": spec.k},
        "c_squared": str(c_squared(spec)),
        "trace_preserving": trace_ok,
        "choi_min_eigenvalue": choi_min_eigenvalue(spec),
    }
