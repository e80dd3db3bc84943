"""Intertwiners between tensor products and irreducible components, and
the quantum channels built from them.

The map J_k sends the tensor space of levels (mu, nu) onto the component
of level mu + nu - 2k.  On monomials it is diagonal in total degree:
z^a w^b goes to a multiple of xi^(a + b - k), with the multiple given by
the differential-operator form

    J_k = (-1)^k sum_j (-1)^j C(k,j) [(-mu)_j (-nu)_{k-j}]^{-1}
          d_z^j d_w^{k-j}  evaluated at z = w = xi.

J_k is kept only in this one-nonzero-per-column form, as integers over
one denominator (:func:`_jk_integers`); the channel kernel and the
orthogonality check work from the columns by total degree a + b, and
the Gram forms enter only through adjoints.  A channel output is
banded, |r - c| <= mu, and is written diagonal by diagonal.
The same columns give each channel's Kraus form as one table of exact
weights (:func:`_kraus_weights`), from which trace preservation,
unitality and the Choi spectrum (complete positivity) are read exactly.
Those weights are squared Clebsch-Gordan coefficients of small integer
factors (:func:`_cg_factors`), which quadrature reads as floats.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple
from fractions import Fraction
from itertools import chain, repeat
from typing import List, Tuple

from .repspace import (
    KernelOperator,
    LevelMismatchError,
    _binomial_row,
    _gram_integers,
    _lowest_terms,
)


class InvalidSpecError(ValueError):
    pass


class ChannelSpec(namedtuple("ChannelSpec", "mu nu k")):
    """The triple (mu, nu, k) selecting one component channel."""

    __slots__ = ()

    def __new__(cls, mu: int, nu: int, k: int):
        if not (0 <= k <= mu <= nu):
            raise InvalidSpecError(
                f"need 0 <= k <= mu <= nu, got (mu={mu}, nu={nu}, k={k})")
        return super().__new__(cls, mu, nu, k)

    @property
    def target_level(self) -> int:
        return self.mu + self.nu - 2 * self.k

    def tensor_index(self, a: int, b: int) -> int:
        return a * (self.nu + 1) + b


def c_squared(spec: ChannelSpec) -> Fraction:
    """Schur constant with J_k J_k* = C^{-2} I on the target space:
    (-nu)_k (-mu)_k / (k! (L+2)_k) with L the target level, as one integer
    ratio nu!/(nu-k)! mu!/(mu-k)! / (k! (L+k+1)!/(L+1)!)."""
    mu, nu, k = spec.mu, spec.nu, spec.k
    return Fraction(math.perm(nu, k) * math.perm(mu, k),
                    math.factorial(k) * math.perm(spec.target_level + k + 1, k))


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
    The columns, the Gram weights and c_k^2 = p_k/q_k each enter over one
    integer denominator, so the sums run in integers and an entry is
    compared with its target crosswise; a Fraction is made only for a
    witness.  Entries are visited in row-major order, so the witness in
    the returned report is the first failing entry of the dense matrices.
    """
    report = {"mu": mu, "nu": nu, "schur_scalar": True,
              "cross_vanish": True, "completeness": True, "witness": None}

    def witness(kind, k, l, i, j, num, den):
        if report["witness"] is None:
            report["witness"] = {"identity": kind, "k": k, "l": l,
                                 "row": i, "col": j,
                                 "value": str(Fraction(num, den))}

    specs = [ChannelSpec(mu, nu, k) for k in range(mu + 1)]
    index = specs[0].tensor_index
    # x_k[a][b] = cols[k][1][index(a, b)] / cols[k][0], the channels' integer
    # columns, looked up on the module so that a patched table reaches here
    cols = [(d, list(chain(*rows))) for d, rows in map(_jk_integers, specs)]
    c2 = [c_squared(spec).as_integer_ratio() for spec in specs]
    grams = [_gram_integers(spec.target_level) for spec in specs]
    weight = [math.comb(mu, a) * math.comb(nu, b)
              for a in range(mu + 1) for b in range(nu + 1)]

    def degree(s):
        """The tensor indices of the (a, b) with a + b = s."""
        return [index(a, s - a)
                for a in range(max(0, s - nu), min(mu, s) + 1)]

    for k, (dk, xk) in enumerate(cols):
        p, q = c2[k]
        for l, (dl, xl) in enumerate(cols):
            big_w, w = grams[l]
            den = big_w * dk * dl
            for r in range(specs[k].target_level + 1):
                c = r + k - l
                if not 0 <= c <= specs[l].target_level:
                    continue
                # the entry is v / den; the Schur target is 1/c_k^2 = q/p
                v = w[c] * sum(xk[t] * xl[t] * weight[t]
                               for t in degree(r + k))
                if k == l and v * p != q * den:
                    report["schur_scalar"] = False
                    witness("schur_scalar", k, l, r, c, v, den)
                elif k != l and v:
                    report["cross_vanish"] = False
                    witness("cross_vanish", k, l, r, c, v, den)

    # term k of the completeness sum is c_k^2 g_k x_k x_k over q_k W_k D_k^2;
    # over their lcm R it is scale[k] w_k x_k x_k with integer x_k
    dens = [q * big_w * d * d
            for (_, q), (big_w, _), (d, _) in zip(c2, grams, cols)]
    big_r = math.lcm(*dens)
    scale = [p * (big_r // den) for (p, _), den in zip(c2, dens)]
    for a in range(mu + 1):
        for b in range(nu + 1):
            s, row = a + b, index(a, b)
            terms = [(scale[k] * grams[k][1][s - k] * x[row], x)
                     for k, (_, x) in enumerate(cols)
                     if 0 <= s - k <= specs[k].target_level]
            for col in degree(s):
                v = weight[row] * sum(u * x[col] for u, x in terms)
                if v != (big_r if col == row else 0):
                    report["completeness"] = False
                    witness("completeness", None, None, row, col, v, big_r)
    report["ok"] = (report["schur_scalar"] and report["cross_vanish"]
                    and report["completeness"])
    return report


@functools.lru_cache(maxsize=1024)
def _jk_integers(spec: ChannelSpec) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """Column coefficients (d, rows): J_k(z^a w^b) = rows[a][b] / d
    xi^(a + b - k), 0 where a + b - k is outside the target level.  The
    k + 1 differential-operator terms have the nonzero denominators
    (-mu)_j (-nu)_{k-j} = (-1)^k mu!/(mu-j)! nu!/(nu-k+j)!, so each column
    is an integer sum over their lcm; one gcd reduces the table.  The
    cache holds a whole verify sweep (364 specs at mu = 6, nu = 16), which
    reads each spec once per suite: a smaller one would evict them all."""
    mu, nu, k = spec.mu, spec.nu, spec.k
    dens = [math.perm(mu, j) * math.perm(nu, k - j) for j in range(k + 1)]
    d = math.lcm(*dens)
    terms = [((-1) ** j * math.comb(k, j) * (d // den),
              [math.perm(a, j) for a in range(mu + 1)],
              [math.perm(b, k - j) for b in range(nu + 1)])
             for j, den in enumerate(dens)]
    rows = [[0] * (nu + 1) for _ in range(mu + 1)]
    for a in range(mu + 1):
        for b in range(max(0, k - a), min(nu, spec.target_level + k - a) + 1):
            rows[a][b] = sum(w * fa[a] * fb[b] for w, fa, fb in terms)
    return _lowest_terms(d, rows)


def _channel(spec: ChannelSpec, a: KernelOperator,
             scalar: Fraction) -> KernelOperator:
    """scalar J_k (A (x) I) J_k* as exact kernel coefficients: the Gram
    factors of J_k* = G_tensor^{-1} J^T G_target cancel, and with J(a, b)
    the column coefficients, i = a' + t and b = c + k - a',

        T(A)[c + t][c] = scalar sum_{a'} C(nu, b) J(i, b) J(a', b) A[i][a'].

    Diagonal t of T(A) reads diagonal t of A alone, |t| <= min(w, L) for
    A of band w, at O(L w mu) integer operations; p/q = scalar enters
    once, p in the weights and q in the denominator."""
    if a.level != spec.mu:
        raise LevelMismatchError(
            f"operator level {a.level} does not match spec mu={spec.mu}")
    mu, nu, k, n = spec.mu, spec.nu, spec.k, spec.target_level + 1
    dj, jint = _jk_integers(spec)
    p, q = scalar.numerator, scalar.denominator
    # wj[a'][b] = p C(nu, b) J(a', b), shared by every diagonal
    weight = [p * c for c in _binomial_row(nu)]
    wj = [list(map(operator.mul, weight, row)) for row in jint]
    wa, w = a.width, min(a.width, n - 1)
    sre, sim = [], []
    for t in range(-w, w + 1):
        # A's cell (a' + t, a') is entry a' + min(t, 0) of its diagonal t,
        # and T(A)'s cells are (c + t, c)
        s, xr, xi = min(t, 0), a.re[wa + t], a.im[wa + t]
        terms = [(a2, wj[a2], jint[a2 + t], xr[a2 + s], xi[a2 + s])
                 for a2 in range(-s, min(mu, mu - t) + 1)]
        dr, di = [], []
        for c in range(-s, n - max(t, 0)):
            vr = vi = 0
            for a2, wr, jr, x, y in terms:
                b = c + k - a2
                if 0 <= b <= nu:
                    u = wr[b] * jr[b]
                    vr += u * x
                    vi += u * y
            dr.append(vr)
            di.append(vi)
        sre.append(dr)
        sim.append(di)
    return KernelOperator(n - 1, q * dj * dj * a.d, sre, sim)


def apply_channel(spec: ChannelSpec, a: KernelOperator) -> KernelOperator:
    """T(A) = c^2 J_k (A (x) I) J_k*."""
    return _channel(spec, a, c_squared(spec))


def normalization_factor(spec: ChannelSpec) -> Fraction:
    return Fraction(spec.mu + 1, spec.target_level + 1)


def apply_normalized_channel(spec: ChannelSpec,
                             a: KernelOperator) -> KernelOperator:
    """Trace-preserving rescaling (mu+1)/(mu+nu-2k+1) of the channel."""
    return _channel(spec, a, c_squared(spec) * normalization_factor(spec))


def _cg_factors(spec: ChannelSpec, i: int):
    """Row i of the squared Clebsch-Gordan weights, factorised:
    (bs, ups, downs), CG(i, b)^2 = c^2 C(mu, i) (J(i, b) / d)^2
    prod_j ups[j] / downs[j] for b in bs, the b with r = i + b - k in
    0..L.  The product is C(nu, b) / C(L, r) = nu!/L! r!/b! (L-r)!/(nu-b)!,
    and each x!/y! has x - y = e free of b: the terms y + j, j = 1..e,
    up, or x + j, j = 1..-e, down, each a range over b (a repeated
    constant for nu!/L!).  The three e sum to 0, so as many terms go up
    as down."""
    mu, nu, k, big_l = spec.mu, spec.nu, spec.k, spec.target_level
    bs = range(max(0, k - i), min(nu, big_l + k - i) + 1)
    rs, n = range(bs.start + i - k, bs.stop + i - k), len(bs)
    e = 2 * k - mu
    ups = [repeat(big_l + j, n) for j in range(1, e + 1)]
    downs = [repeat(nu + j, n) for j in range(1, 1 - e)]
    for x, y in ((rs, bs), (range(big_l - rs.start, big_l - rs.stop, -1),
                            range(nu - bs.start, nu - bs.stop, -1))):
        e = x.start - y.start
        side, z = (ups, y) if e >= 0 else (downs, x)
        side.extend(range(z.start + j, z.stop + j, z.step)
                    for j in range(1, abs(e) + 1))
    return bs, ups, downs


def _kraus_weights(spec: ChannelSpec) -> List[List[Fraction]]:
    """The normalized channel in Kraus form, as exact non-negative weights.

    With s = c^2 (mu+1)/(L+1), :func:`_channel` is the Kraus sum
    T(A) = sum_b s C(nu, b) K_b A K_b^T, where K_b sends z^i to
    J(i, b) xi^(i+b-k).  In orthonormal bases the weight of e_i in K_b is

        x[i][b] = s C(nu, b) J(i, b)^2 C(mu, i) / C(L, i+b-k)
                = (mu+1)/(L+1) <mu/2, mu/2-i; nu/2, nu/2-b | L/2, L/2-r>^2,

    with r = i + b - k the output index, zero where r lies outside 0..L:
    a squared Clebsch-Gordan coefficient (G. Racah, Phys. Rev. 62 (1942)
    438), read from the small integer factors of :func:`_cg_factors`.
    The two orthogonality relations of those coefficients are the
    channel's two exact identities.  Rows sum to 1: row i is the trace of
    the image of the unit E_ii, and the images of E_ij, i != j, are
    traceless, so this is trace preservation.  The sums over i + b - k = r
    equal (mu+1)/(L+1): T(E_ii) is diagonal, so these sums are the
    diagonal of T(I), and this is unitality up to that scalar.  After a
    permutation the Choi matrix is a direct sum of rank-one blocks, one
    for each b, and column b sums to the one nonzero eigenvalue of block b.
    """
    mu, nu = spec.mu, spec.nu
    dj, jint = _jk_integers(spec)
    scalar = c_squared(spec) * normalization_factor(spec)
    p, q = scalar.numerator, scalar.denominator * dj * dj
    x = [[Fraction(0)] * (nu + 1) for _ in range(mu + 1)]
    for i, cmu in enumerate(_binomial_row(mu)):
        bs, ups, downs = _cg_factors(spec, i)
        num = [p * cmu * j * j for j in jint[i][bs.start:bs.stop]]
        den = [q] * len(bs)
        for up, down in zip(ups, downs):
            num = list(map(operator.mul, num, up))
            den = list(map(operator.mul, den, down))
        x[i][bs.start:bs.stop] = map(Fraction, num, den)
    return x


def _least_choi_eigenvalue(spec: ChannelSpec,
                           x: List[List[Fraction]]) -> Fraction:
    """The least column sum of the Kraus table x, or 0 when the Choi
    matrix, of order (mu+1)(L+1), has more eigenvalues than the nu + 1
    that its blocks' column sums give."""
    sums = [sum(col) for col in zip(*x)]
    if (spec.mu + 1) * (spec.target_level + 1) > spec.nu + 1:
        sums.append(Fraction(0))
    return min(sums)


def choi_min_eigenvalue(spec: ChannelSpec) -> Fraction:
    """The least eigenvalue of the normalized channel's Choi matrix."""
    return _least_choi_eigenvalue(spec, _kraus_weights(spec))


def channel_report(spec: ChannelSpec) -> dict:
    """JSON-ready structural report for one channel spec, read from one
    Kraus table: its rows give trace preservation, its columns the least
    Choi eigenvalue, and its output-index sums the scalar c with
    T(I) = c I, or None when they differ.  Rationals are exact "p/q"."""
    x, k, nu = _kraus_weights(spec), spec.k, spec.nu
    unital = {sum(row[r + k - i] for i, row in enumerate(x)
                  if 0 <= r + k - i <= nu)
              for r in range(spec.target_level + 1)}
    return {
        "spec": {"mu": spec.mu, "nu": spec.nu, "k": spec.k},
        "c_squared": str(c_squared(spec)),
        "trace_preserving": all(sum(row) == 1 for row in x),
        "choi_min_eigenvalue": str(_least_choi_eigenvalue(spec, x)),
        "unital_scalar": str(unital.pop()) if len(unital) == 1 else None,
    }
