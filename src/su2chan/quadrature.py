"""Numerical integration over the projective line and the trace-limit
convergence experiments, in the standard library alone.

The invariant probability measure becomes uniform on [0,1] x [0,2pi)
under t = r^2/(1+r^2), so a Gauss-Legendre rule in t crossed with a
uniform angular rule integrates band-limited functions of known degree
exactly (up to float roundoff).  A channel output's trace moments are
traces of banded float products, with no eigensolve; its band is read
from Clebsch-Gordan weights built from small exact integer factors.
"""

from __future__ import annotations

import math
import operator
import random
import sys
from collections import namedtuple
from fractions import Fraction
from itertools import repeat
from typing import List, Optional, Sequence, Tuple

from .intertwine import ChannelSpec, _cg_factors, _jk_integers, c_squared
from .repspace import (
    KernelOperator,
    _binomial_row,
    _from_dense,
    _gram_integers,
    _trace_integers,
    compose,
)
from .symbolcalc import (
    IsotypicFunction,
    e_limit_apply,
    inverse_berezin,
    symbol,
)


class FloatRangeError(OverflowError):
    """An exact coefficient is too large to read as a float."""


class QuadratureGrid(namedtuple("QuadratureGrid", "n_radial n_angular")):
    """Product rule: Gauss-Legendre in t = r^2/(1+r^2), uniform in angle."""

    __slots__ = ()

    @classmethod
    def for_degree(cls, degree: int) -> "QuadratureGrid":
        """Rule exact for symbols of level <= degree."""
        return cls(n_radial=degree + 1, n_angular=2 * degree + 1)

    @property
    def size(self) -> int:
        """Number of sample points."""
        return self.n_radial * self.n_angular

    def radial(self) -> Tuple[List[float], List[float]]:
        """Gauss-Legendre nodes in t on [0, 1], ascending, and their
        weights, which sum to 1.  Each root x of P_n is found by Newton's
        method from Tricomi's estimate, with P_n and P_n' from the
        three-term recurrence; it gives the nodes (1 -+ x)/2, both with
        weight 1/((1 - x^2) P_n'(x)^2)."""
        n = self.n_radial
        nodes, weights = [0.0] * n, [0.0] * n
        for i in range((n + 1) // 2):
            x = (1 - (n - 1) / (8 * n ** 3)) \
                * math.cos(math.pi * (i + 0.75) / (n + 0.5))
            for _ in range(100):
                p, dp = _legendre(n, x)
                dx = p / dp
                x -= dx
                if abs(dx) <= 1e-16:
                    break
            dp = _legendre(n, x)[1]
            nodes[i], nodes[n - 1 - i] = (1 - x) / 2, (1 + x) / 2
            weights[i] = weights[n - 1 - i] = 1 / ((1 - x * x) * dp * dp)
        return nodes, weights


def _legendre(n: int, x: float) -> Tuple[float, float]:
    """P_n(x) and P_n'(x), n >= 1, |x| < 1."""
    p0, p1 = 1.0, x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (x * p1 - p0) / (x * x - 1)


# ---------------------------------------------------------------------------
# Random band-limited test inputs
# ---------------------------------------------------------------------------

def random_entries(mu: int, rng: random.Random) \
        -> Tuple[int, List[int], List[int]]:
    """(2, re, im): the kernel entries of a random operator at level mu as
    integers over 2, row by row.  The real and the imaginary part of each
    entry is a numerator in [-3, 3] over a denominator 1 or 2, drawn in
    that order."""
    draw, parts = rng.getrandbits, []
    for _ in range(2 * (mu + 1) ** 2):
        # randint(-3, 3), then randint(1, 2), as CPython draws them: 3 and
        # 2 random bits, redrawn while out of range
        num, den = draw(3), 2
        while num == 7:
            num = draw(3)
        while den > 1:
            den = draw(2)
        parts.append((num - 3) * (2 - den))
    return 2, parts[0::2], parts[1::2]


def random_operator(mu: int, rng: random.Random) -> KernelOperator:
    """Kernel operator with small random rational entries, drawn by
    :func:`random_entries`."""
    return _from_dense(mu, *random_entries(mu, rng))


def random_psd_trace_one(mu: int, rng: random.Random) -> KernelOperator:
    """A = B*B normalized to unit trace: PSD, hermitian, trace 1, exact."""
    while True:
        b = random_operator(mu, rng)
        a = compose(b.adjoint(), b)
        den, re, _ = _trace_integers(a)
        if re > 0:
            return a.scale(Fraction(den, re))


def random_band_limited_state(mu: int, rng: random.Random) \
        -> Tuple[KernelOperator, IsotypicFunction]:
    """PSD trace-1 operator A and the f whose Toeplitz operator
    (1/(mu+1)) T_f at level mu is A: the inverse Berezin transform of A's
    symbol."""
    a = random_psd_trace_one(mu, rng)
    f = inverse_berezin(mu, symbol(a))
    return a, f


# ---------------------------------------------------------------------------
# Trace moments and functional calculus
# ---------------------------------------------------------------------------

def _check_input_level(mu: int):
    """input_band's 1/sqrt(C(mu, i)) overflows from mu = 1030 on."""
    if math.comb(mu, mu // 2) > sys.float_info.max:
        raise FloatRangeError(f"the input at level {mu} exceeds the float "
                              "range")


def input_band(a: KernelOperator) -> List[List[complex]]:
    """Diagonals t >= 0 of the hermitian operator A in the orthonormal
    basis z^i / ||z^i||."""
    _check_input_level(a.level)
    if not a.is_hermitian():
        raise ValueError("the input must be hermitian")
    w, d = a.width, a.d
    s = [1 / math.sqrt(c) for c in _binomial_row(a.level)]
    return [[complex(x / d, y / d) * s[j] * s[j + t]
             for j, (x, y) in enumerate(zip(a.re[w + t], a.im[w + t]))]
            for t in range(w + 1)]


def _cg_rows(spec: ChannelSpec) -> List[Tuple[int, List[float]]]:
    """(b0, [CG(i, b) for b from b0]) for each input index i:
    (J/d) sqrt(c^2 C(mu, i) prod ups / downs) over the terms of
    :func:`~su2chan.intertwine._cg_factors`, multiplied and divided in
    turn, with J/d an int true division (d^2 may pass the float range).
    A value still past the range, or a nonzero J/d below the normal
    floats, is a :class:`FloatRangeError`."""
    c2, rows = c_squared(spec), []
    try:
        scalars = [float(c2 * c) for c in _binomial_row(spec.mu)]
        d, jint = _jk_integers(spec)
        for i, s in enumerate(scalars):
            bs, ups, downs = _cg_factors(spec, i)
            j = jint[i][bs.start:bs.stop]
            v = repeat(s, len(bs))
            for up, down in zip(ups, downs):
                v = map(operator.truediv, map(operator.mul, v, up), down)
            v = list(map(math.sqrt, v))
            if not math.isfinite(sum(v)) or min(filter(
                    None, map(abs, j)), default=d) / d < sys.float_info.min:
                raise OverflowError
            rows.append((bs.start, list(map(operator.mul, map(
                operator.truediv, j, repeat(d)), v))))
    except OverflowError:
        raise FloatRangeError(f"Clebsch-Gordan factors of {spec} exceed "
                              "the float range") from None
    return rows


def _output_band(spec: ChannelSpec,
                 a: List[List[complex]]) -> List[List[complex]]:
    """Diagonals t >= 0 of the output's orthonormal matrix for the
    input band a, from T[r + t][r] = sum_b CG(i, b) CG(i', b) a[i][i'],
    i = r + t + k - b, i' = r + k - b: each pair i = i' + t adds the
    product of two rows of :func:`_cg_rows` along diagonal t."""
    rows, k = _cg_rows(spec), spec.k
    dim = spec.target_level + 1
    band = [[0j] * (dim - t) for t in range(min(len(a), dim))]
    for t, out in enumerate(band):
        for i2, z in enumerate(a[t]):
            (b1, x), (b2, y) = rows[i2 + t], rows[i2]
            if z:
                # row i2 + t starts no later and ends no later than row i2
                n, r = b1 + len(x) - b2, i2 + b2 - k
                out[r:r + n] = map(operator.add, out[r:r + n], map(
                    z.__mul__, map(operator.mul, x[b2 - b1:], y[:n])))
    return band


def _full_band(m: List[List[complex]]) -> dict:
    """Diagonal t -> entries for t = -w..w of a hermitian band given by
    its diagonals t >= 0: diagonal -t holds the conjugates of diagonal t,
    cell for cell."""
    full = dict(enumerate(m))
    full.update((-t, [z.conjugate() for z in m[t]]) for t in range(1, len(m)))
    return full


def _band_product(fa: dict, b: List[List[complex]],
                  dim: int) -> List[List[complex]]:
    """Diagonals t >= 0 of A B, for hermitian banded A, given whole as
    :func:`_full_band` writes it, and B, given by its diagonals t >= 0,
    whose product is hermitian (two powers of one matrix).  Diagonal s of
    A times diagonal u of B adds to diagonal t = s + u: cell (j + t, j)
    takes (j + t, j + u) times (j + u, j), the entries j + min(t, u) and
    j + min(u, 0) of their diagonals."""
    width = min(max(fa) + len(b) - 1, dim - 1)
    out = [[0j] * (dim - t) for t in range(width + 1)]
    fb = _full_band(b)
    for s, x in fa.items():
        for u in range(max(-s, 1 - len(b)), min(width - s, len(b) - 1) + 1):
            t, j0 = s + u, max(0, -u)
            m = dim - max(t, u) - j0
            if m > 0:
                ia, ib = j0 + min(t, u), j0 + min(u, 0)
                c = out[t]
                c[j0:j0 + m] = map(operator.add, c[j0:j0 + m], map(
                    operator.mul, x[ia:ia + m], fb[u][ib:ib + m]))
    return out


def _trace_product(a: List[List[complex]], b: List[List[complex]]) -> float:
    """Tr(A B) for hermitian banded A and B, given by their diagonals
    t >= 0: it is sum_ij A_ij conj(B_ij), and diagonals t and -t add the
    same real part."""
    total = 0.0
    for t, (x, y) in enumerate(zip(a, b)):
        s = sum(map(operator.mul, x, map(complex.conjugate, y))).real
        total += 2 * s if t else s
    return total


def channel_output_moments(spec: ChannelSpec, a: List[List[complex]],
                           nmax: int) -> List[float]:
    """(1/dim) Tr T^n for n = 1..nmax, T the orthonormal matrix of the
    channel output T(A), for the input band a = input_band(A), |t| <= mu,
    with T's band read from the Clebsch-Gordan weights
    (:func:`_output_band`).

    T^p, p <= ceil(nmax/2), are banded products, and
    Tr T^n = Tr(T^floor(n/2) T^ceil(n/2)), so a polynomial phi has
    Tr phi(T) / dim = sum_n c_n moment_n with no eigensolve.  Moments
    2p - 1 and 2p read T^(p-1) and T^p alone, so only those two powers
    are kept as p rises, and T's diagonals t < 0, the conjugates, are
    written once for all the products.  Nothing is clamped, as nothing
    needs to be: for the states of :func:`random_band_limited_state`,
    A = R*_mu f = B*B / Tr B*B is PSD with trace 1 exactly, so
    0 <= A <= I; T(A) >= 0 because the channel is completely positive
    (its Kraus form,
    :func:`~su2chan.intertwine.choi_min_eigenvalue`), and T(A) <= I
    because c J_k is a partial isometry: c^2 J_k (A (x) I) J_k* <=
    c^2 J_k J_k* = I.  So the spectrum lies in [0, 1].
    """
    band = _output_band(spec, a)
    dim, full = len(band[0]), _full_band(band)
    prev, cur, moments = [[1.0 + 0j] * dim], band, []
    for n in range(1, nmax + 1):
        if n % 2 and n > 1:
            prev, cur = cur, _band_product(full, cur, dim)
        moments.append(_trace_product(prev if n % 2 else cur, cur) / dim)
    return moments


def functional_from_moments(phi: Sequence[float],
                            moments: Sequence[float]) -> float:
    """phi[0] + sum_n phi[n] moments[n - 1]: the functional of the
    polynomial with ascending coefficients ``phi`` from the moments."""
    return phi[0] + sum(map(operator.mul, phi[1:], moments))


# Most points a limit rule may have: the rule of degree 1500.  Its
# samples are taken one radial node at a time, so a run's memory grows
# with the number of angles alone
MAX_LIMIT_GRID_POINTS = 1501 * 3001


def limit_grid(mu: int, nmax: int) -> QuadratureGrid:
    """The rule of degree max(nmax mu, 1): exact for E(f)^n, n <= nmax,
    with E(f) of level mu."""
    return QuadratureGrid.for_degree(max(nmax * mu, 1))


def _unit_interval(vals: List[float]) -> List[float]:
    """Values clamped to [0, 1]; anything beyond 1e-8 outside is an error
    (the hypothesis R*_mu f >= 0, trace 1 forces the limit function into
    [0, 1])."""
    lo, hi = min(vals), max(vals)
    if lo < -1e-8 or hi > 1 + 1e-8:
        raise ValueError(f"values [{lo}, {hi}] exit [0, 1]")
    if lo < 0 or hi > 1:
        return [min(max(v, 0.0), 1.0) for v in vals]
    return vals


def limit_moments(mu: int, k: int, f: IsotypicFunction,
                  nmax: int) -> List[float]:
    """Integrals of E(f)^n, n = 1..nmax, against the invariant measure,
    E the limit operator, on the one rule :func:`limit_grid`.

    With N the kernel of E(f) at level L, z = sqrt(t/(1-t)) e^(i theta)
    gives E(f) = sum_|s|<=w G_s(t) e^(i s theta) with the Bernstein sums
    G_s(t) = sum_(i-j=s) N_ij sqrt(t)^(i+j) sqrt(1-t)^(2L-i-j), whose
    bases lie in [0, 1].  E(f) is real, so G_-s = conj(G_s), and the
    angular sum is G_0 + 2 Re sum_(s>0) G_s e^(i s theta).  The samples
    are taken one radial node at a time, range-checked by
    :func:`_unit_interval`.  A kernel coefficient past the float range,
    as at mu >= 1030, is a :class:`FloatRangeError`, and so is a sample
    whose angular sum passes that range.
    """
    e = e_limit_apply(mu, k, f).numerator()
    if not e.is_hermitian():
        raise ValueError("f must be real-valued (hermitian limit kernel)")
    grid = limit_grid(mu, nmax)
    big_l, w, n_ang = e.level, e.width, grid.n_angular
    try:
        coeffs = [[complex(x / e.d, y / e.d) for x, y in zip(xr, xi)]
                  for xr, xi in zip(e.re[w:], e.im[w:])]
    except OverflowError:
        raise FloatRangeError(f"limit kernel coefficients at level {big_l} "
                              "exceed the float range") from None
    angles = [2 * math.pi * a / n_ang for a in range(n_ang)]
    waves = [([math.cos(s * th) for th in angles],
              [math.sin(s * th) for th in angles]) for s in range(1, w + 1)]
    sums = [0.0] * nmax
    for t, weight in zip(*grid.radial()):
        u, v = math.sqrt(t), math.sqrt(1 - t)
        up, vp = [1.0], [1.0]
        for _ in range(2 * big_l):
            up.append(up[-1] * u)
            vp.append(vp[-1] * v)
        # basis[i + j] = sqrt(t)^(i+j) sqrt(1-t)^(2L-i-j); diagonal s of
        # N, from its corner (s, 0), has i + j = s, s + 2, ...
        basis = list(map(operator.mul, up, reversed(vp)))
        g = [sum(map(operator.mul, c, basis[s::2])) for s, c in
             enumerate(coeffs)]
        vals = [g[0].real] * n_ang
        for gs, (cos_s, sin_s) in zip(g[1:], waves):
            re, im = 2 * gs.real, -2 * gs.imag
            vals = [x + re * c + im * sn
                    for x, c, sn in zip(vals, cos_s, sin_s)]
        # each |G_s| is at most the largest coefficient, but their sum
        # may pass the float range
        if not math.isfinite(sum(vals)):
            raise FloatRangeError("limit integrand not finite on the grid")
        vals = _unit_interval(vals)
        power = vals
        for n in range(nmax):
            if n:
                power = list(map(operator.mul, power, vals))
            sums[n] += weight * sum(power)
    return [x / n_ang for x in sums]


# ---------------------------------------------------------------------------
# Combinatorial bounds
# ---------------------------------------------------------------------------

def i_n_integral(n: int, nu: int) -> Fraction:
    """The chained-kernel integral I_n at level nu.

    Even nu = 2 kappa: the exact sum over chains of n-1 indices
    0..kappa, summed as a product of (kappa+1)-square transfer matrices
    in O(n kappa^2) integer operations, with each 1/C(2kappa, s) taken
    as the level-nu Gram weight d/C(2kappa, s) over d = lcm_s C(2kappa, s)
    from :func:`~su2chan.repspace._gram_integers`.  Odd nu:
    the comparison bound ((nu+1)/nu)^n I_n(nu-1), an upper estimate.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if nu < 0:
        raise ValueError(f"need nu >= 0, got {nu}")
    if n == 1 or nu == 0:
        return Fraction(1)
    if nu % 2 == 1:
        return Fraction(nu + 1, nu) ** n * i_n_integral(n, nu - 1)
    kappa = nu // 2
    d, w = _gram_integers(nu)
    sq = [math.comb(kappa, a) ** 2 for a in range(kappa + 1)]
    v = [sq[a] * w[a] for a in range(kappa + 1)]
    for _ in range(n - 2):
        v = [sq[b] * sum(map(operator.mul, v, w[b:]))
             for b in range(kappa + 1)]
    return Fraction(sum(map(operator.mul, v, w)), d ** n)


def fund_ineq_check(kappa: int, j: int) -> dict:
    """Exact check of sum_i C(kappa,i)/C(2kappa,i+j) against its closed
    form (2kappa+1)/(kappa+1) / C(kappa,j) and the bound 2/C(kappa,j);
    each 1/C(2kappa,s) is the level-2kappa Gram weight w_s / W of
    :func:`~su2chan.repspace._gram_integers`, so the sum is the integer
    sum_i C(kappa,i) w_(i+j) over W."""
    if not 0 <= j <= kappa:
        raise ValueError(f"need 0 <= j <= kappa, got j={j}, kappa={kappa}")
    big_w, w = _gram_integers(2 * kappa)
    s = Fraction(sum(map(operator.mul, _binomial_row(kappa), w[j:])), big_w)
    c = math.comb(kappa, j)
    identity_value = Fraction(2 * kappa + 1, (kappa + 1) * c)
    return {
        "kappa": kappa,
        "j": j,
        "sum": s,
        "identity_value": identity_value,
        "identity_holds": s == identity_value,
        "bound_holds": s <= Fraction(2, c),
    }


# ---------------------------------------------------------------------------
# Convergence experiments
# ---------------------------------------------------------------------------

GAP_FLOOR = 1e-12


class ConvergenceRecord:
    """One gap sequence |lhs(nu) - rhs| along a nu sweep, labelled by its
    moment order "n=2" or "phi=..."; gaps at or below GAP_FLOOR count as
    converged."""

    def __init__(self, mu: int, k: int, nus: List[int], label: str,
                 lhs: List[float], rhs: float):
        self.mu, self.k, self.nus, self.label = mu, k, nus, label
        self.lhs, self.rhs = lhs, rhs
        self.gaps = [abs(v - rhs) for v in lhs]

    @property
    def converged(self) -> bool:
        """Strict decay with final gap below a quarter of the first, or
        a sequence already at the float-noise floor."""
        if all(g <= GAP_FLOOR for g in self.gaps):
            return True
        strictly_down = all(a > b for a, b in zip(self.gaps, self.gaps[1:]))
        return strictly_down and self.gaps[-1] <= 0.25 * self.gaps[0]

    @property
    def fitted_slope(self) -> Optional[float]:
        """Log-log decay order of the gaps in nu, the negated least-squares
        slope of log gap against log nu; None at the noise floor."""
        if any(g <= GAP_FLOOR for g in self.gaps):
            return None
        xs = [math.log(v) for v in self.nus]
        ys = [math.log(g) for g in self.gaps]
        mx, my = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
        return -math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys)) \
            / math.fsum((x - mx) ** 2 for x in xs)

    def to_row(self) -> dict:
        return {"mu": self.mu, "k": self.k, "label": self.label,
                "nus": self.nus, "lhs": self.lhs, "rhs": self.rhs,
                "gaps": self.gaps, "converged": self.converged,
                "fitted_slope": self.fitted_slope}


# Power-basis coefficients of the degree-8 Chebyshev least-squares fit of
# -x log x on [0, 1] (with the value 0 at x = 0) on 2048 equispaced points
ENTROPY8 = (0.012250156706868243, 3.5317057313983886, -19.375276076758723,
            77.7423689955396, -210.9239271210966, 354.73979962366354,
            -354.9920171773151, 193.2841318131912, -44.020425262317566)
