"""Acceptance suite: ten headline guarantees of the package, each
printed as a single PASS/FAIL line.  Criteria 2, 3, 5 and 7 run
``su2chan verify``'s checks (``cli.check_*``) on their own grids
through ``cli.run_check``;
criterion 10 sums 2F1 in ``Fraction``, the independent oracle of
verify's integer Gauss check.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as the
criteria complete.
"""

import random

import numpy as np

from su2chan.cli import (
    BINOMIAL_GRID,
    check_berezin_sum,
    check_binomial_sum,
    check_choi_positive,
    check_kernel_bound,
    check_orthogonality,
    check_trace_preservation,
    draw_entries,
    kernel_bound_grid,
    run_check,
)
from su2chan.intertwine import ChannelSpec, c_squared
from su2chan.quadrature import (
    ENTROPY8,
    ConvergenceRecord,
    channel_output_moments,
    functional_from_moments,
    limit_moments,
    input_band,
    random_band_limited_state,
)
from su2chan.symbolcalc import (
    berezin_eigenvalue,
    e_eigenvalue_3f2,
    e_limit_apply,
    e_limit_eigenvalue,
)
from numpy_oracles import DenseGrid, function_values
from test_exactnum import hyp2f1_terminating, rising_pochhammer
from test_intertwine import dense_jk_product

SEED = 20240817
STATE_SEED = 1   # seed for the shared random-state input set (crit. 8/9)


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"{status}: criterion {number:2d} — {name}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def report_checks(number: int, name: str, *runs):
    """Criterion from verify's checks, each run by :func:`run_check` as
    (witness, cases, seconds); shows a witness."""
    witness = next((w for w, _, _ in runs if w is not None), None)
    report(number, name, witness is None,
           str(witness) if witness else f"{sum(c for _, c, _ in runs)} cases")


def channel_specs(mu_max, nu_max):
    return [ChannelSpec(mu, nu, k) for mu in range(mu_max + 1)
            for nu in range(mu, nu_max + 1) for k in range(mu + 1)]


def _criterion8_inputs():
    """Shared input set for criteria 8 and 9: five random PSD trace-one
    states A per (mu, k), each with the band-limited function f whose
    Toeplitz operator it is."""
    rng = random.Random(STATE_SEED)
    out = {}
    for mu in range(0, 4):
        states = [random_band_limited_state(mu, rng) for _ in range(5)]
        for k in range(mu + 1):
            out[(mu, k)] = states
    return out


class TestAcceptance:

    def test_01_schur_constant(self):
        ok = True
        for mu in range(0, 5):
            for nu in range(mu, 9):
                for k in range(mu + 1):
                    spec = ChannelSpec(mu, nu, k)
                    prod = dense_jk_product(spec, spec)
                    inv_c2 = 1 / c_squared(spec)
                    n = spec.target_level + 1
                    for i in range(n):
                        for j in range(n):
                            if prod[i][j] != (inv_c2 if i == j else 0):
                                ok = False
        report(1, "Schur constant: J_k J_k* = C^-2 I exactly", ok)

    def test_02_completeness(self):
        report_checks(2, "decomposition completeness and cross-orthogonality",
                      run_check(check_orthogonality,
                                [(mu, nu) for mu in range(5)
                                 for nu in range(mu, 9)]))

    def test_03_channel_structure(self):
        specs = channel_specs(3, 7)
        report_checks(3, "channels trace-preserving and completely positive",
                      run_check(check_trace_preservation,
                                draw_entries(specs, random.Random(SEED), 20)),
                      run_check(check_choi_positive, specs))

    def test_04_berezin_eigenvalues(self):
        # oracle: quadrature of the smoothing integral on one generator
        # f_m(z) = z^m / (1+|z|^2)^m of each sharp degree
        ok, worst = True, 0.0
        w = 0.7 + 0.3j
        for nu in range(0, 9):
            grid = DenseGrid.for_degree(4 * nu + 4)
            zs, ws = grid.points, grid.weights
            for m in range(nu + 1):
                integrand = (
                    (zs ** m / (1.0 + np.abs(zs) ** 2) ** m)
                    * np.abs(1.0 + zs * np.conj(w)) ** (2 * nu)
                    / (1.0 + np.abs(zs) ** 2) ** nu
                    / (1.0 + abs(w) ** 2) ** nu)
                num = complex(np.sum(ws * integrand))
                expected = float(berezin_eigenvalue(nu, m)) \
                    * (w ** m / (1.0 + abs(w) ** 2) ** m)
                gap = abs(num - expected)
                worst = max(worst, gap)
                if gap > 1e-10:
                    ok = False
        report(4, "smoothing-transform eigenvalues match the integral",
               ok, f"max gap {worst:.2e}")

    def test_05_berezin_sum_identity(self):
        report_checks(5, "finite-level operator equals its transform-sum form",
                      run_check(check_berezin_sum, draw_entries(
                          channel_specs(3, 7), random.Random(SEED), 10)))

    def test_06_limit_spectral_theorem(self):
        ok = True
        for mu in range(0, 7):
            for k in range(mu + 1):
                for m in range(mu + 4):
                    a = e_eigenvalue_3f2(mu, k, m)
                    if a != e_limit_eigenvalue(mu, k, m):
                        ok = False
                    if m > mu and a != 0:
                        ok = False
                if ok:
                    for m in range(mu + 1):
                        if e_eigenvalue_3f2(mu, 0, m) != \
                                berezin_eigenvalue(mu, m):
                            ok = False
        report(6, "limit eigenvalues: 3F2 form, sum form, k=0 column", ok)

    def test_07_kernel_bound_and_inequality(self):
        report_checks(7, "chain-kernel integrals bounded by 4^n; exact "
                         "binomial identity",
                      run_check(check_kernel_bound, kernel_bound_grid(40)),
                      run_check(check_binomial_sum, BINOMIAL_GRID))

    def test_08_trace_limit(self):
        # the gap per statistic is taken over the whole random input set
        # (worst case of the five draws); at small nu the per-draw signed
        # error can cross zero when its leading coefficient is small, so
        # the worst case is the statistically stable quantity
        nus = [10, 20, 40, 80]
        inputs = _criterion8_inputs()
        phi = list(ENTROPY8)
        ok, detail = True, ""
        n_runs = 0
        for (mu, k), states in inputs.items():
            # one set of moments per (A, nu), shared by the moment orders
            # and phi, from one input band per A; one set of limit
            # moments per f
            bands = [input_band(a) for a, _ in states]
            lhs = {(i, nu): channel_output_moments(
                       ChannelSpec(mu, nu, k), a, len(phi) - 1)
                   for i, a in enumerate(bands) for nu in nus}
            rhs = [limit_moments(mu, k, f, len(phi) - 1) for _, f in states]
            for n in range(1, 5):
                gaps = [max(abs(lhs[(i, nu)][n - 1] - rhs[i][n - 1])
                            for i in range(len(states)))
                        for nu in nus]
                rec = ConvergenceRecord(mu, k, nus, f"n={n}", gaps, 0.0)
                n_runs += 1
                if not rec.converged:
                    ok, detail = False, f"mu={mu},k={k},n={n}"
            gaps = [max(abs(functional_from_moments(phi, lhs[(i, nu)])
                            - functional_from_moments(phi, rhs[i]))
                        for i in range(len(states))) for nu in nus]
            rec = ConvergenceRecord(mu, k, nus, "phi", gaps, 0.0)
            n_runs += 1
            if not rec.converged:
                ok, detail = False, f"mu={mu},k={k},phi"
        report(8, "trace limit: gaps strictly decrease, final < 25% of "
                  "first", ok, detail or f"{n_runs} gap sequences")

    def test_09_limit_operator_bound(self):
        rng = np.random.default_rng(SEED)
        pts = np.concatenate([
            rng.standard_normal(500) + 1j * rng.standard_normal(500),
            10.0 * (rng.standard_normal(250) + 1j * rng.standard_normal(250)),
            0.05 * (rng.standard_normal(250) + 1j * rng.standard_normal(250)),
        ])
        assert len(pts) == 1000
        ok, lo, hi = True, 0.0, 0.0
        for (mu, k), states in _criterion8_inputs().items():
            for _, f in states:
                vals = function_values(e_limit_apply(mu, k, f), pts)
                re = vals.real
                if np.max(np.abs(vals.imag)) > 1e-10:
                    ok = False
                # the state has unit trace, so the upper bound is 1
                lo = min(lo, float(re.min()))
                hi = max(hi, float(re.max()))
                if re.min() < -1e-10 or re.max() > 1.0 + 1e-10:
                    ok = False
        report(9, "limit operator output within [0, trace] pointwise", ok,
               f"range [{lo:.2e}, {hi:.6f}]")

    def test_10_gauss_summation(self):
        ok = True
        for n in range(0, 13):
            for b in range(-12, 13):
                for absc in range(max(n, 1), 21):
                    for c in (absc, -absc):
                        if rising_pochhammer(c, n) == 0:
                            continue
                        lhs = hyp2f1_terminating(n, b, c)
                        rhs = rising_pochhammer(c - b, n) \
                            / rising_pochhammer(c, n)
                        if lhs != rhs:
                            ok = False
        report(10, "terminating Gauss summation bit-exact on full grid", ok)
