"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import time

import numpy as np

from infoblotto import ex_ante_payoff
from infoblotto.blotto2 import (
    BlottoIndex,
    BlottoParams,
    build_equilibrium as build_blotto,
    gross_wagner_payoff,
    informed_payoff as blotto_payoff,
)
from infoblotto.cli import main
from infoblotto.lotto3 import (
    LottoParams,
    build_equilibrium as build_lotto,
    complete_info_baseline,
    gamma_e,
    informed_payoff as lotto_payoff,
    max_cost,
    payoff_high_branch,
    payoff_low_branch,
    payoff_mid_branch,
    zero_crossing_alpha,
)
from infoblotto.oracle import (
    blotto_deviation_gaps,
    certify,
    lotto_budget_residuals,
    lotto_support_optimality,
    monte_carlo_value,
)


def report(num, desc, ok):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_blotto_closed_form_vs_oracle():
    start = time.perf_counter()
    worst_value_gap = 0.0
    worst_dev_gap = 0.0
    for vlow in np.arange(0.1, 0.95, 0.1):
        for gamma in (0.67, 0.7, 0.72):
            params = BlottoParams.from_ratio(1.0, float(vlow), gamma, 1.0)
            assert BlottoIndex.from_params(params).q == 3
            profile = build_blotto(params)
            value = ex_ante_payoff(profile, params.valuation_matrix, params.prior)
            worst_value_gap = max(worst_value_gap, abs(value - blotto_payoff(params)))
            gaps = blotto_deviation_gaps(profile, params)
            worst_dev_gap = max(worst_dev_gap, gaps.worst())
    elapsed = time.perf_counter() - start
    report(
        1,
        f"27 q=3 equilibria: |value - closed form| <= 1e-9 (got {worst_value_gap:.2e}), "
        f"deviation gaps <= 1e-6 (got {worst_dev_gap:.2e}), runtime {elapsed:.2f}s < 5s",
        worst_value_gap <= 1e-9 and worst_dev_gap <= 1e-6 and elapsed < 5.0,
    )


def test_criterion_2_gross_wagner_dominance():
    vlows = np.linspace(0.02, 0.98, 50)
    gammas = np.linspace(0.52, 0.98, 50)
    grid = np.empty((50, 50))
    for i, vlow in enumerate(vlows):
        for k, gamma in enumerate(gammas):
            params = BlottoParams.from_ratio(1.0, float(vlow), float(gamma), 1.0)
            q = BlottoIndex.from_params(params).q
            grid[i, k] = blotto_payoff(params) - gross_wagner_payoff(q)
    strict = bool(np.all(grid > 0.0))
    corner_is_max = grid[0, 0] == grid.max() and grid[0, 0] > grid[-1, -1]
    arg = np.unravel_index(np.argmax(grid), grid.shape)
    in_corner = arg[0] == 0 and gammas[arg[1]] < 2.0 / 3.0
    report(
        2,
        f"50x50 grid strictly positive (min {grid.min():.3e}); argmax at "
        f"vlow={vlows[arg[0]]:.2f}, gamma={gammas[arg[1]]:.2f} (small-alpha, small-gamma corner)",
        strict and corner_is_max and in_corner,
    )


def test_criterion_3_lotto_regime_continuity():
    worst = 0.0
    grid = np.linspace(0.04, 0.96, 20)
    for a in grid:
        for b in grid:
            if b > a:
                continue
            worst = max(
                worst,
                abs(payoff_low_branch(a, b, 1 / 3) - payoff_mid_branch(a, b, 1 / 3)),
                abs(payoff_mid_branch(a, b, 2 / 3) - payoff_high_branch(a, b, 2 / 3)),
            )
    report(3, f"branch mismatch at gamma=1/3, 2/3 is {worst:.2e} <= 1e-12", worst <= 1e-12)


def test_criterion_4_lotto_budgets_and_certification():
    cases = []
    for gamma, pairs in [
        (0.18, [(a, b) for a, b in [(0.2, 0.1), (0.4, 0.4), (0.5, 0.2), (0.7, 0.6),
                                    (0.8, 0.3), (0.9, 0.85), (0.3, 0.3), (0.6, 0.1),
                                    (0.75, 0.5), (0.95, 0.9)]]),
        (0.52, [(a, b) for a, b in [(0.2, 0.1), (0.4, 0.4), (0.5, 0.2), (0.7, 0.6),
                                    (0.8, 0.3), (0.9, 0.85), (0.3, 0.3), (0.6, 0.1),
                                    (0.75, 0.5), (0.95, 0.9)]]),
        (0.86, [(a, b) for a, b in [(0.2, 0.1), (0.4, 0.4), (0.5, 0.2), (0.7, 0.6),
                                    (0.8, 0.3), (0.9, 0.85), (0.3, 0.3), (0.6, 0.1),
                                    (0.75, 0.5), (0.95, 0.9)]]),
    ]:
        cases += [(a, b, gamma) for a, b in pairs]
    worst_budget = worst_slack = worst_value = 0.0
    for a, b, g in cases:
        params = LottoParams(a, b, g)
        profile = build_lotto(params)
        res_u, res_i = lotto_budget_residuals(profile, params)
        worst_budget = max(worst_budget, res_u, *res_i)
        slacks = lotto_support_optimality(profile, params)
        worst_slack = max(worst_slack, slacks.worst())
        value = ex_ante_payoff(profile, params.valuation_matrix, params.prior)
        worst_value = max(worst_value, abs(value - lotto_payoff(a, b, g)))
    report(
        4,
        f"30 equilibria (10/regime): budget residual {worst_budget:.2e} <= 1e-9, "
        f"support slack {worst_slack:.2e} <= 1e-6, value gap {worst_value:.2e} <= 1e-9",
        worst_budget <= 1e-9 and worst_slack <= 1e-6 and worst_value <= 1e-9,
    )


def test_criterion_5_baseline_dominance_and_monotonicity():
    alphas = np.linspace(0.04, 0.96, 20)
    betas = np.linspace(0.04, 0.96, 20)
    gammas = np.linspace(0.05, 1.0, 20)
    dominance = True
    mono_alpha = mono_beta = mono_gamma = True
    for gi, g in enumerate(gammas):
        baseline = complete_info_baseline(g)
        for ai, a in enumerate(alphas):
            for bi, b in enumerate(betas):
                if b > a:
                    continue
                value = lotto_payoff(a, b, g)
                dominance &= value > baseline
                if ai + 1 < len(alphas):
                    mono_alpha &= lotto_payoff(alphas[ai + 1], b, g) < value
                if bi + 1 < len(betas) and betas[bi + 1] <= a:
                    mono_beta &= lotto_payoff(a, betas[bi + 1], g) < value
                if gi + 1 < len(gammas):
                    mono_gamma &= lotto_payoff(a, b, gammas[gi + 1]) > value
    report(
        5,
        "20^3 grid: payoff > gamma-1 everywhere; decreasing in alpha and beta, "
        "increasing in gamma at every grid point",
        dominance and mono_alpha and mono_beta and mono_gamma,
    )


def test_criterion_6_zero_crossing_threshold():
    closed = zero_crossing_alpha(0.5)
    lo, hi = 1e-6, 1.0 - 1e-6
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if lotto_payoff(mid, mid, 0.5) > 0.0:
            lo = mid
        else:
            hi = mid
    bisected = 0.5 * (lo + hi)
    err = abs(bisected - 2.0 / 11.0)
    err_closed = abs(closed - 2.0 / 11.0)
    report(
        6,
        f"sign flip of payoff(alpha, alpha, 0.5) at alpha = 2/11: closed form off by "
        f"{err_closed:.2e}, bisection off by {err:.2e} (both <= 1e-9)",
        err <= 1e-9 and err_closed <= 1e-9,
    )


def test_criterion_7_max_cost_anchor_and_root():
    anchor = max_cost(0.0, 1.0)
    anchor_near = max_cost(1e-10, 1.0)
    anchor_ok = abs(anchor - 2 / 3) <= 1e-9 and abs(anchor_near - 2 / 3) <= 1e-9

    def bisect_gamma_e(a, g):
        lo, hi = 1e-9, g
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if lotto_payoff(a, a, mid) - (g - 1.0) > 0.0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    worst_root = worst_cross = 0.0
    checked = 0
    for a in np.linspace(0.05, 0.95, 10):
        for g in np.linspace(0.2, 1.0, 9):
            ge = gamma_e(a, g)
            if ge < 1.0 / 3.0:
                continue
            checked += 1
            worst_root = max(worst_root, abs(lotto_payoff(a, a, ge) - (g - 1.0)))
            worst_cross = max(worst_cross, abs(ge - bisect_gamma_e(a, g)))
    report(
        7,
        f"max_cost(alpha->0, gamma=1) = 2/3 within 1e-9; on {checked} points with "
        f"gamma_e >= 1/3 the root residual is {worst_root:.2e} and bisection agrees "
        f"within {worst_cross:.2e}",
        anchor_ok and worst_root <= 1e-9 and worst_cross <= 1e-9 and checked > 20,
    )


def test_criterion_8_monte_carlo_agreement():
    start = time.perf_counter()
    profiles = []
    blotto = BlottoParams.from_ratio(1.0, 0.5, 0.7, 10.0)
    profiles.append(
        ("blotto q=3", build_blotto(blotto), blotto, blotto_payoff(blotto))
    )
    for g in (0.2, 0.5, 0.9):
        params = LottoParams(0.5, 0.5, g)
        profiles.append(
            (f"lotto gamma={g}", build_lotto(params), params, lotto_payoff(0.5, 0.5, g))
        )
    all_within = True
    reproducible = True
    for name, profile, params, closed in profiles:
        v, p = params.valuation_matrix, params.prior
        mean, se = monte_carlo_value(profile, v, p, 1_000_000, 2718)
        again = monte_carlo_value(profile, v, p, 1_000_000, 2718)
        reproducible &= (mean, se) == again
        all_within &= abs(mean - closed) <= 4.0 * se
    elapsed = time.perf_counter() - start
    report(
        8,
        f"10^6-sample estimates within 4 sigma for all four profiles, bit-identical "
        f"under a fixed seed, runtime {elapsed:.1f}s < 30s",
        all_within and reproducible and elapsed < 30.0,
    )


def test_criterion_9_homogeneous_value_limit():
    odd = BlottoParams.from_ratio(1.0, 1.0 - 1e-8, 0.7, 1.0)
    even = BlottoParams.from_ratio(1.0, 1.0 - 1e-8, 0.6, 1.0)
    err_odd = abs(blotto_payoff(odd) - (-1.0 / 3.0))
    err_even = abs(blotto_payoff(even) - (-1.0 / 2.0))
    report(
        9,
        f"vlow -> vbar: payoff tends to -1/q (q=3 off by {err_odd:.2e}, "
        f"q=2 off by {err_even:.2e}, both <= 1e-6)",
        err_odd <= 1e-6 and err_even <= 1e-6,
    )


# ---------------------------------------------------------------------------
# Figure-ready CSV surfaces: sign boundaries must match the closed forms
# ---------------------------------------------------------------------------


def _sweep(tmp_path, name, *argv):
    out = tmp_path / name
    assert main(list(argv) + ["--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


def test_figure_blotto_payoff_surface(tmp_path):
    _, data = _sweep(
        tmp_path, "fig_payoff.csv", "sweep", "--game", "blotto2",
        "--axis", "alpha=0.05:0.95:30", "--axis", "gamma=0.55:0.95:30",
        "--columns", "payoff,voi",
    )
    payoff, gap = data[:, 2], data[:, 3]
    assert np.all(payoff < 0.0)
    assert np.all(gap > 0.0)


def test_figure_lotto_payoff_sign_boundary(tmp_path):
    steps_a, steps_g = 49, 39
    _, data = _sweep(
        tmp_path, "fig_sign.csv", "sweep", "--game", "lotto3",
        "--axis", "gamma=0.05:1.0:%d" % steps_g, "--axis", "alpha=0.02:0.98:%d" % steps_a,
        "--columns", "payoff",
    )
    payoff = data[:, 2].reshape(steps_g, steps_a)
    gammas = data[::steps_a, 0]
    alphas = data[:steps_a, 1]
    step = alphas[1] - alphas[0]
    for gi, g in enumerate(gammas):
        col = payoff[gi]
        if g <= 1.0 / 3.0 + 1e-12:
            assert np.all(col <= 1e-12)
            continue
        threshold = zero_crossing_alpha(float(g))
        positive = col > 0.0
        if threshold >= alphas[-1]:
            assert positive.all()
            continue
        if threshold <= alphas[0]:
            assert not positive.any()
            continue
        flip = int(np.argmin(positive))  # first non-positive entry
        assert positive[:flip].all() and not positive[flip:].any()
        assert alphas[flip] - step - 1e-12 <= threshold <= alphas[flip] + 1e-12


def test_figure_voi_zero_contour_matches_max_cost(tmp_path):
    _, data = _sweep(
        tmp_path, "fig_voi.csv", "sweep", "--game", "lotto3",
        "--axis", "alpha=0.05:0.95:40", "--axis", "gamma=0.1:1.0:40",
        "--cost", "0.2", "--columns", "voi,max_cost",
    )
    voi_col, cost_col = data[:, 2], data[:, 3]
    mask = np.abs(voi_col) > 1e-9
    assert np.all((voi_col[mask] > 0.0) == (cost_col[mask] > 0.2))


def test_figure_max_cost_surface(tmp_path):
    _, data = _sweep(
        tmp_path, "fig_cost.csv", "sweep", "--game", "lotto3",
        "--axis", "alpha=0.02:0.98:40", "--gamma", "1.0", "--columns", "max_cost",
    )
    cost = data[:, 1]
    assert np.all((cost >= 0.0) & (cost < 1.0))
    assert np.all(np.diff(cost) < 0.0)  # information worth less as alpha grows


def test_certification_grid():
    # certify() must pass across parameter grids in every regime
    failures = []
    for gamma in (0.15, 0.3, 0.4, 0.6, 0.75, 0.95):
        for a, b in [(0.3, 0.2), (0.6, 0.6), (0.85, 0.25), (0.5, 0.1)]:
            params = LottoParams(a, b, gamma)
            cert = certify(build_lotto(params), params)
            if not cert.passed:
                failures.append(("lotto3", a, b, gamma))
    for gamma in (0.67, 0.71, 0.74, 0.8, 0.82, 0.86, 0.87):
        for vlow in (0.15, 0.45, 0.75):
            params = BlottoParams.from_ratio(1.0, vlow, gamma, 1.0)
            cert = certify(build_blotto(params), params)
            if not cert.passed:
                failures.append(("blotto2", vlow, gamma))
    assert not failures, f"certification failed at {failures}"
