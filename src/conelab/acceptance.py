"""The acceptance suite: thirteen named checks, each measuring a family of
inequalities or convergence laws at pinned tolerances and returning a
CheckResult.  `run_all` executes every check (optionally a subset) and is what
the command-line `verify-all` and the acceptance tests call.

Grids are built lazily and shared across checks; maximal functions and
rearrangement tables are cached on the fields.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import czd, density, extension, rearrangement as rar
from .config import RunConfig
from .fieldlib import (make_test_field, suite_cz, suite_extension_members,
                       suite_fullplane, suite_hardy)
from .fields import (Field, gradient, hardy_rows, log_log_increment_slope,
                     lp_norm, partial_norm_power_table, poincare_rows)
from .geometry import ConeDomain, doubling_ratio
from .grids import PolarGrid
from .report import CheckResult, VerificationReport

INF = float("inf")

# regression value: smallest W^1_4 distance ratio from the sign-jump field to
# any approximant vanishing near the vertex, frozen after first derivation
JUMP_OBSTRUCTION_RATIO = 0.776


class AcceptanceContext:
    """Lazily built grids and suites shared by the checks."""

    def __init__(self, cfg: RunConfig | None = None):
        self.cfg = cfg or RunConfig()
        self._memo = {}

    def _get(self, key, builder):
        if key not in self._memo:
            self._memo[key] = builder()
        return self._memo[key]

    @property
    def grid2(self) -> PolarGrid:
        c = self.cfg
        return self._get("grid2", lambda: PolarGrid.cone(
            ConeDomain(2, c.omega), nr=c.nr, nt=c.nt, r_max=c.r_max,
            r_min=c.r_min, q=c.q))

    @property
    def grid3(self) -> PolarGrid:
        c = self.cfg
        return self._get("grid3", lambda: PolarGrid.cone(
            ConeDomain(3, c.omega), nr=c.nr, nt=c.nt, r_max=c.r_max))

    @property
    def grid_deep(self) -> PolarGrid:
        c = self.cfg
        return self._get("grid_deep", lambda: PolarGrid.cone(
            ConeDomain(2, c.omega), nr=c.nr, nt=c.nt, r_max=c.r_max,
            r_min=1e-12))

    @property
    def full2(self) -> PolarGrid:
        return self._get("full2", lambda: PolarGrid.fullplane_matching(self.grid2))

    @property
    def grid2_fine(self) -> PolarGrid:
        c = self.cfg
        return self._get("grid2_fine", lambda: PolarGrid.cone(
            ConeDomain(2, c.omega), nr=int(c.nr * 1.5), nt=int(c.nt * 1.5),
            r_max=c.r_max))

    @property
    def full2_fine(self) -> PolarGrid:
        return self._get("full2_fine",
                         lambda: PolarGrid.fullplane_matching(self.grid2_fine))

    @property
    def gridq(self) -> PolarGrid:
        return self._get("gridq", lambda: PolarGrid.cone(
            ConeDomain(2, math.pi / 4, "quadrant"), nr=400, nt=96,
            r_max=4.0, r_min=4e-7))

    @property
    def fullq(self) -> PolarGrid:
        return self._get("fullq", lambda: PolarGrid.fullplane_matching(self.gridq))

    def kfunc_suite(self):
        return self._get("kfunc_suite", lambda: suite_cz(self.grid2))

    def alpha_suite(self):
        """Vertex-singular fields whose maximal function spans well over four
        decades on the truncated grid, so the level sweep stays anchored at
        the vertex singularity."""
        g = self.grid2
        return self._get("alpha_suite", lambda: [
            make_test_field("logcounter", g, beta=1.0),
            make_test_field("logcounter", g, beta=0.75),
            make_test_field("radial_power", g, a=0.25),
            make_test_field("radial_power", g, a=0.4),
            make_test_field("radial_power", g, a=0.5),
        ])


def _result(check_id, description, measured, bound, passed, t0) -> CheckResult:
    return CheckResult(check_id, description, measured, bound, bool(passed),
                       time.time() - t0)


# -- 1 -----------------------------------------------------------------------


def check_hardy_bound(ctx: AcceptanceContext) -> CheckResult:
    """Weighted-norm bound ||f/r||_p <= p/(n-p) ||d_r f||_p below the critical
    exponent, with tightness of the constant on the suite."""
    t0 = time.time()
    measured, ok = {}, True
    for grid, p in ((ctx.grid2, 1.0), (ctx.grid3, 1.0), (ctx.grid3, 2.0)):
        n = grid.n
        rows = list(hardy_rows(suite_hardy(grid), p))
        worst = max(r["quotient"] for r in rows)
        bound = rows[0]["bound"]
        measured[f"max_quotient_n{n}_p{p:g}"] = worst
        measured[f"bound_n{n}_p{p:g}"] = bound
        ok &= all(r["ok"] for r in rows)  # the proof's constant
        ok &= worst >= 0.6 * bound        # tightness: some member nearly extremal
    return _result("hardy-bound", "weighted Hardy quotient below p/(n-p)",
                   measured, "quotient <= bound*1.05, max >= 0.6*bound", ok, t0)


# -- 2 -----------------------------------------------------------------------


def check_hardy_critical(ctx: AcceptanceContext) -> CheckResult:
    """Failure of the weighted bound at p = n: the log-family member with
    beta=0.25 has partial weighted integrals growing like |ln r_min|^{1-2beta},
    the beta=1 member converges, and all gradients converge."""
    t0 = time.time()
    g = ctx.grid_deep
    measured, ok = {}, True

    f25 = make_test_field("logcounter", g, beta=0.25)
    r_mins, P = partial_norm_power_table(f25.values, g, 2.0)
    slope = log_log_increment_slope(r_mins, P)
    measured["weighted_growth_slope_beta025"] = slope
    ok &= abs(slope - 0.5) <= 0.05

    f1 = make_test_field("logcounter", g, beta=1.0)
    _, P1 = partial_norm_power_table(f1.values, g, 2.0)
    incr = (P1[-1] - P1[-2]) / P1[-2]
    measured["weighted_last_decade_incr_beta1"] = incr
    ok &= incr < 0.02

    for beta in (0.25, 0.5, 1.0):
        fb = make_test_field("logcounter", g, beta=beta)
        gm = gradient(fb).magnitude()
        _, Pg = partial_norm_power_table(gm, g, 2.0, weight="none")
        ginc = (Pg[-1] - Pg[-2]) / Pg[-2]
        measured[f"grad_last_decade_incr_beta{beta:g}"] = ginc
        ok &= ginc < 0.02
    return _result("hardy-critical",
                   "critical-exponent divergence rates of the log family",
                   measured, "slope 0.5 +/- 0.05; increments < 2%", ok, t0)


# -- 3 -----------------------------------------------------------------------


def check_hhat_gate(ctx: AcceptanceContext) -> CheckResult:
    """The anti-radial weighted-integrability gate accepts beta=1 and refuses
    beta in {0.25, 0.5}."""
    t0 = time.time()
    g = ctx.grid2
    measured, ok = {}, True
    for beta, want in ((1.0, True), (0.5, False), (0.25, False)):
        f = make_test_field("logcounter", g, beta=beta)
        accepted, growth, _ = extension.admissibility_gate(f, 2.0)
        measured[f"gate_beta{beta:g}"] = "accept" if accepted else "refuse"
        measured[f"growth_beta{beta:g}"] = growth
        ok &= accepted == want
    return _result("hhat-gate", "critical-exponent membership gate",
                   measured, "accept beta=1, refuse beta in {0.25, 0.5}", ok, t0)


# -- 4 -----------------------------------------------------------------------


def check_cz_decomposition(ctx: AcceptanceContext) -> CheckResult:
    """Decomposition estimates over five fields and a four-decade level sweep:
    exact reconstruction and set properties, measured constants stable."""
    t0 = time.time()
    c = ctx.cfg
    measured, ok = {}, True
    worst_rec, worst_N, worst_eB = 0.0, 0, 0.0
    eg_var_max, eb_var_max = 0.0, 0.0
    for f in ctx.alpha_suite():
        egs, ebs = [], []
        for rep in czd.level_sweep(f, c.alpha_decades, c.alpha_points):
            worst_rec = max(worst_rec, rep["rec_err"])
            worst_N = max(worst_N, rep["overlap_N"])
            worst_eB = max(worst_eB, rep["eB_ratio"])
            egs.append(rep["eg_ratio"])
            ebs.append(rep["eb_ratio"])
            ok &= rep["underline_disjoint"] and rep["plain_cover_exact"]
            ok &= rep["overline_meets_complement"] and rep["type2_geometry_ok"]
            ok &= rep["neighbor_radius_ratio"] <= 3.0 * (1 + 1e-9)
            ok &= rep["partition_err"] <= 1e-12
        eg_var_max = max(eg_var_max, max(egs) / min(egs))
        eb_var_max = max(eb_var_max, max(ebs) / min(ebs))
    measured.update(rec_err=worst_rec, overlap_N=worst_N,
                    eg_variation=eg_var_max, eb_variation=eb_var_max,
                    eB_max=worst_eB)
    ok &= worst_rec <= 1e-10 and worst_N <= 20
    ok &= eg_var_max < 2.0 and eb_var_max < 2.0
    ok &= worst_eB <= 20.0
    return _result("cz-prop41", "Calderon-Zygmund decomposition estimates",
                   measured,
                   "rec<=1e-10; eg,eb vary <2x; N<=20; sets exact; eB bounded",
                   ok, t0)


# -- 5 -----------------------------------------------------------------------


def check_kfunc_equivalence(ctx: AcceptanceContext) -> CheckResult:
    """Constructive K-functional upper bound against the rearrangement
    estimate: two-sided band over five fields and six decades of t."""
    t0 = time.time()
    c = ctx.cfg
    ratios, lower_ok = [], True
    for f in ctx.kfunc_suite():
        for row in czd.k_band(f, c.t_lo, c.t_hi, c.t_points):
            ratios.append(row["ratio"])
            lower_ok &= row["K_upper_cz"] >= row["K_lower"] * (1 - 1e-9)
    band = (min(ratios), max(ratios))
    measured = {"band_lo": band[0], "band_hi": band[1],
                "band_ratio": band[1] / band[0]}
    ok = band[1] / band[0] <= 50.0 and lower_ok
    measured["lower_bounds_hold"] = lower_ok
    return _result("kfunc-equiv", "K-functional two-sided equivalence band",
                   measured, "band ratio <= 50; upper >= component lower bounds",
                   ok, t0)


# -- 6 -----------------------------------------------------------------------


def check_kfunc_exact(ctx: AcceptanceContext) -> CheckResult:
    """Exact discrete K identity against brute-force splitting search."""
    t0 = time.time()
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(1, 11))
        vals = rng.uniform(-5, 5, m)
        w = rng.uniform(0.1, 2.0, m)
        t = float(10 ** rng.uniform(-2, 2))
        table = rar.rearrange_samples(vals, w)
        a = rar.k_l1_linf(table, t)
        b = rar.k_l1_linf_bruteforce(vals, w, t)
        worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    search_ok, gaps = True, []
    for _ in range(20):
        vals = rng.uniform(-3, 3, 4)
        w = rng.uniform(0.2, 1.5, 4)
        t = float(10 ** rng.uniform(-1, 1))
        k_exact = rar.k_l1_linf(rar.rearrange_samples(vals, w), t)
        best = rar.k_split_random_search(vals, w, t, iters=20000, rng=rng)
        search_ok &= best >= k_exact * (1 - 1e-12) - 1e-12
        gaps.append(best / max(k_exact, 1e-300) - 1.0)
    measured = {"max_formula_vs_bruteforce": worst,
                "no_split_beats_formula": search_ok,
                "median_random_search_gap": float(np.median(gaps))}
    ok = worst <= 1e-12 and search_ok
    return _result("kfunc-exact", "exact discrete K identity",
                   measured, "formula == brute force to 1e-12; optimality",
                   ok, t0)


# -- 7 -----------------------------------------------------------------------


def check_rearrangement_laws(ctx: AcceptanceContext) -> CheckResult:
    """Equimeasurability, the distribution bound, and the maximal-average
    norm comparison with its sharp constant."""
    t0 = time.time()
    g = ctx.grid2
    measured, ok = {}, True
    eq_worst, dist_ok, ratio_worst = 0.0, True, 0.0
    for f in suite_hardy(g):
        table = rar.rearrange(f)
        for p in dict.fromkeys((1.0, 2.0, float(g.n), 7.0 / 3.0)):
            a, b = table.lp_norm(p), lp_norm(f, p)
            eq_worst = max(eq_worst, abs(a - b) / b)
        for t in np.geomspace(table.total_measure * 1e-6,
                              table.total_measure * 2.0, 24):
            level = table.f_star(t)
            dist_ok &= table.measure_above(level) <= t * (1 + 1e-12)
        for p in dict.fromkeys((2.0, float(g.n))):
            ratio = table.double_star_lp(p) / table.lp_norm(p)
            ratio_worst = max(ratio_worst, ratio - p / (p - 1.0))
    measured.update(equimeasurability_err=eq_worst,
                    distribution_bound_ok=dist_ok,
                    double_star_excess=ratio_worst)
    ok = eq_worst <= 1e-10 and dist_ok and ratio_worst <= 0.05 * 2.0
    return _result("rearrangement-laws", "rearrangement identities",
                   measured,
                   "equimeasurable to 1e-10; mu({|f|>f*(t)})<=t; ||f**||_p bound",
                   ok, t0)


# -- 8 -----------------------------------------------------------------------


def check_extension_roundtrip(ctx: AcceptanceContext) -> CheckResult:
    """Extension/restriction: round trips within 2%, finite stable ratios,
    support of the anti-radial extension confined to the enlarged cones."""
    t0 = time.time()
    g, full = ctx.grid2, ctx.full2
    gf, fullf = ctx.grid2_fine, ctx.full2_fine
    measured, ok = {}, True
    worst_rt, worst_drift = 0.0, 1.0
    ps, refused = (1.0, 1.5, 2.0, 3.0, INF), {}
    # each field once per grid: its extension and round-trip difference are
    # cached on it and serve every exponent whose suite holds it
    for (f, f_ps), (f_fine, _) in zip(suite_extension_members(g, ps),
                                      suite_extension_members(gf, ps)):
        for p in f_ps:
            try:
                Ef, _ = extension.extend(f, p, full)
            except extension.ExtensionGateError:
                ok = False
                refused[p] = f.name
                continue
            rt = extension.roundtrip_error(f, Ef, p)
            ratio = extension.wp_norm(Ef, p) / extension.source_norm(f, p)
            worst_rt = max(worst_rt, rt)
            if not np.isfinite(ratio):
                ok = False
            Ef_fine, _ = extension.extend(f_fine, p, fullf)
            ratio_fine = (extension.wp_norm(Ef_fine, p)
                          / extension.source_norm(f_fine, p))
            drift = max(ratio_fine / ratio, ratio / ratio_fine)
            worst_drift = max(worst_drift, drift)
    measured.update((f"unexpected_refusal_p{p:g}", refused[p])
                    for p in ps if p in refused)
    xi = extension.antiradial_extension_only(
        make_test_field("angular_bump", g), full)
    mask = extension.enlarged_support_mask(full, g)
    supp_ok = float(np.abs(xi.values[0][:, ~mask]).max()) == 0.0
    measured.update(max_roundtrip=worst_rt, max_ratio_drift=worst_drift,
                    support_confined=supp_ok)
    ok &= worst_rt <= 0.02 and worst_drift < 2.0 and supp_ok
    return _result("extension-roundtrip", "extension and restriction operators",
                   measured, "roundtrip <= 2%; drift < 2x; support confined",
                   ok, t0)


# -- 9 -----------------------------------------------------------------------


def check_pierre(ctx: AcceptanceContext) -> CheckResult:
    """The explicit quadrant-cone extension: agreement with the factored
    closed form, seam continuity, finite ratios, exact round trip."""
    t0 = time.time()
    g, full = ctx.gridq, ctx.fullq
    measured, ok = {}, True

    def xplusy(r, t, h):
        ax = g.domain.axis_angle(h)
        return r * (np.cos(ax + t) + np.sin(ax + t))

    fxy = Field.from_function(g, xplusy, name="linear_sum")
    Ef = extension.extend_pierre_2d(fxy, full)
    off = ~extension.enlarged_support_mask(full, g, 0.0)
    rr, pp = np.meshgrid(g.r, full.theta[off], indexing="ij")
    x, y = rr * np.cos(pp), rr * np.sin(pp)
    exact = (x + y) * (x - y) ** 2 / (x * x + y * y)
    formula_err = float(np.abs(Ef.values[0][:, off] - exact).max())
    measured["closed_form_err"] = formula_err
    ok &= formula_err <= 1e-10

    suite = [fxy,
             make_test_field("radial_exp", g),
             make_test_field("angular_bump", g),
             make_test_field("lipschitz_compact", g),
             make_test_field("jump", g),
             make_test_field("logcounter", g, beta=1.0)]
    worst_rt, worst_seam, max_ratio = 0.0, 0.0, 0.0
    for row in extension.quadrant_report(suite, (1.0, 1.5, 3.0, INF), full):
        if row["p"] == 1.0:       # every field has a p = 1 row
            worst_rt = max(worst_rt, row["roundtrip_err"])
            worst_seam = max(worst_seam, _seam_excess(row["extended"], full))
        max_ratio = max(max_ratio, row["ratio"])
    measured.update(max_roundtrip=worst_rt, seam_excess=worst_seam,
                    max_ratio=max_ratio)
    ok &= worst_rt <= 1e-10 and worst_seam <= 4.0 and np.isfinite(max_ratio)
    return _result("pierre-2d", "explicit quadrant-cone extension",
                   measured,
                   "closed form to 1e-10; seams continuous; ratios finite",
                   ok, t0)


def _seam_excess(Ef: Field, full: PolarGrid) -> float:
    """Largest seam jump relative to the interior angular increments."""
    vals = Ef.values[0]
    diffs = np.abs(np.roll(vals, -1, axis=1) - vals)
    seams = []
    for target in (0.0, math.pi / 2, math.pi, -math.pi / 2):
        j = int(np.argmin(np.abs((full.theta + full.dtheta / 2) - target)))
        seams.append(j)
    seam_jump = max(float(diffs[:, j].max()) for j in seams)
    interior = np.delete(diffs, seams, axis=1)
    return seam_jump / max(float(interior.max()), 1e-300)


# -- 10 ----------------------------------------------------------------------


def check_density(ctx: AcceptanceContext) -> CheckResult:
    """Vertex-cutoff approximation laws: first-order error below the critical
    exponent, gradient plateau at it, the 1/k corrector law, and the corrected
    error's decay trend with its logarithmic rate."""
    t0 = time.time()
    g = ctx.grid2
    f = make_test_field("lipschitz_compact", g)
    measured, ok = {}, True

    eps_list = [0.2, 0.1, 0.05, 0.025, 0.0125]
    errs = _sobolev_errors(density.convergence_table(f, 1.0, "plain", eps_list))
    slope = density.fit_decay_slope(eps_list, errs)
    measured["p1_error_slope"] = slope
    ok &= 0.85 <= slope <= 1.15

    plateau_errs = [r["grad_err"] for r in density.convergence_table(
        f, 2.0, "plain", [1e-2, 1e-3, 1e-4, 1e-5])]
    measured["p2_plateau_ratio"] = plateau_errs[-1] / plateau_errs[0]
    ok &= plateau_errs[-1] > 0 and plateau_errs[-1] / plateau_errs[0] >= 0.8

    scaled = [k * density.corrector_times_cutoff_norm(f, 1e-6, k, 2.0)
              for k in (2.0, 4.0, 8.0, 16.0)]
    spread = (max(scaled) - min(scaled)) / np.mean(scaled)
    measured["corrector_inverse_k_spread"] = float(spread)
    ok &= spread <= 0.15

    eps_sweep = [1e-2, 1e-4, 1e-6, 1e-8, 1e-10]
    corrected = _sobolev_errors(density.convergence_table(
        f, 2.0, "corrected", eps_sweep, [8.0]))
    decreasing = all(b < a for a, b in zip(corrected, corrected[1:]))
    eta_norms = [density.eta_gradient_norm(g, eps, 8.0, 2.0) for eps in eps_sweep]
    eta_slope = float(np.polyfit(np.log([abs(math.log(e)) for e in eps_sweep]),
                                 np.log(eta_norms), 1)[0])
    measured.update(corrected_errors_decreasing=decreasing,
                    corrected_final_over_initial=corrected[-1] / corrected[0],
                    eta_gradient_log_slope=eta_slope)
    ok &= decreasing and abs(eta_slope + 0.5) <= 0.075
    return _result("density-approx", "vertex cutoff and corrector laws",
                   measured,
                   "slope ~1 at p=1; plateau at p=n; 1/k law within 15%; "
                   "corrected error decreasing with the log rate", ok, t0)


def _sobolev_errors(rows) -> list:
    """W^1_p distance of each approximant: l_p_err + grad_err per row."""
    return [r["l_p_err"] + r["grad_err"] for r in rows]


# -- 11 ----------------------------------------------------------------------


def check_codim_obstruction(ctx: AcceptanceContext) -> CheckResult:
    """The sign-jump field stays uniformly far, above the critical exponent,
    from every approximant vanishing near the vertex."""
    t0 = time.time()
    g = ctx.grid2
    f = make_test_field("jump", g)
    norm_f = extension.wp_norm(f, 4.0)
    dists = _sobolev_errors(
        density.convergence_table(f, 4.0, "plain",
                                  [0.25, 0.1, 0.05, 0.01, 1e-3, 1e-4])
        + density.convergence_table(f, 4.0, "corrected",
                                    [0.1, 0.01, 1e-3, 1e-4], [2.0, 8.0]))
    ratio = min(dists) / norm_f
    measured = {"min_distance_ratio": ratio,
                "frozen_regression_value": JUMP_OBSTRUCTION_RATIO}
    ok = ratio >= 0.1 and abs(ratio - JUMP_OBSTRUCTION_RATIO) <= 0.05 * JUMP_OBSTRUCTION_RATIO
    return _result("codim-obstruction",
                   "vertex-jump obstruction above the critical exponent",
                   measured, "min distance >= 0.1 ||f||; matches frozen value",
                   ok, t0)


# -- 12 ----------------------------------------------------------------------


def check_restriction_antiradial(ctx: AcceptanceContext) -> CheckResult:
    """Restriction chain at the critical exponent: the anti-radial part of a
    restricted smooth field has 1/r-weighted norm controlled by the full-plane
    Dirichlet energy, with a refinement-stable constant."""
    t0 = time.time()
    rows, rows_fine = [], []
    for F in suite_fullplane(ctx.full2):
        rows.append(extension.restriction_antiradial_ratio(F, ctx.grid2))
    for F in suite_fullplane(ctx.full2_fine):
        rows_fine.append(extension.restriction_antiradial_ratio(F, ctx.grid2_fine))
    ratios = np.array([r["ratio"] for r in rows])
    ratios_f = np.array([r["ratio"] for r in rows_fine])
    # radial suite members have ratio ~ 0 (pure cap-mean noise); drift is
    # meaningful only where the anti-radial part is genuinely present
    live = ratios > 1e-6 * ratios.max()
    drift = float(np.max(np.abs(ratios_f[live] - ratios[live]) / ratios[live]))
    measured = {"max_ratio": float(ratios.max()),
                "max_refinement_drift": drift}
    ok = bool(np.all(np.isfinite(ratios)) and drift <= 0.25)
    return _result("restriction-hhat",
                   "anti-radial control of restricted plane fields",
                   measured, "ratios finite, stable under refinement", ok, t0)


# -- 13 ----------------------------------------------------------------------


def check_poincare(ctx: AcceptanceContext) -> CheckResult:
    """The Poincare dichotomy on B(0, 1): the ratio of the linearly smoothed
    sign field scales like eps^{1-n/q}, so it blows up for q < n; at q = n
    the logarithmic profile has ratio^2 ~ log(1/eps)/2.  Doubling holds at
    every scale: exactly 2^n at the vertex and at most 2^n off it."""
    t0 = time.time()
    g = ctx.grid2
    n = g.n
    measured, ok = {}, True
    for row in poincare_rows(g, (1.5, 2.0, 3.0, 4.0), (1e-2, 1e-3, 1e-4, 1e-5)):
        if row["profile"] == "linear":
            measured[f"linear_slope_q{row['q']:g}"] = row["slope"]
            ok &= abs(row["slope"] - (1.0 - n / row["q"])) <= 0.02
        else:
            law = row["ratio"] ** 2 / np.log(1.0 / row["eps"])
            spread = float((law.max() - law.min()) / law.mean())
            measured.update(log_law_mean=float(law.mean()), log_law_spread=spread)
            ok &= spread <= 0.02
    vertex = doubling_ratio(g.domain, (0.0, 0.0), 1.0)
    off = [doubling_ratio(g.domain, (0.0, 1.0), rad)
           for rad in (0.1, 0.3, 1.0, 2.0, 5.0)]
    measured.update(doubling_vertex=vertex, doubling_off_vertex_min=min(off),
                    doubling_off_vertex_max=max(off))
    ok &= vertex == 2.0**n and max(off) <= 2.0**n * (1 + 1e-12)
    return _result("poincare", "Poincare ratio fails for q <= n; doubling",
                   measured,
                   "slope 1-n/q +/- 0.02; log law spread <= 2%; "
                   "doubling 2^n at vertex, <= 2^n off it", ok, t0)


CHECKS = {
    "hardy-bound": check_hardy_bound,
    "hardy-critical": check_hardy_critical,
    "hhat-gate": check_hhat_gate,
    "cz-prop41": check_cz_decomposition,
    "kfunc-equiv": check_kfunc_equivalence,
    "kfunc-exact": check_kfunc_exact,
    "rearrangement-laws": check_rearrangement_laws,
    "extension-roundtrip": check_extension_roundtrip,
    "pierre-2d": check_pierre,
    "density-approx": check_density,
    "codim-obstruction": check_codim_obstruction,
    "restriction-hhat": check_restriction_antiradial,
    "poincare": check_poincare,
}


def run_all(cfg: RunConfig | None = None, only=None,
            progress=None) -> VerificationReport:
    ctx = AcceptanceContext(cfg)
    report = VerificationReport()
    for check_id, fn in CHECKS.items():
        if only and check_id not in only:
            continue
        result = fn(ctx)
        report.add(result)
        if progress:
            progress(result)
    return report
