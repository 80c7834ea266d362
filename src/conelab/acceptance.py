"""The acceptance suite: thirteen named checks, each measuring a family of
inequalities or convergence laws at pinned tolerances and returning a
CheckResult.  Each check writes every limit once, as a `report.Limit` record
next to the measured value it holds: `put(key, value, (sense, limit))`.  The
result's pass flag, its bound text in `verify_all.*` and the closest call
that `verify-all` prints all follow from these records.  `run_all` streams
every check (optionally a subset) on one context, timed; the command-line
`verify-all` and the acceptance tests consume it.

Grids are built lazily and shared across checks; maximal functions and
rearrangement tables are cached on the fields, which each check builds for
itself.
"""

from __future__ import annotations

import math
import time
from functools import cached_property

import numpy as np

from . import czd, density, extension, rearrangement as rar
from .config import RunConfig
from .fieldlib import (QUADRANT_MEMBERS, make_test_field, suite_cz,
                       suite_extension_members, suite_fullplane, suite_hardy)
from .fields import (HARDY_SLACK, Field, critical_sweep, decade_growth,
                     hardy_rows, lp_norm, partial_norm_power_table,
                     poincare_rows, samples)
from .geometry import ConeDomain, doubling_ratio
from .grids import PolarGrid
from .report import CheckResult

INF = float("inf")

# regression value: smallest W^1_4 distance ratio from the sign-jump field to
# any approximant vanishing near the vertex, frozen after first derivation
JUMP_OBSTRUCTION_RATIO = 0.776

# The vertex depth the checks read, refused up front by verify-all: the
# membership gate's decades, and the smallest eps whose cutoff needs rings.
# The reach too, at both ends of grid2 and grid3: the checks that divide by
# the radial derivative of every suite_hardy field.  And grid_deep's vertex
# tail: the checks that fit a growth slope there.
GATE_CHECKS = ("hhat-gate", "extension-roundtrip")
CUTOFF_EPS = {"density-approx": 1e-6, "codim-obstruction": 1e-4}
QUOTIENT_CHECKS = ("hardy-bound",)
SLOPE_CHECKS = ("hardy-critical",)


class AcceptanceContext:
    """Lazily built grids shared by the checks.  The suites are built afresh
    on each call, so a check's fields and their caches go when it returns."""

    def __init__(self, cfg: RunConfig | None = None):
        self.cfg = cfg or RunConfig()

    @cached_property
    def grid2(self) -> PolarGrid:
        c = self.cfg
        return PolarGrid.cone(ConeDomain(2, c.omega), nr=c.nr, nt=c.nt,
                              r_max=c.r_max, r_min=c.r_min)

    @cached_property
    def grid3(self) -> PolarGrid:
        c = self.cfg
        return PolarGrid.cone(ConeDomain(3, c.omega), nr=c.nr, nt=c.nt,
                              r_max=c.r_max)

    @cached_property
    def grid_deep(self) -> PolarGrid:
        c = self.cfg
        return PolarGrid.cone(ConeDomain(2, c.omega), nr=c.nr, nt=c.nt,
                              r_max=c.r_max, r_min=1e-12)

    @cached_property
    def full2(self) -> PolarGrid:
        return PolarGrid.fullplane(self.grid2)

    @cached_property
    def grid2_fine(self) -> PolarGrid:
        """grid2 refined 1.5x in each direction, over the same radii."""
        c = self.cfg
        return PolarGrid.cone(ConeDomain(2, c.omega), nr=int(c.nr * 1.5),
                              nt=int(c.nt * 1.5), r_max=c.r_max, r_min=c.r_min)

    @cached_property
    def full2_fine(self) -> PolarGrid:
        return PolarGrid.fullplane(self.grid2_fine)

    @cached_property
    def gridq(self) -> PolarGrid:
        return PolarGrid.cone(ConeDomain(2, math.pi / 4, "quadrant"), nr=400,
                              nt=96, r_max=4.0, r_min=4e-7)

    @cached_property
    def fullq(self) -> PolarGrid:
        return PolarGrid.fullplane(self.gridq)

    def kfunc_suite(self):
        return suite_cz(self.grid2)

    def alpha_suite(self) -> list[Field]:
        """Vertex-singular fields whose maximal function spans well over four
        decades on the truncated grid, so the level sweep stays anchored at
        the vertex singularity."""
        g = self.grid2
        return [make_test_field("logcounter", g, beta=1.0),
                make_test_field("logcounter", g, beta=0.75),
                make_test_field("radial_power", g, a=0.25),
                make_test_field("radial_power", g, a=0.4),
                make_test_field("radial_power", g, a=0.5)]


# -- 1 -----------------------------------------------------------------------


def check_hardy_bound(ctx: AcceptanceContext) -> CheckResult:
    """Weighted-norm bound ||f/r||_p <= p/(n-p) ||d_r f||_p below the critical
    exponent, with tightness of the constant on the suite."""
    res = CheckResult("hardy-bound", "weighted Hardy quotient below p/(n-p)")
    # each suite is built once, for every exponent read on its grid
    for grid, ps in ((ctx.grid2, (1.0,)), (ctx.grid3, (1.0, 2.0))):
        n = grid.n
        rows = {p: [] for p in ps}
        for f in suite_hardy(grid):
            for p in ps:
                rows[p] += hardy_rows((f,), p)
            del f   # and its cached gradient, before the suite builds the next
        for p in ps:
            bound = rows[p][0]["bound"]
            # the proof's constant, and tightness: some member nearly extremal
            res.put(f"max_quotient_n{n}_p{p:g}",
                    max(r["quotient"] for r in rows[p]),
                    ("<=", bound * HARDY_SLACK), (">=", 0.6 * bound))
            res.put(f"bound_n{n}_p{p:g}", bound)
    return res


# -- 2 -----------------------------------------------------------------------


def check_hardy_critical(ctx: AcceptanceContext) -> CheckResult:
    """Failure of the weighted bound at p = n: the log-family member with
    beta=0.25 has partial weighted integrals growing like |ln r_min|^{1-2beta},
    the beta=1 member converges, and all gradients converge."""
    res = CheckResult("hardy-critical",
                      "critical-exponent divergence rates of the log family")
    g, grad_incr = ctx.grid_deep, {}
    for f, _, out in critical_sweep(g, (0.25, 0.5, 1.0)):
        beta = out["beta"]
        if beta == 0.25:
            res.put("weighted_growth_slope_beta025", out["measured_slope"],
                    ("+/-", 0.5, 0.05))
        elif beta == 1.0:
            res.put("weighted_last_decade_incr_beta1", out["last_decade_increment"],
                    ("<", 0.02))
        _, Pg = partial_norm_power_table(samples(f, "gradient"), g, 2.0)
        grad_incr[beta] = decade_growth(Pg, 1)
    for beta, incr in grad_incr.items():
        res.put(f"grad_last_decade_incr_beta{beta:g}", incr, ("<", 0.02))
    return res


# -- 3 -----------------------------------------------------------------------


def check_hhat_gate(ctx: AcceptanceContext) -> CheckResult:
    """The anti-radial weighted-integrability gate accepts beta=1 and refuses
    beta in {0.25, 0.5}."""
    res = CheckResult("hhat-gate", "critical-exponent membership gate")
    g = ctx.grid2
    for beta, want in ((1.0, "accept"), (0.5, "refuse"), (0.25, "refuse")):
        f = make_test_field("logcounter", g, beta=beta)
        accepted, growth = extension.admissibility_gate(f, 2.0)
        res.put(f"gate_beta{beta:g}", "accept" if accepted else "refuse",
                ("==", want))
        res.put(f"growth_beta{beta:g}", growth)
    return res


# -- 4 -----------------------------------------------------------------------


def check_cz_decomposition(ctx: AcceptanceContext) -> CheckResult:
    """Decomposition estimates over five fields and a four-decade level sweep:
    exact reconstruction and set properties, measured constants stable."""
    res = CheckResult("cz-prop41", "Calderon-Zygmund decomposition estimates")
    c = ctx.cfg
    worst = {"rec_err": 0.0, "overlap_N": 0, "eB_ratio": 0.0,
             "neighbor_radius_ratio": 0.0, "partition_err": 0.0}
    sets = dict.fromkeys(czd.SET_PROPERTIES, True)
    eg_var_max, eb_var_max = 0.0, 0.0
    for f in ctx.alpha_suite():
        egs, ebs = [], []
        for rep in czd.level_sweep(f, c.alpha_decades, c.alpha_points):
            for k in worst:
                worst[k] = max(worst[k], rep[k])
            for k in sets:
                sets[k] = sets[k] and bool(rep[k])
            egs.append(rep["eg_ratio"])
            ebs.append(rep["eb_ratio"])
        eg_var_max = max(eg_var_max, max(egs) / min(egs))
        eb_var_max = max(eb_var_max, max(ebs) / min(ebs))
    res.put("rec_err", worst["rec_err"], ("<=", 1e-10))
    res.put("overlap_N", worst["overlap_N"], ("<=", 20))
    res.put("eg_variation", eg_var_max, ("<", 2.0))
    res.put("eb_variation", eb_var_max, ("<", 2.0))
    res.put("eB_max", worst["eB_ratio"], ("<=", 20.0))
    for k, held in sets.items():
        res.put(k, held, ("==", True))
    res.put("neighbor_radius_ratio", worst["neighbor_radius_ratio"],
            ("<=", 3.0 * (1 + 1e-9)))
    res.put("partition_err", worst["partition_err"], ("<=", 1e-12))
    return res


# -- 5 -----------------------------------------------------------------------


def check_kfunc_equivalence(ctx: AcceptanceContext) -> CheckResult:
    """Constructive K-functional upper bound against the rearrangement
    estimate: two-sided band over five fields and six decades of t."""
    res = CheckResult("kfunc-equiv", "K-functional two-sided equivalence band")
    c = ctx.cfg
    ratios, lower_held = [], True
    for f in ctx.kfunc_suite():
        for row in czd.k_band(f, c.t_lo, c.t_hi, c.t_points):
            ratios.append(row["ratio"])
            lower_held &= row["K_upper_cz"] >= row["K_lower"] * (1 - 1e-9)
        del f   # and its caches, before the suite builds the next
    res.put("band_lo", min(ratios))
    res.put("band_hi", max(ratios))
    res.put("band_ratio", max(ratios) / min(ratios), ("<=", 50.0))
    res.put("lower_bounds_hold", lower_held, ("==", True))
    return res


# -- 6 -----------------------------------------------------------------------


def check_kfunc_exact(ctx: AcceptanceContext) -> CheckResult:
    """Exact discrete K identity against brute-force splitting search."""
    res = CheckResult("kfunc-exact", "exact discrete K identity")
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
    search_held, gaps = True, []
    for _ in range(20):
        vals = rng.uniform(-3, 3, 4)
        w = rng.uniform(0.2, 1.5, 4)
        t = float(10 ** rng.uniform(-1, 1))
        k_exact = rar.k_l1_linf(rar.rearrange_samples(vals, w), t)
        best = rar.k_split_random_search(vals, w, t, iters=20000, rng=rng)
        search_held &= best >= k_exact * (1 - 1e-12) - 1e-12
        gaps.append(best / max(k_exact, 1e-300) - 1.0)
    res.put("max_formula_vs_bruteforce", worst, ("<=", 1e-12))
    res.put("no_split_beats_formula", search_held, ("==", True))
    res.put("median_random_search_gap", float(np.median(gaps)))
    return res


# -- 7 -----------------------------------------------------------------------


def check_rearrangement_laws(ctx: AcceptanceContext) -> CheckResult:
    """Equimeasurability, the distribution bound, and the maximal-average
    norm comparison with its sharp constant."""
    res = CheckResult("rearrangement-laws", "rearrangement identities")
    g = ctx.grid2
    eq_worst, dist_held, ratio_worst = 0.0, True, 0.0
    for f in suite_hardy(g):
        table = rar.rearrange(f)
        for p in dict.fromkeys((1.0, 2.0, float(g.n), 7.0 / 3.0)):
            a, b = table.lp_norm(p), lp_norm(f, p)
            eq_worst = max(eq_worst, abs(a - b) / b)
        for t in np.geomspace(table.total_measure * 1e-6,
                              table.total_measure * 2.0, 24):
            level = table.f_star(t)
            dist_held &= bool(table.measure_above(level) <= t * (1 + 1e-12))
        for p in dict.fromkeys((2.0, float(g.n))):
            ratio = table.double_star_lp(p) / table.lp_norm(p)
            ratio_worst = max(ratio_worst, ratio - p / (p - 1.0))
        del f, table    # before the suite builds the next field
    res.put("equimeasurability_err", eq_worst, ("<=", 1e-10))
    res.put("distribution_bound_ok", dist_held, ("==", True))
    res.put("double_star_excess", ratio_worst, ("<=", 0.05 * 2.0))
    return res


# -- 8 -----------------------------------------------------------------------


def check_extension_roundtrip(ctx: AcceptanceContext) -> CheckResult:
    """Extension/restriction: round trips within 2%, finite stable ratios,
    support of the anti-radial extension confined to the enlarged cones."""
    res = CheckResult("extension-roundtrip", "extension and restriction operators")
    g, full = ctx.grid2, ctx.full2
    gf, fullf = ctx.grid2_fine, ctx.full2_fine
    worst_rt, worst_drift, finite = 0.0, 1.0, True
    ps, refused = (1.0, 1.5, 2.0, 3.0, INF), {}

    def coarse_row(pair):
        """(p, f.name, round trip and ratio) of one coarse (field, p) pair,
        None in place of the two numbers where the gate refused.  Each
        field's extension and round-trip difference are cached on it and
        serve every exponent of its member."""
        f, p = pair
        try:
            Ef = extension.extend(f, p, full)
        except extension.ExtensionGateError:
            return p, f.name, None
        return p, f.name, (extension.roundtrip_error(f, Ef, p),
                           extension.wp_norm(Ef, p) / extension.source_norm(f, p))

    def fine_drift(ratio, pair):
        """The fine pair's ratio against its coarse pair's recorded ratio,
        as a factor >= 1; None where the gate refused the coarse pair."""
        if ratio is None:
            return None
        f, p = pair
        ratio_fine = (extension.wp_norm(extension.extend(f, p, fullf), p)
                      / extension.source_norm(f, p))
        return max(ratio_fine / ratio, ratio / ratio_fine)

    # the whole coarse stream first, then the fine one, so no coarse field
    # is alive while a fine one is built; map holds no pair between calls,
    # so each stream drops a member's fields before it builds the next (a
    # for loop's targets would not)
    ratios = []
    for p, name, measured in map(coarse_row, suite_extension_members(g, ps)):
        if measured is None:
            refused[p] = name
            ratios.append(None)
            continue
        rt, ratio = measured
        worst_rt = max(worst_rt, rt)
        finite = finite and bool(np.isfinite(ratio))
        ratios.append(ratio)
    for drift in map(fine_drift, ratios, suite_extension_members(gf, ps)):
        if drift is not None:
            worst_drift = max(worst_drift, drift)
    res.measured.update((f"unexpected_refusal_p{p:g}", refused[p])
                        for p in ps if p in refused)
    res.put("max_roundtrip", worst_rt, ("<=", 0.02))
    res.put("max_ratio_drift", worst_drift, ("<", 2.0))
    xi = extension.antiradial_extension_only(
        make_test_field("angular_bump", g), full)
    mask = extension.enlarged_support_mask(full, g)
    res.put("support_confined",
            float(np.abs(xi.values[0][:, ~mask]).max()) == 0.0, ("==", True))
    res.put("refused_exponents", len(refused), ("==", 0))
    res.put("ratios_finite", finite, ("==", True))
    return res


# -- 9 -----------------------------------------------------------------------


def check_pierre(ctx: AcceptanceContext) -> CheckResult:
    """The explicit quadrant-cone extension: agreement with the factored
    closed form, seam continuity, finite ratios, exact round trip."""
    res = CheckResult("pierre-2d", "explicit quadrant-cone extension")
    g, full = ctx.gridq, ctx.fullq

    def xplusy(r, t, h):
        ax = g.domain.axis_angle(h)
        return r * (np.cos(ax + t) + np.sin(ax + t))

    fxy = Field.from_function(g, xplusy, name="linear_sum")
    Ef = extension.extend_pierre_2d(fxy, full)
    off = ~extension.enlarged_support_mask(full, g, 0.0)
    rr, pp = np.meshgrid(g.r, full.theta[off], indexing="ij")
    x, y = rr * np.cos(pp), rr * np.sin(pp)
    exact = (x + y) * (x - y) ** 2 / (x * x + y * y)
    res.put("closed_form_err", float(np.abs(Ef.values[0][:, off] - exact).max()),
            ("<=", 1e-10))

    ps = (1.0, 1.5, 3.0, INF)

    def pairs():    # one field at a time: its cached extension goes with it
        yield from ((fxy, p) for p in ps if p <= 2.0)    # below and at n = 2
        yield from suite_extension_members(g, ps, QUADRANT_MEMBERS)
        f = make_test_field("logcounter", g, beta=1.0)
        yield from ((f, p) for p in ps)

    worst_rt, worst_seam, max_ratio = 0.0, 0.0, 0.0
    for row in extension.extension_rows(
            pairs(), lambda f, p: extension.extend_pierre_2d(f, full)):
        if row["p"] == 1.0:       # every field has a p = 1 row
            worst_rt = max(worst_rt, row["roundtrip_err"])
            worst_seam = max(worst_seam, _seam_excess(row["extended"], full))
        max_ratio = max(max_ratio, row["ratio"])
    res.put("max_roundtrip", worst_rt, ("<=", 1e-10))
    res.put("seam_excess", worst_seam, ("<=", 4.0))
    res.put("max_ratio", max_ratio, ("finite",))
    return res


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
    res = CheckResult("density-approx", "vertex cutoff and corrector laws")
    g = ctx.grid2
    f = make_test_field("lipschitz_compact", g)

    eps_list = [0.2, 0.1, 0.05, 0.025, 0.0125]
    errs = _sobolev_errors(density.convergence_table(f, 1.0, eps_list))
    res.put("p1_error_slope", density.fit_decay_slope(eps_list, errs),
            ("+/-", 1.0, 0.15))

    # errors are norms, so a ratio >= 0.8 also says the last one is nonzero
    plateau_errs = [r["grad_err"] for r in density.convergence_table(
        f, 2.0, [1e-2, 1e-3, 1e-4, 1e-5])]
    res.put("p2_plateau_ratio", plateau_errs[-1] / plateau_errs[0], (">=", 0.8))

    scaled = [k * density.corrector_times_cutoff_norm(f, 1e-6, k, 2.0)
              for k in (2.0, 4.0, 8.0, 16.0)]
    spread = (max(scaled) - min(scaled)) / np.mean(scaled)
    res.put("corrector_inverse_k_spread", float(spread), ("<=", 0.15))

    eps_sweep = [1e-2, 1e-4, 1e-6, 1e-8, 1e-10]
    corrected = _sobolev_errors(density.convergence_table(
        f, 2.0, eps_sweep, [8.0]))
    decreasing = all(b < a for a, b in zip(corrected, corrected[1:]))
    eta_norms = [density.eta_gradient_norm(g, eps, 8.0, 2.0) for eps in eps_sweep]
    eta_slope = float(np.polyfit(np.log([abs(math.log(e)) for e in eps_sweep]),
                                 np.log(eta_norms), 1)[0])
    res.put("corrected_errors_decreasing", decreasing, ("==", True))
    res.put("corrected_final_over_initial", corrected[-1] / corrected[0])
    res.put("eta_gradient_log_slope", eta_slope, ("+/-", -0.5, 0.075))
    return res


def _sobolev_errors(rows) -> list:
    """W^1_p distance of each approximant: l_p_err + grad_err per row."""
    return [r["l_p_err"] + r["grad_err"] for r in rows]


# -- 11 ----------------------------------------------------------------------


def check_codim_obstruction(ctx: AcceptanceContext) -> CheckResult:
    """The sign-jump field stays uniformly far, above the critical exponent,
    from every approximant vanishing near the vertex."""
    res = CheckResult("codim-obstruction",
                      "vertex-jump obstruction above the critical exponent")
    g = ctx.grid2
    f = make_test_field("jump", g)
    norm_f = extension.wp_norm(f, 4.0)
    dists = _sobolev_errors(
        density.convergence_table(f, 4.0, [0.25, 0.1, 0.05, 0.01, 1e-3, 1e-4])
        + density.convergence_table(f, 4.0, [0.1, 0.01, 1e-3, 1e-4], [2.0, 8.0]))
    res.put("min_distance_ratio", min(dists) / norm_f, (">=", 0.1),
            ("+/-", JUMP_OBSTRUCTION_RATIO, 0.05 * JUMP_OBSTRUCTION_RATIO))
    res.put("frozen_regression_value", JUMP_OBSTRUCTION_RATIO)
    return res


# -- 12 ----------------------------------------------------------------------


def check_restriction_antiradial(ctx: AcceptanceContext) -> CheckResult:
    """Restriction chain at the critical exponent: the anti-radial part of a
    restricted smooth field has 1/r-weighted norm controlled by the full-plane
    Dirichlet energy, with a refinement-stable constant."""
    res = CheckResult("restriction-hhat",
                      "anti-radial control of restricted plane fields")

    def suite_ratios(full, cone):
        out = []
        for F in suite_fullplane(full):
            out.append(extension.restriction_antiradial_ratio(F, cone)["ratio"])
            del F   # and its cached gradient, before the suite builds the next
        return np.array(out)

    ratios = suite_ratios(ctx.full2, ctx.grid2)
    ratios_f = suite_ratios(ctx.full2_fine, ctx.grid2_fine)
    # radial suite members have ratio ~ 0 (pure cap-mean noise); drift is
    # meaningful only where the anti-radial part is genuinely present
    live = ratios > 1e-6 * ratios.max()
    drift = float(np.max(np.abs(ratios_f[live] - ratios[live]) / ratios[live]))
    # the max is finite only when every ratio is (they are >= 0)
    res.put("max_ratio", float(ratios.max()), ("finite",))
    res.put("max_refinement_drift", drift, ("<=", 0.25))
    return res


# -- 13 ----------------------------------------------------------------------


def check_poincare(ctx: AcceptanceContext) -> CheckResult:
    """The Poincare dichotomy on B(0, 1): the ratio of the linearly smoothed
    sign field scales like eps^{1-n/q}, so it blows up for q < n; at q = n
    the logarithmic profile has ratio^2 ~ log(1/eps)/2.  Doubling holds at
    every scale: exactly 2^n at the vertex and at most 2^n off it."""
    res = CheckResult("poincare", "Poincare ratio fails for q <= n; doubling")
    g = ctx.grid2
    n = g.n
    for row in poincare_rows(g, (1.5, 2.0, 3.0, 4.0), (1e-2, 1e-3, 1e-4, 1e-5)):
        if row["profile"] == "linear":
            res.put(f"linear_slope_q{row['q']:g}", row["slope"],
                    ("+/-", 1.0 - n / row["q"], 0.02))
        else:   # one log row, at q = n
            law = row["ratio"] ** 2 / np.log(1.0 / row["eps"])
            res.put("log_law_mean", float(law.mean()))
            res.put("log_law_spread", float((law.max() - law.min()) / law.mean()),
                    ("<=", 0.02))
    off = [doubling_ratio(g.domain, (0.0, 1.0), rad)
           for rad in (0.1, 0.3, 1.0, 2.0, 5.0)]
    res.put("doubling_vertex", doubling_ratio(g.domain, (0.0, 0.0), 1.0),
            ("==", 2.0**n))
    res.put("doubling_off_vertex_min", min(off))
    res.put("doubling_off_vertex_max", max(off), ("<=", 2.0**n * (1 + 1e-12)))
    return res


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


def run_all(ctx: AcceptanceContext, only=None):
    """Run every check on ctx's grids (or those named in `only`), yielding
    each result timed."""
    for check_id, fn in CHECKS.items():
        if only and check_id not in only:
            continue
        t0 = time.time()
        result = fn(ctx)
        result.runtime = time.time() - t0
        yield result
