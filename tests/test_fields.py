import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from conelab.czd import hardy_sobolev_norm, maximal_function, maximal_table
from conelab.extension import (extend, extend_pierre_2d, restrict,
                               roundtrip_error, source_norm, wp_norm)
from conelab.fieldlib import (QUADRANT_MEMBERS, make_test_field, suite_fullplane,
                              suite_hardy)
from conelab.fields import (WEIGHTS, Field, cap_mean, gradient, hardy_quotient,
                            integrability_gate, lp_norm,
                            partial_norm_power_table, poincare_ball_ratio,
                            poincare_rows, radial_split, samples, save_field)
from conelab.geometry import ConeDomain
from conelab.grids import PolarGrid
from conelab.profiles import plateau
from conelab.rearrangement import rearrange, rearrange_samples

INF = float("inf")


class TestGradient:
    def test_constant(self, grid_small):
        f = make_test_field("constant", grid_small, c=3.0)
        assert np.abs(grid_small.d_dr(f.values)).max() == 0.0
        assert np.abs(grid_small.d_dtheta(f.values)).max() == 0.0
        assert gradient(f).max() == 0.0

    def test_linear_radial(self, grid_small):
        f = Field.from_function(grid_small, lambda r, t, h: r)
        assert np.abs(grid_small.d_dr(f.values) - 1.0).max() <= 1e-9
        ang = grid_small.d_dtheta(f.values) / grid_small.r[None, :, None]
        assert np.abs(ang).max() <= 1e-9

    def test_analytic_second_order(self, dom2):
        errs = []
        for nt in (24, 48, 96):
            grid = PolarGrid.cone(dom2, nr=200, nt=nt, r_max=2.0, r_min=1e-3)
            f = Field.from_function(grid, lambda r, t, h: r**2 * np.cos(t))
            ang = grid.d_dtheta(f.values)[0] / grid.r[:, None]
            rr, tt = np.meshgrid(grid.r, grid.theta, indexing="ij")
            err = np.abs(ang - (-rr * np.sin(tt))).max()
            errs.append(err)
        order = math.log2(errs[0] / errs[1])
        assert order > 1.8
        grid = PolarGrid.cone(dom2, nr=200, nt=48, r_max=2.0, r_min=1e-3)
        f = Field.from_function(grid, lambda r, t, h: r**2 * np.cos(t))
        dr = grid.d_dr(f.values)
        assert np.abs(dr[0] / (2 * np.cos(grid.theta))[None, :]
                      - grid.r[:, None]).max() <= 1e-6

    def test_needs_three_nodes(self, dom2):
        grid = PolarGrid.cone(dom2, nr=3, nt=3, r_max=1.0, r_min=0.1)
        f = Field.from_function(grid, lambda r, t, h: r)
        gradient(f)  # minimal size passes


class TestSamples:
    def test_families_bit_for_bit(self, grid_small):
        g = grid_small
        f = make_test_field("angular_bump", g)
        r = g.r[None, :, None]
        dr = g.d_dr(f.values)
        ang = g.d_dtheta(f.values) / r
        want = {"none": np.abs(f.values), "inv_r": np.abs(f.values) / r,
                "gradient": np.sqrt(dr**2 + ang**2)}
        assert WEIGHTS == tuple(want)
        for w in WEIGHTS:
            got = samples(f, w)
            assert got.tobytes() == want[w].tobytes(), w
            if w == "gradient":     # the field's cached read-only array
                assert samples(f, w) is got
                with pytest.raises(ValueError):
                    got[...] = -1.0
            else:                   # a fresh array per call
                assert samples(f, w) is not got
                got[...] = -1.0
            assert samples(f, w).tobytes() == want[w].tobytes(), w

    def test_unknown_weight(self, grid_small):
        f = make_test_field("radial_exp", grid_small)
        for weight in ("inv-r", "grad", ""):
            with pytest.raises(ValueError):
                samples(f, weight)

    def test_only_fields_computes_gradients(self):
        # every |grad f| sample comes from fields.samples: no other module
        # imports gradient or calls it
        src = pathlib.Path(__file__).resolve().parents[1] / "src" / "conelab"
        users = set()
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    names = {a.name for a in node.names}
                elif isinstance(node, ast.Call):
                    fn = node.func
                    names = {fn.id if isinstance(fn, ast.Name) else
                             getattr(fn, "attr", None)}
                else:
                    continue
                if "gradient" in names:
                    users.add(path.name)
        assert users == {"fields.py"}


class TestNorms:
    def test_zero_field(self, grid_small):
        z = make_test_field("constant", grid_small, c=0.0)
        for p in (1.0, 2.0, INF):
            assert lp_norm(z, p) == 0.0

    def test_exponential_oracle(self, oracle_grid):
        # int over one half-cone of r e^{-r}: arc (pi/2) times Gamma(3) / 2 =
        # pi, so 2 pi over both sheets
        f = make_test_field("radial_exp", oracle_grid)
        assert lp_norm(f, 1.0) == pytest.approx(2 * math.pi, rel=1e-4)

    def test_weighted_oracle(self, oracle_grid):
        f = make_test_field("radial_exp", oracle_grid)
        # pi/2 over one half-cone
        assert lp_norm(f, 1.0, weight="inv_r") == pytest.approx(
            2 * math.pi / 2, rel=1e-4)

    def test_sup_norm(self, grid_small):
        f = make_test_field("radial_exp", grid_small)
        assert lp_norm(f, INF) == pytest.approx(math.exp(-1.0), rel=1e-3)

    def test_norm_kinds(self, grid_small):
        f = make_test_field("radial_exp", grid_small)
        assert lp_norm(f, 1.0) < wp_norm(f, 1.0) < hardy_sobolev_norm(f, 1.0)
        assert lp_norm(f, 2.0) < wp_norm(f, 2.0)
        # at p = n the membership norm adds the anti-radial part: 0 here
        assert source_norm(f, 2.0) == pytest.approx(wp_norm(f, 2.0), rel=1e-10)

    def test_antiradial_norm_needs_critical_exponent(self, grid_small):
        f = make_test_field("angular_bump", grid_small)
        assert source_norm(f, 3.0) == wp_norm(f, 3.0)
        assert source_norm(f, 2.0) > wp_norm(f, 2.0)

    def test_homogeneous_past_overflow(self, grid_small):
        # 1e100**4 overflows a double; the norm itself does not
        one = make_test_field("constant", grid_small, c=1.0)
        big = make_test_field("constant", grid_small, c=1e100)
        for weight in ("none", "inv_r"):
            assert lp_norm(big, 4.0, weight=weight) == pytest.approx(
                1e100 * lp_norm(one, 4.0, weight=weight), rel=1e-12)

    def test_invalid_spec(self, grid_small):
        f = make_test_field("radial_exp", grid_small)
        with pytest.raises(ValueError):
            lp_norm(f, 0.5)
        with pytest.raises(ValueError):
            lp_norm(f, 2.0, weight="bogus")

    def test_quadrature_second_order(self, dom2):
        # smooth compactly supported field; refine radially and angularly
        def fn(r, t, h):
            return np.maximum(0.0, 1 - r)**3 * np.cos(t)

        vals = []
        for scale in (1, 2, 4):
            grid = PolarGrid.cone(dom2, nr=100 * scale, nt=16 * scale,
                                  r_max=2.0, r_min=1e-4)
            vals.append(lp_norm(Field.from_function(grid, fn), 2.0))
        e1, e2 = abs(vals[0] - vals[2]), abs(vals[1] - vals[2])
        assert math.log2(e1 / e2) > 1.6


class TestHardyQuotient:
    def test_radial_exp_oracle(self, grid_default):
        # 1D oracle: ratio = int e^{-r} dr / int |1-r| r e^{-r} dr
        num = quad(lambda r: math.exp(-r), 0, 60)[0]
        den = quad(lambda r: abs(1 - r) * r * math.exp(-r), 0, 60)[0]
        f = make_test_field("radial_exp", grid_default)
        assert den == pytest.approx(1.20728, rel=1e-4)
        assert hardy_quotient(f, 1.0) == pytest.approx(num / den, rel=5e-3)

    def test_bound_below_dimension_3d(self, grid3_small):
        for f in suite_hardy(grid3_small):
            assert hardy_quotient(f, 1.0) <= 0.5 * 1.05

    def test_zero_gradient_rejected(self, grid_small):
        c = make_test_field("constant", grid_small, c=1.0)
        with pytest.raises(ValueError):
            hardy_quotient(c, 1.0)

    def test_divergence_above_dimension_without_vertex_correction(self, dom2):
        # f(0) != 0 and p > n: the raw quotient grows as the grid deepens
        f4 = []
        for rmin in (1e-4, 1e-8):
            grid = PolarGrid.cone(dom2, nr=300, nt=32, r_max=40.0, r_min=rmin)
            f = make_test_field("lipschitz_compact", grid)
            f4.append(hardy_quotient(f, 4.0))
        assert f4[1] > 5.0 * f4[0]

    def test_vertex_corrected_quotient_stable(self, dom2):
        # subtracting the vertex value times a radial plateau leaves a field
        # vanishing at the vertex, whose quotient no longer grows
        vals = []
        for rmin in (1e-4, 1e-8):
            grid = PolarGrid.cone(dom2, nr=300, nt=32, r_max=40.0, r_min=rmin)
            f = make_test_field("lipschitz_compact", grid)    # vertex limit 1
            f = f.with_values(f.values - plateau(grid.r, 0.5, 1.0)[None, :, None])
            vals.append(hardy_quotient(f, 4.0))
        assert vals[1] == pytest.approx(vals[0], rel=0.05)


class TestSplits:
    def test_radial_field_has_no_antiradial_part(self, grid_small):
        f = make_test_field("radial_exp", grid_small)
        sp = radial_split(f)
        assert np.abs(sp.antiradial.values).max() <= 1e-14

    def test_sign_field_is_purely_antiradial(self, grid_small):
        f = make_test_field("jump", grid_small)
        sp = radial_split(f)
        assert np.abs(sp.profile).max() == 0.0
        assert np.array_equal(sp.antiradial.values, f.values)

    def test_ring_means_vanish(self, grid_small):
        rng = np.random.default_rng(0)
        c = rng.normal(size=4)

        def fn(r, t, h):
            s = 1.0 if h == "plus" else -1.0
            return (c[0] * np.exp(-r) + c[1] * r * np.exp(-r) * np.sin(t)
                    + s * c[2] * np.exp(-(r - 1) ** 2) + c[3] * np.cos(t))

        sp = radial_split(Field.from_function(grid_small, fn))
        assert np.abs(cap_mean(sp.antiradial)).max() <= 1e-10

    def test_idempotent(self, grid_small):
        f = make_test_field("angular_bump", grid_small)
        sp = radial_split(f)
        sp2 = radial_split(sp.radial)
        assert np.abs(sp2.antiradial.values).max() <= 1e-14
        assert np.allclose(sp2.radial.values, sp.radial.values)

    def test_reconstruction_exact(self, grid_small):
        f = make_test_field("angular_bump", grid_small)
        sp = radial_split(f)
        scale = np.abs(f.values).max()
        assert np.abs(sp.radial.values + sp.antiradial.values
                      - f.values).max() <= 2e-16 * scale

    def test_contraction_exact_discrete(self, grid_small):
        # Jensen with shared quadrature weights: no tolerance needed
        for f in suite_hardy(grid_small):
            sp = radial_split(f)
            for p in (1.0, 2.0):
                assert lp_norm(sp.radial, p) <= lp_norm(f, p) * (1 + 1e-12)
                assert (lp_norm(sp.radial, p, "gradient")
                        <= lp_norm(f, p, "gradient") * (1 + 1e-12))

    def test_even_odd_matches_antiradial_verdicts(self, grid_small):
        # at the critical exponent the anti-radial part and the odd part
        # (f - f o S)/2, S swapping the sheets, agree on divergence
        for beta in (0.25, 1.0):
            f = make_test_field("logcounter", grid_small, beta=beta)
            fa = radial_split(f).antiradial
            fo = 0.5 * (f.values - f.values[::-1])
            va = integrability_gate(samples(fa, "inv_r"), grid_small, 2.0)[0]
            vo = integrability_gate(np.abs(fo) / grid_small.r[None, :, None],
                                    grid_small, 2.0)[0]
            assert va == vo


class TestPoincare:
    def test_ball_constant_zero(self, grid_small):
        f = make_test_field("constant", grid_small, c=1.0)
        assert poincare_ball_ratio(f, (0.0, 1.0), 0.3, 1.0) == 0.0

    def test_ball_interior_stable(self, dom2):
        vals = []
        for nt in (48, 96):
            grid = PolarGrid.cone(dom2, nr=300, nt=nt, r_max=4.0, r_min=1e-4)
            f = Field.from_function(grid, lambda r, t, h: r * np.sin(t))
            vals.append(poincare_ball_ratio(f, (0.0, 1.0), 0.25, 1.0))
        assert vals[0] == pytest.approx(vals[1], rel=0.05)
        assert 0.0 < vals[1] < 10.0

    def test_ball_fails_at_vertex_for_low_exponent(self, grid_small):
        # locally constant sign field: zero gradient, order-one oscillation
        f = make_test_field("jump", grid_small)
        chi = Field(grid_small,
                    np.where(grid_small.r[None, :, None] < 0.05,
                             np.sign(f.values), 0.0))
        ratio = poincare_ball_ratio(chi, (0.0, 0.01), 0.02, 1.0)
        assert ratio == INF

    def test_rows_slope_changes_sign_at_dimension(self, grid_small):
        # ratio ~ eps^{1-n/q}: blows up below the dimension, decays above it
        rows = list(poincare_rows(grid_small, (1.5, 4.0), (1e-2, 1e-3, 1e-4)))
        assert [r["profile"] for r in rows] == ["linear", "linear"]
        assert rows[0]["slope"] < 0.0 < rows[1]["slope"]
        assert np.all(np.diff(rows[0]["ratio"]) > 0)

    def test_rows_log_profile_only_at_dimension(self, grid_small):
        rows = list(poincare_rows(grid_small, (2.0,), (1e-2, 1e-3)))
        assert [r["profile"] for r in rows] == ["linear", "log"]
        # ratio^2 ~ log(1/eps)/2 while the grid resolves eps^2
        law = rows[1]["ratio"] ** 2 / np.log(1.0 / rows[1]["eps"])
        assert law[1] == pytest.approx(law[0], rel=0.02)
        assert 0.45 < law.mean() < 0.6


class TestDivergenceTables:
    def test_logcounter_beta_quarter_slope(self, grid_default):
        from conelab.fields import log_log_increment_slope
        f = make_test_field("logcounter", grid_default, beta=0.25)
        r_mins, P = partial_norm_power_table(samples(f, "inv_r"), grid_default, 2.0)
        s = log_log_increment_slope(r_mins, P)
        assert s == pytest.approx(0.5, abs=0.05)

    def test_gate_verdicts(self, grid_default):
        verdicts = {}
        for beta in (0.25, 0.5, 1.0):
            f = make_test_field("logcounter", grid_default, beta=beta)
            verdicts[beta] = integrability_gate(samples(f, "inv_r"), grid_default,
                                                2.0)[0]
        assert verdicts == {0.25: False, 0.5: False, 1.0: True}

    def test_table_past_overflow(self, grid_small):
        # 1e200**2 overflows a double, but each term v^2 w fits: the table
        # factors the cell measure into the power where the power overflows
        g = grid_small
        one = np.ones(g.shape)
        _, P1 = partial_norm_power_table(one, g, 2.0)
        with np.errstate(over="raise"):   # no warning escapes the table
            _, P = partial_norm_power_table(1e100 * one, g, 2.0)
        assert np.all(np.isfinite(P)) and P[-1] > 0
        assert P == pytest.approx(1e200 * P1, rel=1e-12)
        # a table of sums past the largest double holds inf, not NaN
        with np.errstate(over="raise"):
            _, Pinf = partial_norm_power_table(1e300 * one, g, 2.0)
        assert np.isinf(Pinf[-1]) and not np.isnan(Pinf).any()

    def test_table_bits_unchanged_without_overflow(self, grid_small):
        g = grid_small
        v = samples(make_test_field("logcounter", g, beta=0.25), "inv_r")
        want = v**2 * g.cell_measure[None]
        tail = np.cumsum(want.sum(axis=(0, 2))[::-1])[::-1]
        r_mins, P = partial_norm_power_table(v, g, 2.0)
        idx = np.minimum(np.searchsorted(g.r, r_mins), g.nr - 1)
        assert P.tobytes() == tail[idx].tobytes()

    def test_sup_table_matches_bruteforce(self, grid_small):
        # p = inf: the running sup of |v|/r over the rings with r >= r_min'
        g = grid_small
        for f in (make_test_field("jump", g),
                  make_test_field("logcounter", g, beta=0.25)):
            v = radial_split(f).antiradial.values
            r_mins, P = partial_norm_power_table(
                samples(radial_split(f).antiradial, "inv_r"), g, INF)
            w = np.abs(v) / g.r[None, :, None]
            for r0, got in zip(r_mins, P):
                assert got == w[:, g.r >= r0, :].max()


def load_field(path: str) -> Field:
    """Read back a `save_field` dump: the oracle of its round trip."""
    with open(path) as fh:
        raw = [ln.strip() for ln in fh if ln.strip()]
    head = {}
    body_start = 0
    for i, ln in enumerate(raw):
        if "=" in ln and " " not in ln:
            k, v = ln.split("=", 1)
            head[k] = v
            body_start = i + 1
        else:
            break
    n, nr = int(head["n"]), int(head["K"])
    jtot, q, rmax = int(head["J"]), float(head["q"]), float(head["rmax"])
    omega, variant = float(head["omega"]), head["variant"]
    r_min = rmax * q ** (nr - 1)
    if variant == "fullspace":
        # the cone grid whose full-plane grid has jtot angular cells
        dom = ConeDomain(n, omega, "double")
        grid = PolarGrid.fullplane(PolarGrid.cone(
            dom, nr=nr, nt=round(jtot * omega / math.pi), r_max=rmax, r_min=r_min))
    else:
        dom = ConeDomain(n, omega, variant)
        grid = PolarGrid.cone(dom, nr=nr, nt=jtot // 2, r_max=rmax, r_min=r_min)
    vals = np.empty(grid.shape)
    order = sorted(range(grid.nhalves),
                   key=lambda i: grid.global_theta(grid.halves[i])[0])
    rows = [ln.split() for ln in raw[body_start:]]
    if len(rows) != nr * jtot:
        raise ValueError("sample count does not match the header")
    pos = 0
    for k in range(nr - 1, -1, -1):
        for i in order:
            for j in range(grid.nt):
                vals[i, k, j] = float(rows[pos][2])
                pos += 1
    return Field(grid, vals)


class TestFieldPlumbing:
    def test_shape_mismatch(self, grid_small):
        with pytest.raises(ValueError):
            Field(grid_small, np.zeros((2, 3, 3)))

    def test_unknown_family(self, grid_small):
        with pytest.raises(ValueError):
            make_test_field("nope", grid_small)

    def test_logcounter_zero_at_unit_radius(self, dom2):
        # |ln r|^-beta is infinite at r = 1, outside the cutoff's support
        grid = PolarGrid.cone(dom2, nr=3, nt=3, r_max=1.0)
        assert grid.r[-1] == 1.0
        f = make_test_field("logcounter", grid, beta=0.25)
        assert np.all(f.values[:, -1, :] == 0.0)

    def test_vertex_limits_declared(self, grid_small):
        # jump is +1 and -1 at the vertex, lipschitz_compact 1 on both cones
        j = make_test_field("jump", grid_small)
        assert tuple(j.values[:, 0, :].mean(axis=1)) == (1.0, -1.0)
        c = make_test_field("lipschitz_compact", grid_small)
        assert np.all(c.values[:, 0, :] == 1.0 - grid_small.r_min)
        # so the quadrant table serves jump up to the dimension only
        ranges = {name: r for name, _, r in QUADRANT_MEMBERS}
        assert ranges["jump"] == ("below", "at")
        assert "above" in ranges["lipschitz_compact"]

    def test_plateau_stays_in_the_unit_interval(self):
        # 1 - smoothstep(t) rounds below 0 for t just under 1
        vals = plateau(np.linspace(0.99, 1.0, 200_001), 0.0, 1.0)
        assert vals.min() == 0.0 and vals.max() <= 1.0
        assert plateau(0.4999999, 0.25, 0.5) == 0.0

    def test_innermost_samples_approach_declared_limits(self, dom2):
        # the vertex limits on the plus and minus cones
        limits = {"jump": (1.0, -1.0), "lipschitz_compact": (1.0, 1.0),
                  "logcounter": (0.0, 0.0)}
        gaps = {}
        for rmin in (1e-4, 1e-8):
            grid = PolarGrid.cone(dom2, nr=200, nt=24, r_max=40.0, r_min=rmin)
            for name, limit in limits.items():
                f = make_test_field(name, grid)
                inner = f.values[:, 0, :].mean(axis=1)
                gaps.setdefault(name, []).append(np.abs(inner - limit).max())
        for name, (coarse, deep) in gaps.items():
            assert deep <= coarse, name          # refinement never regresses
        assert gaps["logcounter"][1] < 0.6 * gaps["logcounter"][0]

    def test_dump_roundtrip(self, dom2, tmp_path):
        grid = PolarGrid.cone(dom2, nr=20, nt=8, r_max=2.0, r_min=0.01)
        f = make_test_field("angular_bump", grid)
        path = tmp_path / "field.txt"
        save_field(f, str(path))
        g = load_field(str(path))
        assert g.grid.shape == f.grid.shape
        assert np.allclose(g.values, f.values, rtol=0, atol=0)
        head = path.read_text().splitlines()[:7]
        assert head[0] == "n=2" and head[3] == "K=20" and head[4] == "J=16"

    @given(a=st.floats(-3, 3), b=st.floats(-3, 3))
    @settings(max_examples=30, deadline=None)
    def test_split_linearity(self, grid_small, a, b):
        f = make_test_field("angular_bump", grid_small)
        g = make_test_field("jump", grid_small)
        lhs = radial_split(a * f + b * g).radial.values
        rhs = a * radial_split(f).radial.values + b * radial_split(g).radial.values
        assert np.allclose(lhs, rhs, atol=1e-12)


def _never():
    raise AssertionError("built on a repeat call")


class TestFieldCache:
    def test_only_fields_touches_the_cache(self):
        # Field.cached is the one entry point, so that its hits can be counted
        src = pathlib.Path(__file__).resolve().parents[1] / "src" / "conelab"
        assert [p.name for p in sorted(src.glob("*.py"))
                if "_cache" in p.read_text()] == ["fields.py"]

    def test_repeat_calls_return_the_stored_object(self, dom2):
        grid = PolarGrid.cone(dom2, nr=40, nt=12, r_max=40.0, r_min=4e-8)
        full = PolarGrid.fullplane(grid)
        f = make_test_field("angular_bump", grid)
        ops = [lambda: gradient(f), lambda: rearrange(f),
               lambda: rearrange(f, "inv_r"), lambda: rearrange(f, "gradient"),
               lambda: maximal_function(f, "plus"),
               lambda: maximal_table(f, "plus"),
               lambda: extend(f, 1.0, full), lambda: wp_norm(f, 1.5),
               lambda: radial_split(f)]
        for op in ops:
            assert op() is op()
        # one extension per full grid: a second grid does not evict the first
        Ef = extend(f, 1.0, full)
        other = extend(f, 1.0, PolarGrid.fullplane(grid))
        assert other is not Ef and extend(f, 1.5, full) is Ef
        # the round-trip difference is kept per Ef and serves every exponent
        rt = roundtrip_error(f, Ef, 1.0)
        diff = f.cached(("roundtrip", Ef), _never)
        assert roundtrip_error(f, Ef, 1.0) == rt
        roundtrip_error(f, Ef, 2.0)
        assert f.cached(("roundtrip", Ef), _never) is diff
        assert np.array_equal(diff.values, (restrict(Ef, grid) - f).values)

    def test_pierre_extension_per_full_grid(self):
        grid = PolarGrid.cone(ConeDomain(2, math.pi / 4, "quadrant"), nr=40,
                              nt=12, r_max=4.0, r_min=4e-6)
        full = PolarGrid.fullplane(grid)
        f = make_test_field("angular_bump", grid)
        Ef = extend_pierre_2d(f, full)
        assert extend_pierre_2d(f, full) is Ef
        other = extend_pierre_2d(f, PolarGrid.fullplane(grid))
        assert other is not Ef and extend_pierre_2d(f, full) is Ef

    def test_derived_fields_start_empty(self, grid_small):
        f = make_test_field("angular_bump", grid_small)
        rearrange(f, "gradient")
        assert f._cache
        assert not (f - f)._cache
        assert not f.with_values(f.values)._cache

    def test_gradient_table_is_the_magnitude_table(self, grid_small):
        f = make_test_field("jump", grid_small)
        gm = gradient(f)
        want = rearrange_samples(
            gm, np.broadcast_to(grid_small.cell_measure[None], gm.shape))
        got = rearrange(f, "gradient")
        for name in ("values", "widths", "cum", "integral"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _meshgrid_from_function(cls, grid, fn, name=""):
    """The per-half meshgrid evaluation that Field.from_function's broadcast
    axes replace, kept as their oracle."""
    sheets = []
    for h in grid.halves:
        rr, tt = np.meshgrid(grid.r, grid.theta, indexing="ij")
        sheets.append(np.asarray(fn(rr, tt, h), dtype=float))
    return cls(grid, np.stack(sheets), name=name)


@pytest.fixture(scope="module")
def quad_small():
    return PolarGrid.cone(ConeDomain(2, math.pi / 4, "quadrant"), nr=120, nt=32,
                          r_max=4.0, r_min=4e-7)


class TestFromFunction:
    """Broadcast (nr, 1) radii and (1, nt) angles give every field bit for
    bit what the per-half meshes gave."""

    NAMED = (("logcounter", {"beta": 0.25}), ("logcounter", {"beta": 1.0}),
             ("radial_exp", {}), ("radial_power", {"a": 0.0}),
             ("radial_power", {"a": 0.5}), ("radial_power", {"a": -0.5}),
             ("angular_bump", {}), ("jump", {}), ("lipschitz_compact", {}),
             ("constant", {"c": 2.5}))

    @staticmethod
    def assert_meshgrid_equal(monkeypatch, build):
        new = build()
        with monkeypatch.context() as m:
            m.setattr(Field, "from_function", classmethod(_meshgrid_from_function))
            old = build()
        assert len(new) == len(old)
        for a, b in zip(new, old):
            assert a.name == b.name
            assert a.values.shape == b.values.shape
            assert a.values.tobytes() == b.values.tobytes(), a.name

    @pytest.mark.parametrize("grid_name", ["grid_small", "grid3_small",
                                           "full_small", "quad_small"])
    def test_named_fields(self, request, monkeypatch, grid_name):
        grid = request.getfixturevalue(grid_name)
        self.assert_meshgrid_equal(monkeypatch, lambda: [
            make_test_field(name, grid, **params) for name, params in self.NAMED])

    @pytest.mark.parametrize("cone_name", ["grid_small", "quad_small"])
    def test_fullplane_suite(self, request, monkeypatch, cone_name):
        full = PolarGrid.fullplane(request.getfixturevalue(cone_name))
        self.assert_meshgrid_equal(monkeypatch, lambda: list(suite_fullplane(full)))

    @pytest.mark.parametrize("grid_name", ["grid_small", "quad_small"])
    def test_pierre_linear_sum(self, request, monkeypatch, grid_name):
        grid = request.getfixturevalue(grid_name)

        def xplusy(r, t, h):    # check_pierre's x + y
            ax = grid.domain.axis_angle(h)
            return r * (np.cos(ax + t) + np.sin(ax + t))

        self.assert_meshgrid_equal(monkeypatch, lambda: [
            Field.from_function(grid, xplusy, name="linear_sum")])
