import numpy as np
import pytest

from conelab.density import (ApproxParams, approximation_errors, chi_profile,
                             convergence_table, corrector_times_cutoff_norm, eta_gradient_norm,
                             eta_profile, fit_decay_slope, log_corrector,
                             vertex_cutoff)
from conelab.fieldlib import make_test_field
from conelab.fields import lp_norm


class TestParams:
    def test_delta_relation(self):
        p = ApproxParams(eps=1e-4, k=4.0)
        assert p.delta == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ApproxParams(eps=2.0)
        with pytest.raises(ValueError):
            ApproxParams(eps=0.5, k=0.5)


class TestProfiles:
    def test_chi_support(self):
        r = np.linspace(0, 2, 500)
        chi = chi_profile(r, 1.0)
        assert np.all(chi[r <= 0.5] == 1.0)
        assert np.all(chi[r >= 1.0] == 0.0)
        assert np.all((0.0 <= chi) & (chi <= 1.0))

    def test_eta_branches_agree(self):
        eta = eta_profile(np.array([0.1, 0.1000000001]), 0.1)
        assert eta[0] == pytest.approx(eta[1], rel=1e-6)
        r = np.geomspace(1e-12, 0.5, 200)
        vals = eta_profile(r, 0.2)
        assert np.all((0.0 <= vals) & (vals <= 1.0))


class TestVertexCutoff:
    def test_exact_support(self, grid_small):
        f = make_test_field("lipschitz_compact", grid_small)
        eps = 0.1
        fc = vertex_cutoff(f, eps)
        inner = grid_small.r <= eps / 2
        assert np.abs(fc.values[:, inner, :]).max() == 0.0
        outer = grid_small.r >= eps
        assert np.array_equal(fc.values[:, outer, :], f.values[:, outer, :])

    def test_below_resolution_rejected(self, grid_small):
        f = make_test_field("lipschitz_compact", grid_small)
        with pytest.raises(ValueError):
            vertex_cutoff(f, grid_small.r_min)

    def test_first_order_rate_below_dimension(self, grid_small):
        f = make_test_field("lipschitz_compact", grid_small)
        eps_list = [0.2, 0.1, 0.05, 0.025]
        errs = [sum(approximation_errors(f, vertex_cutoff(f, e), 1.0))
                for e in eps_list]
        assert fit_decay_slope(eps_list, errs) == pytest.approx(1.0, abs=0.15)

    def test_gradient_plateau_at_dimension(self, grid_small):
        f = make_test_field("lipschitz_compact", grid_small)
        errs = [approximation_errors(f, vertex_cutoff(f, e), 2.0)[1]
                for e in (1e-2, 1e-3, 1e-4)]
        assert errs[-1] > 0.8 * errs[0] > 0.0

    def test_decay_above_dimension_for_vanishing_field(self, grid_small):
        f = make_test_field("radial_exp", grid_small)
        errs = [approximation_errors(f, vertex_cutoff(f, e), 4.0)[1]
                for e in (0.2, 0.05, 0.0125)]
        assert errs[-1] < 0.55 * errs[0]


class TestCorrector:
    def test_inverse_k_law(self, grid_small):
        f = make_test_field("lipschitz_compact", grid_small)
        scaled = [k * corrector_times_cutoff_norm(f, 1e-5, k, 2.0)
                  for k in (2.0, 4.0, 8.0, 16.0)]
        assert (max(scaled) - min(scaled)) / np.mean(scaled) <= 0.15

    def test_eta_gradient_vanishes_with_eps(self, grid_small):
        norms = [eta_gradient_norm(grid_small, e, 8.0, 2.0)
                 for e in (1e-2, 1e-4, 1e-6)]
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_corrected_error_decreases(self, grid_small):
        f = make_test_field("lipschitz_compact", grid_small)
        errs = [sum(approximation_errors(f, log_corrector(f, e, 8.0), 2.0))
                for e in (1e-2, 1e-4, 1e-6)]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            eta_profile(np.array([0.1]), 1.0)


class TestTables:
    def test_supported_away_from_vertex(self, grid_small):
        f = vertex_cutoff(make_test_field("lipschitz_compact", grid_small), 0.2)
        rows = convergence_table(f, 1.0, [0.02, 0.01])
        for row in rows:
            assert row["l_p_err"] == 0.0 and row["grad_err"] == 0.0

    def test_monotone_trend_flags(self, grid_small):
        f = make_test_field("lipschitz_compact", grid_small)
        rows = convergence_table(f, 1.0, [0.2, 0.1, 0.05])
        assert [r["trend"] for r in rows] == ["start", "decreasing", "decreasing"]

    def test_corrected_mode_needs_k(self, grid_small):
        # the k values are what selects the corrector, so a corrected table
        # without them cannot be asked for; its rows carry their k
        f = make_test_field("lipschitz_compact", grid_small)
        rows = convergence_table(f, 2.0, [1e-3, 1e-4], [4.0])
        assert [r["k"] for r in rows] == [4.0, 4.0]
        assert all("k" not in r for r in convergence_table(f, 2.0, [1e-3, 1e-4]))

    def test_approximant_dispatch(self, grid_small):
        # plain rows read the vertex cutoff, corrected rows the log corrector
        f = make_test_field("lipschitz_compact", grid_small)
        (plain,) = convergence_table(f, 2.0, [0.01])
        (corrected,) = convergence_table(f, 2.0, [0.01], [4.0])
        for row, a in ((plain, vertex_cutoff(f, 0.01)),
                       (corrected, log_corrector(f, 0.01, 4.0))):
            assert (row["l_p_err"], row["grad_err"]) == approximation_errors(f, a, 2.0)
        assert plain["grad_err"] != corrected["grad_err"]


class TestObstruction:
    def test_jump_field_stays_far_above_dimension(self, grid_small):
        f = make_test_field("jump", grid_small)
        norm_f = lp_norm(f, 4.0) + lp_norm(f, 4.0, "gradient")
        dists = []
        for eps in (0.25, 0.1, 0.01, 1e-3):
            dists.append(sum(approximation_errors(
                f, vertex_cutoff(f, eps), 4.0)))
        for eps in (0.1, 0.01):
            for k in (2.0, 8.0):
                dists.append(sum(approximation_errors(
                    f, log_corrector(f, eps, k), 4.0)))
        assert min(dists) >= 0.1 * norm_f
