"""Tests for the classical optimizers on analytic objectives."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.vqe.optimizers import minimize_adam, minimize_scipy, minimize_spsa


def quadratic(x):
    return float(np.sum((x - 1.5) ** 2))


def rosenbrock2(x):
    return float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)


class TestScipyBridge:
    def test_cobyla_quadratic(self):
        res = minimize_scipy(quadratic, np.zeros(3), method="COBYLA")
        assert res.fun == pytest.approx(0.0, abs=1e-6)
        assert np.allclose(res.x, 1.5, atol=1e-3)
        assert res.n_evaluations == len(res.history)

    def test_nelder_mead(self):
        res = minimize_scipy(rosenbrock2, np.array([-1.0, 1.0]),
                             method="Nelder-Mead", max_iterations=5000)
        assert res.fun < 1e-6

    def test_history_monotone_tail(self):
        res = minimize_scipy(quadratic, np.ones(2) * 5)
        assert min(res.history) <= res.history[0]


class TestSPSA:
    def test_converges_on_quadratic(self):
        res = minimize_spsa(quadratic, np.zeros(4), max_iterations=400,
                            a=0.5, seed=1)
        assert res.fun < 0.05
        # 2 evaluations per iteration + final
        assert res.n_evaluations == 2 * res.n_iterations + 1

    def test_deterministic_with_seed(self):
        r1 = minimize_spsa(quadratic, np.zeros(2), max_iterations=50, seed=5)
        r2 = minimize_spsa(quadratic, np.zeros(2), max_iterations=50, seed=5)
        assert np.allclose(r1.x, r2.x)
        assert r1.fun == r2.fun

    def test_plateau_stops_early(self):
        res = minimize_spsa(lambda x: 0.0, np.zeros(2), max_iterations=500,
                            tolerance=1e-12, seed=0)
        assert res.n_iterations < 500

    def test_vector_required(self):
        with pytest.raises(ValidationError):
            minimize_spsa(quadratic, np.zeros((2, 2)))


def quadratic_gradient(x):
    return 2.0 * (x - 1.5)


class TestAdam:
    def test_converges_on_quadratic(self):
        res = minimize_adam(quadratic, np.zeros(3), max_iterations=300,
                            learning_rate=0.2)
        assert res.fun < 1e-4

    def test_early_stop_on_tolerance(self):
        res = minimize_adam(quadratic, np.full(2, 1.5), max_iterations=100,
                            tolerance=1e-6)
        assert res.converged
        assert res.n_iterations < 100

    def test_budget_exhaustion_flagged(self):
        res = minimize_adam(rosenbrock2, np.array([-1.5, 2.0]),
                            max_iterations=3, tolerance=0.0)
        assert not res.converged
        assert res.n_iterations == 3

    def test_converges_with_injected_gradient(self):
        res = minimize_adam(quadratic, np.zeros(3), max_iterations=300,
                            learning_rate=0.2,
                            gradient=quadratic_gradient)
        assert res.fun < 1e-4
        # no finite differencing: only the per-step f(x) is counted
        assert res.n_evaluations == res.n_iterations

    def test_trajectory_identical_for_value_identical_sources(self):
        """The ISSUE 7 regression pin: the adam update sequence is a
        pure function of the gradient *values*, so sources that return
        the same numbers yield bitwise identical trajectories no matter
        how those numbers were produced."""
        sources = {
            "direct": quadratic_gradient,
            # detour through a different computation path (per-component
            # loop + list round-trip) that lands on the same values
            "roundabout": lambda x: np.asarray(
                [2.0 * (float(xi) - 1.5) for xi in x]),
        }
        runs = {name: minimize_adam(quadratic, np.zeros(3),
                                    max_iterations=40, tolerance=0.0,
                                    gradient=g)
                for name, g in sources.items()}
        a, b = runs["direct"], runs["roundabout"]
        assert np.array_equal(a.x, b.x)
        assert a.history == b.history
        assert a.fun == b.fun

    def test_fd_fallback_matches_explicit_fd_source(self):
        """The historic built-in finite differences and an injected FD
        callable with the same step produce the same trajectory (the
        fallback is just a default source, not a different optimizer)."""
        step = 1e-4

        def fd_gradient(x):
            g = np.zeros_like(x)
            for i in range(x.size):
                e = np.zeros_like(x)
                e[i] = step
                g[i] = (quadratic(x + e) - quadratic(x - e)) / (2.0 * step)
            return g

        builtin = minimize_adam(quadratic, np.zeros(2), max_iterations=30,
                                tolerance=0.0, fd_step=step)
        injected = minimize_adam(quadratic, np.zeros(2), max_iterations=30,
                                 tolerance=0.0, gradient=fd_gradient)
        assert np.array_equal(builtin.x, injected.x)
        assert builtin.history == injected.history
        # the built-in counts its 2p probe evaluations; the injected
        # callable is opaque so only the per-step f(x) is visible
        assert builtin.n_evaluations > injected.n_evaluations


class TestScipyGradientBridge:
    def test_lbfgsb_consumes_analytic_jacobian(self):
        res = minimize_scipy(quadratic, np.zeros(3), method="L-BFGS-B",
                             gradient=quadratic_gradient)
        assert res.fun == pytest.approx(0.0, abs=1e-10)
        assert np.allclose(res.x, 1.5, atol=1e-5)

    def test_gradient_free_method_rejects_gradient(self):
        with pytest.raises(ValidationError):
            minimize_scipy(quadratic, np.zeros(2), method="COBYLA",
                           gradient=quadratic_gradient)

    def test_jacobian_calls_are_counted_apart_from_energies(self):
        """Analytic gradients must not vanish from the accounting: the
        energy count alone falls once scipy stops differentiating."""
        calls = []

        def gradient(x):
            calls.append(x.copy())
            return quadratic_gradient(x)

        res = minimize_scipy(quadratic, np.zeros(3), method="SLSQP",
                             gradient=gradient)
        assert res.n_gradient_evaluations == len(calls) > 0
        assert res.n_evaluations == len(res.history)
        own = minimize_scipy(quadratic, np.zeros(3), method="SLSQP")
        assert own.n_gradient_evaluations == 0
        assert own.n_evaluations > res.n_evaluations

    def test_adam_counts_one_injected_gradient_per_iteration(self):
        res = minimize_adam(quadratic, np.zeros(3), max_iterations=7,
                            tolerance=0.0, gradient=quadratic_gradient)
        assert res.n_gradient_evaluations == res.n_iterations == 7
        own = minimize_adam(quadratic, np.zeros(3), max_iterations=7,
                            tolerance=0.0)
        assert own.n_gradient_evaluations == 0
        assert own.n_evaluations == 7 * (1 + 2 * 3)
