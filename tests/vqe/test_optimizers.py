"""Tests for the classical optimizers on analytic objectives."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.vqe import optimizers
from repro.vqe.optimizers import minimize_adam, minimize_scipy


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

    @pytest.mark.parametrize("method", ["L-BFGS-B", "Nelder-Mead"])
    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_below_one_is_rejected(self, method, budget):
        """It used to run one iteration regardless."""
        with pytest.raises(ValidationError, match="max_iterations"):
            minimize_scipy(quadratic, np.zeros(2), method=method,
                           max_iterations=budget)

    def test_nelder_mead(self):
        res = minimize_scipy(rosenbrock2, np.array([-1.0, 1.0]),
                             method="Nelder-Mead", max_iterations=5000)
        assert res.fun < 1e-6

    def test_history_monotone_tail(self):
        res = minimize_scipy(quadratic, np.ones(2) * 5)
        assert min(res.history) <= res.history[0]


def quadratic_gradient(x):
    return 2.0 * (x - 1.5)


class TestAdam:
    def test_converges_on_quadratic(self, monkeypatch):
        monkeypatch.setattr(optimizers, "ADAM_LEARNING_RATE", 0.2)
        res = minimize_adam(quadratic, np.zeros(3), max_iterations=300)
        assert res.fun < 1e-4

    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_below_one_is_rejected(self, budget):
        """It used to raise a bare IndexError from an empty history."""
        with pytest.raises(ValidationError, match="max_iterations"):
            minimize_adam(quadratic, np.zeros(2), max_iterations=budget)

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

    def test_converges_with_injected_gradient(self, monkeypatch):
        monkeypatch.setattr(optimizers, "ADAM_LEARNING_RATE", 0.2)
        res = minimize_adam(quadratic, np.zeros(3), max_iterations=300,
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

    def test_fd_fallback_matches_explicit_fd_source(self, monkeypatch):
        """The historic built-in finite differences and an injected FD
        callable with the same step produce the same trajectory (the
        fallback is just a default source, not a different optimizer)."""
        step = 1e-4
        monkeypatch.setattr(optimizers, "ADAM_FD_STEP", step)

        def fd_gradient(x):
            g = np.zeros_like(x)
            for i in range(x.size):
                e = np.zeros_like(x)
                e[i] = step
                g[i] = (quadratic(x + e) - quadratic(x - e)) / (2.0 * step)
            return g

        builtin = minimize_adam(quadratic, np.zeros(2), max_iterations=30,
                                tolerance=0.0)
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


def saddle(x):
    """x0^2 - x1^2 + x1^4: a saddle at the origin, minima -1/4 at
    x1 = +-1/sqrt(2)."""
    return float(x[0] ** 2 - x[1] ** 2 + x[1] ** 4)


def saddle_gradient(x):
    return np.array([2.0 * x[0], -2.0 * x[1] + 4.0 * x[1] ** 3])


class TestSaddleEscapeRestart:
    """A gradient method that reports success is restarted once from a
    fixed kick; the restart is kept only when it lands lower."""

    @pytest.fixture
    def runs(self, monkeypatch):
        """Every scipy call minimize_scipy makes, in order."""
        from scipy import optimize as sopt

        from repro.vqe import optimizers

        seen = []
        minimize = sopt.minimize

        def spy(*args, **kwargs):
            seen.append(minimize(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(optimizers.sopt, "minimize", spy)
        return seen

    def test_saddle_is_escaped(self, runs):
        """The gradient vanishes at the start: the first run stops there
        with success, the kicked restart finds a minimum and is kept."""
        res = minimize_scipy(saddle, np.zeros(2), method="L-BFGS-B",
                             gradient=saddle_gradient)
        first, again = runs
        assert first.success and first.fun == 0.0
        assert res.fun == pytest.approx(-0.25, abs=1e-10)
        assert np.array_equal(res.x, again.x)
        assert res.converged

    def test_both_runs_are_counted(self, runs):
        res = minimize_scipy(saddle, np.zeros(2), method="L-BFGS-B",
                             gradient=saddle_gradient)
        assert len(runs) == 2
        assert res.n_evaluations == sum(r.nfev for r in runs)
        assert res.n_gradient_evaluations == sum(r.njev for r in runs)
        assert res.n_iterations == sum(r.nit for r in runs)
        assert len(res.history) == res.n_evaluations

    def test_restart_runs_on_the_remaining_budget(self, runs):
        minimize_scipy(rosenbrock2, np.zeros(2), method="BFGS",
                       max_iterations=200)
        first, again = runs
        assert first.success
        assert again.nit <= 200 - first.nit

    @pytest.mark.parametrize("method", ["L-BFGS-B", "SLSQP", "BFGS"])
    def test_no_restart_needed_returns_the_first_run_bitwise(self, runs,
                                                             method):
        """On a convex quadratic the restart cannot gain more than the
        tolerance: x and value are the first run's, bit for bit."""
        res = minimize_scipy(quadratic, np.zeros(3), method=method,
                             gradient=quadratic_gradient)
        first, _ = runs
        assert np.array_equal(res.x, first.x)
        assert res.fun == first.fun
        assert res.message == str(first.message)
        assert res.n_evaluations > first.nfev

    @pytest.mark.parametrize("method", ["L-BFGS-B", "SLSQP", "BFGS"])
    def test_budget_stopped_run_never_restarts(self, runs, method):
        res = minimize_scipy(rosenbrock2, np.array([-1.0, 1.0]),
                             method=method, max_iterations=3)
        (only,) = runs
        assert not only.success and not res.converged
        assert res.n_evaluations == only.nfev
        assert res.n_iterations == only.nit == 3

    @pytest.mark.parametrize("method", ["L-BFGS-B", "SLSQP", "BFGS"])
    def test_failed_run_never_restarts(self, runs, method):
        """A jacobian pointing uphill makes the line search fail with
        budget to spare: only success earns the restart."""
        res = minimize_scipy(quadratic, np.zeros(3), method=method,
                             gradient=lambda x: -quadratic_gradient(x))
        (only,) = runs
        assert not only.success and not res.converged
        assert only.nit < 2000
        assert res.n_evaluations == only.nfev

    def test_gradient_free_methods_never_restart(self, runs):
        minimize_scipy(quadratic, np.zeros(3), method="COBYLA")
        assert len(runs) == 1

    def test_kick_is_fixed(self):
        """The same vector in every call (and so in every process)."""
        from repro.vqe.optimizers import RESTART_KICK, _restart_kick

        kick = _restart_kick(14)
        assert np.array_equal(kick, _restart_kick(14))
        assert np.array_equal(np.abs(kick), np.full(14, RESTART_KICK))
        assert np.array_equal(_restart_kick(20)[:14], kick)


class TestCobylaBudget:
    @pytest.mark.parametrize("budget", [1, 4])
    def test_budget_below_n_plus_two_is_rejected(self, budget):
        """PRIMA would warn and run n + 2 = 5 evaluations anyway."""
        with pytest.raises(ValidationError, match="n_parameters \\+ 2"):
            minimize_scipy(quadratic, np.zeros(3), method="COBYLA",
                           max_iterations=budget)

    def test_budget_of_n_plus_two_is_kept(self):
        res = minimize_scipy(quadratic, np.zeros(3), method="COBYLA",
                             max_iterations=5)
        assert res.n_evaluations == 5
