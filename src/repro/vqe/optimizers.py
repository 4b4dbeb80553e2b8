"""Classical optimizers driving the VQE loop.

Two families, both consuming a plain ``f(theta) -> float`` callable:

* :func:`minimize_scipy` - bridge to scipy.optimize (L-BFGS-B, the
  default, / COBYLA / Nelder-Mead / ...), the workhorse for exact
  noiseless simulation;
* :func:`minimize_adam` - Adam on an injected gradient callable (any
  source from :mod:`repro.vqe.gradients`: adjoint, parameter-shift,
  finite differences), falling back to its historic built-in central
  finite differences when none is given.

Gradient-capable entry points (:func:`minimize_adam` and the scipy
gradient methods through ``gradient=``) treat the callable as an opaque
``g(theta) -> ndarray``: the optimizer trajectory depends only on the
gradient *values*, never on how they were produced - the property the
source-parity regression test pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import optimize as sopt

from repro.common.errors import ValidationError


@dataclass
class OptimizationResult:
    """Outcome of a classical minimization run."""

    x: np.ndarray
    fun: float
    n_evaluations: int
    n_iterations: int
    converged: bool
    history: list[float] = field(default_factory=list)
    message: str = ""
    #: calls of an injected ``gradient`` callable (energy evaluations an
    #: optimizer spends on its own finite differences are ``n_evaluations``)
    n_gradient_evaluations: int = 0


#: the one default optimizer of the VQE layer (VQE, Q2Chemistry,
#: the DMET fragment solver, JobSpec, the CLI and minimize_scipy)
DEFAULT_OPTIMIZER = "l-bfgs-b"

#: every optimizer name the VQE layer accepts (VQE, the DMET fragment
#: solver, JobSpec); adam is the one that is not a scipy method
OPTIMIZERS = (DEFAULT_OPTIMIZER, "bfgs", "slsqp", "adam", "cobyla",
              "nelder-mead", "powell")


def check_optimizer(name: str) -> str:
    """``name`` lower-cased; anything outside :data:`OPTIMIZERS` is a
    :class:`ValidationError`, so a typo fails where it is set, not at the
    first run."""
    key = name.lower()
    if key not in OPTIMIZERS:
        raise ValidationError(
            f"unknown optimizer {name!r}; expected one of {OPTIMIZERS}")
    return key


#: scipy methods that consume an analytic jacobian when one is supplied
SCIPY_GRADIENT_METHODS = ("L-BFGS-B", "BFGS", "SLSQP", "CG")

#: size of the saddle-escape kick (every parameter moves by +-1e-3) and
#: the seed of its signs: a fixed seed, so every process kicks alike
RESTART_KICK = 1e-3
_RESTART_SEED = 0


def _restart_kick(n: int) -> np.ndarray:
    """The saddle-escape step: +-RESTART_KICK per parameter, signs from
    a fixed seed (the same vector in every process)."""
    signs = np.random.default_rng(_RESTART_SEED).choice([-1.0, 1.0], size=n)
    return RESTART_KICK * signs


def minimize_scipy(f: Callable[[np.ndarray], float], x0: np.ndarray, *,
                   method: str = DEFAULT_OPTIMIZER, tolerance: float = 1e-8,
                   max_iterations: int = 2000,
                   gradient: Callable[[np.ndarray], np.ndarray] | None = None
                   ) -> OptimizationResult:
    """Minimize with scipy; records an energy history via a wrapper.

    ``gradient`` (any :mod:`repro.vqe.gradients` source) is passed as the
    analytic jacobian to the gradient-based methods
    (:data:`SCIPY_GRADIENT_METHODS`); gradient-free methods reject it
    rather than silently ignoring an expensive callable.

    A gradient method that reports success can have stopped at a saddle
    (the gradient vanishes there too; from theta = 0 UCCSD on a stretched
    H4 ring does).  So it is restarted once from x* plus a fixed
    :data:`RESTART_KICK` on the iterations its budget has left, and the
    restart's point is kept only if its value is lower by more than
    ``tolerance``; otherwise the first run's result is returned unchanged.
    Evaluations, gradient calls, iterations and the history count both
    runs.  A run stopped by its budget (or any other failure) is never
    restarted.

    COBYLA's ``max_iterations`` is its evaluation budget, which it cannot
    keep below ``n + 2`` evaluations: a smaller one is a
    :class:`ValidationError`, not a silently raised budget.
    """
    x0 = np.asarray(x0, dtype=float)
    if method.upper() == "COBYLA" and max_iterations < x0.size + 2:
        raise ValidationError(
            f"COBYLA needs max_iterations >= n_parameters + 2 = "
            f"{x0.size + 2} evaluations, got {max_iterations}")
    history: list[float] = []
    calls = [0]
    jac_calls = [0]

    def wrapped(x: np.ndarray) -> float:
        calls[0] += 1
        val = f(np.asarray(x, dtype=float))
        history.append(val)
        return val

    jac = None
    if gradient is not None:
        if method.upper() not in SCIPY_GRADIENT_METHODS:
            raise ValidationError(
                f"scipy method {method!r} is gradient-free; gradient "
                f"sources apply to {SCIPY_GRADIENT_METHODS}"
            )

        def jac(x: np.ndarray) -> np.ndarray:
            jac_calls[0] += 1
            return np.asarray(gradient(np.asarray(x, dtype=float)),
                              dtype=float)

    def run(start: np.ndarray, budget: int):
        return sopt.minimize(wrapped, start, method=method, tol=tolerance,
                             jac=jac, options={"maxiter": budget})

    res = run(x0, max_iterations)
    n_iterations = int(getattr(res, "nit", calls[0]))
    left = max_iterations - n_iterations
    if method.upper() in SCIPY_GRADIENT_METHODS and res.success and left > 0:
        again = run(res.x + _restart_kick(x0.size), left)
        n_iterations += int(again.nit)
        if again.fun < res.fun - tolerance:
            res = again
    return OptimizationResult(
        x=np.asarray(res.x, dtype=float),
        fun=float(res.fun),
        n_evaluations=calls[0],
        n_iterations=n_iterations,
        converged=bool(res.success),
        history=history,
        message=str(res.message),
        n_gradient_evaluations=jac_calls[0],
    )


def minimize_adam(f: Callable[[np.ndarray], float], x0: np.ndarray, *,
                  max_iterations: int = 200, learning_rate: float = 0.05,
                  beta1: float = 0.9, beta2: float = 0.999,
                  eps: float = 1e-8, fd_step: float = 1e-4,
                  tolerance: float = 1e-8,
                  gradient: Callable[[np.ndarray], np.ndarray] | None = None,
                  checkpoint: Callable[[dict], None] | None = None,
                  resume_state: dict | None = None) -> OptimizationResult:
    """Adam on an injected gradient callable.

    ``gradient(theta) -> ndarray`` may come from any source
    (:mod:`repro.vqe.gradients`); when omitted the historic built-in
    central finite differences are used (2p energy evaluations per step,
    counted in ``n_evaluations``; an injected source is called once per
    iteration, reported as ``n_gradient_evaluations``, iterations before a
    resume included).  The update sequence is a pure function
    of the gradient values, so value-identical sources yield bitwise
    identical trajectories.

    ``checkpoint`` (if given) is called after every completed iteration
    with the full optimizer state (theta, first/second moments, energy
    history, evaluation count); ``resume_state`` restores such a snapshot
    and continues at the next iteration, reproducing the uninterrupted
    trajectory bitwise (the moments and theta round-trip byte-exactly
    through :mod:`repro.serve.checkpoint`).
    """
    x = np.asarray(x0, dtype=float).copy()
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    history: list[float] = []
    evals = 0
    counted = [0]
    # an injected source is called exactly once per iteration
    injected = gradient is not None
    if not injected:
        def gradient(xc: np.ndarray) -> np.ndarray:
            g = np.zeros_like(xc)
            for i in range(xc.size):
                e = np.zeros_like(xc)
                e[i] = fd_step
                g[i] = (f(xc + e) - f(xc - e)) / (2.0 * fd_step)
                counted[0] += 2
            return g
    prev = np.inf
    start_k = 1
    if resume_state is not None:
        x = np.asarray(resume_state["x"], dtype=float).copy()
        m = np.asarray(resume_state["m"], dtype=float).copy()
        v = np.asarray(resume_state["v"], dtype=float).copy()
        history = [float(val) for val in resume_state["history"]]
        evals = int(resume_state["n_evaluations"])
        prev = float(resume_state["prev"])
        start_k = int(resume_state["iteration"]) + 1
    for k in range(start_k, max_iterations + 1):
        g = np.asarray(gradient(x), dtype=float)
        evals += counted[0]
        counted[0] = 0
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** k)
        vhat = v / (1 - beta2 ** k)
        x = x - learning_rate * mhat / (np.sqrt(vhat) + eps)
        cur = f(x)
        evals += 1
        history.append(cur)
        if abs(prev - cur) < tolerance:
            return OptimizationResult(
                x=x, fun=float(cur), n_evaluations=evals,
                n_iterations=k, converged=True, history=history,
                message="converged on energy change",
                n_gradient_evaluations=k if injected else 0,
            )
        prev = cur
        if checkpoint is not None:
            checkpoint({
                "iteration": k, "x": x, "m": m, "v": v, "prev": prev,
                "history": list(history), "n_evaluations": evals,
            })
    return OptimizationResult(
        x=x, fun=float(history[-1]), n_evaluations=evals,
        n_iterations=max_iterations, converged=False, history=history,
        message="iteration budget exhausted",
        n_gradient_evaluations=max_iterations if injected else 0,
    )
