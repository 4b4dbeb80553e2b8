"""Placeholder: the ``fast`` backend is the statevector simulator."""


class FastUCCEvaluator:
    """Kept only because the frozen end-to-end benchmark's tracer
    (``benchmarks/e2e/tracing.py``) wraps ``FastUCCEvaluator.energy`` in
    every traced pass.  Nothing calls it, so its ``simulators.fast_*``
    metrics read 0.  Delete with that tracer entry."""

    def energy(self, theta):
        raise NotImplementedError("'fast' is the statevector backend")
