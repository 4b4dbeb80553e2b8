"""Gradient sources for VQE: adjoint reverse-mode, parameter-shift, FD.

Every optimizer step needs dE/dtheta for E(theta) = <0|U(theta)' H U(theta)|0>.
Three sources compute it, forming an oracle hierarchy (each validates the
one above it, and the property suite pins their pairwise agreement):

* ``adjoint`` - reverse-mode analytic gradients from **one forward + one
  backward pass** (the differentiable-MPS strategy of arXiv:2211.07983).
  For a parametric gate ``U_k(a)`` with bound angle ``a = mult * theta[idx]``
  and ``dU_k/da = D_k U_k``,

      dE/da = 2 Re <phi_k | D_k | ket_k>,

  where ``ket_k = U_k ... U_1 |0>`` and ``phi_k = U_{k+1}' ... U_N' H U|0>``.
  A rotation ``exp(-i a/2 G_k)`` has ``D_k = -i/2 G_k``, one overlap
  ``Im <phi_k|G_k|ket_k>``; an ``EX`` excitation ``exp(a (T - T+))`` has
  ``D_k = T - T+``, two overlaps (where its eight Pauli rotations took
  eight).
  The forward pass is the evaluator's
  (:meth:`repro.vqe.energy.EnergyEvaluator.prepare`): the state
  ``energy(theta)`` measured is the state the gradient unwinds, and when an
  energy came first at this theta no circuit runs at all.  ``H|psi>`` is
  built once (with the evaluator's compiled observable on statevector, as
  a zip-up MPO application on MPS); the backward sweep then steps both
  states back one gate at a time and accumulates one overlap per
  parametric gate - all P partials from a single backward sweep instead
  of 2P (finite differences) or 2G (parameter shift, G = parametric gate
  count) energy evaluations.  The dense oracle starts from a copy of the
  prepared simulator and *undoes* each gate on both states through that
  simulator's own gate application.  On MPS only the bra is un-evolved:
  the ket is read back from the forward pass's trail
  (:class:`repro.simulators.mps_circuit.ForwardTrail` - the site tensors
  each gate replaced, by reference), so every overlap sees exactly the
  state the forward pass went through.  The overlaps reuse
  the measurement engine's environment-advance kernels
  (:func:`repro.simulators.mps_measure._advance_left` /
  ``_advance_right``) with prefix/suffix environment caches that are
  invalidated only over the support of each rewound gate.  Exact at
  unbounded bond dimension; at truncated D the error is bounded by the
  discarded Schmidt weight (the same budget the energy obeys).
* ``param_shift`` - the gate-wise analytic oracle: every parametric gate's
  *bound angle* is shifted by +-pi/2 (``dE/da = (E(a+pi/2) - E(a-pi/2))/2``,
  exact for involutory generators) and chain-ruled through the multiplier.
  Gate-wise shifting matters because UCCSD shares one theta across many
  rotations with different multipliers - the naive per-parameter 2-point
  shift is *not* exact there.  An ``EX`` gate is expanded into its ``PR``
  rotations first: its generator T - T+ has spectrum {0, +-i}, not +-1.
  Costs 2G energy evaluations (G counted after the expansion).
* ``finite_diff`` - central differences per parameter (2P evaluations);
  works with any energy callable, including the circuit-free "fast"
  ansatz backend.

All three are deterministic functions of (hamiltonian, circuit, theta):
the adjoint path never touches the executor layer, so gradients are
bitwise identical across serial/thread/process executors and any worker
count - the invariant the regression suite pins.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.backends import backend_spec
from repro.circuits.circuit import Circuit
from repro.circuits.gates import COMPOSITE, PARAMETRIC, Gate
from repro.common.errors import ValidationError
from repro.obs import metrics as _obs
from repro.obs import trace as _trace
from repro.operators.pauli import QubitOperator
from repro.simulators.mps import MPS, site_operator_times
from repro.simulators.mps_circuit import ForwardTrail, apply_gate
from repro.simulators.mps_measure import (
    _advance_left,
    _advance_right,
    compiled_mpo,
)
from repro.vqe.energy import finite_parameters

#: valid values for the ``grad`` knob exposed by the VQE layer / CLI
GRADIENT_SOURCES = ("adjoint", "param_shift", "finite_diff")

# observability instruments (no-ops unless `repro.obs` is enabled); every
# counter is a deterministic function of (hamiltonian, circuit, theta), so
# the regression suite pins exact values across worker counts
_G_EVALS = _obs.counter(
    "grad.evaluations", "full gradient evaluations, labelled by source")
_G_FWD = _obs.counter(
    "grad.forward_sweeps",
    "forward passes the adjoint gradient ran itself (none when energy() "
    "had already prepared the state at this theta)")
_G_BWD = _obs.counter(
    "grad.backward_sweeps",
    "adjoint backward passes (one per gradient, all P partials)")
_G_UNDO = _obs.counter(
    "grad.gate_undos",
    "inverse gate applications during backward sweeps (dense: ket + bra; "
    "MPS: bra, plus the ket over gates older than the forward trail)")
_G_CACHED = _obs.counter(
    "grad.cached_tensors",
    "overlap environments in the backward-pass cache, labelled "
    "built (advanced and stored) / reused (served without any advance)")
_G_GEMM = _obs.counter(
    "grad.gemm_calls",
    "GEMM invocations issued by overlap-environment advances")
_G_EQUIV = _obs.counter(
    "grad.eval_equivalents",
    "energy-evaluation equivalents consumed per gradient, labelled by "
    "source (adjoint: the forward pass if the gradient ran it + bra build "
    "+ one backward evolution per un-evolved state: MPS the bra, dense "
    "ket and bra)")


#: the ladder string of T+ from the one of T
_DAGGER = str.maketrans("+-", "-+")


def _angle_derivative(gate: Gate) -> list[tuple[complex, dict[int, str]]]:
    """D with dU/d(angle) = D U, as ``(coefficient, {site: operator})``
    product operators over the characters ``site_operator_times`` knows.

    A rotation exp(-i angle/2 G) has D = -i/2 G - RX/RY/RZ: the one Pauli;
    RZZ: Z on each site; PR: the string's factors.  EX, exp(angle (T - T+)),
    has D = T - T+.
    """
    if gate.name not in PARAMETRIC:
        raise ValidationError(
            f"gate {gate.name!r} has no known generator; cannot "
            f"differentiate it analytically"
        )
    if gate.name == "EX":
        return [(1.0, dict(zip(gate.qubits, gate.pauli))),
                (-1.0, dict(zip(gate.qubits,
                                gate.pauli.translate(_DAGGER))))]
    pauli = gate.pauli if gate.name == "PR" else gate.name[1:]
    return [(-0.5j, dict(zip(gate.qubits, pauli)))]


def _strip_identity(op: QubitOperator) -> QubitOperator:
    """Drop identity terms: constants never contribute to the gradient."""
    return QubitOperator({t: c for t, c in op.terms.items()
                          if not t.is_identity()})


def _inverse(gate: Gate) -> Gate:
    """The bound gate undoing ``gate``: EX/PR(-angle), else the adjoint
    matrix."""
    if gate.name in COMPOSITE:
        return replace(gate, angle=-gate.angle)
    return Gate("U1" if gate.n_qubits == 1 else "U2", gate.qubits,
                unitary=gate.matrix().conj().T)


def n_parametric_gates(circuit: Circuit) -> int:
    """Parametric gate count G (parameter-shift costs 2G evaluations)."""
    return sum(1 for g in circuit.gates if g.param is not None)


# -- dense adjoint (the exact oracle) -----------------------------------------


def _adjoint_dense(evaluator, sim, theta: np.ndarray) -> np.ndarray:
    """Exact adjoint gradient on the dense statevector (the oracle).

    ``sim`` holds |psi(theta)> as the evaluator prepared it; it is copied,
    never changed.  Unwinds the elementary-gate stream the evaluator ran:
    the parameter of an ``EX`` or ``PR`` gate sits on the central RZ of
    each of its staircases, whose generator Z differentiates the same
    angle.
    """
    grad = np.zeros(evaluator.program.n_parameters)
    observable = evaluator.compiled()
    if not observable.n_terms:
        _G_BWD.inc()
        return grad
    # constants never contribute to the gradient
    psi = sim.statevector()
    ket, bra = sim.copy(), sim.copy()
    bra.set_state(observable.apply(psi) - observable.constant * psi)
    for raw in reversed(evaluator.program.gates):
        if raw.param is not None:
            idx, mult = raw.param
            (coeff, ops), = _angle_derivative(raw)
            gp = ket.copy()
            for q, ch in ops.items():
                gp.apply_gate(Gate(ch, (q,)))
            grad[idx] += mult * 2.0 * float(
                np.real(coeff * np.vdot(bra.state, gp.state)))
        inv = _inverse(raw.bound(theta))
        ket.apply_gate(inv)
        bra.apply_gate(inv)
        if _obs.REGISTRY.enabled:
            _G_UNDO.inc(2)
    _G_BWD.inc()
    return grad


# -- MPS adjoint --------------------------------------------------------------


class _OverlapEnvironments:
    """Prefix/suffix <bra|ket> environment caches for the backward sweep.

    ``left(b)`` / ``right(b)`` return the contraction of sites ``0..b-1`` /
    ``b..n-1`` of the (ket, bra) pair with open bonds at ``b``, advanced
    lazily through the measurement engine's rectangular GEMM kernels and
    cached per bond.  Undoing a gate over sites ``[lo, hi]`` invalidates
    only the environments whose span crosses those sites, so consecutive
    backward-sweep overlaps (which move locally along the chain) are served
    mostly from cache - the same prefix/suffix reuse the sweep-plan
    measurement path exploits, applied across two evolving states.
    """

    def __init__(self, ket, bra):
        self.ket = ket
        self.bra = bra
        n = ket.n_qubits
        self.n = n
        one = np.ones((1, 1, 1), dtype=complex)
        self._L: list[np.ndarray | None] = [one] + [None] * n
        self._R: list[np.ndarray | None] = [None] * n + [one]
        self._lvalid = 0   # L[0..lvalid] are valid
        self._rvalid = n   # R[rvalid..n] are valid

    def invalidate(self, lo: int, hi: int) -> None:
        """Drop environments whose span covers any site in ``[lo, hi]``."""
        self._lvalid = min(self._lvalid, lo)
        self._rvalid = max(self._rvalid, hi + 1)

    def _advance(self, kernel, env, q):
        bk = self.ket.tensors[q]
        bc = np.conj(self.bra.tensors[q])
        if _obs.REGISTRY.enabled:
            _G_GEMM.inc(2)
        return kernel(env, bk, bc)

    def left(self, b: int) -> np.ndarray:
        """Environment of sites ``0..b-1`` as a (1, ket_b, bra_b) array."""
        if self._lvalid >= b:
            if _obs.REGISTRY.enabled:
                _G_CACHED.inc(outcome="reused")
            return self._L[b]
        while self._lvalid < b:
            q = self._lvalid
            self._L[q + 1] = self._advance(_advance_left, self._L[q], q)
            self._lvalid = q + 1
            if _obs.REGISTRY.enabled:
                _G_CACHED.inc(outcome="built")
        return self._L[b]

    def right(self, b: int) -> np.ndarray:
        """Environment of sites ``b..n-1`` as a (1, ket_b, bra_b) array."""
        if self._rvalid <= b:
            if _obs.REGISTRY.enabled:
                _G_CACHED.inc(outcome="reused")
            return self._R[b]
        while self._rvalid > b:
            q = self._rvalid - 1
            self._R[q] = self._advance(_advance_right, self._R[q + 1], q)
            self._rvalid = q
            if _obs.REGISTRY.enabled:
                _G_CACHED.inc(outcome="built")
        return self._R[b]

    def overlap(self, ops: dict[int, str]) -> complex:
        """<bra| prod_q O_q |ket> via cached environments + local advances."""
        s, e = min(ops), max(ops)
        env = self.left(s)
        for q in range(s, e + 1):
            bk = self.ket.tensors[q]
            ch = ops.get(q)
            if ch is not None:
                bk = site_operator_times(ch, bk)
            bc = np.conj(self.bra.tensors[q])
            if _obs.REGISTRY.enabled:
                _G_GEMM.inc(2)
            env = _advance_left(env, bk, bc)
        r = self.right(e + 1)
        return complex(np.einsum("ij,ij->", env[0], r[0]))


def _adjoint_mps(hamiltonian: QubitOperator, state, trail: ForwardTrail,
                 refs, n_parameters: int) -> np.ndarray:
    """The backward sweep of the two-state adjoint gradient on MPS.

    ``state`` is the final MPS of the forward pass that wrote ``trail``;
    it is read, never changed.  The bra ``H|psi>`` is materialized once as
    an MPS through the compiled-MPO zip-up
    (:meth:`repro.simulators.mpo.MPO.apply`) - its exact Schmidt rank is
    capped at ``min(2^b, 2^(n-b))``, so it stays small - and normalized,
    carrying ``||H|psi>||`` as a scalar.  Then, last gate first:
    accumulate ``mult * scale * Im <phi|G|ket>`` for a parametric gate
    through the cached overlap environments, undo the gate on the bra,
    and step the ket back by putting the tensors the gate replaced into
    its site list - the same array objects outside the gate's span, so
    the environments are invalidated over the span only.  Gates older
    than the trail retains are undone on the ket as well.
    """
    n = state.n_qubits
    grad = np.zeros(n_parameters)
    op = _strip_identity(hamiltonian)
    if not op.terms:
        _G_BWD.inc()
        return grad
    # bra cutoff: tight enough that the zip-up keeps the exact rank; the
    # bra is never bond-capped (its rank is bounded by the register anyway)
    bra, scale = compiled_mpo(op, n).apply(
        state, cutoff=min(state.cutoff, 1e-13))
    # a working view of the ket: own site lists, shared arrays
    ket = MPS.from_attached(n, state.tensors, state.lambdas,
                            max_bond_dimension=state.max_bond_dimension,
                            cutoff=state.cutoff, backend=state.backend)
    envs = _OverlapEnvironments(ket, bra)
    for gate, ref, saved in zip(reversed(trail.gates), reversed(refs),
                                reversed(trail.saved)):
        if ref is not None:
            idx, mult = ref
            ov = sum(coeff * envs.overlap(ops)
                     for coeff, ops in _angle_derivative(gate))
            grad[idx] += mult * scale * 2.0 * ov.real
        inv = _inverse(gate)
        lo, hi = apply_gate(bra, inv)
        if saved is None:
            apply_gate(ket, inv)
        else:
            trail.rewind(ket, saved)
        if _obs.REGISTRY.enabled:
            _G_UNDO.inc(1 + (saved is None))
        envs.invalidate(lo, hi)
    _G_BWD.inc()
    return grad


# -- the shift / finite-difference oracles ------------------------------------


def param_shift_gradient(evaluator, theta: np.ndarray, *,
                         parameters=None) -> np.ndarray:
    """Gate-wise +-pi/2 parameter-shift gradient (2G energy evaluations).

    ``parameters`` optionally restricts the shift to gates bound to the
    given parameter indices (entries outside the subset stay zero) - the
    parity suite uses this to spot-check single components on circuits
    where the full 2G sweep would be wasteful.
    """
    circuit = evaluator.program
    theta = finite_parameters(theta)
    bound = [g.bound(theta) for g in circuit.gates]
    sel = None if parameters is None else {int(p) for p in parameters}
    grad = np.zeros(circuit.n_parameters)
    n_evals = 0
    for j, raw in enumerate(circuit.gates):
        if raw.param is None:
            continue
        if sel is not None and raw.param[0] not in sel:
            continue
        # the two-term rule is exact for involutory generators only, so
        # an excitation is shifted one of its rotations at a time; every
        # other gate stays what energy() runs
        whole = raw.name != "EX"
        raws = [raw] if whole else raw.decompose()
        parts = [bound[j]] if whole else bound[j].decompose()
        for r, part in enumerate(parts):
            idx, mult = raws[r].param
            shifted_vals = []
            for shift in (0.5 * np.pi, -0.5 * np.pi):
                g = replace(part, angle=part.angle + shift)
                c = Circuit(n_qubits=circuit.n_qubits,
                            gates=(bound[:j] + parts[:r] + [g]
                                   + parts[r + 1:] + bound[j + 1:]),
                            n_parameters=0, name=circuit.name)
                shifted_vals.append(evaluator.energy_of_circuit(c))
                n_evals += 1
            grad[idx] += mult * (shifted_vals[0] - shifted_vals[1]) / 2.0
    _G_EQUIV.inc(n_evals, source="param_shift")
    _G_EVALS.inc(source="param_shift")
    return grad


def finite_diff_gradient(f, theta: np.ndarray, *, step: float = 1e-6,
                         n_parameters: int | None = None,
                         parameters=None) -> np.ndarray:
    """Central finite differences of any energy callable (2P evaluations)."""
    theta = np.asarray(theta, dtype=float)
    p = theta.size if n_parameters is None else int(n_parameters)
    sel = range(p) if parameters is None else [int(i) for i in parameters]
    grad = np.zeros(p)
    n_evals = 0
    for i in sel:
        e = np.zeros(p)
        e[i] = step
        grad[i] = (f(theta + e) - f(theta - e)) / (2.0 * step)
        n_evals += 2
    _G_EQUIV.inc(n_evals, source="finite_diff")
    _G_EVALS.inc(source="finite_diff")
    return grad


# -- the gradient-source abstraction ------------------------------------------


class GradientSource:
    """A configured ``gradient(theta) -> dE/dtheta`` callable.

    Built by :func:`make_gradient`; optimizers consume it as an opaque
    callable, so swapping sources never changes the optimizer trajectory
    beyond the gradient values themselves (the regression suite pins
    bitwise-identical trajectories for value-identical sources).
    """

    def __init__(self, source: str, evaluator, *, fd_step: float = 1e-6,
                 n_parameters: int | None = None):
        self.source = source
        self.evaluator = evaluator
        self.fd_step = fd_step
        self.n_parameters = n_parameters
        self.n_evaluations = 0

    def __call__(self, theta: np.ndarray, *, parameters=None) -> np.ndarray:
        self.n_evaluations += 1
        with _trace.span("grad.evaluate", source=self.source):
            if self.source == "adjoint":
                return adjoint_gradient(self.evaluator, theta)
            if self.source == "param_shift":
                return param_shift_gradient(self.evaluator, theta,
                                            parameters=parameters)
            return finite_diff_gradient(self.evaluator, theta,
                                        step=self.fd_step,
                                        n_parameters=self.n_parameters,
                                        parameters=parameters)


def _adjoint_spec(simulator: str):
    """The backend's spec - if it declares an adjoint gradient engine."""
    spec = backend_spec(simulator)
    if "adjoint" not in spec.gradients:
        raise ValidationError(
            f"backend {simulator!r} declares no adjoint gradient support; "
            f"registered analytic sources: {spec.gradients or '()'}"
        )
    return spec


def adjoint_gradient(evaluator, theta: np.ndarray) -> np.ndarray:
    """All P partials from one forward + one backward pass.

    The forward pass is ``evaluator.prepare(theta)`` - the state
    ``evaluator.energy(theta)`` prepared when there is one.  Dispatches on
    the evaluator's backend, which must declare the capability: the MPS
    backend runs the two-state tensor-network sweep at the evaluator's
    truncation settings, dense backends the exact statevector oracle.
    """
    theta = finite_parameters(theta)
    spec = _adjoint_spec(evaluator.simulator)
    n_parameters = evaluator.program.n_parameters
    with _trace.span("grad.adjoint", simulator=evaluator.simulator,
                     n_parameters=int(n_parameters)):
        prepared, ran_forward = evaluator.prepare(theta)
        if ran_forward:
            _G_FWD.inc()
        if spec.name == "mps":
            grad = _adjoint_mps(evaluator.hamiltonian, prepared.sim.state,
                                prepared.trail, prepared.refs, n_parameters)
            # bra build + the bra's backward evolution (the ket is read
            # back from the trail)
            equivalents = 2 + ran_forward
        else:
            grad = _adjoint_dense(evaluator, prepared.sim, theta)
            # bra build + ket and bra backward evolutions
            equivalents = 3 + ran_forward
    _G_EQUIV.inc(equivalents, source="adjoint")
    _G_EVALS.inc(source="adjoint")
    return grad


def make_gradient(evaluator, source: str = "adjoint", *,
                  fd_step: float = 1e-6,
                  n_parameters: int | None = None) -> GradientSource:
    """Build a :class:`GradientSource` for an evaluator.

    ``finite_diff`` works with any energy callable (including the
    circuit-free "fast" backend); ``param_shift`` needs a circuit
    evaluator exposing ``energy_of_circuit``; ``adjoint`` additionally
    needs a backend declaring the capability on its
    :class:`repro.backends.BackendSpec`.
    """
    key = str(source).lower().replace("-", "_")
    if key not in GRADIENT_SOURCES:
        raise ValidationError(
            f"unknown gradient source {source!r}; "
            f"expected one of {GRADIENT_SOURCES}"
        )
    circuit = getattr(evaluator, "ansatz", None)
    if key != "finite_diff":
        if not isinstance(circuit, Circuit):
            raise ValidationError(
                f"gradient source {key!r} needs a circuit evaluator; "
                f"the closed-form ansatz backends support only "
                f"'finite_diff'"
            )
        if key == "adjoint":
            _adjoint_spec(evaluator.simulator)
    elif n_parameters is None:
        n_parameters = getattr(circuit, "n_parameters", None)
        if n_parameters is None:
            n_parameters = getattr(evaluator, "n_parameters", None)
    return GradientSource(key, evaluator, fd_step=fd_step,
                          n_parameters=n_parameters)


__all__ = [
    "GRADIENT_SOURCES",
    "GradientSource",
    "adjoint_gradient",
    "finite_diff_gradient",
    "make_gradient",
    "n_parametric_gates",
    "param_shift_gradient",
]
