"""End-to-end VQE tests: convergence to FCI, RDMs, simulator parity."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.circuits.uccsd import UCCSDAnsatz
from repro.operators.molecular import molecular_qubit_hamiltonian
from repro.vqe.vqe import VQE


class TestH2Convergence:
    @pytest.fixture(autouse=True)
    def _setup(self, h2):
        self.h2 = h2
        self.ham = molecular_qubit_hamiltonian(h2.mo)
        self.ansatz = UCCSDAnsatz(2, 2)

    def test_fast_simulator_reaches_fci(self):
        vqe = VQE(self.ham, self.ansatz, simulator="fast")
        res = vqe.run()
        assert res.energy == pytest.approx(self.h2.fci.energy, abs=1e-7)

    def test_mps_simulator_reaches_fci(self):
        vqe = VQE(self.ham, self.ansatz, simulator="mps")
        res = vqe.run()
        assert res.energy == pytest.approx(self.h2.fci.energy, abs=1e-7)

    def test_variational_bound(self):
        """Any VQE energy is an upper bound on FCI."""
        vqe = VQE(self.ham, self.ansatz, simulator="statevector",
                  optimizer="cobyla", max_iterations=30)
        res = vqe.run()
        assert res.energy >= self.h2.fci.energy - 1e-10

    def test_below_hartree_fock(self):
        vqe = VQE(self.ham, self.ansatz, simulator="statevector")
        res = vqe.run()
        assert res.energy < self.h2.scf.energy

    def test_history_recorded(self):
        vqe = VQE(self.ham, self.ansatz, simulator="statevector")
        res = vqe.run()
        assert len(res.history) == res.n_evaluations
        assert res.optimizer == "l-bfgs-b"

    def test_adam_optimizer(self):
        vqe = VQE(self.ham, self.ansatz, simulator="statevector",
                  optimizer="adam", max_iterations=100, tolerance=1e-10)
        res = vqe.run()
        assert res.energy == pytest.approx(self.h2.fci.energy, abs=1e-4)

    def test_initial_parameters_respected(self):
        vqe = VQE(self.ham, self.ansatz, simulator="statevector")
        with pytest.raises(ValidationError):
            vqe.run(np.zeros(7))

    def test_energy_error_helper(self):
        vqe = VQE(self.ham, self.ansatz, simulator="statevector")
        res = vqe.run()
        assert res.energy_error(self.h2.fci.energy) < 1e-7


class TestRDMs:
    def test_match_fci_rdms(self, h2):
        ham = molecular_qubit_hamiltonian(h2.mo)
        vqe = VQE(ham, UCCSDAnsatz(2, 2), simulator="statevector")
        res = vqe.run()
        g1, g2 = vqe.reduced_density_matrices(res.parameters)
        assert np.allclose(g1, h2.fci.one_rdm, atol=1e-5)
        assert np.allclose(g2, h2.fci.two_rdm, atol=1e-5)

    def test_trace(self, h2):
        ham = molecular_qubit_hamiltonian(h2.mo)
        vqe = VQE(ham, UCCSDAnsatz(2, 2), simulator="statevector")
        res = vqe.run()
        g1, _ = vqe.reduced_density_matrices(res.parameters)
        assert np.trace(g1) == pytest.approx(2.0, abs=1e-8)


class TestValidation:
    def test_unparametrized_ansatz_rejected(self, h2):
        from repro.circuits.circuit import Circuit
        from repro.circuits.gates import Gate

        ham = molecular_qubit_hamiltonian(h2.mo)
        c = Circuit(4, [Gate("X", (0,))])
        with pytest.raises(ValidationError):
            VQE(ham, c)

    def test_unknown_optimizer(self, h2):
        """Rejected at construction, not at the first run; the retired
        "spsa" is as unknown as a typo."""
        from repro.dmet.solvers import VQEFragmentSolver

        ham = molecular_qubit_hamiltonian(h2.mo)
        for name in ("quantum-annealing", "spsa"):
            with pytest.raises(ValidationError, match="unknown optimizer"):
                VQE(ham, UCCSDAnsatz(2, 2), simulator="statevector",
                    optimizer=name)
            with pytest.raises(ValidationError, match="unknown optimizer"):
                VQEFragmentSolver(optimizer=name)


class TestGradientWiring:
    """The grad= knob: end-to-end convergence and validation."""

    @pytest.mark.parametrize("simulator", ["statevector", "mps"])
    def test_adjoint_adam_reaches_fci(self, h2, simulator):
        vqe = VQE(h2.qubit_hamiltonian, h2.uccsd_circuit,
                  simulator=simulator, optimizer="adam", grad="adjoint",
                  max_iterations=200, tolerance=1e-10)
        res = vqe.run()
        assert res.energy == pytest.approx(self.fci(h2), abs=1e-5)
        # one adjoint call per step replaces 2p shift evaluations; only
        # the per-step energy is counted
        assert res.n_evaluations == res.n_iterations

    def test_adjoint_lbfgsb_reaches_fci(self, h2):
        vqe = VQE(h2.qubit_hamiltonian, h2.uccsd_circuit,
                  simulator="statevector", optimizer="l-bfgs-b",
                  grad="adjoint")
        res = vqe.run()
        assert res.energy == pytest.approx(self.fci(h2), abs=1e-6)

    def test_sources_reach_same_minimum(self, h2):
        """All three sources drive adam to the same energy.  (Exact
        trajectory parity over many steps is not expected: adam's
        eps-regularized rescaling amplifies last-digit gradient
        round-off; the per-call 1e-8 agreement is pinned in
        tests/properties/test_gradients.py.)"""
        energies = {}
        for grad in ("adjoint", "param_shift", "finite_diff"):
            vqe = VQE(h2.qubit_hamiltonian, h2.uccsd_circuit,
                      simulator="statevector", optimizer="adam",
                      grad=grad, max_iterations=60, tolerance=0.0)
            energies[grad] = vqe.run().energy
        assert energies["adjoint"] == \
            pytest.approx(energies["param_shift"], abs=1e-6)
        assert energies["adjoint"] == \
            pytest.approx(energies["finite_diff"], abs=1e-4)

    def test_sources_share_a_trajectory_off_the_symmetric_point(self, h2):
        """Started where the singles gradient of H2 does not vanish by
        symmetry, every component is a real gradient rather than round-off
        for adam to rescale, and the sources agree far tighter."""
        energies = {}
        for grad in ("adjoint", "param_shift", "finite_diff"):
            vqe = VQE(h2.qubit_hamiltonian, h2.uccsd_circuit,
                      simulator="statevector", optimizer="adam",
                      grad=grad, max_iterations=10, tolerance=0.0)
            energies[grad] = vqe.run(np.array([0.02, 0.0])).energy
        assert energies["adjoint"] == \
            pytest.approx(energies["param_shift"], abs=1e-10)
        assert energies["adjoint"] == \
            pytest.approx(energies["finite_diff"], abs=1e-8)

    def test_gradient_free_optimizer_rejects_grad(self, h2):
        with pytest.raises(ValidationError, match="gradient-free"):
            VQE(h2.qubit_hamiltonian, h2.uccsd_circuit,
                simulator="statevector", optimizer="cobyla",
                grad="adjoint")

    def test_unknown_source_rejected(self, h2):
        # named first, whatever else is wrong with the call
        for optimizer in ("adam", "cobyla"):
            with pytest.raises(ValidationError,
                               match="unknown gradient source"):
                VQE(h2.qubit_hamiltonian, h2.uccsd_circuit,
                    simulator="statevector", optimizer=optimizer,
                    grad="hessian")

    def test_closed_form_backend_only_finite_diff(self, h2):
        """`fast`, the statevector under the name the end-to-end benchmark
        pins, declares no adjoint engine."""
        with pytest.raises(ValidationError, match="no adjoint"):
            VQE(h2.qubit_hamiltonian, UCCSDAnsatz(2, 2), simulator="fast",
                optimizer="adam", grad="adjoint")

    @staticmethod
    def fci(h2):
        return h2.fci.energy


class TestBrickAnsatzVQE:
    def test_hardware_efficient_ansatz_optimizes(self, h2):
        """The Fig. 2c-style ansatz lowers the energy from its start.

        Unlike UCCSD it does not conserve particle number, so it optimizes
        over the whole Fock space; we only assert variational progress and
        the FCI lower bound.
        """
        from repro.circuits.hea import brick_ansatz

        ham = molecular_qubit_hamiltonian(h2.mo)
        circ = brick_ansatz(4, window=4)
        vqe = VQE(ham, circ, simulator="mps", optimizer="cobyla",
                  max_iterations=400)
        e_start = vqe.evaluator.energy(np.zeros(circ.n_parameters))
        res = vqe.run()
        assert res.energy < e_start - 0.01
        assert res.energy >= min(np.linalg.eigvalsh(ham.matrix(4))) - 1e-9


class TestGradientFirstDefault:
    """One default optimizer (l-bfgs-b), one gradient rule (the adjoint
    where the backend has one), one saddle-escape restart."""

    @pytest.mark.parametrize("simulator, optimizer, grad", [
        ("statevector", None, "adjoint"),
        ("mps", None, "adjoint"),
        ("mps", "SLSQP", "adjoint"),
        ("statevector", "adam", "adjoint"),
        # the name the end-to-end benchmark pins declares no adjoint, and
        # the density matrix has no engine: scipy differentiates itself
        ("fast", None, None),
        ("density_matrix", None, None),
        ("statevector", "cobyla", None),
        ("mps", "nelder-mead", None),
    ])
    def test_grad_none_resolves_by_optimizer_and_backend(
            self, h2, simulator, optimizer, grad):
        options = {} if optimizer is None else {"optimizer": optimizer}
        vqe = VQE(h2.qubit_hamiltonian, UCCSDAnsatz(2, 2),
                  simulator=simulator, **options)
        assert vqe.grad == grad
        assert (vqe.gradient is None) == (grad is None)
        assert VQE.default_gradient(vqe.optimizer, simulator) == grad

    def test_h4_ring_escapes_the_saddle(self, solved_molecule):
        """From theta = 0, UCCSD on the stretched H4 ring has a saddle
        0.183 Ha above FCI (Hessian eigenvalue -0.82) where L-BFGS-B stops
        with success; the kicked restart reaches the minimum COBYLA finds
        in ~1,900 evaluations, 7.79128e-2 Ha above FCI."""
        from repro.chem import geometry

        solved = solved_molecule(geometry.hydrogen_ring(4, 1.2))
        ham = molecular_qubit_hamiltonian(solved.mo)
        res = VQE(ham, UCCSDAnsatz(4, 4), simulator="statevector").run()
        assert res.energy - solved.fci.energy == pytest.approx(
            7.79128e-2, abs=1e-6)
        assert res.converged
        assert res.n_evaluations < 100
        assert res.n_gradient_evaluations > 0  # the adjoint, by default

    def test_every_signature_reads_the_one_default(self):
        """VQE, the facade, the fragment solver, its factory, JobSpec and
        the scipy bridge cannot drift apart."""
        import dataclasses
        import inspect

        from repro.dmet.solvers import VQEFragmentSolver, make_fragment_solver
        from repro.q2chem import Q2Chemistry
        from repro.serve import JobSpec
        from repro.vqe.optimizers import DEFAULT_OPTIMIZER, minimize_scipy

        def default(fn, name):
            return inspect.signature(fn).parameters[name].default

        assert DEFAULT_OPTIMIZER == "l-bfgs-b"
        defaults = {
            "VQE": default(VQE, "optimizer"),
            "vqe_energy": default(Q2Chemistry.vqe_energy, "optimizer"),
            "dmet_energy": default(Q2Chemistry.dmet_energy,
                                   "vqe_optimizer"),
            "VQEFragmentSolver": default(VQEFragmentSolver, "optimizer"),
            "make_fragment_solver": default(make_fragment_solver,
                                            "optimizer"),
            "JobSpec": {f.name: f.default for f in
                        dataclasses.fields(JobSpec)}["optimizer"],
            "minimize_scipy": default(minimize_scipy, "method"),
        }
        assert defaults == dict.fromkeys(defaults, DEFAULT_OPTIMIZER)
