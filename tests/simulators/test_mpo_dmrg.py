"""Tests for the MPO construction and the DMRG extension.

The paper's Sec. III-A remark: at equal bond dimension, DMRG should match
or exceed the MPS-VQE's precision - these tests pin that substitutability.
"""

import numpy as np
import pytest

from repro import obs
from repro.common.errors import ConvergenceError, ValidationError
from repro.operators.pauli import QubitOperator, pauli_string
from repro.simulators.dmrg import DMRG, _number_penalty
from repro.simulators import kernels
from repro.simulators.kernels import KernelBackend
from repro.simulators.mpo import MPO
from repro.simulators.mps import MPS


def _random_operator(n_qubits, n_terms, seed=0):
    rng = np.random.default_rng(seed)
    op = QubitOperator.identity(float(rng.standard_normal()))
    for _ in range(n_terms):
        k = int(rng.integers(1, n_qubits + 1))
        qs = sorted(rng.choice(n_qubits, size=k, replace=False))
        ops = [(int(q), str(rng.choice(list("XYZ")))) for q in qs]
        op = op + QubitOperator.from_term(pauli_string(ops),
                                          float(rng.standard_normal()))
    return op


class TestMPO:
    @pytest.mark.parametrize("n,terms,seed", [(2, 3, 1), (3, 5, 2),
                                              (4, 8, 3), (5, 12, 4)])
    def test_matrix_roundtrip(self, n, terms, seed):
        op = _random_operator(n, terms, seed)
        mpo = MPO.from_qubit_operator(op, n)
        assert np.allclose(mpo.matrix(), op.matrix(n), atol=1e-9)

    def test_compression_shrinks_bonds(self):
        # many redundant terms -> compressed bond far below term count
        op = QubitOperator.zero()
        for q in range(6):
            op = op + QubitOperator.from_term(
                pauli_string([(q, "Z")]), 0.5)
        mpo = MPO.from_qubit_operator(op, 6)
        assert max(mpo.bond_dimensions()) <= 3  # identity-Z automaton width

    def test_expectation_matches_dense(self):
        op = _random_operator(4, 6, seed=7)
        mpo = MPO.from_qubit_operator(op, 4)
        mps = MPS.random_state(4, 4, seed=5)
        psi = mps.to_statevector()
        dense = np.real(psi.conj() @ op.matrix(4) @ psi)
        assert mpo.expectation(mps) == pytest.approx(dense, abs=1e-9)

    def test_single_qubit(self):
        op = QubitOperator.from_term("Z", 2.0) + QubitOperator.identity(1.0)
        mpo = MPO.from_qubit_operator(op, 1)
        assert np.allclose(mpo.matrix(), np.diag([3.0, -1.0]))

    def test_zero_operator_rejected(self):
        with pytest.raises(ValidationError):
            MPO.from_qubit_operator(QubitOperator.zero(), 3)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_apply_matches_dense(self, n):
        op = (_random_operator(n, 2 * n, seed=n)
              + 1j * _random_operator(n, 2 * n, seed=50 + n))
        mpo = MPO.from_qubit_operator(op, n)
        state = MPS.random_state(n, 4, seed=n)
        out, norm = mpo.apply(state)
        assert out.check_right_canonical()
        assert np.allclose(norm * out.to_statevector(),
                           mpo.matrix() @ state.to_statevector(),
                           rtol=0.0, atol=1e-12)

    def test_apply_runs_on_the_state_backend(self, monkeypatch):
        """Every contraction of the zip-up and of the canonicalization runs
        on the state's backend: the reference kernels run their loop GEMM
        and book no fused one, so one GEMM would be the shared "blas"
        one."""
        be = KernelBackend("naive")
        state = MPS.random_state(5, 4, seed=2, backend=be)
        mpo = MPO.from_qubit_operator(_random_operator(5, 8, seed=2), 5)
        naive_gemm, loops = kernels._gemm_naive, []

        def counted(a, b):
            loops.append(1)
            return naive_gemm(a, b)

        monkeypatch.setattr(kernels, "_gemm_naive", counted)
        with obs.collect() as reg:
            out, norm = mpo.apply(state)
        assert out.backend is be
        assert len(loops) >= 2 * 5                # two per site
        assert reg.value("kernels.gemm_calls") == 0
        assert reg.value("kernels.svd_calls") >= 4
        assert np.allclose(norm * out.to_statevector(),
                           mpo.matrix() @ state.to_statevector(), atol=1e-8)

    def test_apply_width_mismatch_rejected(self):
        mpo = MPO.from_qubit_operator(_random_operator(3, 4, seed=1), 3)
        with pytest.raises(ValidationError):
            mpo.apply(MPS(4))

    @pytest.mark.parametrize("bits", ["1", "001", "100"])
    def test_apply_annihilating_operator_rejected(self, bits):
        # |0><0| on every qubit that holds |1>, identity elsewhere: exactly
        # zero, which a compressed Pauli-sum MPO is only to rounding
        tensors = [np.diag([1.0, float(b == "0")]).astype(complex)
                   .reshape(1, 2, 2, 1) for b in bits]
        with pytest.raises(ValidationError):
            MPO(tensors).apply(MPS.from_bitstring(bits))

    def test_apply_and_matrix_use_no_einsum(self, monkeypatch):
        op = _random_operator(4, 6, seed=9)
        mpo = MPO.from_qubit_operator(op, 4)
        state = MPS.random_state(4, 4, seed=9)
        psi = state.to_statevector()

        def refuse(*args, **kwargs):
            raise AssertionError("np.einsum called")

        monkeypatch.setattr(np, "einsum", refuse)
        out, norm = mpo.apply(state)
        dense = mpo.matrix()
        monkeypatch.undo()
        assert np.allclose(dense, op.matrix(4), atol=1e-9)
        assert np.allclose(norm * out.to_statevector(), dense @ psi,
                           rtol=0.0, atol=1e-12)


class TestNumberPenalty:
    def test_penalty_spectrum(self):
        pen = _number_penalty(3, 2)
        evals = np.linalg.eigvalsh(pen.matrix(3))
        # eigenvalues are (n - 2)^2 for n in 0..3
        assert np.min(evals) == pytest.approx(0.0, abs=1e-10)
        assert np.max(evals) == pytest.approx(4.0, abs=1e-10)


class TestDMRG:
    def test_h2_reaches_fci(self, h2):
        from repro.operators.molecular import molecular_qubit_hamiltonian

        ham = molecular_qubit_hamiltonian(h2.mo)
        out = DMRG(ham, 4, max_bond_dimension=8, n_electrons=2).run(seed=3)
        assert out.energy == pytest.approx(h2.fci.energy, abs=1e-8)
        assert out.mps.check_right_canonical()

    def test_transverse_field_ising_exact(self):
        """TFIM at small size vs dense diagonalization."""
        n, h_field = 6, 0.7
        op = QubitOperator.zero()
        for q in range(n - 1):
            op = op + QubitOperator.from_term(
                pauli_string([(q, "Z"), (q + 1, "Z")]), -1.0)
        for q in range(n):
            op = op + QubitOperator.from_term(pauli_string([(q, "X")]),
                                              -h_field)
        exact = np.linalg.eigvalsh(op.matrix(n))[0]
        out = DMRG(op, n, max_bond_dimension=16).run(seed=1)
        assert out.energy == pytest.approx(exact, abs=1e-8)

    def test_sweep_energies_decrease(self):
        n = 5
        op = _random_operator(n, 8, seed=11)
        op = (op + op.dagger()) * 0.5  # hermitize
        out = DMRG(op, n, max_bond_dimension=8).run(seed=2, tolerance=1e-10)
        diffs = np.diff(out.sweep_energies)
        assert np.all(diffs < 1e-8)  # monotone non-increasing sweeps

    def test_matches_vqe_at_equal_bond_dimension(self, h2):
        """The paper's substitutability claim at D=2."""
        from repro.operators.molecular import molecular_qubit_hamiltonian
        from repro.circuits.uccsd import UCCSDAnsatz
        from repro.vqe.vqe import VQE

        ham = molecular_qubit_hamiltonian(h2.mo)
        vqe = VQE(ham, UCCSDAnsatz(2, 2), simulator="mps",
                  max_bond_dimension=2)
        e_vqe = vqe.run().energy
        e_dmrg = DMRG(ham, 4, max_bond_dimension=2,
                      n_electrons=2).run(seed=5).energy
        # DMRG at the same D must be at least as good (within solver noise)
        assert e_dmrg <= e_vqe + 1e-6

    def test_nonhermitian_rejected(self):
        with pytest.raises(ValidationError):
            DMRG(QubitOperator.from_term("XX", 1j), 2)

    def test_single_site_rejected(self):
        with pytest.raises(ValidationError):
            DMRG(QubitOperator.from_term("Z", 1.0), 1)

    def test_nonconvergence_raises(self):
        op = _random_operator(4, 6, seed=13)
        op = (op + op.dagger()) * 0.5
        with pytest.raises(ConvergenceError):
            DMRG(op, 4, max_bond_dimension=2).run(n_sweeps=1,
                                                  tolerance=1e-15, seed=0)
