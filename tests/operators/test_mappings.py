"""Tests for Jordan-Wigner and Bravyi-Kitaev transformations."""

import re

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.operators.fermion import FermionOperator
from repro.operators.jordan_wigner import jordan_wigner
from repro.operators.bravyi_kitaev import bravyi_kitaev
from repro.operators.pauli import pauli_string


def _number_op(p):
    return FermionOperator.from_term([(p, 1), (p, 0)])


class TestJordanWigner:
    def test_a0_dagger(self):
        op = jordan_wigner(FermionOperator.from_term([(0, 1)]))
        assert op.terms[pauli_string("X")] == pytest.approx(0.5)
        assert op.terms[pauli_string("Y")] == pytest.approx(-0.5j)

    def test_z_chain(self):
        op = jordan_wigner(FermionOperator.from_term([(2, 1)]))
        labels = {t.label(3) for t in op.terms}
        assert labels == {"ZZX", "ZZY"}

    def test_number_operator(self):
        """a+_p a_p -> (I - Z_p)/2."""
        op = jordan_wigner(_number_op(1))
        assert op.constant() == pytest.approx(0.5)
        assert op.terms[pauli_string("IZ")] == pytest.approx(-0.5)

    def test_anticommutation(self):
        """{a_0, a+_1} = 0 and {a_0, a+_0} = 1 after JW."""
        a0 = jordan_wigner(FermionOperator.from_term([(0, 0)]))
        a1d = jordan_wigner(FermionOperator.from_term([(1, 1)]))
        anti = (a0 * a1d + a1d * a0).simplify()
        assert len(anti) == 0
        a0d = jordan_wigner(FermionOperator.from_term([(0, 1)]))
        anti2 = (a0 * a0d + a0d * a0).simplify()
        assert anti2.constant() == pytest.approx(1.0)
        assert len(anti2) == 1

    def test_contiguous_support(self):
        """JW of a_p+ a_q has support filling [q..p] - the property that
        keeps UCCSD circuits nearest-neighbour (paper Sec. III-A)."""
        op = jordan_wigner(FermionOperator.from_term([(4, 1), (1, 0)]))
        for t in op.terms:
            qubits = [q for q, _ in t.ops()]
            assert qubits == list(range(1, 5))


class TestBravyiKitaev:
    def test_weight_advantage(self):
        """BK strings are O(log n) weight, JW strings O(n)."""
        n = 16
        op_jw = jordan_wigner(FermionOperator.from_term([(n - 1, 1)]))
        op_bk = bravyi_kitaev(FermionOperator.from_term([(n - 1, 1)]),
                              n_qubits=n)
        max_jw = max(t.weight for t in op_jw.terms)
        max_bk = max(t.weight for t in op_bk.terms)
        assert max_jw == n
        assert max_bk <= 6  # ~log2(16) + const

    def test_anticommutation(self):
        n = 8
        a2 = bravyi_kitaev(FermionOperator.from_term([(2, 0)]), n_qubits=n)
        a5d = bravyi_kitaev(FermionOperator.from_term([(5, 1)]), n_qubits=n)
        assert len((a2 * a5d + a5d * a2).simplify()) == 0
        a2d = bravyi_kitaev(FermionOperator.from_term([(2, 1)]), n_qubits=n)
        anti = (a2 * a2d + a2d * a2).simplify()
        assert anti.constant() == pytest.approx(1.0)
        assert len(anti) == 1

    def test_number_operator_spectrum(self):
        """BK number operator has eigenvalues {0, 1}."""
        n = 4
        for p in range(n):
            op = bravyi_kitaev(_number_op(p), n_qubits=n)
            evals = np.linalg.eigvalsh(op.matrix(n))
            assert np.allclose(np.sort(np.unique(np.round(evals, 10))),
                               [0.0, 1.0])


_MAPPINGS = {"jw": jordan_wigner,
             "bk": lambda op: bravyi_kitaev(op, n_qubits=4)}


@pytest.mark.parametrize("mapping", sorted(_MAPPINGS))
@pytest.mark.parametrize("term", [
    ((0, 2),),
    ((-1, 1),),
    ((1, 1), (0, -1)),
    ((2, 1), (-3, 0)),
], ids=["flag-2", "index-minus-1", "flag-minus-1", "index-minus-3"])
def test_malformed_ladder_operator_is_a_validation_error(mapping, term):
    """A flag outside {0, 1} or a negative index names its term; the
    operator's constructor does not check a raw terms dict."""
    op = FermionOperator({((0, 1), (1, 0)): 0.5, term: 1.0})
    with pytest.raises(ValidationError, match=re.escape(repr(term))):
        _MAPPINGS[mapping](op)


class TestSpectralEquivalence:
    def test_h2_hamiltonian_spectra_match(self, h2):
        """JW and BK are unitarily equivalent: same spectrum."""
        from repro.operators.molecular import molecular_qubit_hamiltonian

        hjw = molecular_qubit_hamiltonian(h2.mo, "jw")
        hbk = molecular_qubit_hamiltonian(h2.mo, "bk")
        ejw = np.linalg.eigvalsh(hjw.matrix(4))
        ebk = np.linalg.eigvalsh(hbk.matrix(4))
        assert np.allclose(ejw, ebk, atol=1e-9)

    def test_total_number_spectra(self):
        n = 4
        total = FermionOperator.zero()
        for p in range(n):
            total = total + _number_op(p)
        for mapping in (jordan_wigner,
                        lambda f: bravyi_kitaev(f, n_qubits=n)):
            m = mapping(total).matrix(n)
            evals = np.linalg.eigvalsh(m)
            assert np.allclose(np.sort(np.round(evals)),
                               np.sort(evals), atol=1e-9)
            assert evals.min() == pytest.approx(0.0, abs=1e-9)
            assert evals.max() == pytest.approx(n, abs=1e-9)
