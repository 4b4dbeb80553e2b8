"""The closed-form Jordan-Wigner map against the symbolic operator product.

The oracle is the term-by-term product the map replaced: multiply each
term's ladder images through :class:`QubitOperator` and add term after
term.  The closed form must reproduce its term order and every coefficient
bit, on every operator the package maps.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.chem import mo as momod
from repro.circuits import uccsd
from repro.operators import spin
from repro.operators.fermion import FermionOperator
from repro.operators.jordan_wigner import jordan_wigner
from repro.operators.molecular import (
    molecular_fermion_operator,
    molecular_qubit_hamiltonian,
)
from repro.operators.pauli import PauliTerm, QubitOperator
from repro.vqe.rdm import _spin_summed_excitation, excitation_qubit_operators


def _ladder(p: int, dagger: int) -> QubitOperator:
    z_chain = (1 << p) - 1
    return QubitOperator({PauliTerm(1 << p, z_chain): 0.5,
                          PauliTerm(1 << p, z_chain | 1 << p):
                          -0.5j if dagger else 0.5j})


def symbolic_jordan_wigner(op: FermionOperator,
                           tolerance: float = 1e-12) -> QubitOperator:
    out = QubitOperator.zero()
    for term, coeff in op.terms.items():
        q = QubitOperator.identity(coeff)
        for p, d in term:
            q = q * _ladder(p, d)
        out = out + q
    return out.simplify(tolerance)


def loop_fermion_operator(mo, tolerance: float = 1e-12) -> FermionOperator:
    """Eq. (1) by explicit loops over spatial orbitals and spins."""
    m = mo.n_orbitals
    terms: dict = {}
    if abs(mo.constant) > tolerance:
        terms[()] = mo.constant
    for p in range(2 * m):
        for q in range(2 * m):
            c = mo.h1[p // 2, q // 2] if p % 2 == q % 2 else 0.0
            if abs(c) > tolerance:
                terms[((p, 1), (q, 0))] = c
    for p in range(2 * m):
        for q in range(2 * m):
            for r in range(2 * m):
                for s in range(2 * m):
                    same = p % 2 == q % 2 and r % 2 == s % 2
                    c = mo.h2[p // 2, q // 2, r // 2, s // 2] if same else 0.0
                    if abs(c) > tolerance:
                        terms[((p, 1), (r, 1), (s, 0), (q, 0))] = 0.5 * c
    return FermionOperator(terms)


def _bits(c) -> bytes:
    c = complex(c)
    return struct.pack("<dd", c.real, c.imag)


def assert_bitwise(new: QubitOperator, old: QubitOperator) -> None:
    assert list(new.terms) == list(old.terms)
    assert [_bits(c) for c in new.terms.values()] == \
        [_bits(c) for c in old.terms.values()]


def _recording(monkeypatch, module) -> list:
    """Record every (input, output) of ``module.jordan_wigner``."""
    calls = []

    def record(op, tolerance=1e-12):
        out = jordan_wigner(op, tolerance)
        calls.append((op, tolerance, out))
        return out

    monkeypatch.setattr(module, "jordan_wigner", record)
    return calls


def _random_op(rng, n_modes: int, n_terms: int = 8) -> FermionOperator:
    """Products of up to 6 ladder operators, half of them on a narrow
    window of modes so indices repeat; real and complex coefficients."""
    terms = {}
    for _ in range(n_terms):
        k = int(rng.integers(0, 7))
        lo = int(rng.integers(0, n_modes))
        hi = min(n_modes, lo + 3) if rng.random() < 0.5 else n_modes
        term = tuple((int(rng.integers(lo, hi)), int(rng.integers(0, 2)))
                     for _ in range(k))
        terms[term] = (complex(rng.standard_normal(), rng.standard_normal())
                       if rng.random() < 0.5 else float(rng.standard_normal()))
    return FermionOperator(terms)


@pytest.mark.parametrize("name", ["h2", "lih_fc", "lih", "h6_ring"])
def test_molecular_hamiltonian_is_bitwise_the_symbolic_one(request, name):
    system = request.getfixturevalue("lih" if name == "lih_fc" else name)
    mo = (momod.from_scf(system.scf, frozen_core=1) if name == "lih_fc"
          else system.mo)
    fop = molecular_fermion_operator(mo)
    reference = loop_fermion_operator(mo)
    assert list(fop.terms) == list(reference.terms)
    assert list(fop.terms.values()) == list(reference.terms.values())
    assert_bitwise(molecular_qubit_hamiltonian(mo),
                   symbolic_jordan_wigner(reference, 1e-10))


def test_uccsd_generators(monkeypatch):
    calls = _recording(monkeypatch, uccsd)
    ansatz = uccsd.UCCSDAnsatz(6, 4)
    assert len(calls) >= ansatz.n_parameters > 0
    for op, tol, out in calls:
        assert_bitwise(out, symbolic_jordan_wigner(op, tol))


def test_rdm_excitation_operators():
    for (p, q), out in excitation_qubit_operators(4).items():
        assert_bitwise(out, symbolic_jordan_wigner(_spin_summed_excitation(p, q)))


def test_spin_and_number_operators(monkeypatch):
    calls = _recording(monkeypatch, spin)
    spin.sz_operator(4)
    spin.s2_operator(4)
    spin.number_operator(8)
    assert len(calls) == 3
    for op, tol, out in calls:
        assert_bitwise(out, symbolic_jordan_wigner(op, tol))


@pytest.mark.parametrize("n_modes", [63, 64, 65, 130, 200])
def test_random_operators_across_word_boundaries(n_modes):
    rng = np.random.default_rng(n_modes)
    for _ in range(6):
        op = _random_op(rng, n_modes)
        assert_bitwise(jordan_wigner(op), symbolic_jordan_wigner(op))
    top = FermionOperator({((n_modes - 1, 1), (0, 0)): 0.3,
                           ((n_modes - 1, 1), (n_modes - 1, 0)): 1.0})
    assert_bitwise(jordan_wigner(top), symbolic_jordan_wigner(top))


@pytest.mark.parametrize("op", [
    FermionOperator(),
    FermionOperator.identity(2.5),
    FermionOperator({(): 0.25, ((1, 1), (1, 0)): 1.0}),
], ids=["empty", "identity", "identity-plus-number"])
def test_degenerate_operators(op):
    assert_bitwise(jordan_wigner(op), symbolic_jordan_wigner(op))


@pytest.mark.parametrize("coeff", [1.6, 0.7, 3.3, 0.1 + 1.7j])
def test_three_repeated_modes_sum_pairwise(coeff):
    """n_0 n_1 n_2 maps its identity from 8 equal strings; the product
    sums them pairwise, mode by mode - a flat sequential sum rounds
    differently for these coefficients."""
    op = FermionOperator({((0, 1), (0, 0), (1, 1), (1, 0), (2, 1), (2, 0)): coeff})
    assert_bitwise(jordan_wigner(op), symbolic_jordan_wigner(op))


def test_hamiltonian_needs_no_symbolic_product(monkeypatch, h2):
    def refuse(*args):
        raise AssertionError("symbolic Pauli product on the Jordan-Wigner path")

    monkeypatch.setattr(PauliTerm, "multiply", refuse)
    monkeypatch.setattr(QubitOperator, "__mul__", refuse)
    assert len(molecular_qubit_hamiltonian(h2.mo)) == 15
