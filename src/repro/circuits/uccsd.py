"""Unitary coupled-cluster singles and doubles (UCCSD) ansatz.

Builds the physically-motivated parametric circuit of the paper (Eq. 3-4):
a Hartree-Fock reference prepared by X gates followed by the first-order
Suzuki-Trotter decomposition of exp(T - T+), with one variational parameter
per spatial-orbital excitation (spin components share their amplitude).

Each excitation generator maps to Pauli strings with purely imaginary
coefficients i*c_k.  They do *not* all commute (96 of the 462 pairs inside
one generator anticommute for H2/6-31G), so the order of the first-order
Trotter product is part of the ansatz.  What holds: strings sharing a flip
mask (the same X/Y sites) commute, and ``Excitation.pauli_terms`` lists
every flip-mask group contiguously, so the product of exp(i c_k theta_m P_k)
over the strings in that order is the product over the groups
(:attr:`Excitation.mask_groups`, same order) of
exp(theta_m sum_{k in group} i c_k P_k).  The groups themselves need not
commute (the two spin components of a mixed double share their occupied
pair), so that order is kept.  Under Jordan-Wigner every group is one
spin-orbital excitation t (T - T+) and is emitted as one ``EX`` gate; a
group that is not (Bravyi-Kitaev puts two ladder products under one mask)
is emitted as one ``PR`` rotation per string.  ``Circuit.decomposed()`` turns either into
CNOT staircases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ValidationError
from repro.operators.fermion import FermionOperator
from repro.operators.jordan_wigner import jordan_wigner
from repro.operators.pauli import PauliTerm
from repro.circuits.gates import Gate
from repro.circuits.circuit import Circuit
from repro.circuits.trotter import excitation_gate, pauli_rotation_gate


@dataclass
class Excitation:
    """One parametrized cluster term tau_m - tau_m+ in Pauli form."""

    label: str
    param_index: int
    #: (PauliTerm, real coefficient c) pairs: generator = sum_k i c_k P_k
    pauli_terms: list[tuple[PauliTerm, float]] = field(default_factory=list)
    #: ``pauli_terms`` split by flip mask (``PauliTerm.x``), groups in
    #: order of first appearance.  The strings of a group commute with each
    #: other and sit next to each other in ``pauli_terms``, so the
    #: excitation is the product of exp(theta sum_{k in group} i c_k P_k)
    #: over the groups in this order (the groups need not commute)
    mask_groups: list[list[tuple[PauliTerm, float]]] = field(init=False)

    def __post_init__(self) -> None:
        groups: dict[int, list[tuple[PauliTerm, float]]] = {}
        for pt, c in self.pauli_terms:
            groups.setdefault(pt.x, []).append((pt, c))
        self.mask_groups = list(groups.values())


class UCCSDAnsatz:
    """UCCSD over ``n_spatial`` orbitals with ``n_electrons`` electrons.

    Spin orbitals are interleaved (2p = alpha_p, 2p+1 = beta_p); the
    reference occupies the first ``n_electrons`` qubits.  The excitations
    are every occupied -> virtual single, then every double, as in the
    paper's ansatz.
    """

    def __init__(self, n_spatial: int, n_electrons: int, *,
                 mapping: str = "jordan_wigner"):
        if n_electrons % 2:
            raise ValidationError("closed-shell UCCSD needs even n_electrons")
        if n_electrons <= 0 or n_electrons >= 2 * n_spatial:
            raise ValidationError(
                f"n_electrons={n_electrons} incompatible with "
                f"{n_spatial} spatial orbitals"
            )
        if mapping not in ("jordan_wigner", "jw", "bravyi_kitaev", "bk"):
            raise ValidationError(f"unknown mapping {mapping!r}")
        self.n_spatial = n_spatial
        self.n_electrons = n_electrons
        self.n_qubits = 2 * n_spatial
        self.mapping = "bk" if mapping in ("bravyi_kitaev", "bk") else "jw"
        n_occ = n_electrons // 2
        occ = range(n_occ)
        virt = range(n_occ, n_spatial)

        self.excitations: list[Excitation] = []
        for i in occ:
            for a in virt:
                tau = FermionOperator.zero()
                for s in (0, 1):
                    tau = tau + FermionOperator.from_term(
                        [(2 * a + s, 1), (2 * i + s, 0)])
                self._add_excitation(f"s_{i}->{a}", tau)
        pairs = [(i, a) for i in occ for a in virt]
        for x, (i, a) in enumerate(pairs):
            for (j, b) in pairs[x:]:
                tau = FermionOperator.zero()
                for s1 in (0, 1):
                    for s2 in (0, 1):
                        p, q = 2 * a + s1, 2 * b + s2
                        r, t = 2 * j + s2, 2 * i + s1
                        if p == q or r == t:
                            continue
                        tau = tau + FermionOperator.from_term(
                            [(p, 1), (q, 1), (r, 0), (t, 0)])
                self._add_excitation(f"d_{i}{j}->{a}{b}", tau)
        self.n_parameters = len(self.excitations)

    def _map(self, op: FermionOperator):
        if self.mapping == "bk":
            from repro.operators.bravyi_kitaev import bravyi_kitaev

            return bravyi_kitaev(op, n_qubits=self.n_qubits)
        return jordan_wigner(op)

    def _add_excitation(self, label: str, tau: FermionOperator) -> None:
        """Register the Pauli form of tau - tau+ as the next parameter."""
        gen = (tau - tau.dagger()).normal_ordered()
        qop = self._map(gen)
        terms: list[tuple[PauliTerm, float]] = []
        for pt, coeff in qop:
            if abs(coeff.real) > 1e-12:
                raise ValidationError(
                    f"excitation {label}: generator is not anti-hermitian "
                    f"(real Pauli coefficient {coeff.real:g})"
                )
            if abs(coeff.imag) > 1e-12:
                terms.append((pt, float(coeff.imag)))
        self.excitations.append(
            Excitation(label, len(self.excitations), terms))

    # -- circuits ------------------------------------------------------------

    def _reference_qubits(self) -> list[int]:
        """Qubits flipped to prepare the HF determinant in the mapping."""
        if self.mapping == "jw":
            return list(range(self.n_electrons))
        from repro.operators.bravyi_kitaev import bk_encode_occupation

        occ = [1 if q < self.n_electrons else 0
               for q in range(self.n_qubits)]
        return [q for q, b in enumerate(bk_encode_occupation(occ)) if b]

    def reference_circuit(self, n_qubits: int | None = None) -> Circuit:
        """X gates preparing the Hartree-Fock reference determinant."""
        n = n_qubits or self.n_qubits
        c = Circuit(n_qubits=n, name="hf_reference")
        for q in self._reference_qubits():
            c.append(Gate("X", (q,)))
        return c

    def circuit(self, n_qubits: int | None = None) -> Circuit:
        """Full parametric ansatz circuit: reference + Trotterized exp(T-T+).

        ``n_qubits`` may exceed the logical width to leave room for a
        Hadamard-test ancilla.
        """
        n = n_qubits or self.n_qubits
        if n < self.n_qubits:
            raise ValidationError(
                f"register of {n} too small for {self.n_qubits} qubits"
            )
        c = Circuit(n_qubits=n, n_parameters=self.n_parameters, name="uccsd")
        for q in self._reference_qubits():
            c.append(Gate("X", (q,)))
        for exc in self.excitations:
            for group in exc.mask_groups:
                gate = excitation_gate(group, exc.param_index)
                if gate is not None:
                    c.append(gate)
                    continue
                for pt, coeff in group:
                    # exp(i (coeff * theta_m) P); excitation terms are
                    # never the identity string, so a gate always comes back
                    c.append(pauli_rotation_gate(
                        pt, n, param=(exc.param_index, coeff)))
        return c

    def initial_parameters(self) -> np.ndarray:
        """Starting amplitudes: all zero, the Hartree-Fock start."""
        return np.zeros(self.n_parameters)


def uccsd_circuit(n_spatial: int, n_electrons: int,
                  n_qubits: int | None = None) -> tuple[Circuit, UCCSDAnsatz]:
    """Convenience: build the ansatz and its circuit in one call."""
    ansatz = UCCSDAnsatz(n_spatial, n_electrons)
    return ansatz.circuit(n_qubits), ansatz
