"""Bravyi-Kitaev transformation via the Fenwick-tree construction.

Following Seeley, Richard & Love (J. Chem. Phys. 137, 224109, 2012): qubit j
stores partial occupation sums arranged in a Fenwick (binary-indexed) tree.
Each ladder operator maps to Pauli strings over three index sets:

* U(j) - update set: qubits above j whose stored sums include orbital j;
* P(j) - parity set: qubits encoding the occupation parity of orbitals < j;
* R(j) - remainder set: P(j) minus the flip set F(j) (qubits whose value
  equals the orbital occupations j directly depends on).

    a+_j = 1/2 X_{U(j)} X_j Z_{P(j)} - i/2 X_{U(j)} Y_j Z_{R(j)}
    a_j  = 1/2 X_{U(j)} X_j Z_{P(j)} + i/2 X_{U(j)} Y_j Z_{R(j)}

The BK mapping yields O(log n)-weight strings instead of JW's O(n); the
test-suite checks both transforms produce identical Hamiltonian spectra.
"""

from __future__ import annotations

from functools import lru_cache

from repro.operators.fermion import FermionOperator, ladder_arrays
from repro.operators.pauli import PauliTerm, QubitOperator


def _fenwick_parent(j: int, n: int) -> int | None:
    """Index of the Fenwick-tree parent of node j in a tree over n nodes."""
    # standard BIT update chain: j -> j | (j + 1)
    p = j | (j + 1)
    return p if p < n else None


@lru_cache(maxsize=512)
def _update_set(j: int, n: int) -> int:
    """Bitmask of U(j): the BIT update chain above j."""
    mask = 0
    p = _fenwick_parent(j, n)
    while p is not None:
        mask |= 1 << p
        p = _fenwick_parent(p, n)
    return mask


@lru_cache(maxsize=512)
def _flip_set(j: int) -> int:
    """Bitmask of F(j): children of j in the Fenwick tree.

    For the BIT layout, node j (with j odd or covering a block) sums orbitals
    (j - 2^r + 1 .. j); its children are j - 2^s for the block subdivisions.
    """
    mask = 0
    k = (j + 1) & -(j + 1)  # block size of node j
    s = 1
    while s < k:
        mask |= 1 << (j - s)
        s <<= 1
    return mask


@lru_cache(maxsize=512)
def _parity_set(j: int) -> int:
    """Bitmask of P(j): BIT prefix-query chain for sum of orbitals 0..j-1."""
    mask = 0
    i = j  # query prefix [0, j)
    while i > 0:
        mask |= 1 << (i - 1)
        i &= i - 1
    return mask


@lru_cache(maxsize=4096)
def _ladder_qubit_operator(j: int, dagger: int, n: int) -> QubitOperator:
    u = _update_set(j, n)
    p = _parity_set(j)
    r = p & ~_flip_set(j)
    # X_{U} X_j Z_{P} term
    t1 = PauliTerm(x=u | (1 << j), z=p)
    # X_{U} Y_j Z_{R} term
    t2 = PauliTerm(x=u | (1 << j), z=r | (1 << j))
    sign = -0.5j if dagger else 0.5j
    return QubitOperator({t1: 0.5, t2: sign})


def bk_encode_occupation(occupations: list[int]) -> list[int]:
    """BK qubit values for an occupation-number vector.

    Qubit j of the Bravyi-Kitaev register stores the parity of the orbitals
    in its Fenwick subtree: value[j] = n_j XOR (subtree parities of its
    children).  Used to prepare reference determinants (e.g. Hartree-Fock)
    in the BK encoding.
    """
    n = len(occupations)
    memo: dict[int, int] = {}

    def subtree_parity(j: int) -> int:
        if j in memo:
            return memo[j]
        val = occupations[j] & 1
        mask = _flip_set(j)
        c = 0
        while mask:
            if mask & 1:
                val ^= subtree_parity(c)
            mask >>= 1
            c += 1
        memo[j] = val
        return val

    return [subtree_parity(j) for j in range(n)]


def bravyi_kitaev(op: FermionOperator, n_qubits: int | None = None,
                  tolerance: float = 1e-12) -> QubitOperator:
    """Transform a :class:`FermionOperator` under the BK encoding."""
    ladder_arrays(op)  # validates every term
    n = n_qubits if n_qubits is not None else op.n_spin_orbitals()
    out = QubitOperator.zero()
    for term, coeff in op.terms.items():
        q = QubitOperator.identity(coeff)
        for p, d in term:
            q = q * _ladder_qubit_operator(p, d, n)
        out = out + q
    return out.simplify(tolerance)
