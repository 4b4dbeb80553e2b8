"""Reduced density matrices measured on a simulated quantum state.

DMET's self-consistency loop needs the fragment's spin-summed 1-RDM (for the
electron count) and 2-RDM (for the democratic-partitioning energy) from the
VQE solution - step 4 of the paper's Sec. III-B procedure.  Both are obtained
the same way the energy is: as expectation values of Jordan-Wigner-mapped
operators on the final ansatz state.

Every element is a real combination of Pauli-string expectations, and the
``m^2 + m^4`` operators of one register share most of their strings.  So the
state-independent part - the distinct strings and the table mapping their
values to RDM elements - is compiled once per ``n_spatial``
(:class:`RDMProgram`, kept in the process's content-addressed store), the
state is asked *once* for all string values
(``term_expectations(terms)``, one shared-environment sweep on the MPS
backend, one gather per flip mask on the dense ones), and the RDMs are one
sparse matrix-vector product: O(strings) work per state where the
per-operator loop compiled and measured O(m^4) operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.common import cache as _cache
from repro.obs import metrics as _obs
from repro.operators.fermion import FermionOperator
from repro.operators.jordan_wigner import jordan_wigner
from repro.operators.pauli import PauliTerm, QubitOperator

# observability instrument (a no-op unless `repro.obs` is enabled)
_M_PROGRAM_CACHE = _obs.counter(
    "rdm.program_cache",
    "RDM measurement-program cache lookups, labelled hit/miss")

_NAMESPACE = "vqe.rdm_program"


def _spin_summed_excitation(p: int, q: int) -> FermionOperator:
    """E_pq = sum_sigma a+_{p sigma} a_{q sigma} (interleaved spin orbitals)."""
    op = FermionOperator.zero()
    for s in (0, 1):
        op = op + FermionOperator.from_term([(2 * p + s, 1), (2 * q + s, 0)])
    return op


def excitation_qubit_operators(n_spatial: int) -> dict[tuple[int, int],
                                                       QubitOperator]:
    """JW images of every spin-summed E_pq (what :func:`rdm_program`
    compiles; nothing measures them one by one)."""
    return {
        (p, q): jordan_wigner(_spin_summed_excitation(p, q))
        for p in range(n_spatial) for q in range(n_spatial)
    }


@dataclass(frozen=True)
class RDMProgram:
    """The state-independent half of one RDM measurement.

    ``terms`` are the distinct non-identity Pauli strings of every
    ``E_pq`` (p <= q) and every ``E_pq E_rs`` ((p,q,r,s) <= (r,s,p,q));
    row ``i`` of ``table`` (real, sparse) and ``constant[i]`` turn their
    expectation values into element ``i``.  ``<P>`` is real, so only the
    real parts of the operator coefficients are kept and a string whose
    coefficients are all imaginary is not measured at all.  Rows come in
    the order of ``one_index`` (p, q) followed by ``two_index``
    (p, q, r, s).
    """

    n_spatial: int
    terms: tuple[PauliTerm, ...]
    table: sparse.csr_matrix
    constant: np.ndarray
    one_index: tuple[np.ndarray, np.ndarray]
    two_index: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def build_rdm_program(n_spatial: int) -> RDMProgram:
    """Compile the measurement program of an ``n_spatial``-orbital register."""
    m = n_spatial
    excitations = excitation_qubit_operators(m)
    one = [(p, q) for p in range(m) for q in range(p, m)]
    two = [(p, q, r, s)
           for p in range(m) for q in range(m)
           for r in range(m) for s in range(m)
           if (p, q, r, s) <= (r, s, p, q)]  # Gamma_pqrs = Gamma_rspq
    operators = [excitations[pq] for pq in one] + [
        excitations[p, q] * excitations[r, s] for p, q, r, s in two]
    column: dict[PauliTerm, int] = {}
    rows, cols, data = [], [], []
    constant = np.zeros(len(operators))
    for row, op in enumerate(operators):
        for term, coeff in op:
            weight = complex(coeff).real
            if weight == 0.0:
                continue
            if term.is_identity():
                constant[row] += weight
                continue
            rows.append(row)
            cols.append(column.setdefault(term, len(column)))
            data.append(weight)
    table = sparse.csr_matrix((data, (rows, cols)),
                              shape=(len(operators), len(column)))
    return RDMProgram(
        n_spatial=m, terms=tuple(column), table=table, constant=constant,
        one_index=tuple(np.array(ix, dtype=np.intp) for ix in zip(*one)),
        two_index=tuple(np.array(ix, dtype=np.intp) for ix in zip(*two)))


def rdm_program(n_spatial: int) -> RDMProgram:
    """Fetch (or build and cache) the :class:`RDMProgram` of a register."""
    return _cache.current().get_or_build(
        _NAMESPACE, n_spatial, lambda: build_rdm_program(n_spatial),
        _M_PROGRAM_CACHE)


def per_term_expectations(sim, terms) -> np.ndarray:
    """``<P>`` of each string through ``sim.expectation``, one call apiece.

    Serves backends that expose nothing batched (third-party
    registrations) and is the oracle the one-pass hooks are tested
    against.
    """
    return np.array([sim.expectation(QubitOperator({term: 1.0}))
                     for term in terms])


def measure_rdms(sim, n_spatial: int) -> tuple[np.ndarray, np.ndarray]:
    """Spin-summed (gamma_pq, Gamma_pqrs) from a simulator state.

    ``sim`` is asked once for the values of the program's strings:
    through its ``term_expectations(terms)`` hook when it has one (every
    built-in state holder does), else string by string through
    ``expectation(QubitOperator)``.
    Chemists' pairing convention: Gamma_pqrs = <E_pq E_rs> - delta_qr <E_ps>,
    so that E = const + sum h gamma + 1/2 sum (pq|rs) Gamma.
    """
    program = rdm_program(n_spatial)
    hook = getattr(sim, "term_expectations", None)
    values = (per_term_expectations(sim, program.terms) if hook is None
              else hook(program.terms))
    elements = program.constant + program.table @ values
    m = n_spatial
    p, q = program.one_index
    n_one = p.size
    gamma = np.zeros((m, m))
    gamma[p, q] = elements[:n_one]
    gamma[q, p] = elements[:n_one]  # real wavefunctions: gamma is symmetric
    p, q, r, s = program.two_index
    pairs = elements[n_one:] - np.where(q == r, gamma[p, s], 0.0)
    g2 = np.zeros((m, m, m, m))
    g2[p, q, r, s] = pairs
    g2[r, s, p, q] = pairs
    return gamma, g2
