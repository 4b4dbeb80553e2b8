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
from repro.common.cache import TERM_BYTES
from repro.obs import metrics as _obs
from repro.operators.fermion import FermionOperator
from repro.operators.jordan_wigner import (
    first_appearance,
    jordan_wigner,
    mask_ints,
)
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

    def __sizeof__(self) -> int:
        """Bytes held: the table, the index arrays and the strings."""
        arrays = (self.table.data, self.table.indices, self.table.indptr,
                  self.constant, *self.one_index, *self.two_index)
        return sum(a.nbytes for a in arrays) + TERM_BYTES * len(self.terms)


#: i^e for the phase exponent e of a string product (Python's 1j ** e)
_PHASE = np.array([1j ** e for e in range(4)])


def _symplectic(ops: list[QubitOperator], words: int) -> tuple:
    """The strings of ``ops`` concatenated in term order, as (x, z) masks of
    ``words`` uint64 words each, their coefficients, and each operator's
    first row and term count."""
    terms = [(t, c) for op in ops for t, c in op]
    full = (1 << 64) - 1
    xz = np.array([[(v >> (64 * w)) & full for v in (t.x, t.z)
                    for w in range(words)] for t, _ in terms],
                  dtype=np.uint64).reshape(len(terms), 2, words)
    counts = np.array([len(op) for op in ops])
    return (xz[:, 0], xz[:, 1], np.array([c for _, c in terms], complex),
            np.cumsum(counts) - counts, counts)


def build_rdm_program(n_spatial: int) -> RDMProgram:
    """Compile the measurement program of an ``n_spatial``-orbital register.

    Every element operator is ``E_pq`` or the product ``E_pq E_rs``, and
    a product of Pauli strings is two XORs and a phase from popcounts
    (:meth:`repro.operators.pauli.PauliTerm.multiply`): all products are
    formed at once on (x, z) mask arrays.  Strings and their coefficients
    then add up in the order the term-by-term operator product would add
    them, so terms, table and constant are bitwise that product's
    (``tests/vqe/test_rdm.py`` keeps it as the oracle).
    """
    m = n_spatial
    pairs = [(p, q) for p in range(m) for q in range(m)]
    excitations = excitation_qubit_operators(m)
    words = -(-2 * m // 64)
    x, z, c, start, count = _symplectic([excitations[pq] for pq in pairs],
                                        words)
    one = [(p, q) for p in range(m) for q in range(p, m)]
    two = [(p, q, r, s)
           for p in range(m) for q in range(m)
           for r in range(m) for s in range(m)
           if (p, q, r, s) <= (r, s, p, q)]  # Gamma_pqrs = Gamma_rspq
    # one rows: the strings of E_pq as they are
    left = np.array([p * m + q for p, q in one], dtype=np.intp)
    first = np.concatenate([np.arange(start[e], start[e] + count[e])
                            for e in left])
    row = np.repeat(np.arange(left.size), count[left])
    # two rows: string t1 of E_pq times string t2 of E_rs, t1 major
    quads = np.array(two, dtype=np.intp).reshape(-1, 4)
    left, right = quads[:, 0] * m + quads[:, 1], quads[:, 2] * m + quads[:, 3]
    n_pair = count[left] * count[right]
    two_row = np.repeat(np.arange(len(two)), n_pair)
    local = np.arange(n_pair.sum()) - np.repeat(np.cumsum(n_pair) - n_pair,
                                                n_pair)
    i = start[left][two_row] + local // count[right][two_row]
    j = start[right][two_row] + local % count[right][two_row]
    x12, z12 = x[i] ^ x[j], z[i] ^ z[j]

    def ones(a):
        return np.bitwise_count(a).sum(axis=1, dtype=np.int64)

    y = ones(x & z)  # Y factors of every string of every E_pq
    e = (y[i] + y[j] - ones(x12 & z12) + 2 * ones(z[i] & x[j])) % 4
    # (phase * c1) * c2 as the operator product evaluates it; <P> is real
    weight = np.concatenate([c[first].real,
                             ((_PHASE[e] * c[i]) * c[j]).real])
    row = np.concatenate([row, len(one) + two_row])
    xs, zs = np.concatenate([x[first], x12]), np.concatenate([z[first], z12])
    # one entry per (row, string), in the row's order of first appearance
    group, head = first_appearance(
        np.column_stack([row.astype(np.uint64), xs, zs]))
    total = np.zeros(head.size)
    np.add.at(total, group, weight)  # summed in product order, from 0.0
    row, xs, zs = row[head], xs[head], zs[head]
    keep = total != 0.0
    identity = keep & ~(xs.any(axis=1) | zs.any(axis=1))
    constant = np.zeros(len(one) + len(two))
    np.add.at(constant, row[identity], total[identity])
    keep &= ~identity
    xs, zs = xs[keep], zs[keep]
    column, head = first_appearance(np.column_stack([xs, zs]))
    table = sparse.csr_matrix((total[keep], (row[keep], column)),
                              shape=(constant.size, head.size))
    return RDMProgram(
        n_spatial=m,
        terms=tuple(map(PauliTerm, mask_ints(xs[head]),
                        mask_ints(zs[head]))),
        table=table, constant=constant,
        one_index=tuple(np.array(ix, dtype=np.intp) for ix in zip(*one)),
        two_index=tuple(np.array(ix, dtype=np.intp) for ix in zip(*two)))


def rdm_program(n_spatial: int) -> RDMProgram:
    """Fetch (or build and cache) the :class:`RDMProgram` of a register."""
    return _cache.current().get_or_build(
        _NAMESPACE, n_spatial, lambda: build_rdm_program(n_spatial),
        _M_PROGRAM_CACHE)


def per_term_expectations(sim, terms) -> np.ndarray:
    """``<P>`` of each string through ``sim.expectation``, one call apiece.

    The oracle the one-pass hooks are tested against, and the path of a
    state without a ``term_expectations`` hook.
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
