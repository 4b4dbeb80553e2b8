"""Shared dense Pauli kernels: permutation+phase actions, batched observables.

A Pauli string acts on the computational basis as a signed permutation,

    P |b> = phase(b) |b ^ xmask>,

so on a dense amplitude vector it costs one gather and one diagonal multiply
— no per-qubit tensor reshapes.  Strings sharing an X/Y flip mask share the
*same* permutation, so a whole :class:`~repro.operators.pauli.QubitOperator`
compiles into one complex diagonal plus one index gather per *distinct* mask
(:class:`CompiledObservable`): molecular Hamiltonians compress roughly 7x,
turning the O(terms x weight) per-term contraction loop into O(#masks)
vector passes.

This module is the layer the dense simulators build on: the statevector
backend applies wide Pauli rotations through :class:`PauliAction`, and
the VQE energy of a dense state is measured through
:class:`CompiledObservable`.  Conventions match the statevector
simulator: qubit 0 is the most significant index bit.
"""

from __future__ import annotations

import os

import numpy as np

from repro.common import cache as _cache
from repro.common.bits import popcount
from repro.common.errors import ValidationError
from repro.obs import metrics as _obs
from repro.operators.pauli import PauliTerm, QubitOperator

# observability instruments (no-ops unless `repro.obs` is enabled)
_M_COMPILES = _obs.counter(
    "pauli.compiles", "dense observables compiled into flip-mask groups")
_M_EXPECT = _obs.counter(
    "pauli.expectations", "batched dense expectation evaluations")
_M_COMPILE_CACHE = _obs.counter(
    "pauli.compile_cache",
    "compiled-observable cache lookups, labelled hit/miss")

#: refuse to compile diagonals beyond this register width (dense memory wall)
MAX_COMPILED_QUBITS = 26


def term_masks(term: PauliTerm, n_qubits: int) -> tuple[int, int, int]:
    """(xmask, zbits, n_y) of a Pauli string in MSB-first index convention.

    ``xmask`` flips the basis index, ``zbits`` selects the bits whose parity
    signs the amplitude, ``n_y`` counts Y factors (each contributes a global
    factor i with the canonical Y = iXZ convention).
    """
    if term.support >> n_qubits:
        raise ValidationError(
            f"term {term!r} acts outside a {n_qubits}-qubit register"
        )
    xmask = 0
    zbits = 0
    for q, ch in term.ops():
        bit = 1 << (n_qubits - 1 - q)  # qubit 0 = most significant
        if ch in ("X", "Y"):
            xmask |= bit
        if ch in ("Z", "Y"):
            zbits |= bit
    return xmask, zbits, popcount(term.x & term.z)


class PauliAction:
    """Precomputed permutation+phase action of one Pauli string."""

    __slots__ = ("perm", "phase")

    def __init__(self, term: PauliTerm, n_qubits: int):
        xmask, zbits, n_y = term_masks(term, n_qubits)
        src = np.arange(1 << n_qubits) ^ xmask
        signs = np.where(np.bitwise_count(src & zbits) & 1, -1.0, 1.0)
        self.perm = src
        self.phase = (1j ** (n_y % 4)) * signs

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """P |psi> as one gather + one diagonal multiply."""
        return self.phase * psi[self.perm]


class CompiledObservable:
    """A :class:`QubitOperator` compiled for batched dense evaluation.

    Terms are grouped by their X/Y flip mask; each group collapses into a
    single complex diagonal sharing one basis permutation, so applying (or
    measuring) the whole operator costs one gather + one multiply per
    *distinct* mask instead of one contraction per term.  Compile once per
    Hamiltonian, evaluate every optimizer iteration.

    Parameters
    ----------
    op:
        The operator to compile (need not be hermitian; ``expectation``
        returns the real part as every measurement path does).
    n_qubits:
        Register width (defaults to the operator's minimal width).
    """

    __slots__ = ("n_qubits", "constant", "n_terms", "_groups")

    def __init__(self, op: QubitOperator, n_qubits: int | None = None):
        n = op.n_qubits() if n_qubits is None else int(n_qubits)
        n = max(n, 1)
        if n > MAX_COMPILED_QUBITS:
            raise ValidationError(
                f"refusing to compile a dense observable on {n} qubits "
                f"(cap {MAX_COMPILED_QUBITS})"
            )
        dim = 1 << n
        # the masks first: the memory bound is checked before any 2^n array
        masks = [(term_masks(term, n), coeff) for term, coeff in op
                 if not term.is_identity()]
        n_groups = len({xmask for (xmask, _, _), _ in masks})
        # a complex diagonal and an int64 permutation per group, 24 B an
        # amplitude, against the machine's physical memory
        need = 24 * n_groups * dim
        bound = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        if need > bound:
            raise ValidationError(
                f"compiling this observable on {n} qubits needs "
                f"{n_groups} flip-mask groups x 24 B x 2^{n} = "
                f"{need / 2 ** 30:.1f} GiB, more than the "
                f"{bound / 2 ** 30:.1f} GiB of physical memory")
        self.n_qubits = n
        self.constant = complex(op.constant())
        self.n_terms = len(masks)
        # xmask -> summed complex diagonal (phases weighted by coefficients)
        diags: dict[int, np.ndarray] = {}
        for (xmask, zbits, n_y), coeff in masks:
            src = np.arange(dim) ^ xmask
            signs = np.where(np.bitwise_count(src & zbits) & 1, -1.0, 1.0)
            phase = (complex(coeff) * 1j ** (n_y % 4)) * signs
            acc = diags.get(xmask)
            if acc is None:
                diags[xmask] = phase
            else:
                acc += phase
        self._groups: list[tuple[np.ndarray | None, np.ndarray]] = []
        for xmask, diag in diags.items():
            perm = None if xmask == 0 else np.arange(dim) ^ xmask
            self._groups.append((perm, diag))
        if _obs.REGISTRY.enabled:
            _M_COMPILES.inc()

    @property
    def n_groups(self) -> int:
        """Number of distinct flip-mask groups (gathers per evaluation)."""
        return len(self._groups)

    def __sizeof__(self) -> int:
        """Bytes held: a diagonal and a permutation per mask group."""
        return sum(diag.nbytes + (0 if perm is None else perm.nbytes)
                   for perm, diag in self._groups)

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """H |psi> on a flat dense vector (qubit 0 = MSB)."""
        psi = np.asarray(psi).reshape(-1)
        out = self.constant * psi
        for perm, diag in self._groups:
            if perm is None:
                out += diag * psi
            else:
                out += diag * psi[perm]
        return out

    def expectation(self, psi: np.ndarray) -> float:
        """Re <psi| H |psi> in one pass over the mask groups."""
        _M_EXPECT.inc()
        psi = np.asarray(psi).reshape(-1)
        total = self.constant * np.vdot(psi, psi)
        for perm, diag in self._groups:
            src = psi if perm is None else psi[perm]
            total += np.vdot(psi, diag * src)
        return float(np.real(total))


# -- per-string values --------------------------------------------------------


def dense_term_expectations(terms, n_qubits: int,
                            state: np.ndarray) -> np.ndarray:
    """``<P>`` of every Pauli string on a dense state, as a real vector.

    ``state`` is a flat amplitude vector ``psi`` or a ``(2^n, 2^n)``
    density matrix ``rho``.  For one flip mask, with ``perm = k ^ xmask``,
    let ``w[k] = conj(psi[perm[k]]) * psi[k]`` (``rho[k, perm[k]]``).  The
    strings sharing that mask differ only in which bits sign the sum, so
    the group is one sign-matrix product with ``w``: one gather per
    *distinct* mask, the grouping :class:`CompiledObservable` uses,
    without summing the group into one diagonal.
    """
    if n_qubits > MAX_COMPILED_QUBITS:
        raise ValidationError(
            f"refusing dense per-string values on {n_qubits} qubits "
            f"(cap {MAX_COMPILED_QUBITS})"
        )
    masks = [term_masks(term, n_qubits) for term in terms]
    groups: dict[int, list[int]] = {}
    for i, (xmask, _, _) in enumerate(masks):
        groups.setdefault(xmask, []).append(i)
    basis = np.arange(1 << n_qubits)
    out = np.empty(len(terms))
    for xmask, members in groups.items():
        perm = basis ^ xmask
        w = (np.conj(state[perm]) * state if state.ndim == 1
             else state[basis, perm])
        zbits = np.array([masks[i][1] for i in members])
        phase = 1j ** np.array([masks[i][2] % 4 for i in members])
        signs = 1.0 - 2.0 * (np.bitwise_count(basis & zbits[:, None]) & 1)
        out[members] = (phase * (signs @ w)).real
    return out


# -- compilation cache --------------------------------------------------------
#
# Compiled observables live in the process's current store
# (repro.common.cache) keyed by the operator's (symplectic masks,
# coefficients) content, so each repeat evaluation of one operator is one
# gather per mask group with zero re-compilation.

_NAMESPACE = "pauli.observable"


def observable_cache_key(op: QubitOperator, n_qubits: int) -> tuple:
    """Content hash of (operator, register width) for the compile cache."""
    items = tuple(sorted(
        (t.x, t.z, complex(c).real, complex(c).imag) for t, c in op
    ))
    return (n_qubits, items)


def compile_observable(op: QubitOperator,
                       n_qubits: int | None = None) -> CompiledObservable:
    """Compile (or fetch a cached) :class:`CompiledObservable`."""
    n = max(op.n_qubits(), 1) if n_qubits is None else int(n_qubits)
    key = observable_cache_key(op, n)
    return _cache.current().get_or_build(
        _NAMESPACE, key, lambda: CompiledObservable(op, n), _M_COMPILE_CACHE)


__all__ = [
    "MAX_COMPILED_QUBITS",
    "PauliAction",
    "CompiledObservable",
    "compile_observable",
    "dense_term_expectations",
    "observable_cache_key",
    "term_masks",
]
