"""Jordan-Wigner transformation.

Maps ladder operators on spin orbital p to Pauli strings:

    a+_p = 1/2 (X_p - i Y_p) Z_0 ... Z_{p-1}
    a_p  = 1/2 (X_p + i Y_p) Z_0 ... Z_{p-1}

The Z chain fills the qubits below p, so operators with contiguous orbital
support map to Pauli strings with contiguous qubit support - the property
that makes the UCCSD circuits of the paper nearest-neighbour friendly for
the MPS simulator.

A product of k ladder operators expands in closed form into the 2^k
strings of its X/Y choices, as word-packed ``(x, z)`` masks, and sums
them in the order the term-by-term product would, so the result is
bitwise that product's (docs/ALGORITHMS.md).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.operators.fermion import FermionOperator, ladder_arrays
from repro.operators.pauli import PauliTerm, QubitOperator

_PHASE = np.array([1, 1j, -1, -1j])


@lru_cache(maxsize=64)
def _mode_masks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, W) uint64 masks of qubit p alone and of qubits 0..p-1."""
    p = np.arange(n, dtype=np.uint64)
    bit = np.zeros((n, -(-n // 64)), np.uint64)
    bit[p, p // 64] = np.uint64(1) << p % 64
    return bit, np.bitwise_xor.accumulate(bit) ^ bit


@lru_cache(maxsize=256)
def _plan(first: tuple[int, ...]):
    """Choice rows, merges and string order shared by the terms whose
    position j acts on the mode first touched at position ``first[j]``.
    Rows are the 2^k X/Y choices (s_1 most significant); a repeat r merges
    row s_r = 0 with s_r = 1 flipped at ``first[r]`` (docs/ALGORITHMS.md)."""
    k = len(first)
    s = (np.arange(2 ** k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    merges = [(r + 1, f + 1) for r, f in enumerate(first) if f != r]
    first_row = np.arange(2 ** k).reshape((1,) + (2,) * k)
    for r, f in merges:  # the value merges, with min for +
        first_row = np.minimum(first_row.take([0], r), np.flip(first_row, f).take([1], r))
    order = np.argsort(first_row.ravel())
    return s, merges, order, first_row.ravel()[order]


def jordan_wigner_arrays(groups: list, tolerance: float = 1e-12) -> QubitOperator:
    """Map ``(positions, (T, k, 2) ladder ops, coefficients)`` term groups;
    terms add up in position order."""
    bit, chain = _mode_masks(1 + max([int(lad[..., 0].max(initial=0))
                                      for _, lad, _ in groups], default=0))
    rows, keys, vals = [], [], []
    for pos, lad, coeff in groups:
        idx, k = lad[..., 0], lad.shape[1]
        upper = np.arange(k)[:, None] < np.arange(k)
        eq = idx[:, :, None] == idx[:, None, :]
        first = (~np.logical_or.accumulate(eq, axis=1)).sum(1)
        # e = 2 (sum_j s_j w_j + inversions) - popcount(x & z)  (mod 4)
        w = 1 + lad[..., 1] + (eq & upper).sum(2)
        inv = ((idx[:, :, None] > idx[:, None, :]) & upper).sum((1, 2))
        # pattern id: first[j] <= j, so a mixed-radix index
        code = np.ravel_multi_index((np.zeros(len(idx), int), *first.T),
                                    (1, *range(1, k + 1)))
        for t in (np.flatnonzero(code == u) for u in np.unique(code)):
            s, merges, cols, leaves = _plan(tuple(first[t[0]].tolist()))
            b, c = bit[idx[t]][:, None], chain[idx[t]][:, None]
            x = np.bitwise_xor.reduce(b, axis=2)
            z = np.bitwise_xor.reduce(np.where(s[..., None] == 1, b ^ c, c), axis=2)
            e = 2 * (w[t] @ s.T + inv[t, None]) \
                - np.bitwise_count(x & z).sum(-1, dtype=np.int64)
            a = (coeff[t, None] * (_PHASE / 2 ** k)[e % 4]).reshape((-1,) + (2,) * k)
            for r, f in merges:
                a = a.take([0], r) + np.flip(a, f).take([1], r)
            rows.append(np.repeat(pos[t], len(cols)))
            xz = np.concatenate([x.repeat(len(cols), 1), z[:, leaves]], -1)
            keys.append(xz.reshape(-1, xz.shape[-1]))
            vals.append(a.reshape(len(t), -1)[:, cols].ravel())
    if not rows:
        return QubitOperator()
    order = np.argsort(np.concatenate(rows), kind="stable")
    keys = np.concatenate(keys)[order]
    _, first_row, slot = np.unique(keys.view(f"V{keys.shape[1] * 8}").ravel(),
                                   return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first_row))  # slot -> first-appearance rank
    coef = np.zeros(len(rank), complex)
    np.add.at(coef, rank[slot], np.concatenate(vals)[order])
    keep = np.abs(coef) > tolerance
    raw = keys[np.sort(first_row)[keep]].astype("<u8").tobytes()
    nb = 8 * bit.shape[1]
    ints = [int.from_bytes(raw[i:i + nb], "little") for i in range(0, len(raw), nb)]
    return QubitOperator(dict(zip(map(PauliTerm, ints[0::2], ints[1::2]),
                                  coef[keep].tolist())))


def jordan_wigner(op: FermionOperator, tolerance: float = 1e-12) -> QubitOperator:
    """Transform a :class:`FermionOperator` into a :class:`QubitOperator`."""
    return jordan_wigner_arrays(ladder_arrays(op), tolerance)
