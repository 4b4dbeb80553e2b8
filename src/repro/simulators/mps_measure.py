"""Batched Pauli-operator measurement on matrix product states.

The per-term transfer-matrix path (:meth:`repro.simulators.mps.MPS.
expectation_pauli`) walks every Pauli string through an independent
contraction, so a JW-mapped molecular Hamiltonian with O(n^4) mostly
chain-spanning terms costs O(n_terms * n * D^3) per energy evaluation.
This module batches that work one way, the **shared-environment sweep**
(the environment-reuse / operator-batching strategy of arXiv:2211.07983
and arXiv:2303.03681): every term is split at a greedily chosen
bond of its support span; a single left-to-right sweep builds the *left*
environments of all term prefixes (terms sharing a prefix share the
environment) and a single right-to-left sweep builds the *right*
environments of all term suffixes (seeded by per-(site, character)
closing matrices).  Both start from the state's exact bond environments
(:meth:`repro.simulators.mps.MPS.environments` - diag(lambda^2) and the
identity while nothing has been truncated) and the values are divided by
<psi|psi>, so <H> is a Rayleigh quotient of the state the tensors hold
however far truncation has pushed them from canonical form.  Each term
then reduces to one O(D^2) Frobenius product of its two environments at
the split bond.  The schedule is a state-independent :class:`SweepPlan`
compiled into site-major row indices, so all environments crossing one
(site, character) pair advance in a single batched GEMM; the environments
themselves are keyed on the MPS ``revision`` counter so a stale cache
can never be read against an evolved state.

The sweep is the only <H> path: an MPS-MPO-MPS contraction arm and a flop
model choosing between the two were measured and deleted (EXPERIMENTS.md
Ablation 8).  :func:`compiled_mpo` stays for the adjoint gradient, which
applies the compressed MPO to build its ``H|psi>`` bra, and the classic
per-term path stays as the reference the parity tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common import cache as _cache
from repro.common.cache import TERM_BYTES
from repro.common.errors import ValidationError
from repro.obs import metrics as _obs
from repro.operators.pauli import PAULI_MATRICES, QubitOperator
from repro.simulators.mps import MPS
from repro.simulators.pauli_kernels import observable_cache_key

# observability instruments (free unless `repro.obs` is enabled); every
# counter is a deterministic function of (operator, state shape), so the
# regression suite pins exact values
_M_EVALS = _obs.counter(
    "mps_measure.evaluations",
    "batched evaluations, labelled by path "
    "(sweep | per_term | cached: <H>; terms: per-string values)")
_M_ENV_STEPS = _obs.counter(
    "mps_measure.env_steps",
    "environment-row advances per sweep evaluation (the D^3 work)")
_M_GEMM = _obs.counter(
    "mps_measure.gemm_calls",
    "batched GEMM invocations issued by sweep evaluations")
_M_PLAN_CACHE = _obs.counter(
    "mps_measure.plan_cache",
    "sweep-plan compilation cache lookups, labelled hit/miss")
_M_MPO_CACHE = _obs.counter(
    "mps_measure.mpo_cache",
    "compiled-MPO cache lookups, labelled hit/miss")

_Groups = tuple[tuple[str, np.ndarray, np.ndarray], ...]


@dataclass(frozen=True)
class SweepPlan:
    """State-independent evaluation schedule for one operator.

    Each non-identity term with support span ``[s, e]`` is split at a
    bond ``b``: its value is the Frobenius product of a *left* environment
    covering ``[s, b-1]`` (grown from the state's left environment of bond
    ``s``) and a *right* environment covering ``[b, e]`` (grown leftward
    from its right environment of bond ``e + 1``).  Environments are
    deduplicated through two prefix tries - ``(start, prefix)`` for the
    left side and ``(end, reversed suffix)`` for the right side - and the
    split bond is chosen greedily per term to minimize the
    *bond-dimension-weighted*
    cost of the trie nodes it adds (nodes already scheduled by earlier
    terms are free, and transfer steps near the chain ends are orders of
    magnitude cheaper than mid-chain ones).  The tries are flattened into
    site-major row schedules so the evaluator holds one ``(rows, D, D)``
    frontier array per bond and advances every environment crossing a
    given (site, character) pair in a single batched GEMM:

    * ``frontier_l[b]`` / ``frontier_r[b]`` - live environment counts on
      bond ``b`` during the left / right sweep;
    * ``roots[b]`` - left-frontier rows initialized to the left
      environment of bond ``b``;
    * ``adv_l[q]`` / ``adv_r[q]`` - per character: (source rows,
      destination rows) for the batched transfer through site ``q``;
    * ``seeds_r[b]`` - right-frontier rows seeded from the cached closing
      matrix of (site ``b``, character);
    * ``out_l[b]`` - left-frontier rows gathered and held for combination;
    * ``combos[b]`` - (right rows, term indices) consuming the held left
      environments, aligned with ``out_l[b]``.
    """

    n_qubits: int
    constant: complex
    coeffs: np.ndarray
    #: per-term ``(x, z)`` symplectic masks - the per-state value-cache key
    term_keys: tuple[tuple[int, int], ...]
    frontier_l: tuple[int, ...]
    roots: tuple[tuple[int, ...], ...]
    adv_l: tuple[_Groups, ...]
    out_l: tuple[np.ndarray, ...]
    frontier_r: tuple[int, ...]
    seeds_r: tuple[tuple[tuple[str, int], ...], ...]
    adv_r: tuple[_Groups, ...]
    combos: tuple[tuple[np.ndarray, np.ndarray], ...]
    #: environment advances one full evaluation performs (the D^3 work)
    n_env_steps: int

    @property
    def n_terms(self) -> int:
        """Number of non-identity terms in the schedule."""
        return len(self.term_keys)

    def __sizeof__(self) -> int:
        """Bytes held: the row-index arrays and the per-term keys."""
        groups = [a for sweep in (self.adv_l, self.adv_r) for site in sweep
                  for _, src, dst in site for a in (src, dst)]
        arrays = [self.coeffs, *self.out_l, *groups,
                  *(a for combo in self.combos for a in combo)]
        return sum(a.nbytes for a in arrays) + TERM_BYTES * self.n_terms

    @property
    def n_gemm_calls(self) -> int:
        """Batched GEMM invocations one evaluation issues.

        Each (site, character) advance group costs two ``np.matmul``
        calls (ket-side then bra-side), on both the left and the right
        sweep; the per-term O(D^2) combines are einsum reductions, not
        GEMMs, and are excluded.
        """
        groups = sum(len(g) for g in self.adv_l) \
            + sum(len(g) for g in self.adv_r)
        return 2 * groups


#: bond-dimension cap used by the split chooser's structural weight model
#: (the exact-rank profile min(2^b, 2^(n-b)) saturated at a typical D)
_SPLIT_WEIGHT_CAP = 256


def build_sweep_plan(op: QubitOperator, n_qubits: int) -> SweepPlan:
    """Compile an operator into a batched two-sided :class:`SweepPlan`."""
    if n_qubits < 1:
        raise ValidationError("n_qubits must be positive")
    # structural bond profile: the split chooser weights a transfer step
    # through site q by the GEMM flops at the surrounding bonds
    dims = [min(2 ** min(b, n_qubits - b), _SPLIT_WEIGHT_CAP)
            for b in range(n_qubits + 1)]

    step_weight = [float(dl * dl * dr + dl * dr * dr)
                   for dl, dr in zip(dims, dims[1:])]

    constant = 0.0 + 0.0j
    coeffs: list[complex] = []
    term_keys: list[tuple[int, int]] = []
    # left trie: (start, prefix) lives on bond start+len(prefix);
    # right trie: (end, reversed suffix) lives on bond end-len(suffix)+1
    lrows: dict[tuple[int, str], int] = {}
    rrows: dict[tuple[int, str], int] = {}
    size_l = [0] * (n_qubits + 1)
    size_r = [0] * (n_qubits + 1)
    roots: list[list[int]] = [[] for _ in range(n_qubits + 1)]
    adv_l: list[dict[str, tuple[list[int], list[int]]]] = [
        {} for _ in range(n_qubits)]
    adv_r: list[dict[str, tuple[list[int], list[int]]]] = [
        {} for _ in range(n_qubits)]
    seeds: list[list[tuple[str, int]]] = [[] for _ in range(n_qubits + 1)]
    out_l: list[list[int]] = [[] for _ in range(n_qubits + 1)]
    combos: list[tuple[list[int], list[int]]] = [
        ([], []) for _ in range(n_qubits + 1)]
    n_env_steps = 0

    def left_node(start: int, prefix: str) -> int:
        key = (start, prefix)
        row = lrows.get(key)
        if row is None:
            bond = start + len(prefix)
            row = size_l[bond]
            size_l[bond] = row + 1
            lrows[key] = row
            if not prefix:
                roots[bond].append(row)
        return row

    for term, coeff in op:
        if term.is_identity():
            constant += coeff
            continue
        ops = term.ops()
        start, end = ops[0][0], ops[-1][0]
        if end >= n_qubits:
            raise ValidationError(
                f"term support reaches qubit {end} >= register {n_qubits}"
            )
        chars = ["I"] * (end - start + 1)
        for q, ch in ops:
            chars[q - start] = ch
        tidx = len(coeffs)
        coeffs.append(complex(coeff))
        term_keys.append((term.x, term.z))
        span = len(chars)
        rev = chars[::-1]
        # choose the split bond greedily: cumulative weighted cost of the
        # *new* trie nodes each side would add (existing nodes are free;
        # node existence is prefix-closed, so a plain scan suffices)
        cum_l = [0.0] * span
        cost, prefix = 0.0, ""
        for d in range(1, span):
            prefix += chars[d - 1]
            if (start, prefix) not in lrows:
                cost += step_weight[start + d - 1]
            cum_l[d] = cost
        cum_r = [0.0] * (span + 1)
        cost, prefix = 0.0, rev[0]
        for d in range(2, span + 1):
            # depth 1 is the cached closing-matrix seed (free); depth d
            # adds an advance through site end-d+1
            prefix += rev[d - 1]
            if (end, prefix) not in rrows:
                cost += step_weight[end - d + 1]
            cum_r[d] = cost
        split, best = start, cum_l[0] + cum_r[span]
        for b in range(start + 1, end + 1):
            here = cum_l[b - start] + cum_r[end - b + 1]
            if here < best:
                split, best = b, here
        # left side: walk the prefix trie, scheduling a batched advance
        # through site start+j whenever a node is seen for the first time
        row = left_node(start, "")
        prefix = ""
        for j in range(split - start):
            ch = chars[j]
            nxt = lrows.get((start, prefix + ch))
            if nxt is None:
                nxt = left_node(start, prefix + ch)
                src, dst = adv_l[start + j].setdefault(ch, ([], []))
                src.append(row)
                dst.append(nxt)
                n_env_steps += 1
            prefix += ch
            row = nxt
        # right side: walk the suffix trie from the chain end leftward;
        # the depth-1 node is the closing matrix of (end, last char)
        rev = chars[::-1]
        ch = rev[0]
        rkey = (end, ch)
        rrow = rrows.get(rkey)
        if rrow is None:
            rrow = size_r[end]
            size_r[end] = rrow + 1
            rrows[rkey] = rrow
            seeds[end].append((ch, rrow))
        rprefix = ch
        for j in range(1, end - split + 1):
            ch = rev[j]
            site = end - j  # the site this advance absorbs
            nkey = (end, rprefix + ch)
            nxt = rrows.get(nkey)
            if nxt is None:
                bond = site
                nxt = size_r[bond]
                size_r[bond] = nxt + 1
                rrows[nkey] = nxt
                src, dst = adv_r[site].setdefault(ch, ([], []))
                src.append(rrow)
                dst.append(nxt)
                n_env_steps += 1
            rprefix += ch
            rrow = nxt
        out_l[split].append(row)
        combos[split][0].append(rrow)
        combos[split][1].append(tidx)

    def pack(per_site):
        return tuple(
            tuple((ch, np.asarray(src, dtype=np.intp),
                   np.asarray(dst, dtype=np.intp))
                  for ch, (src, dst) in sorted(groups.items()))
            for groups in per_site
        )

    return SweepPlan(
        n_qubits=n_qubits, constant=constant,
        coeffs=np.asarray(coeffs, dtype=complex),
        term_keys=tuple(term_keys),
        frontier_l=tuple(size_l),
        roots=tuple(tuple(r) for r in roots),
        adv_l=pack(adv_l),
        out_l=tuple(np.asarray(r, dtype=np.intp) for r in out_l),
        frontier_r=tuple(size_r),
        seeds_r=tuple(tuple(s) for s in seeds),
        adv_r=pack(adv_r),
        combos=tuple((np.asarray(r, dtype=np.intp),
                      np.asarray(t, dtype=np.intp)) for r, t in combos),
        n_env_steps=n_env_steps,
    )


# -- compilation caches -------------------------------------------------------
#
# The VQE/DMET evaluator layer builds a *fresh* simulator per energy call, so
# anything amortized across optimizer iterations must outlive the engine
# instance.  Plans and MPOs depend only on operator content, never on the
# state, so they live in the process's current store (repro.common.cache)
# keyed by the same content hash the dense Pauli kernels use.

_PLAN_NAMESPACE = "mps.sweep_plan"
_MPO_NAMESPACE = "mps.mpo"


def sweep_plan(op: QubitOperator, n_qubits: int,
               key: tuple | None = None) -> SweepPlan:
    """Fetch (or build and cache) the :class:`SweepPlan` for an operator.

    ``key`` is ``observable_cache_key(op, n_qubits)`` when the caller
    holds it already (the VQE evaluator keys its Hamiltonian once).
    """
    return _cache.current().get_or_build(
        _PLAN_NAMESPACE,
        observable_cache_key(op, n_qubits) if key is None else key,
        lambda: build_sweep_plan(op, n_qubits), _M_PLAN_CACHE)


def compiled_mpo(op: QubitOperator, n_qubits: int, key: tuple | None = None):
    """Fetch (or compile and cache) the compressed MPO for an operator;
    ``key`` as for :func:`sweep_plan`."""
    from repro.simulators.mpo import MPO

    return _cache.current().get_or_build(
        _MPO_NAMESPACE,
        observable_cache_key(op, n_qubits) if key is None else key,
        lambda: MPO.from_qubit_operator(op, n_qubits), _M_MPO_CACHE)


# -- environment advance kernels ----------------------------------------------


def _advance_left(env: np.ndarray, bk: np.ndarray,
                  bc: np.ndarray) -> np.ndarray:
    """Advance left environments through one site: two batched GEMMs.

    ``env`` is ``(rows, ket_bond, bra_bond)``; the bra-side dimensions are
    read from ``bc`` so the same kernel serves the square same-state case
    (``<psi|O|psi>`` sweeps, where it is bitwise identical to the historic
    form) and the rectangular two-state overlaps of the adjoint gradient
    engine (``<phi|O|psi>`` with independently truncated bra and ket).
    """
    kl, _, kr = bk.shape
    bl, _, br = bc.shape
    # a[k, m, (i, r)] = sum_l env_k[l, m] bk[l, i, r]
    a = np.matmul(env.transpose(0, 2, 1), bk.reshape(kl, 2 * kr))
    # env'_k[r, s] = sum_{m,i} a[k, (m,i), r] conj(b)[(m,i), s]
    return np.matmul(a.reshape(env.shape[0], bl * 2, kr).transpose(0, 2, 1),
                     bc.reshape(bl * 2, br))


def _advance_right(env: np.ndarray, bk: np.ndarray,
                   bc: np.ndarray) -> np.ndarray:
    """Advance right environments through one site: two batched GEMMs.

    Same rectangular-bra generalization as :func:`_advance_left`:
    ``env`` is ``(rows, ket_bond, bra_bond)`` with the bra dimensions
    taken from ``bc``.
    """
    kl, _, kr = bk.shape
    bl, _, br = bc.shape
    # t[k, (l, i), s] = sum_r bk[(l, i), r] env_k[r, s]
    t = np.matmul(bk.reshape(kl * 2, kr), env)
    # env'_k[l, m] = sum_{i,s} t[k, l, (i,s)] conj(b)[m, (i,s)]
    return np.matmul(t.reshape(env.shape[0], kl, 2 * br),
                     bc.reshape(bl, 2 * br).T)


class MPSMeasurementEngine:
    """Revision-aware batched expectation evaluator for one MPS stream.

    The engine owns the *state-dependent* caches - Pauli-applied site
    tensors, per-(site, character) closing matrices and per-term values -
    all keyed on ``(state identity, state.revision)``: any gate
    application, canonicalization or state replacement bumps/replaces the
    key and the caches rebuild lazily.  The state-independent schedule
    (:class:`SweepPlan`) and compiled MPOs live in the process's current
    store (:mod:`repro.common.cache`) so they survive the
    fresh-simulator-per-energy-call pattern of the VQE layer.
    """

    def __init__(self):
        self._state: MPS | None = None
        self._revision = -1
        self._site_ops: dict[tuple[int, str], np.ndarray] = {}
        self._bconj: dict[int, np.ndarray] = {}
        self._closing: dict[tuple[int, str], np.ndarray] = {}
        self._term_values: dict[tuple[int, int], complex] = {}

    # -- cache plumbing -------------------------------------------------------

    def _bind(self, mps: MPS) -> None:
        """Point the state caches at ``mps``, invalidating on any change."""
        if self._state is not mps or self._revision != mps.revision:
            self._state = mps
            self._revision = mps.revision
            self._site_ops.clear()
            self._bconj.clear()
            self._closing.clear()
            self._term_values.clear()

    def cache_valid_for(self, mps: MPS) -> bool:
        """True when the environment caches match ``mps`` at its current
        revision (exposed for the invalidation tests)."""
        return self._state is mps and self._revision == mps.revision

    def _site_op(self, q: int, ch: str) -> np.ndarray:
        """Site tensor with the Pauli character applied on the physical leg."""
        key = (q, ch)
        hit = self._site_ops.get(key)
        if hit is None:
            b = self._state.tensors[q]
            if ch == "I":
                hit = b
            else:
                hit = np.tensordot(PAULI_MATRICES[ch], b,
                                   axes=((1,), (1,))).transpose(1, 0, 2)
            self._site_ops[key] = hit
        return hit

    def _site_conj(self, q: int) -> np.ndarray:
        """Conjugated (bra-side) site tensor, cached per revision."""
        hit = self._bconj.get(q)
        if hit is None:
            hit = np.ascontiguousarray(self._state.tensors[q].conj())
            self._bconj[q] = hit
        return hit

    def _closing_matrix(self, q: int, ch: str) -> np.ndarray:
        """C[l, m] = sum_{i,r,s} (O B_q)[l,i,r] R[r,s] conj(B_q)[m,i,s]
        with R the state's right environment of bond q + 1.

        This is the right environment of a single-site suffix - the seed
        of the right-to-left sweep and the O(D^2) closure of a term ending
        at ``q``.
        """
        key = (q, ch)
        hit = self._closing.get(key)
        if hit is None:
            bk = self._site_op(q, ch)
            bc = self._site_conj(q)
            dl, _, dr = bk.shape
            _, right = self._state.environments()
            hit = (bk.reshape(dl * 2, dr) @ right[q + 1]).reshape(dl, -1) \
                @ bc.reshape(dl, -1).T
            self._closing[key] = hit
        return hit

    # -- evaluation paths -----------------------------------------------------

    def expectation_sweep(self, mps: MPS, op: QubitOperator,
                          n_qubits: int | None = None,
                          key: tuple | None = None) -> float:
        """Re <psi|H|psi> through the shared-environment sweeps; ``key``
        as for :func:`sweep_plan`."""
        n = mps.n_qubits if n_qubits is None else int(n_qubits)
        if n != mps.n_qubits:
            raise ValidationError(
                f"operator register {n} != state register {mps.n_qubits}"
            )
        return self._evaluate_plan(mps, sweep_plan(op, n, key))

    def term_expectations(self, mps: MPS, terms) -> np.ndarray:
        """<P> of every (non-identity) Pauli string from one pair of
        shared-environment sweeps, as a real vector in the order given."""
        plan = sweep_plan(QubitOperator(dict.fromkeys(terms, 1.0)),
                          mps.n_qubits)
        if plan.n_terms != len(terms):
            raise ValidationError(
                "term_expectations takes distinct non-identity strings")
        # the plan store's key ignores term order, so a cached plan may
        # list the strings differently: read the per-state memo instead
        self._plan_values(mps, plan, path="terms")
        values = self._term_values
        return np.array([values[(t.x, t.z)] for t in terms]).real

    def _plan_values(self, mps: MPS, plan: SweepPlan,
                     path: str = "sweep") -> np.ndarray:
        """Per-term <P> of the plan, swept at most once per state revision."""
        self._bind(mps)
        values = self._term_values
        if all(k in values for k in plan.term_keys):
            # every term was measured against this exact state revision
            # already (e.g. a repeated RDM measurement)
            _M_EVALS.inc(path="cached")
            return np.array([values[k] for k in plan.term_keys])
        if _obs.REGISTRY.enabled:
            _M_EVALS.inc(path=path)
            _M_ENV_STEPS.inc(plan.n_env_steps)
            _M_GEMM.inc(plan.n_gemm_calls)
        vals = self._sweep_values(mps, plan)
        values.update(zip(plan.term_keys, vals))
        return vals

    def _evaluate_plan(self, mps: MPS, plan: SweepPlan) -> float:
        """Two frontier sweeps evaluating every term of the plan at once."""
        vals = self._plan_values(mps, plan)
        total = plan.constant + plan.coeffs @ vals if vals.size \
            else plan.constant
        return float(total.real)

    def _sweep_values(self, mps: MPS, plan: SweepPlan) -> np.ndarray:
        """Per-term <P> values from one left and one right frontier sweep."""
        n = plan.n_qubits
        left, _ = mps.environments()
        # left sweep: grow prefix environments bond by bond, holding the
        # rows each split bond will consume during the right sweep
        held: list[np.ndarray | None] = [None] * (n + 1)
        frontier: np.ndarray | None = None
        for q in range(n + 1):
            rows = plan.roots[q]
            if rows:
                dq = left[q].shape[0]
                if frontier is None:
                    frontier = np.empty((plan.frontier_l[q], dq, dq),
                                        dtype=complex)
                frontier[np.asarray(rows, dtype=np.intp)] = left[q]
            if frontier is None:
                continue
            if plan.out_l[q].size:
                held[q] = frontier[plan.out_l[q]]
            if q == n:
                break
            nxt: np.ndarray | None = None
            for ch, src, dst in plan.adv_l[q]:
                bk = self._site_op(q, ch)
                bc = self._site_conj(q)
                dr = bk.shape[2]
                if nxt is None:
                    nxt = np.empty((plan.frontier_l[q + 1], dr, dr),
                                   dtype=complex)
                nxt[dst] = _advance_left(frontier[src], bk, bc)
            frontier = nxt
        # right sweep: grow suffix environments from the closing-matrix
        # seeds, combining each split bond's held left rows on the way
        vals = np.empty(plan.n_terms, dtype=complex)
        frontier = None
        for b in range(n - 1, -1, -1):
            nxt = None
            if plan.frontier_r[b]:
                db = left[b].shape[0]
                nxt = np.empty((plan.frontier_r[b], db, db), dtype=complex)
                for ch, row in plan.seeds_r[b]:
                    nxt[row] = self._closing_matrix(b, ch)
            for ch, src, dst in plan.adv_r[b]:
                bk = self._site_op(b, ch)
                bc = self._site_conj(b)
                nxt[dst] = _advance_right(frontier[src], bk, bc)
            frontier = nxt
            rrows, tidx = plan.combos[b]
            if tidx.size:
                vals[tidx] = np.einsum("kij,kij->k", held[b],
                                       frontier[rrows])
                held[b] = None
        return vals / left[n][0, 0].real

    def expectation_per_term(self, mps: MPS, op: QubitOperator) -> float:
        """The classic independent-contraction path: the reference
        implementation the parity tests compare the sweep against."""
        _M_EVALS.inc(path="per_term")
        total = 0.0 + 0.0j
        for term, coeff in op:
            if term.is_identity():
                total += coeff
            else:
                total += coeff * mps.expectation_pauli(term)
        return float(np.real(total))


__all__ = [
    "MPSMeasurementEngine",
    "SweepPlan",
    "build_sweep_plan",
    "compiled_mpo",
    "sweep_plan",
]
