"""Gaussian integrals via the McMurchie-Davidson scheme, batched by class.

S, T, V (nuclei plus point charges) and ERIs for contracted Cartesian
Gaussians of any angular momentum.  Shell pairs are grouped by angular class
(l_a >= l_b) and each class is flattened once into primitive-pair rows: p, P,
the coefficient of every Cartesian component pair, the Hermite coefficients
E, and one segment of rows per shell pair.  Every integral is then a few
array operations per class and one segment reduction (``np.add.reduceat``):
S and T from the 1D E_0; V from one Hermite R_tuv build over
rows x (nuclei and charges); the ERIs from one Boys call and one R_tuv build
per (bra class, ket class) block over the primitive-quartet grid, contracted
with E on both sides.  Only the shell-pair triangle is evaluated, in chunks
of about ``_CHUNK_ELEMENTS`` doubles per temporary, and the eight-fold
symmetry fills the rest.  The Boys function is tabulated (Helgaker,
Jorgensen and Olsen, *Molecular Electronic-Structure Theory*, 9.8.1).

Conventions: ERIs are returned in chemists' notation ``(ij|kl)``; all
quantities are in atomic units.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.chem.geometry import Molecule
from repro.chem.basis import BasisSet, cartesian_components

_BOYS_DX = 0.02          # grid spacing of the table
_BOYS_TERMS = 6          # Taylor terms about the nearest grid point
_BOYS_FAR = 40.0         # F_0 = sqrt(pi/x)/2 to double precision beyond this
_BOYS_M = 16             # highest order served (four g shells)


def _boys_table() -> np.ndarray:
    """F_n(k dx), n < _BOYS_M + _BOYS_TERMS: the all-positive series
    e^-x sum_k (2x)^k / ((2n+1)(2n+3)...(2n+2k+1)) at the top order, the
    stable downward recursion below it."""
    x = np.arange(int(round(_BOYS_FAR / _BOYS_DX)) + 2) * _BOYS_DX
    top = _BOYS_M + _BOYS_TERMS - 1
    term = np.full_like(x, 1.0 / (2 * top + 1))
    total = term.copy()
    k = 0
    while term.max() > 1e-17 * total.min():
        k += 1
        term = term * (2.0 * x) / (2 * top + 2 * k + 1)
        total += term
    ex = np.exp(-x)
    table = np.empty((top + 1, x.size))
    table[top] = ex * total
    for n in range(top - 1, -1, -1):
        table[n] = (2.0 * x * table[n + 1] + ex) / (2 * n + 1)
    return table


_BOYS_TABLE = _boys_table()


def boys(m_max: int, x: np.ndarray) -> np.ndarray:
    """F_0..F_{m_max}(x), shape ``(m_max+1, *x.shape)``, ``m_max <= 16``.

    Below ``_BOYS_FAR``: Taylor series about the nearest grid point for the
    top order, downward recursion below it.  Above: F_0 = sqrt(pi/x)/2 and
    the upward recursion, which is stable there."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty((m_max + 1, flat.size))
    near = flat < _BOYS_FAR
    every = near.all()
    xs = flat if every else flat[near]
    fn = out if every else np.empty((m_max + 1, xs.size))
    k = (xs * (1.0 / _BOYS_DX) + 0.5).astype(np.intp)
    h = k * _BOYS_DX - xs
    f = _BOYS_TABLE[m_max + _BOYS_TERMS - 1].take(k)
    for j in range(_BOYS_TERMS - 2, -1, -1):
        f *= h
        f *= 1.0 / (j + 1)
        f += _BOYS_TABLE[m_max + j].take(k)
    fn[m_max] = f
    if m_max:
        ex = np.exp(-xs)
        x2 = 2.0 * xs
        for m in range(m_max - 1, -1, -1):
            np.multiply(fn[m + 1], x2, out=fn[m])
            fn[m] += ex
            fn[m] *= 1.0 / (2 * m + 1)
    if not every:
        out[:, near] = fn
        far = ~near
        xs = flat[far]
        fm = 0.5 * np.sqrt(np.pi / xs)
        out[0, far] = fm
        ex = np.exp(-xs) if m_max else None
        for m in range(m_max):
            fm = ((2 * m + 1) * fm - ex) / (2.0 * xs)
            out[m + 1, far] = fm
    return out.reshape((m_max + 1,) + x.shape)


@functools.lru_cache(maxsize=None)
def _hermite_index(L: int) -> np.ndarray:
    """All (t, u, v) with t+u+v <= L by degree, so L' < L is a prefix."""
    return np.array([(t, u, n - t - u) for n in range(L + 1)
                     for t in range(n, -1, -1) for u in range(n - t, -1, -1)],
                    dtype=np.intp).reshape(-1, 3)


@functools.lru_cache(maxsize=None)
def _hermite_position(L: int) -> dict[tuple[int, int, int], int]:
    return {tuple(h): i for i, h in enumerate(_hermite_index(L).tolist())}


@functools.lru_cache(maxsize=None)
def _r_step(L: int):
    """Plan for R^n (degree <= L) from R^{n+1}: entry i >= 1 lowers its first
    nonzero index, R^n_t = (t-1) R^{n+1}_{t-2} + PQ_axis R^{n+1}_{t-1}."""
    pos = _hermite_position(L)
    axis, i1, i2, c2 = [], [], [], []
    for tuv in _hermite_index(L)[1:].tolist():
        ax = 0 if tuv[0] else 1 if tuv[1] else 2
        one = list(tuv)
        one[ax] -= 1
        two = list(one)
        two[ax] -= 1
        axis.append(ax)
        i1.append(pos[tuple(one)])
        i2.append(pos[tuple(two)] if two[ax] >= 0 else 0)
        c2.append(float(max(tuv[ax] - 1, 0)))
    return (np.array(axis), np.array(i1), np.array(i2),
            np.array(c2)[:, None])


@functools.lru_cache(maxsize=None)
def _hermite_sum(lb: int, lk: int) -> np.ndarray:
    """Index into _hermite_index(lb+lk) of every bra (t,u,v) + ket (t,u,v)."""
    pos = _hermite_position(lb + lk)
    return np.array([[pos[tuple(hb + hk)] for hk in _hermite_index(lk)]
                     for hb in _hermite_index(lb)], dtype=np.intp)


def _hermite_r(L: int, alpha: np.ndarray, pq: np.ndarray,
               scale: np.ndarray) -> np.ndarray:
    """``scale`` * R_tuv(alpha, PQ), (len(_hermite_index(L)), n), from flat
    (n,) alpha/scale and (3, n) pq; the recursion is linear in the seeds
    R^n_000 = (-2 alpha)^n F_n, so ``scale`` is applied to those."""
    fn = boys(L, alpha * np.einsum("an,an->n", pq, pq))
    seeds = [scale * fn[0]]
    mp = -2.0 * alpha
    for n in range(1, L + 1):
        scale = scale * mp
        seeds.append(scale * fn[n])
    r = seeds[L][None]
    for n in range(L - 1, -1, -1):
        axis, i1, i2, c2 = _r_step(L - n)
        new = np.empty((len(axis) + 1, alpha.size))
        new[0] = seeds[n]
        new[1:] = c2 * r[i2] + pq[axis] * r[i1]
        r = new
    return r


#: Doubles per temporary of a chunk of the ERI or V grid (256 KiB: cache
#: resident, and below the size at which each temporary is a fresh mmap).
_CHUNK_ELEMENTS = 1 << 15


class _PairClass:
    """Every shell pair of class (la, lb), one row per primitive pair: shell
    pair s owns rows ``starts[s]:starts[s+1]``; ``ao_a``/``ao_b`` (ns, nab)
    are the AOs of each Cartesian component pair."""

    def __init__(self, la: int, lb: int, pairs: list, shells: dict):
        self.la, self.lb = la, lb
        sa, sb = np.array(pairs, dtype=np.intp).T
        na, nb = shells["nprim"][sa], shells["nprim"][sb]
        sizes = na * nb
        self.starts = np.concatenate(([0], np.cumsum(sizes)))
        self.seg = np.repeat(np.arange(len(pairs)), sizes)
        local = np.arange(self.starts[-1]) - self.starts[self.seg]
        ia = shells["first"][sa][self.seg] + local // nb[self.seg]
        ib = shells["first"][sb][self.seg] + local % nb[self.seg]
        comps_a = np.array(cartesian_components(la))
        comps_b = np.array(cartesian_components(lb))
        ca = np.repeat(np.arange(len(comps_a)), len(comps_b))
        cb = np.tile(np.arange(len(comps_b)), len(comps_a))
        self.ao_a = shells["ao"][sa][:, None] + ca
        self.ao_b = shells["ao"][sb][:, None] + cb
        self.pa, self.pb = comps_a[ca], comps_b[cb]            # (nab, 3)
        self.coef = (shells["coef"][la][ca[:, None], ia]
                     * shells["coef"][lb][cb[:, None], ib])   # (nab, rows)
        a, b = shells["alpha"][ia], shells["alpha"][ib]
        A, B = shells["center"][:, ia], shells["center"][:, ib]
        self.b, self.p = b, a + b
        self.P = (a * A + b * B) / self.p
        self.E = self._hermite_e(a, b, A - B)
        # E_tuv of every component pair, and their ERI forms with the
        # coefficient and 1/p folded in (ket: times (-1)^(t+u+v))
        herm = _hermite_index(la + lb)
        e = self.E[self.pa[:, None, :], self.pb[:, None, :], herm,
                   np.arange(3)].prod(axis=2)                 # (nab, nh, rows)
        self.herm = e
        self.eri_bra = e * (self.coef / self.p)[:, None, :]
        self.eri_ket = self.eri_bra * (1.0 - 2.0 * (herm.sum(1) % 2))[:, None]

    def _hermite_e(self, a, b, qab) -> np.ndarray:
        """E^{ij}_t per axis, (la+1, lb+3, la+lb+3, 3, rows), zero-padded; j
        runs to lb+2 for the kinetic integrals (HJO eqs. 9.5.6-9.5.7)."""
        p = self.p
        xpa, xpb = -b / p * qab, a / p * qab
        inv2p = 0.5 / p
        la, lb = self.la, self.lb
        nt = la + lb + 3
        E = np.zeros((la + 1, lb + 3, nt, 3, p.size))
        E[0, 0, 0] = np.exp(-(a * b / p) * qab * qab)
        t1 = np.arange(1, nt)[:, None, None]
        for j in range(lb + 3):
            for i in range(la + 1):
                if i == j == 0:
                    continue
                prev, x = (E[i - 1, 0], xpa) if j == 0 else (E[i, j - 1], xpb)
                cur = E[i, j]
                cur[:] = x * prev
                cur[1:] += inv2p * prev[:-1]
                cur[:-1] += t1 * prev[1:]
        return E

    def one_electron(self, charges: np.ndarray, centres: np.ndarray):
        """Per-row S, T and V of every component pair."""
        ax = np.arange(3)
        pa, pb = self.pa, self.pb
        s1 = self.E[pa, pb, 0, ax]                            # (nab, 3, rows)
        e2 = self.E[pa, pb + 2, 0, ax]
        em2 = self.E[pa, np.maximum(pb - 2, 0), 0, ax]
        b = self.b
        jb = pb[..., None]
        k1 = (-2.0 * b * b * e2 + b * (2 * jb + 1) * s1
              - 0.5 * jb * (jb - 1) * em2)
        w = self.coef * (np.pi / self.p) ** 1.5
        s = w * s1[:, 0] * s1[:, 1] * s1[:, 2]
        t = w * (k1[:, 0] * s1[:, 1] * s1[:, 2] + s1[:, 0] * k1[:, 1]
                 * s1[:, 2] + s1[:, 0] * s1[:, 1] * k1[:, 2])
        L = self.la + self.lb
        nh = len(_hermite_index(L))
        nc = len(charges)
        rz = np.empty((nh, self.p.size))
        step = max(1, _CHUNK_ELEMENTS // (nc * nh))
        for r0 in range(0, self.p.size, step):
            rows = slice(r0, r0 + step)
            p = self.p[rows]
            pc = (self.P[:, rows, None] - centres[:, None, :]).reshape(3, -1)
            r = _hermite_r(L, np.repeat(p, nc), pc,
                           np.tile(-charges, p.size))
            rz[:, rows] = r.reshape(nh, p.size, nc).sum(axis=2)
        v = (self.coef * (2.0 * np.pi / self.p)
             * np.einsum("ahr,hr->ar", self.herm, rz))
        return s, t, v


class IntegralEngine:
    """Computes AO integrals for a (molecule, basis set) pair.

    Each public method computes once and re-serves the cached, read-only
    array."""

    def __init__(self, molecule: Molecule, basis: BasisSet):
        self.molecule = molecule
        self.basis = basis
        self._cache: dict[str, np.ndarray] = {}
        shells = basis.shells
        nprim = np.array([len(sh.exponents) for sh in shells], dtype=np.intp)
        ncomp = np.array([sh.n_components for sh in shells], dtype=np.intp)
        first = np.concatenate(([0], np.cumsum(nprim)[:-1]))
        coef = {l: np.zeros((len(cartesian_components(l)), nprim.sum()))
                for l in {sh.l for sh in shells}}
        for sh, f, n in zip(shells, first, nprim):
            coef[sh.l][:, f:f + n] = [sh.normalized_coefficients(*c)
                                      for c in sh.components]
        table = {
            "nprim": nprim, "first": first, "coef": coef,
            "ao": np.concatenate(([0], np.cumsum(ncomp)[:-1])),
            "alpha": np.concatenate([sh.exponents for sh in shells]),
            "center": np.repeat(np.array([sh.center for sh in shells],
                                         dtype=float), nprim, axis=0).T,
        }
        groups: dict[tuple[int, int], list] = {}
        for i, si in enumerate(shells):
            for j in range(i + 1):
                a, b = (i, j) if si.l >= shells[j].l else (j, i)
                groups.setdefault((shells[a].l, shells[b].l), []).append((a, b))
        self._classes = [_PairClass(la, lb, groups[(la, lb)], table)
                         for (la, lb) in sorted(groups)]

    def _store(self, key: str, arr: np.ndarray) -> np.ndarray:
        arr.flags.writeable = False
        self._cache[key] = arr
        return arr

    # -- one-electron integrals ---------------------------------------------

    def _one_electron(self) -> None:
        n = self.basis.n_ao
        mol = self.molecule
        centres = np.array([a.position for a in mol.atoms]
                           + [pc.position for pc in mol.point_charges],
                           dtype=float).T
        charges = np.array([float(a.z) for a in mol.atoms]
                           + [pc.charge for pc in mol.point_charges])
        out = np.zeros((3, n, n))
        for cls in self._classes:
            vals = np.stack(cls.one_electron(charges, centres))
            vals = np.add.reduceat(vals, cls.starts[:-1], axis=2)
            vals = vals.transpose(0, 2, 1)                    # (3, ns, nab)
            out[:, cls.ao_a, cls.ao_b] = vals
            out[:, cls.ao_b, cls.ao_a] = vals
        out = np.tril(out) + np.tril(out, -1).transpose(0, 2, 1)
        for key, arr in (("S", out[0]), ("T", out[1]), ("V", out[2])):
            self._store(key, arr.copy())

    def _one(self, key: str) -> np.ndarray:
        if key not in self._cache:
            self._one_electron()
        return self._cache[key]

    def overlap(self) -> np.ndarray:
        """AO overlap matrix S."""
        return self._one("S")

    def kinetic(self) -> np.ndarray:
        """AO kinetic-energy matrix T."""
        return self._one("T")

    def nuclear_attraction(self) -> np.ndarray:
        """AO nuclear-attraction matrix V (negative), including point charges."""
        return self._one("V")

    def core_hamiltonian(self) -> np.ndarray:
        """h = T + V."""
        return self.kinetic() + self.nuclear_attraction()

    # -- two-electron integrals ----------------------------------------------

    def _eri_block(self, bra: _PairClass, s0: int, s1: int,
                   ket: _PairClass, keep: np.ndarray) -> np.ndarray:
        """(ab|cd), (s1-s0, nab, n_kept, ncd), of bra pairs s0:s1 x kept kets."""
        xs = slice(bra.starts[s0], bra.starts[s1])
        yk = np.flatnonzero(keep[ket.seg])
        ksize = np.diff(ket.starts)[keep]
        kstarts = np.concatenate(([0], np.cumsum(ksize)[:-1]))
        p = bra.p[xs, None]
        q = ket.p[None, yk]
        shape = (p.size, q.size)
        pq = (bra.P[:, xs, None] - ket.P[:, None, yk]).reshape(3, -1)
        lb, lk = bra.la + bra.lb, ket.la + ket.lb
        r = _hermite_r(lb + lk, (p * q / (p + q)).ravel(), pq,
                       (2.0 * np.pi ** 2.5 / np.sqrt(p + q)).ravel())
        index = _hermite_sum(lb, lk)
        r = r[index].reshape(index.shape + shape)
        w = np.einsum("hkxy,cky->xhcy", r, ket.eri_ket[:, :, yk])
        w = np.add.reduceat(w, kstarts, axis=3)
        g = np.einsum("ahx,xhcs->xasc", bra.eri_bra[:, :, xs], w)
        return np.add.reduceat(g, bra.starts[s0:s1] - bra.starts[s0], axis=0)

    def eri(self) -> np.ndarray:
        """Full ERI tensor (ij|kl) in chemists' notation, 8-fold symmetric."""
        if "ERI" in self._cache:
            return self._cache["ERI"]
        n = self.basis.n_ao
        i, j = np.tril_indices(n)
        pair = np.empty((n, n), dtype=np.intp)
        pair[i, j] = pair[j, i] = np.arange(i.size)
        g = np.zeros((i.size, i.size))
        for ci, bra in enumerate(self._classes):
            for cj, ket in enumerate(self._classes[:ci + 1]):
                nab, ncd = bra.ao_a.shape[1], ket.ao_a.shape[1]
                nks = len(ket.starts) - 1
                per_row = ket.starts[-1] * max(
                    len(_hermite_index(bra.la + bra.lb + ket.la + ket.lb)),
                    _hermite_sum(bra.la + bra.lb, ket.la + ket.lb).size,
                    bra.herm.shape[1] * ncd, nab * ncd)
                for s0, s1 in _chunks(bra.starts, _CHUNK_ELEMENTS // per_row):
                    keep = np.ones(nks, dtype=bool)
                    if ci == cj:
                        keep[s1:] = False
                    block = self._eri_block(bra, s0, s1, ket, keep)
                    pb = pair[bra.ao_a[s0:s1], bra.ao_b[s0:s1]]
                    pk = pair[ket.ao_a[keep], ket.ao_b[keep]]
                    g[pb[:, :, None, None], pk] = block
                    g[pk[:, :, None, None], pb] = block.transpose(2, 3, 0, 1)
        g = np.tril(g) + np.tril(g, -1).T
        return self._store("ERI", g[pair[:, :, None, None], pair])

    # -- convenience ---------------------------------------------------------

    def all_integrals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Return (S, h_core, ERI, E_nuclear)."""
        return (self.overlap(), self.core_hamiltonian(), self.eri(),
                self.molecule.nuclear_repulsion())


def _chunks(starts: np.ndarray, max_rows: int):
    """Runs [s0, s1) of whole segments holding about ``max_rows`` rows."""
    s0, ns = 0, len(starts) - 1
    while s0 < ns:
        s1 = int(np.searchsorted(starts, starts[s0] + max(max_rows, 1),
                                 side="right")) - 1
        s1 = min(max(s1, s0 + 1), ns)
        yield s0, s1
        s0 = s1
