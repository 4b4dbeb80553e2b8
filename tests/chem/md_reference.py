"""Per-quartet McMurchie-Davidson reference for the batched integral engine.

This is the engine's former implementation, kept as a test oracle: one
Python call per AO pair for S, T and V (V loops over the nuclei
and point charges one at a time), one :meth:`ReferenceIntegrals.eri_element`
per AO quartet, and the Boys function from the regularised lower incomplete
gamma function.  It is slow and independent of the class-batched code: it
shares no array layout, no Hermite tables and no Boys table with it.
"""

from __future__ import annotations

import numpy as np
from scipy import special as sps


def boys(m_max: int, x: np.ndarray) -> np.ndarray:
    """F_0..F_{m_max}(x) from gammainc at the top order, downward below."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty((m_max + 1,) + x.shape)
    a = m_max + 0.5
    tiny = x < 1e-12
    xs = np.where(tiny, 1.0, x)
    fm = 0.5 * sps.gamma(a) * sps.gammainc(a, xs) / xs ** a
    series = np.zeros_like(x)
    term = np.ones_like(x)
    for k in range(6):
        series += term / (2 * m_max + 2 * k + 1)
        term *= -x / (k + 1)
    out[m_max] = np.where(tiny, series, fm)
    ex = np.exp(-x)
    for m in range(m_max - 1, -1, -1):
        out[m] = (2.0 * x * out[m + 1] + ex) / (2 * m + 1)
    return out[:, 0] if scalar else out


def hermite_coefficients(i: int, j: int, qx: float,
                         a: np.ndarray, b: np.ndarray) -> list[np.ndarray]:
    """E_t^{ij} for t = 0..i+j over primitive grids a (na,1), b (1,nb)."""
    p = a + b
    mu = a * b / p
    memo: dict[tuple[int, int, int], np.ndarray] = {}

    def e(ii: int, jj: int, t: int) -> np.ndarray:
        if t < 0 or t > ii + jj or ii < 0 or jj < 0:
            return np.zeros_like(p)
        key = (ii, jj, t)
        if key in memo:
            return memo[key]
        if ii == jj == t == 0:
            val = np.exp(-mu * qx * qx) * np.ones_like(p)
        elif jj == 0:
            val = (e(ii - 1, 0, t - 1) / (2.0 * p)
                   - (mu * qx / a) * e(ii - 1, 0, t)
                   + (t + 1) * e(ii - 1, 0, t + 1))
        else:
            val = (e(ii, jj - 1, t - 1) / (2.0 * p)
                   + (mu * qx / b) * e(ii, jj - 1, t)
                   + (t + 1) * e(ii, jj - 1, t + 1))
        memo[key] = val
        return val

    return [e(i, j, t) for t in range(i + j + 1)]


def hermite_r_tensor(tmax: int, umax: int, vmax: int, p: np.ndarray,
                     pc: np.ndarray) -> dict[tuple[int, int, int], np.ndarray]:
    """R_{tuv} for t<=tmax, u<=umax, v<=vmax; ``pc`` is (*p.shape, 3)."""
    r2 = np.sum(pc * pc, axis=-1)
    nmax = tmax + umax + vmax
    fn = boys(nmax, p * r2)
    base = {}
    scale = np.ones_like(p)
    for n in range(nmax + 1):
        base[n] = scale * fn[n]
        scale = scale * (-2.0 * p)
    memo: dict[tuple[int, int, int, int], np.ndarray] = {}

    def r(t: int, u: int, v: int, n: int) -> np.ndarray:
        if t < 0 or u < 0 or v < 0:
            return np.zeros_like(p)
        key = (t, u, v, n)
        if key in memo:
            return memo[key]
        if t == u == v == 0:
            val = base[n]
        elif t > 0:
            val = (t - 1) * r(t - 2, u, v, n + 1) + pc[..., 0] * r(t - 1, u, v, n + 1)
        elif u > 0:
            val = (u - 1) * r(t, u - 2, v, n + 1) + pc[..., 1] * r(t, u - 1, v, n + 1)
        else:
            val = (v - 1) * r(t, u, v - 2, n + 1) + pc[..., 2] * r(t, u, v - 1, n + 1)
        memo[key] = val
        return val

    return {(t, u, v): r(t, u, v, 0) for t in range(tmax + 1)
            for u in range(umax + 1) for v in range(vmax + 1)}


class ReferenceIntegrals:
    """S, T, V and ERI elements, one AO pair / quartet at a time."""

    def __init__(self, molecule, basis):
        self.molecule = molecule
        self.n = basis.n_ao
        self._alphas, self._coefs, self._centers, self._powers = [], [], [], []
        for ao in range(basis.n_ao):
            shell = basis.ao_shell(ao)
            powers = basis.ao_powers(ao)
            self._alphas.append(np.asarray(shell.exponents, dtype=float))
            self._coefs.append(shell.normalized_coefficients(*powers))
            self._centers.append(np.asarray(shell.center, dtype=float))
            self._powers.append(powers)
        self._pairs: dict[tuple[int, int], dict] = {}

    def _pair(self, i: int, j: int) -> dict:
        if (i, j) not in self._pairs:
            a = self._alphas[i][:, None]
            b = self._alphas[j][None, :]
            p = a + b
            A, B = self._centers[i], self._centers[j]
            li, lj = self._powers[i], self._powers[j]
            self._pairs[(i, j)] = {
                "a": a, "b": b, "p": p, "li": li, "lj": lj,
                "P": (a[..., None] * A + b[..., None] * B) / p[..., None],
                "e": [hermite_coefficients(li[x], lj[x], A[x] - B[x], a, b)
                      for x in range(3)],
                "cc": self._coefs[i][:, None] * self._coefs[j][None, :]}
        return self._pairs[(i, j)]

    def _matrix(self, element) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        for i in range(self.n):
            for j in range(i + 1):
                out[i, j] = out[j, i] = element(i, j)
        return out

    def overlap(self) -> np.ndarray:
        def element(i, j):
            d = self._pair(i, j)
            ex, ey, ez = d["e"]
            return (d["cc"] * ex[0] * ey[0] * ez[0]
                    * (np.pi / d["p"]) ** 1.5).sum()
        return self._matrix(element)

    def kinetic(self) -> np.ndarray:
        def element(i, j):
            d = self._pair(i, j)
            a, b, p = d["a"], d["b"], d["p"]
            A, B = self._centers[i], self._centers[j]
            li, lj = d["li"], d["lj"]

            def s1d(axis, jx):
                if jx < 0:
                    return np.zeros_like(p)
                e = hermite_coefficients(li[axis], jx, A[axis] - B[axis], a, b)
                return e[0] * np.sqrt(np.pi / p)

            sx = [s1d(x, lj[x]) for x in range(3)]
            tx = [-2.0 * b * b * s1d(x, lj[x] + 2)
                  + b * (2 * lj[x] + 1) * sx[x]
                  - 0.5 * lj[x] * (lj[x] - 1) * s1d(x, lj[x] - 2)
                  for x in range(3)]
            return (d["cc"] * (tx[0] * sx[1] * sx[2] + sx[0] * tx[1] * sx[2]
                               + sx[0] * sx[1] * tx[2])).sum()
        return self._matrix(element)

    def nuclear_attraction(self) -> np.ndarray:
        mol = self.molecule
        centres = [(np.asarray(a.position, dtype=float), float(a.z))
                   for a in mol.atoms]
        centres += [(np.asarray(pc.position, dtype=float), pc.charge)
                    for pc in mol.point_charges]

        def element(i, j):
            d = self._pair(i, j)
            ex, ey, ez = d["e"]
            tmax, umax, vmax = (d["li"][x] + d["lj"][x] for x in range(3))
            acc = 0.0
            for C, Z in centres:
                rt = hermite_r_tensor(tmax, umax, vmax, d["p"], d["P"] - C)
                g = sum(ex[t] * ey[u] * ez[v] * rt[(t, u, v)]
                        for t in range(tmax + 1) for u in range(umax + 1)
                        for v in range(vmax + 1))
                acc += -Z * float((d["cc"] * 2.0 * np.pi / d["p"] * g).sum())
            return acc
        return self._matrix(element)

    def eri_element(self, i: int, j: int, k: int, l: int) -> float:
        bra, ket = self._pair(i, j), self._pair(k, l)
        lb = [bra["li"][x] + bra["lj"][x] for x in range(3)]
        lk = [ket["li"][x] + ket["lj"][x] for x in range(3)]
        p, q = bra["p"].ravel(), ket["p"].ravel()
        P, Q = bra["P"].reshape(-1, 3), ket["P"].reshape(-1, 3)
        alpha = p[:, None] * q[None, :] / (p[:, None] + q[None, :])
        rt = hermite_r_tensor(lb[0] + lk[0], lb[1] + lk[1], lb[2] + lk[2],
                              alpha, P[:, None, :] - Q[None, :, :])
        g = np.zeros((p.size, q.size))
        for tb in range(lb[0] + 1):
            for ub in range(lb[1] + 1):
                for vb in range(lb[2] + 1):
                    eb = (bra["e"][0][tb] * bra["e"][1][ub]
                          * bra["e"][2][vb]).ravel()
                    acc = np.zeros_like(g)
                    for tk in range(lk[0] + 1):
                        for uk in range(lk[1] + 1):
                            for vk in range(lk[2] + 1):
                                ek = ((-1.0) ** (tk + uk + vk)
                                      * ket["e"][0][tk] * ket["e"][1][uk]
                                      * ket["e"][2][vk]).ravel()
                                acc += ek[None, :] * rt[(tb + tk, ub + uk,
                                                         vb + vk)]
                    g += eb[:, None] * acc
        pref = (2.0 * np.pi ** 2.5
                / (p[:, None] * q[None, :] * np.sqrt(p[:, None] + q[None, :])))
        cc = bra["cc"].ravel()[:, None] * ket["cc"].ravel()[None, :]
        return float((cc * pref * g).sum())

    def eri(self) -> np.ndarray:
        """Every unique quartet, then the eight-fold symmetry."""
        out = np.zeros((self.n,) * 4)
        pairs = [(i, j) for i in range(self.n) for j in range(i + 1)]
        for b, (i, j) in enumerate(pairs):
            for (k, l) in pairs[:b + 1]:
                val = self.eri_element(i, j, k, l)
                for (x, y) in ((i, j), (j, i)):
                    for (z, w) in ((k, l), (l, k)):
                        out[x, y, z, w] = out[z, w, x, y] = val
        return out
