"""Second-quantized fermionic operators.

A :class:`FermionOperator` is a linear combination of products of creation
(``(p, 1)``) and annihilation (``(p, 0)``) operators.  Normal ordering applies
the canonical anticommutation relations {a_p, a+_q} = delta_pq.  This is the
intermediate representation between molecular integrals and qubit operators.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.common.errors import ValidationError

#: A single ladder operator: (spin-orbital index, is_creation)
LadderOp = tuple[int, int]
#: A product of ladder operators.
Term = tuple[LadderOp, ...]


class FermionOperator:
    """Linear combination of ladder-operator products.

    Examples
    --------
    >>> op = FermionOperator.from_term([(0, 1), (1, 0)], 2.0)   # 2 a+_0 a_1
    >>> (op + op.dagger()).is_hermitian()
    True
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Term, complex] | None = None):
        self.terms: dict[Term, complex] = dict(terms) if terms else {}

    # -- constructors -----------------------------------------------------------

    @classmethod
    def zero(cls) -> "FermionOperator":
        return cls({})

    @classmethod
    def identity(cls, coeff: complex = 1.0) -> "FermionOperator":
        return cls({(): coeff})

    @classmethod
    def from_term(cls, ops: list[LadderOp] | Term,
                  coeff: complex = 1.0) -> "FermionOperator":
        term = tuple((int(p), int(d)) for p, d in ops)
        for p, d in term:
            if p < 0 or d not in (0, 1):
                raise ValidationError(f"bad ladder operator ({p}, {d})")
        return cls({term: coeff})

    # -- algebra ------------------------------------------------------------------

    def __add__(self, other: "FermionOperator | complex") -> "FermionOperator":
        if not isinstance(other, FermionOperator):
            other = FermionOperator.identity(other)
        out = dict(self.terms)
        for t, c in other.terms.items():
            out[t] = out.get(t, 0.0) + c
        return FermionOperator(out)

    __radd__ = __add__

    def __sub__(self, other: "FermionOperator | complex") -> "FermionOperator":
        if not isinstance(other, FermionOperator):
            other = FermionOperator.identity(other)
        return self + (other * -1.0)

    def __mul__(self, other: "FermionOperator | complex") -> "FermionOperator":
        if not isinstance(other, FermionOperator):
            return FermionOperator({t: c * other for t, c in self.terms.items()})
        out: dict[Term, complex] = {}
        for t1, c1 in self.terms.items():
            for t2, c2 in other.terms.items():
                t12 = t1 + t2
                out[t12] = out.get(t12, 0.0) + c1 * c2
        return FermionOperator(out)

    def __rmul__(self, other: complex) -> "FermionOperator":
        return self * other

    def __neg__(self) -> "FermionOperator":
        return self * -1.0

    def dagger(self) -> "FermionOperator":
        """Hermitian conjugate: reverse each product, flip dagger flags."""
        out: dict[Term, complex] = {}
        for t, c in self.terms.items():
            rt = tuple((p, 1 - d) for p, d in reversed(t))
            out[rt] = out.get(rt, 0.0) + c.conjugate()
        return FermionOperator(out)

    # -- normal ordering ------------------------------------------------------------

    def normal_ordered(self, tolerance: float = 1e-12) -> "FermionOperator":
        """Rewrite with creations left of annihilations, indices descending.

        Uses {a_p, a+_q} = delta_pq recursively; identical adjacent ladder
        operators annihilate the term.
        """
        out = FermionOperator.zero()
        for term, coeff in self.terms.items():
            out = out + _normal_order_term(list(term), coeff)
        return out.simplify(tolerance)

    def simplify(self, tolerance: float = 1e-12) -> "FermionOperator":
        return FermionOperator({t: c for t, c in self.terms.items()
                                if abs(c) > tolerance})

    # -- queries ----------------------------------------------------------------------

    def is_hermitian(self, tolerance: float = 1e-10) -> bool:
        diff = (self - self.dagger()).normal_ordered()
        return all(abs(c) < tolerance for c in diff.terms.values())

    def n_spin_orbitals(self) -> int:
        n = 0
        for t in self.terms:
            for p, _ in t:
                n = max(n, p + 1)
        return n

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[tuple[Term, complex]]:
        return iter(self.terms.items())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if not self.terms:
            return "0"
        parts = []
        for t, c in list(self.terms.items())[:6]:
            ops = " ".join(f"a{'+' if d else ''}_{p}" for p, d in t) or "1"
            parts.append(f"({c:+.4g}) {ops}")
        more = "" if len(self.terms) <= 6 else f" ... ({len(self.terms)} terms)"
        return " + ".join(parts) + more


def ladder_arrays(op: FermionOperator) -> list:
    """Terms grouped by length k: ``(positions, (T, k, 2) ops, coeffs)``.
    A negative index or a flag other than 0/1 is a ValidationError."""
    by_k: dict[int, list] = {}
    for pos, (term, c) in enumerate(op.terms.items()):
        by_k.setdefault(len(term), []).append((pos, term, c))
    groups = []
    for k, items in by_k.items():
        pos, terms, coeffs = zip(*items)
        lad = np.array(terms, dtype=np.int64).reshape(len(terms), k, 2)
        bad = ((lad[..., 0] < 0) | ((lad[..., 1] & ~1) != 0)).any(1)
        if bad.any():
            raise ValidationError(f"bad ladder operator in term {terms[bad.argmax()]}"
                                  ": index must be >= 0 and flag 0 or 1")
        groups.append((np.array(pos), lad, np.array(coeffs, dtype=complex)))
    return groups


def _normal_order_term(ops: list[LadderOp], coeff: complex) -> FermionOperator:
    """Bubble a single product into normal order, branching on contractions."""
    out: dict[Term, complex] = {}
    stack = [(ops, coeff)]
    while stack:
        term, c = stack.pop()
        swapped = True
        while swapped:
            swapped = False
            for i in range(len(term) - 1):
                (p1, d1), (p2, d2) = term[i], term[i + 1]
                if d1 == 0 and d2 == 1:
                    # a_p a+_q = delta_pq - a+_q a_p
                    rest = term[:i] + term[i + 2:]
                    if p1 == p2:
                        stack.append((rest, c))
                    term = term[:i] + [(p2, d2), (p1, d1)] + term[i + 2:]
                    c = -c
                    swapped = True
                    break
                if d1 == d2:
                    if p1 == p2:
                        # a+a+ or aa with equal index -> 0
                        c = 0.0
                        swapped = False
                        term = []
                        break
                    # sort descending within a like-type block (canonical form)
                    if (d1 == 1 and p1 < p2) or (d1 == 0 and p1 < p2):
                        term = term[:i] + [(p2, d2), (p1, d1)] + term[i + 2:]
                        c = -c
                        swapped = True
                        break
            if not term and c == 0.0:
                break
        if c != 0.0:
            key = tuple(term)
            out[key] = out.get(key, 0.0) + c
    return FermionOperator(out)
