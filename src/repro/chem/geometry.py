"""Molecular geometries: atoms, point charges, and workload builders.

Distances are stored internally in Bohr; the public constructors accept
angstrom by default because the paper quotes geometries in angstrom.

The builders at the bottom generate the workloads used throughout the paper's
evaluation: hydrogen chains (Figs. 10, 12, 13), hydrogen rings (Fig. 7a) and
bond-length-alternated carbon rings (Fig. 7b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.common.constants import ANGSTROM_TO_BOHR
from repro.common.errors import ValidationError
from repro.chem.periodic import atomic_number


@dataclass(frozen=True)
class Atom:
    """An atom: element symbol plus Cartesian position in Bohr."""

    symbol: str
    position: tuple[float, float, float]

    @property
    def z(self) -> int:
        return atomic_number(self.symbol)


@dataclass(frozen=True)
class PointCharge:
    """An external point charge (used for the frozen-protein-field model).

    The paper's Sec. V uses a "frozen protein" approximation in which the
    ligand is computed inside the fixed electrostatic environment of the
    protein.  We represent that environment as a set of point charges.
    """

    charge: float
    position: tuple[float, float, float]


@dataclass
class Molecule:
    """A molecule: atoms, net charge, optional external point charges.

    Parameters
    ----------
    atoms:
        Sequence of :class:`Atom` (positions in Bohr).
    charge:
        Net charge; the electron count is ``sum(Z) - charge``.
    point_charges:
        External frozen charges contributing to the one-electron potential
        and to the nuclear-repulsion-like constant.
    """

    atoms: list[Atom]
    charge: int = 0
    point_charges: list[PointCharge] = field(default_factory=list)
    name: str = ""

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValidationError("a molecule needs at least one atom")
        if self.n_electrons < 0:
            raise ValidationError(
                f"charge {self.charge} exceeds total nuclear charge"
            )

    # -- construction ------------------------------------------------------

    @classmethod
    def from_angstrom(cls, spec: list[tuple[str, float, float, float]],
                      charge: int = 0, name: str = "") -> "Molecule":
        """Build from ``(symbol, x, y, z)`` tuples given in angstrom."""
        atoms = [
            Atom(sym, (x * ANGSTROM_TO_BOHR, y * ANGSTROM_TO_BOHR,
                       z * ANGSTROM_TO_BOHR))
            for sym, x, y, z in spec
        ]
        return cls(atoms=atoms, charge=charge, name=name)

    @classmethod
    def from_xyz(cls, text: str, charge: int = 0, name: str = "") -> "Molecule":
        """Parse standard XYZ file content (coordinates in angstrom)."""
        lines = [ln for ln in text.strip().splitlines()]
        if not lines:
            raise ValidationError("empty xyz content")
        try:
            natoms = int(lines[0].split()[0])
            body = lines[2:2 + natoms]
        except (ValueError, IndexError):
            # headerless variant: every line is an atom record
            natoms = len(lines)
            body = lines
        if len(body) != natoms:
            raise ValidationError(
                f"xyz header declares {natoms} atoms, found {len(body)}"
            )
        spec = []
        for ln in body:
            parts = ln.split()
            if len(parts) < 4:
                raise ValidationError(f"malformed xyz line: {ln!r}")
            spec.append((parts[0], float(parts[1]), float(parts[2]),
                         float(parts[3])))
        return cls.from_angstrom(spec, charge=charge, name=name)

    def with_point_charges(self, charges: list[PointCharge]) -> "Molecule":
        """Return a copy embedded in an external point-charge field."""
        return Molecule(atoms=list(self.atoms), charge=self.charge,
                        point_charges=list(charges), name=self.name)

    def to_xyz(self, comment: str = "") -> str:
        """Standard XYZ text (coordinates in angstrom)."""
        from repro.common.constants import BOHR_TO_ANGSTROM

        lines = [str(self.n_atoms), comment or self.name]
        for a in self.atoms:
            x, y, z = (c * BOHR_TO_ANGSTROM for c in a.position)
            lines.append(f"{a.symbol} {x:.10f} {y:.10f} {z:.10f}")
        return "\n".join(lines) + "\n"

    # -- properties --------------------------------------------------------

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def n_electrons(self) -> int:
        return sum(a.z for a in self.atoms) - self.charge

    @property
    def coordinates(self) -> np.ndarray:
        """(n_atoms, 3) array of positions in Bohr."""
        return np.array([a.position for a in self.atoms], dtype=float)

    @property
    def charges(self) -> np.ndarray:
        """(n_atoms,) array of nuclear charges."""
        return np.array([a.z for a in self.atoms], dtype=float)

    def nuclear_repulsion(self) -> float:
        """Nuclear repulsion energy, including external point charges.

        Point charges interact with the nuclei (frozen-field model) but not
        with each other: their internal energy is an additive constant of the
        environment that cancels in binding-energy differences.
        """
        coords = self.coordinates
        z = self.charges
        energy = 0.0
        for i in range(self.n_atoms):
            for j in range(i + 1, self.n_atoms):
                r = np.linalg.norm(coords[i] - coords[j])
                if r < 1e-10:
                    raise ValidationError(
                        f"atoms {i} and {j} coincide (r={r:.2e} Bohr)"
                    )
                energy += z[i] * z[j] / r
        for pc in self.point_charges:
            q = np.asarray(pc.position, dtype=float)
            for i in range(self.n_atoms):
                r = np.linalg.norm(coords[i] - q)
                if r < 1e-10:
                    raise ValidationError("point charge coincides with a nucleus")
                energy += z[i] * pc.charge / r
        return energy

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or "".join(a.symbol for a in self.atoms[:6])
        return (f"Molecule({label}, n_atoms={self.n_atoms}, "
                f"n_electrons={self.n_electrons})")


# -- workload builders -----------------------------------------------------

def hydrogen_chain(n: int, spacing: float = 1.0) -> Molecule:
    """Linear H_n chain with uniform ``spacing`` in angstrom along z.

    This is the workload of Figs. 10, 12 and 13 of the paper (hydrogen chains
    with 6..1280 atoms).
    """
    if n < 1:
        raise ValidationError("chain needs n >= 1 atoms")
    spec = [("H", 0.0, 0.0, i * spacing) for i in range(n)]
    return Molecule.from_angstrom(spec, name=f"H{n}_chain")


def hydrogen_ring(n: int, bond_length: float = 1.0) -> Molecule:
    """Regular H_n ring with nearest-neighbour distance ``bond_length`` (A).

    Fig. 7a of the paper scans the potential curve of the 10-atom hydrogen
    ring with 2-atom DMET fragments.
    """
    if n < 3:
        raise ValidationError("ring needs n >= 3 atoms")
    radius = bond_length / (2.0 * math.sin(math.pi / n))
    spec = []
    for i in range(n):
        phi = 2.0 * math.pi * i / n
        spec.append(("H", radius * math.cos(phi), radius * math.sin(phi), 0.0))
    return Molecule.from_angstrom(spec, name=f"H{n}_ring")


def carbon_ring(n: int = 18, bond_short: float = 1.21,
                bond_long: float = 1.34) -> Molecule:
    """Bond-length-alternated C_n ring (cyclo[n]carbon).

    ``bond_short``/``bond_long`` are the alternating C-C distances in
    angstrom; equal values give the cumulenic (non-alternated) geometry.
    Used by the Fig. 7b substitution experiment.
    """
    if n < 4 or n % 2:
        raise ValidationError("alternated ring needs even n >= 4")
    # place atoms at angles whose gaps alternate so that chord lengths equal
    # bond_short / bond_long
    total = (bond_short + bond_long) * (n // 2)
    radius = total / (2.0 * math.pi)
    # chord = 2 R sin(dphi/2) -> dphi = 2 asin(chord / 2R); rescale R so the
    # alternating gaps close the circle exactly
    for _ in range(100):
        d1 = 2.0 * math.asin(min(1.0, bond_short / (2 * radius)))
        d2 = 2.0 * math.asin(min(1.0, bond_long / (2 * radius)))
        gap = (n // 2) * (d1 + d2)
        radius *= gap / (2.0 * math.pi)
        if abs(gap - 2.0 * math.pi) < 1e-12:
            break
    spec = []
    phi = 0.0
    for i in range(n):
        spec.append(("C", radius * math.cos(phi), radius * math.sin(phi), 0.0))
        phi += d1 if i % 2 == 0 else d2
    return Molecule.from_angstrom(spec, name=f"C{n}_ring")


# -- reference geometries used across tests/benchmarks ----------------------

def h2(bond: float = 0.7414) -> Molecule:
    """H2 at ``bond`` angstrom (default: experimental equilibrium)."""
    return Molecule.from_angstrom(
        [("H", 0, 0, 0), ("H", 0, 0, bond)], name="H2")


def lih(bond: float = 1.5949) -> Molecule:
    """LiH at ``bond`` angstrom (default: experimental equilibrium)."""
    return Molecule.from_angstrom(
        [("Li", 0, 0, 0), ("H", 0, 0, bond)], name="LiH")


def water(oh: float = 0.9572, angle_deg: float = 104.52) -> Molecule:
    """Water at the experimental geometry by default."""
    half = math.radians(angle_deg) / 2.0
    return Molecule.from_angstrom(
        [
            ("O", 0.0, 0.0, 0.0),
            ("H", oh * math.sin(half), 0.0, oh * math.cos(half)),
            ("H", -oh * math.sin(half), 0.0, oh * math.cos(half)),
        ],
        name="H2O",
    )


def h2_trimer(bond: float = 0.7414, separation: float = 2.5) -> Molecule:
    """(H2)3 - three parallel H2 molecules, the Fig. 9 workload."""
    spec = []
    for k in range(3):
        x = k * separation
        spec.append(("H", x, 0.0, 0.0))
        spec.append(("H", x, 0.0, bond))
    return Molecule.from_angstrom(spec, name="(H2)3")


def molecule_from_spec(spec: str, *, bond: float | None = None) -> Molecule:
    """Build a reference molecule from a short textual spec.

    The vocabulary shared by the ``energy``/``info`` CLI and the serve
    request format: ``h2 | lih | h2o | water | ring:N | chain:N``
    (case-insensitive), with an optional bond-length override in
    angstrom (``None`` keeps the default; ``h2o`` takes none).  Unknown
    specs, ``ring:``/``chain:`` without a whole atom count, a bond that is
    not a finite length > 0, and an odd electron count (every method
    starts from RHF) raise :class:`ValidationError` listing the
    vocabulary, so callers can surface the message verbatim.
    """
    name = str(spec).lower()
    kind, colon, count = name.partition(":")
    vocabulary = "use h2 | lih | h2o | ring:N | chain:N"
    if bond is not None:
        if name in ("h2o", "water"):
            raise ValidationError(
                f"molecule spec {spec!r} takes no bond override, got "
                f"bond={bond!r}; {vocabulary}, and a bond only on the "
                "others")
        if not (math.isfinite(bond) and bond > 0):
            raise ValidationError(
                f"bond override must be a finite length > 0 angstrom, got "
                f"{bond!r}; {vocabulary}")
    if name == "h2":
        return h2(0.7414 if bond is None else bond)
    if name == "lih":
        return lih(1.5949 if bond is None else bond)
    if name in ("h2o", "water"):
        return water()
    if colon and count.isdecimal() and kind in ("ring", "chain"):
        if int(count) % 2:
            raise ValidationError(
                f"molecule spec {spec!r} has {int(count)} electrons; every "
                f"method starts from RHF, which needs an even count "
                f"({vocabulary} with N even)")
        builder = hydrogen_ring if kind == "ring" else hydrogen_chain
        return builder(int(count), 1.0 if bond is None else bond)
    raise ValidationError(f"unknown molecule spec {spec!r}; {vocabulary}")
