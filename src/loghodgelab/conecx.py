"""Cone complexes of a toroidal boundary: cells from intersection data.

Vertices are the named boundary components; a p-cell records a (p+1)-subset
of components together with a connected-component tag, as the tuple
(components, tag), so cells hash, compare and sort as tuples do.  Incidence
signs follow the Delta-complex convention, fixed by the lexicographic order
of the component names within each cell, so the boundary of a boundary
vanishes and everything downstream is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import itemgetter

from .complexes import CochainComplex, _total_complex, cohomology_dims


class ConeComplexError(ValueError):
    pass


class Cell(tuple):
    """A cell as the pair (components, tag), the components sorted and
    distinct; hashing, equality and ordering are the pair's own."""

    __slots__ = ()

    def __new__(cls, components: tuple[str, ...], tag: str = "0"):
        if not components:
            raise ConeComplexError("a cell needs at least one component")
        if tuple(sorted(components)) != components:
            raise ConeComplexError(f"cell components must be sorted: {components}")
        if len(set(components)) != len(components):
            raise ConeComplexError(f"repeated component in cell: {components}")
        return tuple.__new__(cls, (components, tag))

    def __getnewargs__(self):  # copy and pickle rebuild a cell from its pair
        return tuple(self)

    components = property(itemgetter(0))
    tag = property(itemgetter(1))

    @property
    def dim(self) -> int:
        return len(self[0]) - 1

    def key(self) -> str:
        return ",".join(self[0]) + "#" + self[1]

    @classmethod
    def from_key(cls, key: str) -> "Cell":
        if "#" in key:
            comps, tag = key.rsplit("#", 1)
        else:
            comps, tag = key, "0"
        return cls(tuple(sorted(comps.split(","))), tag)


@dataclass
class IntersectionData:
    """Boundary components and the present strata (subset + tag each)."""

    components: list[str]
    strata: list[Cell]
    ray_coordinates: dict[str, tuple[int, ...]] | None = None

    def __post_init__(self):
        if len(set(self.components)) != len(self.components):
            raise ConeComplexError("duplicate component names")
        known = set(self.components)
        seen = set()
        for cell in self.strata:
            for comp in cell.components:
                if comp not in known:
                    raise ConeComplexError(f"stratum references unknown component {comp!r}")
            if cell in seen:
                raise ConeComplexError(f"duplicate stratum {cell.key()}")
            seen.add(cell)
        self.validate_downward_closed()
        if self.ray_coordinates is not None:
            dims = {len(v) for v in self.ray_coordinates.values()}
            if len(dims) > 1:
                raise ConeComplexError("ray coordinate vectors have mixed lengths")

    def validate_downward_closed(self):
        present = {cell.components for cell in self.strata}
        for subset in sorted(present):
            if len(subset) == 1:
                continue
            for i in range(len(subset)):
                facet = subset[:i] + subset[i + 1:]
                if facet not in present:
                    raise ConeComplexError(
                        f"intersection data not downward closed: stratum for "
                        f"{subset} present but no stratum for {facet}")


class ConeComplex:
    """Cells per dimension with signed face maps and optional ray coordinates."""

    def __init__(self, cells: list[Cell],
                 face_maps: dict[Cell, list[tuple[Cell, int]]],
                 ray_coordinates: dict[str, tuple[int, ...]] | None = None):
        by_dim: dict[int, list[Cell]] = {}
        for cell in cells:
            by_dim.setdefault(cell.dim, []).append(cell)
        for p in by_dim:
            by_dim[p] = sorted(by_dim[p])
        self.cells_by_dim = {p: by_dim[p] for p in sorted(by_dim)}
        self.face_maps = face_maps
        self._cofaces: dict[Cell, list[tuple[Cell, int]]] = {}
        for cell, faces in face_maps.items():
            for face, sign in faces:
                self._cofaces.setdefault(face, []).append((cell, sign))
        self._cells = set(cells)
        if ray_coordinates is not None:
            rays = {c.components[0] for c in self.cells_by_dim.get(0, [])}
            for ray in rays:
                if ray not in ray_coordinates:
                    raise ConeComplexError(f"missing ray coordinates for {ray!r}")
                if gcd(*ray_coordinates[ray]) != 1:
                    raise ConeComplexError(
                        f"ray vector for {ray!r} is not primitive: {ray_coordinates[ray]}")
        self.ray_coordinates = ray_coordinates
        # d^2 = 0 comes for free from the CochainComplex constructor
        self._cochain = _total_complex({p: self.cells(p) for p in range(self.max_dim + 1)},
                                       self.cofaces)

    @property
    def max_dim(self) -> int:
        return max(self.cells_by_dim) if self.cells_by_dim else 0

    def cells(self, p: int) -> list[Cell]:
        return self.cells_by_dim.get(p, [])

    def all_cells(self) -> list[Cell]:
        return [c for p in sorted(self.cells_by_dim) for c in self.cells_by_dim[p]]

    def cell_count(self, p: int) -> int:
        return len(self.cells(p))

    def find_cell(self, key: str) -> Cell:
        cell = Cell.from_key(key)
        if cell not in self._cells:
            raise ConeComplexError(f"unknown cell {key!r}")
        return cell

    def faces(self, cell: Cell) -> list[tuple[Cell, int]]:
        return self.face_maps.get(cell, [])

    def cofaces(self, cell: Cell) -> list[tuple[Cell, int]]:
        """(coface, sign) for each face map entry that has ``cell`` as the face."""
        return self._cofaces.get(cell, [])

    def cochain_complex(self) -> CochainComplex:
        """Simplicial cochain complex dual to the face maps."""
        return self._cochain

    def euler_characteristic(self) -> int:
        return self._cochain.euler_characteristic()


def _resolve_face_tag(subset: tuple[str, ...], tag: str,
                      cells_by_subset: dict[tuple[str, ...], dict[str, Cell]]) -> Cell:
    """Face tag rule: keep the same tag when present, otherwise use the unique
    tag of the facet subset; anything else is ambiguous and rejected.  The
    face is the stored cell: the subset is a slice of a checked cell."""
    cells = cells_by_subset.get(subset, {})
    face = cells.get(tag)
    if face is not None:
        return face
    if len(cells) == 1:
        return next(iter(cells.values()))
    raise ConeComplexError(
        f"ambiguous face: subset {subset} carries tags {list(cells)}, cannot resolve "
        f"the facet of tag {tag!r}; rename tags so faces match")


def build_cone_complex(data: IntersectionData) -> ConeComplex:
    """Cells in bijection with the present strata, ordered lexicographically."""
    strata = sorted(set(data.strata))
    cells_by_subset: dict[tuple[str, ...], dict[str, Cell]] = {}
    for cell in strata:
        cells_by_subset.setdefault(cell.components, {})[cell.tag] = cell
    face_maps: dict[Cell, list[tuple[Cell, int]]] = {}
    for cell in strata:
        if cell.dim == 0:
            continue
        faces = []
        for i in range(len(cell.components)):
            subset = cell.components[:i] + cell.components[i + 1:]
            face = _resolve_face_tag(subset, cell.tag, cells_by_subset)
            faces.append((face, (-1) ** i))
        face_maps[cell] = faces
    return ConeComplex(strata, face_maps, data.ray_coordinates)


def simplicial_cohomology(c: ConeComplex) -> dict[int, int]:
    """Cohomology over Q of the cochain complex dual to the face maps."""
    return cohomology_dims(c.cochain_complex())

