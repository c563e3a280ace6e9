"""Electrode registry and projection of a montage onto a square grid.

A montage is described by a plain-text mapping file that pins every
electrode name to one cell of an ``n x n`` grid (``NAME,row,col`` records,
``#`` comments).  The packaged ``physionet64_grid11.map`` covers the
64-channel 10-10 montage on an 11 x 11 grid with the central/temporal line
T9..T10 on row 5.  Spatial maps are nonnegative mass distributions over the
same grid and are the objects compared by the transport module.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Mapping

import numpy as np

__all__ = [
    "Electrode",
    "GridLayout",
    "SpatialMap",
    "load_grid_layout",
    "load_grid_layout_file",
    "default_layout",
    "binary_map",
    "weighted_map",
    "load_spatial_map",
    "save_spatial_map",
]

DEFAULT_LAYOUT_RESOURCE = "physionet64_grid11.map"


@dataclass(frozen=True)
class Electrode:
    """A named electrode pinned to one grid cell."""

    name: str
    row: int
    col: int


@dataclass(frozen=True)
class GridLayout:
    """Deterministic electrode-name -> (row, col) assignment for a montage.

    Immutable after construction; safe to share across workers.  Electrode
    order is the mapping-file order and defines the montage order used for
    deterministic tie-breaking elsewhere.
    """

    n: int
    electrodes: tuple[Electrode, ...]

    @cached_property
    def name_index(self) -> dict[str, Electrode]:
        return {e.name: e for e in self.electrodes}

    @cached_property
    def _folded_index(self) -> dict[str, Electrode]:
        return {e.name.casefold(): e for e in self.electrodes}

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.electrodes)

    def resolve(self, name: str) -> str:
        """Return the canonical electrode name for `name`.

        Lookup is exact first, then case-insensitive with trailing dots and
        whitespace stripped (PhysioNet EDF labels pad names with dots).
        Raises KeyError when the electrode is not part of the montage.
        """
        if name in self.name_index:
            return name
        folded = name.strip().rstrip(".").casefold()
        hit = self._folded_index.get(folded)
        if hit is None:
            raise KeyError(f"unknown electrode name: {name!r}")
        return hit.name

    def resolve_all(self, names: Iterable[str]) -> list[str]:
        """The canonical electrode of each of `names`, in order: `resolve`
        of each, and a ValueError when two of them name one electrode."""
        spelled: dict[str, str] = {}
        for name in names:
            electrode = self.resolve(name)
            if electrode in spelled:
                raise ValueError(f"{spelled[electrode]!r} and {name!r} name electrode "
                                 f"{electrode!r} twice")
            spelled[electrode] = name
        return list(spelled)

    def position(self, name: str) -> tuple[int, int]:
        e = self.name_index[self.resolve(name)]
        return (e.row, e.col)

    def montage_rank(self, name: str) -> int:
        """Position of `name` in montage (mapping-file) order."""
        return self.names.index(self.resolve(name))

    def __contains__(self, name: str) -> bool:
        try:
            self.resolve(name)
        except KeyError:
            return False
        return True


@dataclass(frozen=True, eq=False)
class SpatialMap:
    """Nonnegative mass over an ``n x n`` grid.

    For a binary map of k channels the total mass is k and every positive
    entry is 1.  A zero-total map is representable but rejected by the
    transport module.
    """

    n: int
    mass: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.mass, dtype=float)
        if arr.shape != (self.n, self.n):
            raise ValueError(f"mass must be {self.n}x{self.n}, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("mass contains non-finite entries")
        if np.any(arr < 0):
            raise ValueError("mass entries must be nonnegative")
        arr.setflags(write=False)
        object.__setattr__(self, "mass", arr)

    @property
    def total(self) -> float:
        return float(self.mass.sum())


def load_grid_layout(source: str) -> GridLayout:
    """Parse mapping-file content into a validated GridLayout.

    Parameters
    ----------
    source : str
        Mapping text, one ``NAME,row,col`` record per line.  ``#`` starts a
        comment; blank lines are ignored.  The grid order is
        ``max(row, col) + 1`` over all records.

    Raises
    ------
    ValueError
        On malformed records, duplicate names, duplicate cells, or negative
        coordinates.
    """
    electrodes: list[Electrode] = []
    seen_names: set[str] = set()
    seen_cells: set[tuple[int, int]] = set()
    for lineno, raw_line in enumerate(source.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3 or not parts[0]:
            raise ValueError(f"line {lineno}: expected NAME,row,col, got {raw_line!r}")
        name = parts[0]
        try:
            row, col = int(parts[1]), int(parts[2])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer coordinate in {raw_line!r}") from None
        if row < 0 or col < 0:
            raise ValueError(f"line {lineno}: negative coordinate for {name}")
        if name in seen_names:
            raise ValueError(f"line {lineno}: duplicate electrode name {name!r}")
        if (row, col) in seen_cells:
            raise ValueError(f"line {lineno}: cell ({row}, {col}) already occupied")
        seen_names.add(name)
        seen_cells.add((row, col))
        electrodes.append(Electrode(name, row, col))
    if not electrodes:
        raise ValueError("mapping contains no electrodes")
    n = max(max(e.row for e in electrodes), max(e.col for e in electrodes)) + 1
    return GridLayout(n=n, electrodes=tuple(electrodes))


def load_grid_layout_file(path: str | Path) -> GridLayout:
    return load_grid_layout(Path(path).read_text(encoding="utf-8"))


@lru_cache(maxsize=1)
def default_layout() -> GridLayout:
    """The packaged 64-channel, 11 x 11 layout."""
    text = resources.files("emdscalp.data").joinpath(DEFAULT_LAYOUT_RESOURCE).read_text("utf-8")
    return load_grid_layout(text)


def binary_map(channels: Iterable[str], layout: GridLayout) -> SpatialMap:
    """`weighted_map` of weight 1 on each named electrode: total mass equals
    the number of channels."""
    return weighted_map(dict.fromkeys(layout.resolve_all(channels), 1.0), layout)


def weighted_map(weights: Mapping[str, float], layout: GridLayout) -> SpatialMap:
    """Place each electrode's weight at its cell; unlisted electrodes get 0.
    Names resolve by `GridLayout.resolve_all`."""
    mass = np.zeros((layout.n, layout.n))
    for electrode, (name, w) in zip(layout.resolve_all(weights), weights.items()):
        w = float(w)
        if not np.isfinite(w):
            raise ValueError(f"non-finite weight for {name!r}")
        if w < 0:
            raise ValueError(f"negative weight for {name!r}: {w}")
        mass[layout.position(electrode)] = w
    return SpatialMap(layout.n, mass)


def _write_file(path: str | Path, write: Callable[[BinaryIO], object]) -> None:
    """Create or replace `path`, and its directory, with what ``write(fh)``
    writes to a binary file: the package's one writer (README, File formats)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # random: threads and processes may write one path at once
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_spatial_map(smap: SpatialMap, path: str | Path) -> None:
    """Write a map as CSV: n rows x n columns of decimal masses."""
    lines = [",".join(repr(float(v)) for v in row) for row in smap.mass]
    _write_file(path, lambda fh: fh.write(("\n".join(lines) + "\n").encode()))


def load_spatial_map(path: str | Path) -> SpatialMap:
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            rows.append([float(v) for v in line.split(",")])
    arr = np.array(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"spatial map file must be square, got {arr.shape}")
    return SpatialMap(arr.shape[0], arr)
