"""Complex field samples on one transverse grid at one z position."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import TransverseGrid


@dataclass
class ComplexField2D:
    """Complex probe Rabi amplitude samples on the transverse grid at one z.

    values has shape (nx, ny); the first index runs along x.
    """

    values: np.ndarray
    grid: TransverseGrid
    z: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.nx, self.grid.ny):
            raise ValueError(
                f"field shape {self.values.shape} does not match grid "
                f"({self.grid.nx}, {self.grid.ny})")

    def power(self) -> float:
        """Total power sum |g|^2 dx dy (fixed C-order summation)."""
        return float(np.sum(np.abs(self.values) ** 2) * self.grid.dx * self.grid.dy)

    def copy(self) -> "ComplexField2D":
        return ComplexField2D(self.values.copy(), self.grid, self.z)
