"""Spectral measures: atoms plus density samples with a quadrature rule.

Grids carry their own weights.  The stock grid is Chebyshev-type: sample
points t_i = mid - hw*cos(theta_i) at midpoint angles, with weights
hw*sin(theta_i)*pi/N.  For densities with square-root edge behaviour the
theta-integrand extends to a smooth periodic function, so this rule converges
geometrically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SpectralMeasure:
    """Probability measure as point atoms plus a sampled density."""

    atoms: tuple[tuple[float, float], ...] = ()
    grid: np.ndarray = field(default_factory=lambda: np.empty(0))
    density: np.ndarray = field(default_factory=lambda: np.empty(0))
    weights: np.ndarray = field(default_factory=lambda: np.empty(0))
    quadrature: str = "none"

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.density = np.asarray(self.density, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if not (len(self.grid) == len(self.density) == len(self.weights)):
            raise ValueError("grid, density, weights must have equal length")
        if len(self.grid) > 1 and not np.all(np.diff(self.grid) > 0):
            raise ValueError("grid must be strictly increasing")
        if np.any(self.density < 0):
            raise ValueError("density values must be non-negative")
        if any(w < 0 for _, w in self.atoms):
            raise ValueError("atom weights must be non-negative")

    @staticmethod
    def from_atoms(atoms) -> "SpectralMeasure":
        return SpectralMeasure(atoms=tuple((float(x), float(w)) for x, w in atoms))

    @staticmethod
    def from_density(grid, density, weights, quadrature: str) -> "SpectralMeasure":
        return SpectralMeasure((), grid, density, weights, quadrature)

    def total_mass(self) -> float:
        mass = sum(w for _, w in self.atoms)
        if len(self.grid):
            mass += float(np.sum(self.density * self.weights))
        return mass

    def require_probability(self, tol: float = 1e-6) -> "SpectralMeasure":
        mass = self.total_mass()
        if abs(mass - 1.0) > tol:
            raise ValueError(f"measure mass {mass} differs from 1 beyond {tol}")
        return self

    def integrate(self, f) -> float:
        """Integral of f against the measure (vectorized over the grid)."""
        total = sum(w * f(x) for x, w in self.atoms)
        if len(self.grid):
            total += float(np.sum(f(self.grid) * self.density * self.weights))
        return float(total)

    def moment(self, p: int) -> float:
        return self.integrate(lambda t: t**p)

    def support_min(self) -> float:
        candidates = [x for x, w in self.atoms if w > 0]
        if len(self.grid):
            candidates.append(float(self.grid[0]))
        return min(candidates)

    def support_max(self) -> float:
        candidates = [x for x, w in self.atoms if w > 0]
        if len(self.grid):
            candidates.append(float(self.grid[-1]))
        return max(candidates)


def chebyshev_grid(lo: float, hi: float, n: int):
    """Midpoint Chebyshev nodes in (lo, hi) with the matching sin-weights."""
    if hi <= lo:
        raise ValueError("need lo < hi")
    if n < 1:
        raise ValueError(f"a grid needs at least 1 point, got {n} points")
    theta = (np.arange(n) + 0.5) * np.pi / n
    mid, hw = 0.5 * (lo + hi), 0.5 * (hi - lo)
    grid = mid - hw * np.cos(theta)
    weights = hw * np.sin(theta) * np.pi / n
    return grid, weights


def free_poisson(n_points: int = 4096) -> SpectralMeasure:
    """Free Poisson (rate 1) on [0, 4]: density sqrt((4-t)/t) / (2 pi).

    This is the a a* distribution of the standard circular operator; its
    moments are the Catalan numbers.
    """
    grid, weights = chebyshev_grid(0.0, 4.0, n_points)
    density = np.sqrt((4.0 - grid) / grid) / (2.0 * np.pi)
    return SpectralMeasure.from_density(grid, density, weights, "chebyshev-midpoint")
