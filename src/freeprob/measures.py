"""Spectral measures: atoms plus density samples with a quadrature rule.

Grids carry their own weights.  The stock grid is Chebyshev-type: sample
points t_i = mid - hw*cos(theta_i) at midpoint angles, with weights
hw*sin(theta_i)*pi/N.  For densities with square-root edge behaviour the
theta-integrand extends to a smooth periodic function, so this rule converges
geometrically.

Grid, density and weights are tuples of floats, so a measure can be shared
without copying; ``integrate`` calls the integrand at each node and sums the
products with ``math.fsum``.
"""

from __future__ import annotations

import functools
import math

from ._record import Record


class SpectralMeasure(Record):
    """Probability measure as point atoms plus a sampled density."""

    _fields = ("atoms", "grid", "density", "weights", "quadrature")

    def __init__(self, atoms: tuple[tuple[float, float], ...] = (), grid: tuple[float, ...] = (),
                 density: tuple[float, ...] = (), weights: tuple[float, ...] = (),
                 quadrature: str = "none"):
        self.atoms = atoms
        self.grid = tuple(map(float, grid))
        self.density = tuple(map(float, density))
        self.weights = tuple(map(float, weights))
        self.quadrature = quadrature
        if not (len(self.grid) == len(self.density) == len(self.weights)):
            raise ValueError("grid, density, weights must have equal length")
        if any(a >= b for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be strictly increasing")
        if any(rho < 0 for rho in self.density):
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
        if self.grid:
            mass += math.fsum(rho * w for rho, w in zip(self.density, self.weights))
        return mass

    def require_probability(self, tol: float = 1e-6) -> "SpectralMeasure":
        mass = self.total_mass()
        if abs(mass - 1.0) > tol:
            raise ValueError(f"measure mass {mass} differs from 1 beyond {tol}")
        return self

    def integrate(self, f) -> float:
        """Integral of f against the measure; f is called at each node."""
        total = sum(w * f(x) for x, w in self.atoms)
        if self.grid:
            total += math.fsum(f(t) * rho * w for t, rho, w in zip(self.grid, self.density, self.weights))
        return float(total)

    def moment(self, p: int) -> float:
        return self.integrate(lambda t: t**p)

    def support_min(self) -> float:
        candidates = [x for x, w in self.atoms if w > 0]
        if self.grid:
            candidates.append(self.grid[0])
        return min(candidates)

    def support_max(self) -> float:
        candidates = [x for x, w in self.atoms if w > 0]
        if self.grid:
            candidates.append(self.grid[-1])
        return max(candidates)


def chebyshev_grid(lo: float, hi: float, n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Midpoint Chebyshev nodes in (lo, hi) with the matching sin-weights."""
    if hi <= lo:
        raise ValueError("need lo < hi")
    if n < 1:
        raise ValueError(f"a grid needs at least 1 point, got {n} points")
    theta = [(i + 0.5) * math.pi / n for i in range(n)]
    mid, hw = 0.5 * (lo + hi), 0.5 * (hi - lo)
    grid = tuple(mid - hw * math.cos(th) for th in theta)
    weights = tuple(hw * math.sin(th) * math.pi / n for th in theta)
    return grid, weights


@functools.cache
def free_poisson(n_points: int = 4096) -> SpectralMeasure:
    """Free Poisson (rate 1) on [0, 4]: density sqrt((4-t)/t) / (2 pi).

    This is the a a* distribution of the standard circular operator; its
    moments are the Catalan numbers.  Built once per grid size and shared by
    every caller; its tuples cannot be changed in place.
    """
    grid, weights = chebyshev_grid(0.0, 4.0, n_points)
    density = [math.sqrt((4.0 - t) / t) / (2.0 * math.pi) for t in grid]
    return SpectralMeasure.from_density(grid, density, weights, "chebyshev-midpoint")
