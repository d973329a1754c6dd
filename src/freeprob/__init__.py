"""freeprob: computational free probability for R-diagonal resolvents.

Modules:

* ``noncrossing`` -- non-crossing partitions, pairings, alternating
  partitions, Fuss-Catalan numbers;
* ``cumulants``   -- free-cumulant calculus, product cumulants, R-diagonal
  word moments, operator models;
* ``series``      -- truncated formal series, Lagrange inversion, negative
  moments of the shifted squared modulus;
* ``circular``    -- exact spectral analysis of |lam - c|^2: transforms,
  support, Cardano Cauchy transform, Stieltjes densities;
* ``psd``         -- partition structure diagrams, the compression bijection,
  quadrangulation counts, moment polynomials;
* ``resolvent``   -- subordination functions, resolvent norms, the sharp
  blow-up asymptotic, moment lower bounds;
* ``verify``      -- named invariant suites;
* ``cli``         -- command-line frontend (``freeprob``).
"""

__version__ = "0.1.0"

# The suites of ``verify``, named here so that the CLI offers them without
# loading the registry.
VERIFY_SUITES = ("combinatorial", "analytic", "asymptotic")

__all__ = [
    "circular",
    "cli",
    "cumulants",
    "measures",
    "models",
    "noncrossing",
    "psd",
    "resolvent",
    "ring",
    "series",
    "verify",
]
