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


def __getattr__(name):
    """``freeprob.<submodule>`` imports the submodule on first access (PEP 562),
    so ``import freeprob.cli`` loads only what the CLI needs while every name
    in ``__all__`` still resolves as an attribute of the package."""
    if name in __all__:
        # the builtin __import__ rather than importlib.import_module: `from . import
        # circular` lands here too, and only the builtin shows in -X importtime
        __import__(f"{__name__}.{name}")
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
