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
* ``oracles``     -- the brute-force and second routes that ``verify`` and
  the tests hold the others against: enumerations of NC(n), alternating
  partitions and diagrams, partition-sum cumulants, formal-series
  inversion, the Aberth-Ehrlich Cauchy transform, subordination functions;
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
    "oracles",
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


def _oracle_forwarder(module: str, names: tuple[str, ...]):
    """A module ``__getattr__`` (PEP 562) for ``names`` that moved to
    ``freeprob.oracles``: each resolves to the object there, and the first
    access imports that module, which no CLI request does."""

    def __getattr__(name):
        if name in names:
            from . import oracles

            return getattr(oracles, name)
        raise AttributeError(f"module {module!r} has no attribute {name!r}")

    return __getattr__
