"""Built-in operator models and JSON ingestion.

Three stock models exercise the distinct regimes; each gives alpha_n for
every n, read through ``alpha_at``:

* ``circular``  -- alpha_n = [n = 1]: the modulus is semicircular, so its
  R-transform is exactly z, a fact its class alone marks; a a* is free
  Poisson.  v = 1.
* ``haar``      -- a a* = delta_1, v = 0: the degenerate case the norm
  asymptotics exclude.
* ``two-atom``  -- a a* = (delta_0 + delta_2)/2: same v = 1 as circular but
  different higher cumulants, separating the two in asymptotic tests.

The two atomic builtins extend alpha on demand from their exact atoms.
Models from JSON store a finite alpha and raise OrderCapError past it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import cumulants as cu
from . import measures as me

STORED_ORDER = 8  # alpha_1..alpha_8, stored by an atomic builtin for the truncated float norm

BUILTIN_NAMES = ("circular", "haar", "two-atom")


class _CircularModel(cu.OperatorModel):
    """The circular builtin: alpha_n = [n = 1] for every n.  The 4096-node
    free Poisson measure of a a* is built on the first read of
    ``aa_star_measure``: only the subordination functions read it, and no
    ``moments`` or ``norm`` request on this model does."""

    r_mu_is_z = True

    def alpha_at(self, n: int) -> Fraction:
        return Fraction(n == 1)

    @property
    def aa_star_measure(self):
        return me.free_poisson()


class _AtomicModel(cu.OperatorModel):
    """A builtin whose a a* law has the given exact (x, weight) atoms.

    ``alpha_at`` reads alpha_n from an endless stream and keeps it.  Both
    cumulant passes run on the graded integers
    phi((a a*)^n) d^n = sum_i (w_i x_i d) (x_i d)^(n-1), with d the lcm of
    the products of each atom's x and w denominators: each pass is
    homogeneous of weight n (OperatorModel._graded_aa_star_moments), so the
    stream yields alpha_n d^n, reduced once.
    """

    def __init__(self, name: str, atoms):
        d = math.lcm(*(x.denominator * w.denominator for x, w in atoms))
        graded = [(int(x * d), int(w * x * d)) for x, w in atoms]
        moments = (sum(b * c ** (n - 1) for c, b in graded) for n in itertools.count(1))
        self._stream, self._d, self._known = cu.cumulant_stream(cu.cumulant_stream(moments)), d, []
        super().__init__(name, [self.alpha_at(n) for n in range(1, STORED_ORDER + 1)],
                         me.SpectralMeasure.from_atoms([(float(x), float(w)) for x, w in atoms]))

    def alpha_at(self, n: int) -> Fraction:
        while len(self._known) < n:
            self._known.append(Fraction(next(self._stream), self._d ** (len(self._known) + 1)))
        return self._known[n - 1] if n >= 1 else super().alpha_at(n)


def circular_model() -> cu.OperatorModel:
    return _CircularModel("circular", (1,))


def haar_model() -> cu.OperatorModel:
    return _AtomicModel("haar", [(Fraction(1), Fraction(1))])


def two_atom_model() -> cu.OperatorModel:
    half = Fraction(1, 2)
    return _AtomicModel("two-atom", [(Fraction(0), half), (Fraction(2), half)])


_BUILDERS = {"circular": circular_model, "haar": haar_model, "two-atom": two_atom_model}


def builtin_model(name: str) -> cu.OperatorModel:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown builtin model {name!r}; choose from {BUILTIN_NAMES}")
    return builder()


def _parse_fraction(s) -> Fraction:
    if isinstance(s, str):
        return Fraction(s)
    if isinstance(s, int) and not isinstance(s, bool):  # JSON true / false are no rationals
        return Fraction(s)
    raise ValueError(f"exact rationals must be 'p/q' strings or integers, got {s!r}")


def model_from_spec(spec: dict) -> cu.OperatorModel:
    """Build an OperatorModel from the JSON model schema.

    Schema: {"name": str, "builtin": optional str, "alpha": ["p/q", ...],
             "mu_even_cumulants": optional list, "aa_star_measure": optional
             {"atoms": [{"x": float, "w": float}, ...],
              "density_grid": optional {"t": [...], "rho": [...],
                                        "weights": [...]}}}.

    ``mu_even_cumulants`` restates alpha (kappa_2n(mu) = alpha_n, see
    OperatorModel); it must equal a prefix of ``alpha`` and is not stored.
    """
    if "builtin" in spec:
        return builtin_model(spec["builtin"])
    name = spec.get("name", "custom")
    alpha = tuple(_parse_fraction(a) for a in spec["alpha"])
    mu = spec.get("mu_even_cumulants")
    if mu is not None:
        mu = tuple(_parse_fraction(k) for k in mu)
    measure = None
    meas_spec = spec.get("aa_star_measure")
    if meas_spec is not None:
        atoms = tuple((float(a["x"]), float(a["w"])) for a in meas_spec.get("atoms", []))
        grid_spec = meas_spec.get("density_grid")
        if grid_spec is not None:
            measure = me.SpectralMeasure(
                atoms=atoms,
                grid=grid_spec["t"],
                density=grid_spec["rho"],
                weights=grid_spec["weights"],
                quadrature="user-grid",
            ).require_probability()
        else:
            measure = me.SpectralMeasure.from_atoms(atoms).require_probability()
    model = cu.OperatorModel(name=name, alpha=alpha, aa_star_measure=measure)
    if mu is not None:
        if len(mu) > len(alpha):
            raise ValueError(f"{name}: {len(mu)} modulus cumulants exceed the {len(alpha)} alphas")
        if mu != alpha[: len(mu)]:
            raise ValueError(
                f"{name}: mu_even_cumulants {[str(k) for k in mu]} disagree with "
                f"alpha {[str(a) for a in alpha[: len(mu)]]} (kappa_2n(mu) = alpha_n)"
            )
    model.check_measure_consistency()
    return model


def load_model(path_or_name: str) -> cu.OperatorModel:
    """Builtin name, or path to a model-spec JSON file."""
    if path_or_name in _BUILDERS:
        return builtin_model(path_or_name)
    import json  # only a model file needs it: kept off the import of the CLI

    with open(path_or_name) as fh:
        return model_from_spec(json.load(fh))
