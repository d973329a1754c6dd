"""Built-in operator models and JSON ingestion.

Three stock models exercise the distinct regimes:

* ``circular``  -- alpha = (1, 0, 0, ...), stored as (1,) with the zero tail
  flagged; the modulus is semicircular so its R-transform is exactly z; a a*
  is free Poisson.  v = 1.
* ``haar``      -- a a* = delta_1, v = 0: the degenerate case the norm
  asymptotics exclude.
* ``two-atom``  -- a a* = (delta_0 + delta_2)/2: same v = 1 as circular but
  different higher cumulants, separating the two in asymptotic tests.
"""

from __future__ import annotations

from fractions import Fraction

from . import cumulants as cu
from . import measures as me

DEFAULT_MODEL_ORDER = 8

BUILTIN_NAMES = ("circular", "haar", "two-atom")


class _CircularModel(cu.OperatorModel):
    """The circular builtin, whose a a* law is free Poisson.  The 4096-node
    measure is built on the first read of ``aa_star_measure``: only the
    subordination functions read it, and no ``moments`` or ``norm`` request
    on this model does."""

    @property
    def aa_star_measure(self):
        return me.free_poisson()

    @aa_star_measure.setter
    def aa_star_measure(self, value):
        if value is not None:
            raise AttributeError("the circular model's a a* measure is free Poisson")


def circular_model() -> cu.OperatorModel:
    return _CircularModel(
        name="circular",
        alpha=(Fraction(1),),  # semicircular modulus: alpha_n = 0 for n >= 2
        r_mu_closed_form=True,
    )


def _atomic_model(name: str, atoms, order: int) -> cu.OperatorModel:
    """Model whose a a* law has the given exact (x, weight) atoms."""
    aa_moments = [sum(w * x**n for x, w in atoms) for n in range(1, order + 1)]
    return cu.OperatorModel(
        name=name,
        alpha=tuple(cu.alpha_from_aa_star_moments(aa_moments)),
        aa_star_measure=me.SpectralMeasure.from_atoms([(float(x), float(w)) for x, w in atoms]),
    )


def haar_model(order: int = DEFAULT_MODEL_ORDER) -> cu.OperatorModel:
    return _atomic_model("haar", [(Fraction(1), Fraction(1))], order)


def two_atom_model(order: int = DEFAULT_MODEL_ORDER) -> cu.OperatorModel:
    half = Fraction(1, 2)
    return _atomic_model("two-atom", [(Fraction(0), half), (Fraction(2), half)], order)


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
