"""Value semantics of the record classes: equality, hash, repr, immutability
and the validation their constructors do."""

from fractions import Fraction

import pytest

from freeprob import circular as ci
from freeprob import cumulants as cu
from freeprob import measures as me
from freeprob import noncrossing as nc
from freeprob import oracles
from freeprob import resolvent as rv

# (class, field names, field values, values of a different record)
FROZEN = [
    (ci.CircularSpectrum, ("lam", "m", "z_minus", "z_plus", "s_minus", "s_plus"),
     (1.5, 1.25, -1.0, 0.4, 0.05, 6.5), (1.5, 1.25, -1.0, 0.4, 0.05, 6.0)),
    (oracles.LinComb, ("parts",), ((("c", 1),),), ((("c", 2),),)),
    (oracles.SetPartition, ("n", "blocks"), (3, ((1, 2), (3,))), (3, ((1,), (2, 3)))),
    (oracles.IntervalPartition, ("sizes",), ((1, 2),), ((2, 1),)),
    (oracles.AlternationPattern, ("runs",), ((1, 1),), ((2, 2),)),
    (oracles.PolygonDiagram, ("k", "polygons"), (1, ((0, 1),)), (1, ((0, 3),))),
    (oracles.LabeledDiagram, ("diagram", "labels"), (oracles.PolygonDiagram(1, ((0, 1),)), (2,)),
     (oracles.PolygonDiagram(1, ((0, 1),)), (3,))),
    (rv.NormResult, ("lam", "norm", "m_lambda", "asymptotic", "ratio", "route", "x_critical"),
     (1.5, 2.0, 0.5, 1.9, 1.05, "series-exact", 0.6),
     (1.5, 2.0, 0.5, 1.9, 1.05, "series-truncated", 0.6)),
]
FROZEN_IDS = [cls.__name__ for cls, *_ in FROZEN]


@pytest.mark.parametrize("cls, fields, values, other", FROZEN, ids=FROZEN_IDS)
def test_frozen_records_are_values(cls, fields, values, other):
    a, b, c = cls(*values), cls(*values), cls(*other)
    assert a == b and hash(a) == hash(b) and hash(a) == hash(values)
    assert a != c
    assert len({a, b, c}) == 2
    assert a != values  # a record never equals a plain tuple of its fields
    assert a == cls(**dict(zip(fields, values)))
    assert tuple(getattr(a, name) for name in fields) == values
    body = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(a) == f"{cls.__qualname__}({body})"


@pytest.mark.parametrize("cls, fields, values, other", FROZEN, ids=FROZEN_IDS)
def test_frozen_records_refuse_assignment(cls, fields, values, other):
    record = cls(*values)
    field = fields[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, other[0])
    with pytest.raises(AttributeError):
        setattr(record, "extra", 1)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == values[0]


def test_canonical_partitions_are_set_members():
    assert oracles.SetPartition.of(3, [(3,), (2, 1)]) in {oracles.SetPartition(3, ((1, 2), (3,)))}
    assert len(set(oracles.enumerate_nc(6))) == nc.catalan(6)


def test_spectral_measure_defaults_and_repr():
    empty = me.SpectralMeasure()
    assert (empty.atoms, empty.grid, empty.density, empty.weights, empty.quadrature) == (
        (), (), (), (), "none")
    meas = me.SpectralMeasure((), [1, 2], [0.5, 0.25], [1, 1], "user-grid")
    assert meas.grid == (1.0, 2.0) and isinstance(meas.grid[0], float)
    assert meas.weights == (1.0, 1.0)
    assert meas == me.SpectralMeasure(grid=(1.0, 2.0), density=(0.5, 0.25), weights=(1.0, 1.0),
                                      quadrature="user-grid")
    assert meas != me.SpectralMeasure.from_atoms([(1.0, 1.0)])
    assert repr(meas) == ("SpectralMeasure(atoms=(), grid=(1.0, 2.0), density=(0.5, 0.25), "
                          "weights=(1.0, 1.0), quadrature='user-grid')")
    with pytest.raises(TypeError):
        hash(meas)  # mutable, as before: no hash
    meas.quadrature = "renamed"
    assert meas.quadrature == "renamed"


@pytest.mark.parametrize("kwargs, message", [
    ({"grid": (1.0, 2.0), "density": (1.0,), "weights": (1.0, 1.0)}, "equal length"),
    ({"grid": (2.0, 1.0), "density": (1.0, 1.0), "weights": (1.0, 1.0)}, "strictly increasing"),
    ({"grid": (1.0,), "density": (-1.0,), "weights": (1.0,)}, "non-negative"),
    ({"atoms": ((1.0, -0.5),)}, "atom weights"),
])
def test_spectral_measure_validation(kwargs, message):
    with pytest.raises(ValueError, match=message):
        me.SpectralMeasure(**kwargs)


def test_operator_model_values_and_validation():
    a = cu.OperatorModel("m", (1, Fraction(1, 2)))
    assert a.alpha == (Fraction(1), Fraction(1, 2))
    assert (a.aa_star_measure, a.r_mu_is_z) == (None, False)
    assert a == cu.OperatorModel(name="m", alpha=(Fraction(1), Fraction(1, 2)))
    assert a != cu.OperatorModel("m", (1, Fraction(1, 3)))
    assert repr(a) == ("OperatorModel(name='m', alpha=(Fraction(1, 1), Fraction(1, 2)), "
                       "aa_star_measure=None)")
    with pytest.raises(TypeError):
        hash(a)
    for alpha in ((), (2,), (Fraction(1, 2), 1)):
        with pytest.raises(ValueError, match="alpha_1 = 1"):
            cu.OperatorModel("bad", alpha)


def test_circular_builtin_keeps_its_measure(circular_model):
    assert type(circular_model).__qualname__ == "_CircularModel"
    assert circular_model.aa_star_measure is me.free_poisson()
    assert repr(circular_model).startswith("_CircularModel(name='circular', alpha=(Fraction(1, 1),)")
    assert circular_model != cu.OperatorModel("circular", (1,))
    with pytest.raises(AttributeError):
        circular_model.aa_star_measure = me.SpectralMeasure.from_atoms([(1.0, 1.0)])
