"""Record types: construction, immutability, field-wise equality and repr.

Each record is built from one set of field values, positionally and by
keyword; the two must agree field by field and compare equal.
"""

import numpy as np
import pytest

from qsturm.contfrac import ContinuedFraction
from qsturm.decompose import Classification, Decomposition, RauzyGraph
from qsturm.spectrum import BandList, MeasureRow, StableSweep
from qsturm.tracemap import OrbitVerdict
from qsturm.transfer import GrowthExponents, SolutionSegment
from qsturm.words import ModelSpec, Substitution, Word

AB = ("a", "b")
CF = ContinuedFraction((2,), (1,))
SUBST = Substitution({"a": Word.from_str("ab", AB), "b": Word.from_str("b", AB)})
BANDS = BandList(((0.0, 1.0), (2.0, 2.5)), "n=3")

# (record, {field: value} in field order, {field: default} of the trailing
# fields that have one, {field: another value})
RECORDS = [
    (ContinuedFraction, {"coeffs": (3, 1), "periodic": (1, 2)}, {"periodic": None},
     {"periodic": (1, 3)}),
    (Substitution, {"images": {"a": Word.from_str("a", AB), "b": Word.from_str("ba", AB)}}, {},
     {"images": {"a": Word.from_str("a", AB), "b": Word.from_str("ab", AB)}}),
    (ModelSpec, {"cf": CF, "subst": SUBST, "prefix": Word.from_str("b", AB),
                 "potential": {"a": 1.0, "b": 0.0}, "allow_non_injective": True},
     {"allow_non_injective": False}, {"potential": {"a": 1.0, "b": 0.5}}),
    (RauzyGraph, {"n": 1, "vertices": (Word.from_str("a", AB), Word.from_str("b", AB)),
                  "edges": (Word.from_str("ab", AB), Word.from_str("ba", AB))}, {},
     {"edges": (Word.from_str("ab", AB),)}),
    (Classification, {"kind": "quasi_sturmian", "k": 3, "n0": 5}, {}, {"n0": 6}),
    (Decomposition, {"prefix_w": Word.from_str("b", AB), "subst": SUBST,
                     "base_prefix": Word.from_str("aba", AB), "theta_estimate": 0.38,
                     "bispecial_length": 4, "window_length": 6}, {}, {"theta_estimate": 0.39}),
    (OrbitVerdict, {"kind": "escaped", "steps_checked": 30, "escape_step": 7,
                    "sup_norm": 12.5, "invariant": 0.25, "overflow": True}, {"overflow": False},
     {"escape_step": 8}),
    (SolutionSegment, {"values": np.arange(5.0), "energy": 0.5, "shift": 2,
                       "normalized": True}, {}, {"shift": 3}),
    (GrowthExponents, {"gamma1": 0.4, "gamma2": 0.5, "alpha": 0.9, "escaped": True},
     {"escaped": False}, {"alpha": 0.8}),
    (BandList, {"bands": ((0.0, 1.0),), "level": "n=2", "dd_energies": 3}, {"dd_energies": 0},
     {"bands": ((0.0, 1.5),)}),
    (StableSweep, {"bands": BANDS, "grid": np.linspace(0.0, 3.0, 4),
                   "bounded": np.array([True, False, True, True]), "sup_norm": np.ones(4),
                   "cell_width": 0.75}, {"cell_width": 0.0}, {"cell_width": 0.5}),
    (MeasureRow, {"n": 4, "band_count": 5, "total_measure": 1.25}, {}, {"band_count": 6}),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, fields, defaults, change", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields, defaults, change):
    positional = cls(*fields.values())
    keyword = cls(**fields)
    for name, value in fields.items():
        assert getattr(positional, name) is value or getattr(positional, name) == value
        assert getattr(keyword, name) is value or getattr(keyword, name) == value
    assert positional == keyword
    required = {k: v for k, v in fields.items() if k not in defaults}
    bare = cls(**required)
    for name, default in defaults.items():
        assert getattr(bare, name) == default


@pytest.mark.parametrize("cls, fields, defaults, change", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records(cls, fields, defaults, change):
    assert cls(**fields) == cls(**fields)
    assert cls(**fields) != cls(**dict(fields, **change))


@pytest.mark.parametrize("cls, fields, defaults, change", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(cls, fields, defaults, change):
    rec = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
    with pytest.raises(AttributeError):
        rec.not_a_field = 1


@pytest.mark.parametrize("cls, fields, defaults, change", RECORDS, ids=IDS)
def test_repr_names_the_class(cls, fields, defaults, change):
    assert repr(cls(**fields)).startswith(f"{cls.__name__}(")


def test_stable_sweep_repr_hides_the_arrays():
    sweep = StableSweep(**RECORDS[IDS.index("StableSweep")][1])
    assert repr(sweep) == f"StableSweep(bands={BANDS!r}, cell_width=0.75)"


def test_inputs_are_normalised():
    cf = ContinuedFraction([np.int64(2), 1.0], [True])
    assert cf.coeffs == (2, 1) and cf.periodic == (1,)
    assert all(type(a) is int for a in cf.coeffs + cf.periodic)
    images = {"a": Word.from_str("ab", AB), "b": Word.from_str("b", AB)}
    s = Substitution(images)
    images["a"] = Word.from_str("a", AB)
    assert type(s.images) is dict and s.images["a"] == Word.from_str("ab", AB)
    potential = {"a": 1.0, "b": 0.0}
    spec = ModelSpec(CF, SUBST, Word.from_str("", AB), potential)
    potential["a"] = 5.0
    assert spec.potential == {"a": 1.0, "b": 0.0}


def test_substitution_empty_image_message():
    with pytest.raises(ValueError, match=r"^substitution image of 'b' must be nonempty$"):
        Substitution({"a": Word.from_str("a", AB), "b": Word.from_str("", AB)})
