"""The contract of the record types: constructor fields, read-only fields,
derived values, equality, hashing and reprs."""
import copy
import inspect
import pickle

import pytest

from k4holo import (CharacterGroup, FixedSubalgebra, GroupCandidates, JacobiReport,
                    K4Candidate, K4Report, RealFormLabel, RealFormType, RootSystem,
                    StructureConstants, SubsystemComponent, SurveyResult,
                    TorusCharacter, build_chevalley_basis,
                    build_root_system, classify_all, symmetric_pair_survey)
from k4holo.errors import PreconditionError
from k4holo.pipeline import GOLDEN_PAIRS, KleinSubgroup, klein_four_subgroups

E6 = build_root_system("E", 6)
REPORT = classify_all(E6)
GROUP = REPORT.groups[0]
CANDIDATE = GROUP.candidates[0]

# One record of each type whose fields cannot be assigned, with its fields in order.
FROZEN = [
    (E6, ("family", "rank", "cartan", "roots", "simple_roots", "positive_roots",
          "weights")),
    (GROUP.fixed.components[0], ("family", "simple", "roots")),
    (GROUP.fixed, ("components", "center")),
    (CANDIDATE.real_form.ideals[0], ("kind", "a", "b")),
    (CANDIDATE.real_form, ("ideals", "center")),
    (GROUP.group.labels["x1"], ("modulus", "exps")),
    (GROUP.group, ("name", "labels")),
    (klein_four_subgroups(GROUP.group)[0], ("labels", "chars")),
    (CANDIDATE, ("group_name", "theta_label", "gamma_labels", "compact_dual",
                 "real_form")),
    (GROUP, ("group", "sigma2_labels", "fixed", "candidates")),
    (REPORT, ("groups",)),
    (symmetric_pair_survey("x4", E6), ("theta_group", "theta_label", "values")),
    (JacobiReport(76076, ()), ("triples_checked", "violations")),
    (build_chevalley_basis(E6), ("sys", "basis", "index", "btable")),
]
TYPES = (RootSystem, SubsystemComponent, FixedSubalgebra, RealFormLabel,
         RealFormType, TorusCharacter, CharacterGroup, KleinSubgroup,
         K4Candidate, GroupCandidates, K4Report, SurveyResult, JacobiReport,
         StructureConstants)
# Records holding a dict cannot be hashed.
UNHASHABLE = (CharacterGroup, GroupCandidates, K4Report, SurveyResult, StructureConstants)


def test_every_frozen_type_is_listed():
    assert tuple(type(record) for record, _ in FROZEN) == TYPES


# Values a record's fields determine: read-only properties, not fields, so
# no record can be built whose field disagrees with them.
DERIVED = [
    (E6, "highest_root", E6.positive_roots[-1]),
    (GROUP.fixed.components[0], "rank", len(GROUP.fixed.components[0].simple)),
    (GROUP.fixed, "fixed_roots",
     E6.roots.intersection(*(E6.kernel(c) for _, c in GROUP.group.nonidentity()))),
    (GROUP.fixed, "dim", len(GROUP.fixed.fixed_roots) + E6.rank),
    (REPORT, "distinct_pairs", tuple(sorted(GOLDEN_PAIRS))),
    (REPORT, "missing", ()),
    (REPORT, "unexpected", ()),
    (REPORT, "verified", True),
    (REPORT, "candidates", tuple(c for g in REPORT.groups for c in g.candidates)),
]


@pytest.mark.parametrize("record, name, value", DERIVED,
                         ids=[f"{type(r).__name__}.{n}" for r, n, _ in DERIVED])
def test_derived_values_are_read_only_properties(record, name, value):
    assert name not in type(record)._fields
    assert isinstance(getattr(type(record), name), property)
    assert getattr(record, name) == value
    with pytest.raises(AttributeError):
        setattr(record, name, value)


@pytest.mark.parametrize("record, fields", FROZEN, ids=[t.__name__ for t in TYPES])
def test_constructor_takes_the_fields_in_order(record, fields):
    cls = type(record)
    assert tuple(inspect.signature(cls).parameters) == fields
    values = [getattr(record, name) for name in fields]
    assert cls(*values) == record
    assert cls(**dict(zip(fields, values))) == record


@pytest.mark.parametrize("record, fields", FROZEN, ids=[t.__name__ for t in TYPES])
def test_fields_cannot_be_assigned(record, fields):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


@pytest.mark.parametrize("record, fields", FROZEN, ids=[t.__name__ for t in TYPES])
def test_hash_is_the_hash_of_the_fields(record, fields):
    values = tuple(getattr(record, name) for name in fields)
    if isinstance(record, UNHASHABLE):
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(values)


@pytest.mark.parametrize("record, fields", FROZEN, ids=[t.__name__ for t in TYPES])
def test_repr_names_each_field(record, fields):
    if isinstance(record, TorusCharacter):
        return  # its own spelling, below
    body = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
    assert repr(record) == f"{type(record).__name__}({body})"


@pytest.mark.parametrize("record, fields", FROZEN, ids=[t.__name__ for t in TYPES])
def test_records_survive_pickle_and_deepcopy(record, fields):
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record


def test_torus_character_is_canonical():
    chi = TorusCharacter(4, (2, 0, 0, 0, 0, -2))
    assert (chi.modulus, chi.exps) == (2, (1, 0, 0, 0, 0, 1))
    assert chi == TorusCharacter(modulus=2, exps=(1, 0, 0, 0, 0, 1))
    assert hash(chi) == hash((2, (1, 0, 0, 0, 0, 1)))
    assert repr(chi) == "chi(m=2, [1, 0, 0, 0, 0, 1])"
    assert chi != (2, (1, 0, 0, 0, 0, 1))
    assert chi != TorusCharacter(2, (0, 1, 0, 0, 0, 0))
    assert TorusCharacter(3, (0,) * 6) == TorusCharacter(1, (5,) * 6)
    assert repr(TorusCharacter(12, (6, 4, 0, 0, 0, 3))) == "chi(m=12, [6, 4, 0, 0, 0, 3])"


@pytest.mark.parametrize("modulus, exps", [(0, (0,) * 6), (2, (1, 0))])
def test_torus_character_rejects_bad_input(modulus, exps):
    with pytest.raises(PreconditionError):
        TorusCharacter(modulus, exps)


def test_real_form_type_sorts_its_input_either_way():
    ideals = (RealFormLabel("su", 2), RealFormLabel("so", 3, 1), RealFormLabel("su", 2, 1))
    center = 2
    expected = (tuple(sorted(ideals, key=RealFormLabel.sort_key)), 2)
    for form in (RealFormType(ideals, center), RealFormType(center=center, ideals=ideals)):
        assert (form.ideals, form.center) == expected
        assert form == RealFormType(*expected)
        assert hash(form) == hash(expected)
    assert RealFormType(ideals, center).render() == "so(6,2)+su(2,1)+su(2)+2c"


def test_structure_constants_compare_field_by_field():
    sc = build_chevalley_basis(E6)
    again = build_chevalley_basis(E6)
    assert sc == again and sc is not again
