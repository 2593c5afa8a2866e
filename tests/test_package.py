"""The package's export table: each name, its home module, and what
importing the package loads."""
import importlib
import pickle
import subprocess
import sys

import pytest

import k4holo
from k4holo.toral import TorusCharacter

# Every name the package exports, by home module.
EXPORTS = {
    "chevalley": ("JacobiReport", "StructureConstants", "build_chevalley_basis",
                  "check_jacobi", "export_n_table", "killing_form"),
    "errors": ("ConfigurationError", "EngineError", "InternalConsistencyError",
               "PreconditionError", "UnmappedPatternError", "UsageError",
               "ValidationError", "VerificationError"),
    "pipeline": ("GOLDEN_PAIRS", "SURVEY_FORMS", "GroupCandidates", "K4Candidate",
                 "K4Report", "SurveyResult", "classify_all", "enumerate_candidates",
                 "klein_four_subgroups", "report_to_dict", "report_to_markdown",
                 "sigma2_elements", "symmetric_pair_survey"),
    "realform": ("RealFormLabel", "RealFormType", "center_of_fixed",
                 "holomorphic_type_check", "identify_real_form"),
    "reductive": ("ConjClass", "FixedSubalgebra", "classify_involution",
                  "fixed_subalgebra", "mu", "sigma1_reference", "sigma2_reference"),
    "rootsys": ("ReductiveType", "Root", "RootSystem", "SubsystemComponent",
                "build_root_system", "decompose_closed_subset"),
    "toral": ("GROUP_NAMES", "CharacterGroup", "TorusCharacter", "builtin_groups",
              "embed_su6_sp1", "generate_group", "identity_character"),
}


def test_all_lists_the_52_exports():
    names = sorted(name for names in EXPORTS.values() for name in names)
    assert len(names) == len(set(names)) == 52
    assert sorted(k4holo.__all__) == names


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_export_is_its_home_modules_object(module):
    home = importlib.import_module(f"k4holo.{module}")
    assert getattr(k4holo, module) is home
    for name in EXPORTS[module]:
        assert getattr(k4holo, name) is getattr(home, name), name


def test_dir_and_star_import_cover_every_export():
    assert set(k4holo.__all__) <= set(dir(k4holo))
    assert {"__all__", "__version__", "cli", "chevalley"} <= set(dir(k4holo))
    namespace = {}
    exec("from k4holo import *", namespace)
    assert {name: namespace[name] for name in k4holo.__all__} == {
        name: getattr(k4holo, name) for name in k4holo.__all__}


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'k4holo' has no attribute 'nope'$"):
        k4holo.nope


def test_bare_import_loads_no_submodule():
    code = "import sys, k4holo; print(sorted(m for m in sys.modules if m.startswith('k4holo.')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_character_pickled_here_unpickles_in_a_fresh_process():
    char = TorusCharacter(4, (2, 0, 0, 0, 0, 2))
    code = "import pickle, sys; print(repr(pickle.loads(sys.stdin.buffer.read())))"
    proc = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(char),
                          capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode() == "chi(m=2, [1, 0, 0, 0, 0, 1])\n" == f"{char!r}\n"
