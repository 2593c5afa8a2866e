"""The package's export table: each name, its home module, and what
importing the package loads."""
import ast
import builtins
import importlib
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import k4holo
from k4holo import errors
from k4holo.toral import TorusCharacter

# Every name the package exports, by home module.
EXPORTS = {
    "chevalley": ("JacobiReport", "StructureConstants", "build_chevalley_basis",
                  "check_jacobi", "export_n_table", "killing_form"),
    "errors": ("EngineError", "PreconditionError", "UsageError", "VerificationError"),
    "pipeline": ("GOLDEN_PAIRS", "SURVEY_FORMS", "GroupCandidates", "K4Candidate",
                 "K4Report", "SurveyResult", "classify_all", "enumerate_candidates",
                 "klein_four_subgroups", "report_to_dict", "report_to_markdown",
                 "sigma2_elements", "symmetric_pair_survey"),
    "realform": ("RealFormLabel", "RealFormType", "center_of_fixed",
                 "holomorphic_type_check", "identify_real_form"),
    "reductive": ("ConjClass", "FixedSubalgebra", "classify_involution",
                  "fixed_subalgebra", "mu", "sigma1_reference", "sigma2_reference"),
    "rootsys": ("Root", "RootSystem", "SubsystemComponent", "build_root_system",
                "decompose_closed_subset"),
    "toral": ("GROUP_NAMES", "CharacterGroup", "TorusCharacter", "builtin_groups",
              "embed_su6_sp1", "generate_group", "identity_character"),
}


def test_all_lists_the_47_exports():
    names = sorted(name for names in EXPORTS.values() for name in names)
    assert len(names) == len(set(names)) == 47
    assert sorted(k4holo.__all__) == names


def _raised_name(node: ast.Raise) -> str | None:
    """The class name a raise statement names (its call's callee, or the
    bare name); None for a bare re-raise."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    if exc is None:
        return None
    return exc.id if isinstance(exc, ast.Name) else exc.attr


def test_errors_defines_exactly_the_four_classes_and_nothing_raises_another():
    classes = {name for name, value in vars(errors).items()
               if isinstance(value, type) and value.__module__ == errors.__name__}
    assert classes == set(EXPORTS["errors"])
    assert all(issubclass(getattr(errors, name), errors.EngineError) for name in classes)
    raised = set()
    for path in Path(k4holo.__file__).parent.glob("*.py"):
        raised |= {_raised_name(node) for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Raise)}
    raised -= {None, *(name for name in raised if hasattr(builtins, name))}
    assert raised and raised <= classes


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
