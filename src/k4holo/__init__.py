"""Exact-arithmetic Lie engine for e6: root systems, Chevalley constants,
toral involutions, fixed subalgebras, and the classification of Klein four
symmetric pairs of holomorphic type for e6(-14).

Importing the package loads none of its modules.  Each exported name is
imported from its home module the first time it is read (PEP 562), so a
caller that builds E6, the builtin groups and one involution class loads
only ``errors``, ``rootsys``, ``toral`` and ``reductive``.  The submodules
are served the same way.
"""
import sys

__version__ = "0.1.0"

# Each home module and the names the package exports from it.
_EXPORTS = {
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
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = sorted(_HOME)


def _submodule(name: str):
    # __import__, not importlib.import_module, so that -X importtime lists it
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(_submodule(_HOME[name]), name)
    elif name in _SUBMODULES:
        value = _submodule(name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
