"""Exact-arithmetic Lie engine for e6: root systems, Chevalley constants,
toral involutions, fixed subalgebras, and the classification of Klein four
symmetric pairs of holomorphic type for e6(-14)."""

from .chevalley import (JacobiReport, StructureConstants, build_chevalley_basis,
                        check_jacobi, export_n_table, killing_form)
from .errors import (ConfigurationError, EngineError, InternalConsistencyError,
                     PreconditionError, UnmappedPatternError, UsageError,
                     ValidationError, VerificationError)
from .pipeline import (GOLDEN_PAIRS, GROUP_NAMES, SURVEY_FORMS, GroupCandidates,
                       K4Candidate, K4Report, SurveyResult, builtin_groups,
                       classify_all, enumerate_candidates, klein_four_subgroups,
                       report_to_dict, report_to_markdown, sigma2_elements,
                       symmetric_pair_survey)
from .realform import (RealFormLabel, RealFormType, center_of_fixed,
                       holomorphic_type_check, identify_real_form)
from .reductive import (ConjClass, FixedSubalgebra, classify_involution,
                        fixed_subalgebra, mu, sigma1_reference, sigma2_reference)
from .rootsys import (ReductiveType, Root, RootSystem, SubsystemComponent,
                      build_root_system, decompose_closed_subset,
                      identify_subsystem)
from .toral import (CharacterGroup, TorusCharacter, embed_su6_sp1, generate_group,
                    identity_character)

__version__ = "0.1.0"
