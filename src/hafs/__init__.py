"""Higher-order argumentation frameworks with supports.

Attacks and supports are first-class elements of the universe: they can
be attacked and supported, and can attack and support in turn.  The
package computes three-valued labelling semantics, extension semantics,
propositional encodings under three-valued and fuzzy logics, and
fixed-point equational semantics, plus an empirical harness checking
that those views of the same framework agree where they should.
"""

from .bridge import (THEOREM_IDS, VerificationReport, embed, enumerate_pl3_models,
                     framework_digest, ternarize, verify)
from .equations import (EquationSystem, SolveReport, build_equations,
                        enumerate_ternary_solutions, h_function, solve_fixed_point)
from .errors import (EvaluationError, HafsError, InfeasibleParametersError,
                     ParseError, PreconditionError, SizeBoundError, ValidationError)
from .extensions import (ElementSet, SetFlags, classify_set, dfd, dft, directly_defeats,
                         enumerate_extensions, extension_derived_labelling,
                         indirectly_defeats)
from .framework import (HAFS, ElementId, Kind, Relation, SupportChain, argument,
                        attack_id, generate_random, is_support_acyclic, parse,
                        serialize, support_id)
from .labellings import (HALF, ONE, ZERO, Labelling3, enumerate_adjacent_complete,
                         is_adjacent_complete, select_labellings)
from .logic import (BUILTIN_LOGICS, GODEL, L3, LUKASIEWICZ, PRODUCT, And, Assignment,
                    Bottom, Formula, Iff, Implies, LogicSystem, Not, Or, Top, Var,
                    compile_evaluator, encode_normal, evaluate, formula_to_json_obj,
                    formula_to_text, get_logic, is_model, variables)

__version__ = "0.1.0"
