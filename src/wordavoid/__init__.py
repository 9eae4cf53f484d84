"""Words avoiding large squares: constructions, verification, counting."""

from .words import (AvoidanceSpec, GapPattern, ParseError, SpecCheck,
                    Violation, find_cube_at_least, find_square_at_least,
                    format_spec, gap_occurrences, max_square_root,
                    parse_spec, perfect_shuffle, satisfies_spec,
                    scan_forbidden, word_from_text, word_to_text)
from .morphisms import (FixedPointStream, Morphism, Substitution,
                        fixed_point_prefix, parse_morphism,
                        parse_substitution, power)
from .verify import (BoundedCaseReport, GapEvidence, InclusionWitness,
                     InterchangeWitness, Refutation, TransferCertificate,
                     bounded_case_check, find_inclusions, find_interchanges,
                     prove_gap_pattern_absence, refute_inclusion,
                     refute_interchange, sync_delay, verify_square_transfer)
from .counting import (CountTable, ExhaustReport, FactorAutomaton,
                       FamilyReport, GrowthEstimate, MinimalForbiddenSet,
                       build_automaton, count_avoiding, exhaust_max_length,
                       growth_rate, lower_bound_family, minimal_forbidden,
                       walk_legal)
from .instances import InstanceRegistry, load_registry
from .scenarios import Check, ScenarioReport, SCENARIOS, run_scenario

__version__ = "0.1.0"
