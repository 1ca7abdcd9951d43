"""Sharp upper bounds on the region unknotting number of torus links,
with explicit region schedules and machine-checkable unlink certificates.
"""

from .bounds import (
    BoundResult,
    CaseNotCovered,
    Certificate,
    NotProperError,
    RegionSchedule,
    TheoremCase,
    bound,
    explicit_schedule,
    verify_bound,
)
from .braid import (
    BraidWord,
    BudgetExceeded,
    closure_components,
    format_word,
    handle_reduce,
    is_trivial_braid,
    markov_simplify,
    parse_word,
    toric_braid,
)
from .diagram import PlanarDiagram, close_braid, toric_diagram

# No package code calls gf2; it is imported so that the benchmark tracer
# (perfbench/tracing.py) finds gf2.solution_coset after `import regionum`.
from . import gf2
from .invariants import UnlinkCertificate, Verdict, certify_unlink, jones
from .laurent import LaurentPoly
from .properness import (
    TorusLinkSpec,
    is_proper,
    is_proper_closed_form,
    is_proper_diagram_oracle,
    is_proper_power_form,
)
from .search import SearchReport, SharpnessProbe, brute_force_uR, sharpness_probe

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "BraidWord",
    "BudgetExceeded",
    "CaseNotCovered",
    "Certificate",
    "LaurentPoly",
    "NotProperError",
    "PlanarDiagram",
    "RegionSchedule",
    "SearchReport",
    "SharpnessProbe",
    "TheoremCase",
    "TorusLinkSpec",
    "UnlinkCertificate",
    "Verdict",
    "bound",
    "brute_force_uR",
    "certify_unlink",
    "close_braid",
    "closure_components",
    "explicit_schedule",
    "format_word",
    "handle_reduce",
    "is_proper",
    "is_proper_closed_form",
    "is_proper_diagram_oracle",
    "is_proper_power_form",
    "is_trivial_braid",
    "jones",
    "markov_simplify",
    "parse_word",
    "sharpness_probe",
    "toric_braid",
    "toric_diagram",
    "verify_bound",
]
