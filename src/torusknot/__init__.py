"""Exact invariants of torus knots and links.

The package computes, with integer arithmetic throughout:

* Alexander polynomials of torus knots (rational formula and per-family
  closed forms) -- :mod:`torusknot.alexander` on top of
  :mod:`torusknot.laurent`;
* knot Floer staircase complexes, their delta-grading widths, and the
  width-jump scan -- :mod:`torusknot.hfk`;
* positive braid words, Garside normal forms, and the tabulated
  low-crossing rewritings of torus words -- :mod:`torusknot.braid`;
* closed-braid and PD-code diagrams, Kauffman state component counts,
  Turaev genus, and exact dealternating numbers -- :mod:`torusknot.diagram`;
* certified two-sided bounds combining all of the above --
  :mod:`torusknot.bounds`;
* a self-verification suite and a command line -- :mod:`torusknot.verify`
  and :mod:`torusknot.cli`.
"""

from .alexander import (
    NotCoprime,
    TorusFamily,
    UnsupportedFamily,
    alexander_closed_form,
    alexander_torus,
    normalize_torus_params,
)
from .bounds import (
    BoundBracket,
    KnownUpper,
    bounds,
    bounds_report,
    known_dealternating_upper,
)
from .braid import (
    BraidWord,
    IndexOutOfRange,
    LemmaCheck,
    NormalForm,
    ParseError,
    SearchBudgetExceeded,
    StrandMismatch,
    UnknownMacro,
    UnsupportedTorusFamily,
    cyclically_equal,
    lemma_word,
    normal_form,
    parse_braid,
    permutation_cycles,
    torus_braid_word,
    underlying_permutation,
    verify_lemmas,
    words_equal,
)
from .diagram import (
    ConstraintComponent,
    DaltReport,
    Diagram,
    DisconnectedDiagram,
    InconsistentConstraints,
    KauffmanState,
    MalformedPDCode,
    all_a,
    all_b,
    brute_force_dealternating,
    change_crossings,
    closure_diagram,
    dealternating_number_diagram,
    export_pd,
    import_pd,
    is_alternating,
    state_components,
    turaev_genus_diagram,
)
from .hfk import (
    ConjectureViolation,
    HFKTable,
    NotLSpaceForm,
    Staircase,
    WidthReport,
    delta_sequence,
    extract_staircase,
    hfk_from_staircase,
    scan_conjecture,
    scan_conjecture_parallel,
    width_formula,
    width_torus,
)
from .laurent import LaurentPolynomial, NonExactDivision
from .verify import CheckResult, run_checks

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # laurent
    "LaurentPolynomial",
    "NonExactDivision",
    # alexander
    "NotCoprime",
    "UnsupportedFamily",
    "TorusFamily",
    "normalize_torus_params",
    "alexander_torus",
    "alexander_closed_form",
    # hfk
    "NotLSpaceForm",
    "Staircase",
    "HFKTable",
    "WidthReport",
    "ConjectureViolation",
    "extract_staircase",
    "hfk_from_staircase",
    "delta_sequence",
    "width_torus",
    "width_formula",
    "scan_conjecture",
    "scan_conjecture_parallel",
    # braid
    "ParseError",
    "UnknownMacro",
    "IndexOutOfRange",
    "SearchBudgetExceeded",
    "StrandMismatch",
    "UnsupportedTorusFamily",
    "BraidWord",
    "NormalForm",
    "LemmaCheck",
    "parse_braid",
    "underlying_permutation",
    "permutation_cycles",
    "normal_form",
    "words_equal",
    "cyclically_equal",
    "torus_braid_word",
    "lemma_word",
    "verify_lemmas",
    # diagram
    "MalformedPDCode",
    "DisconnectedDiagram",
    "InconsistentConstraints",
    "Diagram",
    "KauffmanState",
    "ConstraintComponent",
    "DaltReport",
    "closure_diagram",
    "state_components",
    "all_a",
    "all_b",
    "turaev_genus_diagram",
    "is_alternating",
    "change_crossings",
    "dealternating_number_diagram",
    "brute_force_dealternating",
    "export_pd",
    "import_pd",
    # bounds
    "BoundBracket",
    "KnownUpper",
    "bounds",
    "bounds_report",
    "known_dealternating_upper",
    # verify
    "CheckResult",
    "run_checks",
]
