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

import types as _types

from .alexander import (
    KnotTooLarge,
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
    WordTooLong,
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

# The package exports every name imported above, and its version.
__all__ = ["__version__"] + [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
]
