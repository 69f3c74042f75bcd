"""Exact invariants of torus knots and links.

The package computes, with integer arithmetic throughout:

* Alexander polynomials of torus knots (the Lam-Leung grid and per-family
  closed forms) -- :mod:`torusknot.alexander` on top of
  :mod:`torusknot.laurent`;
* knot Floer staircase complexes, their delta-grading widths, and the
  width-jump scan -- :mod:`torusknot.hfk`;
* positive braid words and the tabulated low-crossing rewritings of torus
  words -- :mod:`torusknot.words`; their Garside normal forms and equality
  -- :mod:`torusknot.braid`;
* closed-braid and PD-code diagrams, Kauffman state component counts,
  Turaev genus, and exact dealternating numbers -- :mod:`torusknot.diagram`;
* certified two-sided bounds combining all of the above --
  :mod:`torusknot.bounds`;
* a self-verification suite and a command line -- :mod:`torusknot.verify`
  and :mod:`torusknot.cli`.

The namespace is lazy: ``import torusknot`` loads no submodule.  The first
access to an exported name, such as ``torusknot.width_torus``, imports the
submodule that defines it (one table, ``_EXPORTS``, says which) and keeps
the value.  The submodules that define exports are reachable as attributes
too, and ``from torusknot import *`` imports them all.  ``torusknot.bounds``
is the function :func:`torusknot.bounds.bounds` whichever was imported
first; the submodule of that name is ``sys.modules["torusknot.bounds"]``.
"""

import importlib as _importlib
import sys as _sys
import types as _types

__version__ = "0.1.0"

# Each exported name, and the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("_gate", "KnotTooLarge NotCoprime normalize_torus_params"),
        (
            "alexander",
            "TorusFamily UnsupportedFamily alexander_closed_form alexander_torus",
        ),
        (
            "bounds",
            "BoundBracket KnownUpper bounds bounds_report known_dealternating_upper",
        ),
        (
            "braid",
            "LemmaCheck NormalForm SearchBudgetExceeded cyclically_equal normal_form "
            "underlying_permutation verify_lemmas words_equal",
        ),
        (
            "diagram",
            "ConstraintComponent DaltReport Diagram DisconnectedDiagram "
            "InconsistentConstraints MalformedPDCode all_a all_b "
            "brute_force_dealternating change_crossings closure_diagram "
            "dealternating_number_diagram export_pd import_pd is_alternating "
            "state_components turaev_genus_diagram",
        ),
        (
            "hfk",
            "ConjectureViolation NotLSpaceForm Staircase WidthReport "
            "delta_sequence extract_staircase hfk_from_staircase scan_conjecture "
            "width_formula width_torus",
        ),
        ("laurent", "LaurentPolynomial NonExactDivision"),
        ("verify", "CheckResult run_checks"),
        (
            "words",
            "BraidWord IndexOutOfRange ParseError StrandMismatch UnknownMacro "
            "UnsupportedTorusFamily WordTooLong lemma_word parse_braid torus_braid_word",
        ),
    )
    for name in names.split()
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    """Import an exported name's submodule, or a submodule, on first use."""
    if name in _EXPORTS:
        module = _importlib.import_module(f"{__name__}.{_EXPORTS[name]}")
        value = getattr(module, name)
    elif name in _SUBMODULES:
        value = _importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS) | _SUBMODULES)


class _Package(_types.ModuleType):
    """The package module, which keeps an export when a submodule shares its name.

    After loading a submodule, the import system binds it on the package.
    For ``bounds`` that would hide the exported function behind the module,
    so such a binding is dropped and the name stays the export.
    """

    def __setattr__(self, name: str, value) -> None:
        if name in _EXPORTS and isinstance(value, _types.ModuleType):
            return
        super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
