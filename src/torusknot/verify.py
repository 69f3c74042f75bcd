"""Built-in verification checks.

Every headline computation in the package is re-run here against frozen
expected values and independent cross-checks: golden polynomial and
staircase outputs, formula-vs-computation sweeps, the width-jump scan,
braid-word identities, state-count tables, solver-vs-brute-force
minimality, randomized property suites, and the bound brackets.

Each check is declared once, by the ``_check`` decorator, which names it,
times it and builds its :class:`CheckResult`; the check body only
collects failures and returns its detail.  ``CHECK_NAMES`` and
:func:`run_checks` read that registry, in declaration order.  All randomness is seeded, and the scan checks its
pairs in one fixed order whatever the worker count, so output is identical
across runs and worker counts.
"""

from __future__ import annotations

import functools
import inspect
import math
import random
import time
from dataclasses import dataclass
from typing import Callable

from .alexander import (
    _CLOSED_FORMS,
    NotCoprime,
    TorusFamily,
    UnsupportedFamily,
    alexander_closed_form,
    alexander_torus,
)
from .bounds import bounds, known_dealternating_upper
from .braid import (
    _FAMILIES,
    BraidWord,
    lemma_word,
    normal_form,
    torus_braid_word,
    verify_lemmas,
)
from .diagram import (
    all_a,
    all_b,
    brute_force_dealternating,
    change_crossings,
    closure_diagram,
    dealternating_number_diagram,
    is_alternating,
    state_components,
    turaev_genus_diagram,
)
from .hfk import (
    extract_staircase,
    hfk_from_staircase,
    scan_conjecture,
    width_formula,
    width_torus,
)
from .laurent import LaurentPolynomial

__all__ = ["CheckResult", "CHECK_NAMES", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    """One named pass/fail verification outcome."""

    name: str
    passed: bool
    detail: str
    seconds: float


_CHECKS: dict[str, tuple[Callable[..., CheckResult], tuple[str, ...]]] = {}


def _check(name: str, *options: str):
    """Register a check under ``name``, in run order, and time it.

    The decorated body takes a list to append failure strings to, then the
    check's own parameters, and returns the detail reported on success.
    ``options`` names the :func:`run_checks` settings passed to those
    parameters, in order.
    """

    def register(body: Callable[..., str]) -> Callable[..., CheckResult]:
        @functools.wraps(body)
        def check(*args, **kwargs) -> CheckResult:
            start = time.perf_counter()
            failures: list[str] = []
            detail = body(failures, *args, **kwargs)
            elapsed = time.perf_counter() - start
            if failures:
                summary = "; ".join(failures[:5])
                if len(failures) > 5:
                    summary += f"; ... {len(failures)} failures total"
                return CheckResult(name, False, summary, elapsed)
            return CheckResult(name, True, detail, elapsed)

        parameters = list(inspect.signature(body).parameters.values())[1:]
        check.__signature__ = inspect.Signature(parameters, return_annotation=CheckResult)
        _CHECKS[name] = (check, options)
        return check

    return register


def _best_of_three(fn) -> float:
    """Best wall-clock seconds over three runs of fn()."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# ----------------------------------------------------------------------
# 1. golden Alexander polynomials


_GOLDEN_ALEXANDER = {
    (2, 3): "t^{-1}-1+t",
    (2, 5): "t^{-2}-t^{-1}+1-t+t^2",
    (3, 4): "t^{-3}-t^{-2}+1-t^2+t^3",
    (4, 5): "t^{-6}-t^{-5}+t^{-2}-1+t^2-t^5+t^6",
    (5, 7): (
        "t^{-12}-t^{-11}+t^{-7}-t^{-6}+t^{-5}-t^{-4}+t^{-2}-t^{-1}+1"
        "-t+t^2-t^4+t^5-t^6+t^7-t^{11}+t^{12}"
    ),
}


@_check("golden-alexander")
def check_golden_alexander(failures: list[str]) -> str:
    """Frozen polynomial text for small torus knots, plus domain errors."""
    for (p, q), text in _GOLDEN_ALEXANDER.items():
        got = alexander_torus(p, q).to_text()
        if got != text:
            failures.append(f"T({p},{q}): got {got!r}, want {text!r}")
    if alexander_torus(5, 2) != alexander_torus(2, 5):
        failures.append("T(5,2) != T(2,5)")
    for q in (1, 2, 9):
        if alexander_torus(1, q) != LaurentPolynomial.one():
            failures.append(f"T(1,{q}) != 1")
    for p, q in ((4, 6), (6, 9), (2, 2)):
        try:
            alexander_torus(p, q)
            failures.append(f"T({p},{q}) accepted despite gcd > 1")
        except NotCoprime:
            pass
    best = _best_of_three(lambda: alexander_torus(4, 5))
    if best >= 1e-3:
        failures.append(f"T(4,5) took {best * 1e3:.3f} ms (budget 1 ms)")
    return (
        f"{len(_GOLDEN_ALEXANDER)} golden polynomials; "
        f"T(4,5) best-of-3 {best * 1e6:.0f} us"
    )


# ----------------------------------------------------------------------
# 2. golden knot Floer tables


_GOLDEN_HFK = {
    (2, 3): [(1, 0, 1), (0, -1, 1), (-1, -2, 1)],
    (4, 5): [
        (6, 0, 1),
        (5, -1, 1),
        (2, -2, 1),
        (0, -5, 1),
        (-2, -6, 1),
        (-5, -11, 1),
        (-6, -12, 1),
    ],
}


def _hfk_table(p: int, q: int):
    return hfk_from_staircase(extract_staircase(alexander_torus(p, q)))


@_check("golden-hfk")
def check_golden_hfk(failures: list[str]) -> str:
    """Frozen staircase generators and the (4,5) width report."""
    for (p, q), gens in _GOLDEN_HFK.items():
        got = _hfk_table(p, q).generators()
        if got != gens:
            failures.append(f"T({p},{q}) generators: got {got}")
    report = width_torus(4, 5)
    if (report.delta_max, report.delta_min, report.width) != (6, 4, 3):
        failures.append(
            f"T(4,5) width report: got ({report.delta_max}, "
            f"{report.delta_min}, {report.width}), want (6, 4, 3)"
        )
    best = _best_of_three(lambda: _hfk_table(4, 5))
    if best >= 1e-3:
        failures.append(f"T(4,5) table took {best * 1e3:.3f} ms (budget 1 ms)")
    return (
        f"{sum(len(g) for g in _GOLDEN_HFK.values())} generators frozen; "
        f"T(4,5) best-of-3 {best * 1e6:.0f} us"
    )


# ----------------------------------------------------------------------
# 3. width formulas vs staircase computation


def _closed_form_families() -> list[TorusFamily]:
    """Every closed-form family instance with p <= 12 and n <= 20."""
    families: list[TorusFamily] = []
    for p in range(2, 13):
        for n in range(0, 21):
            for kind in _CLOSED_FORMS:
                try:
                    families.append(TorusFamily(kind, p, n))
                except UnsupportedFamily:
                    pass  # p or n outside the kind's range
    return families


@_check("width-formulas")
def check_width_formulas(failures: list[str]) -> str:
    """width_formula == width_torus across all covered families, 1 <= n <= 20."""
    pairs = {
        (min(f.p, f.q), max(f.p, f.q))
        for f in _closed_form_families()
        if f.n >= 1 and f.q >= 2
    }
    for p, q in sorted(pairs):
        got = width_torus(p, q).width
        want = width_formula(p, q)
        if got != want:
            failures.append(f"T({p},{q}): staircase {got}, formula {want}")
    return f"{len(pairs)} (p,q) pairs, exact match"


# ----------------------------------------------------------------------
# 4. width-jump conjecture scan


@_check("conjecture-scan", "scan_bound", "jobs")
def check_conjecture_scan(failures: list[str], bound: int = 250, jobs: int = 1) -> str:
    """Exhaustive width-jump check for all coprime pairs below the bound."""
    checked, violations = scan_conjecture(bound, jobs=jobs)
    failures.extend(
        f"T({v.p},{v.q}): width {v.width}, previous {v.previous_width}, "
        f"expected jump {v.expected_jump}"
        for v in violations
    )
    return f"{checked} coprime pairs below {bound}, zero violations"


# ----------------------------------------------------------------------
# 5. closed forms vs rational formula


@_check("closed-forms")
def check_closed_forms(failures: list[str]) -> str:
    """Every closed-form family equals the rational formula, n <= 20."""
    families = _closed_form_families()
    for family in families:
        closed = alexander_closed_form(family)
        rational = alexander_torus(family.p, family.q)
        if closed != rational:
            failures.append(
                f"{family.kind} p={family.p} n={family.n}: closed form "
                f"differs from rational formula"
            )
    return f"{len(families)} family instances, exact match"


# ----------------------------------------------------------------------
# 6. braid-word identities


@_check("braid-lemmas", "n_max")
def check_braid_lemmas(failures: list[str], n_max: int = 4) -> str:
    """All tabulated torus-word rewritings hold in the braid group."""
    checks = verify_lemmas(n_max=n_max)
    failures.extend(
        f"({c.p},{c.q}) n={c.n} [{c.relation}] failed" for c in checks if not c.passed
    )
    cyclic = sum(1 for c in checks if c.relation == "cyclic")
    return f"{len(checks)} identities up to n={n_max} ({cyclic} cyclic), all pass"


# ----------------------------------------------------------------------
# 7. state counts and Turaev genus of the tabulated diagrams


def _tabulated_diagrams():
    """(p, r, q, s_B, g_T, dealternating number) for n = 1..4."""
    for n in range(1, 5):
        for (p, r), family in _FAMILIES.items():
            formulas = (family.s_b, family.g_t, family.dealternating)
            yield (p, r, p * n + r, *(a * n + b for a, b in formulas))


@_check("state-counts")
def check_state_counts(failures: list[str]) -> str:
    """s_A, s_B, and Turaev genus of every tabulated diagram, n = 1..4."""
    cases = 0
    for p, _, q, want_s_b, want_g_t, _ in _tabulated_diagrams():
        diagram = closure_diagram(lemma_word(p, q))
        cases += 1
        c = len(diagram.signs)
        s_a = all_a(diagram).component_count
        s_b = all_b(diagram).component_count
        g_t = turaev_genus_diagram(diagram)
        if s_a != p:
            failures.append(f"D({p},{q}): s_A = {s_a}, want {p}")
        if s_b != want_s_b:
            failures.append(f"D({p},{q}): s_B = {s_b}, want {want_s_b}")
        if g_t != want_g_t:
            failures.append(f"D({p},{q}): g_T = {g_t}, want {want_g_t}")
        if 2 * g_t != 2 + c - s_a - s_b:
            failures.append(f"D({p},{q}): genus identity violated")
    for (p, q), crossings in (((6, 6), 30), ((6, 7), 35)):
        if len(lemma_word(p, q).letters) != crossings:
            failures.append(
                f"word({p},{q}) has {len(lemma_word(p, q).letters)} crossings, "
                f"want {crossings}"
            )
    return f"{cases} diagrams, all three counts match"


# ----------------------------------------------------------------------
# 8. dealternating solver soundness


@_check("dealternating-solver")
def check_dealternating_solver(failures: list[str]) -> str:
    """Witness really alternates; brute force confirms minimality (<= 14 crossings)."""
    # (label, diagram, its known minimum or None)
    corpus = []
    for p, _, q, _, _, minimum in _tabulated_diagrams():
        diagram = closure_diagram(lemma_word(p, q))
        corpus.append((f"tabulated ({p},{q})", diagram, minimum))
    for p, q in ((2, 3), (2, 5), (2, 7), (2, 9), (3, 4), (3, 5), (3, 7), (4, 4), (4, 5), (5, 6), (6, 7)):
        corpus.append((f"standard ({p},{q})", closure_diagram(torus_braid_word(p, q)), None))
    witnessed = 0
    brute_checked = 0
    for label, diagram, minimum in corpus:
        report = dealternating_number_diagram(diagram)
        if minimum is not None and report.minimum_changes != minimum:
            failures.append(f"{label}: minimum {report.minimum_changes}, want {minimum}")
        changed = change_crossings(diagram, report.witness)
        if not is_alternating(changed):
            failures.append(f"{label}: witness does not alternate")
        else:
            witnessed += 1
        if len(report.witness) != report.minimum_changes:
            failures.append(f"{label}: witness size != minimum")
        if len(diagram.signs) <= 14:
            brute = brute_force_dealternating(diagram)
            brute_checked += 1
            if brute != report.minimum_changes:
                failures.append(
                    f"{label}: solver {report.minimum_changes}, brute force {brute}"
                )
    golden = dealternating_number_diagram(closure_diagram(torus_braid_word(4, 4)))
    if golden.minimum_changes != 4 or golden.witness != (1, 4, 7, 10):
        failures.append(
            f"standard (4,4): got {golden.minimum_changes} via {golden.witness}, "
            f"want 4 via (1, 4, 7, 10)"
        )
    return (
        f"{witnessed} witnesses verified, {brute_checked} brute-force "
        f"minimality confirmations"
    )


# ----------------------------------------------------------------------
# 9. randomized property suites


def _random_poly(rng: random.Random) -> LaurentPolynomial:
    n_terms = rng.randint(0, 6)
    return LaurentPolynomial.from_terms(
        (rng.randint(-8, 8), rng.randint(-9, 9)) for _ in range(n_terms)
    )


def _random_word(rng: random.Random) -> BraidWord:
    strands = rng.randint(2, 6)
    length = rng.randint(1, 30)
    letters = tuple(rng.randint(1, strands - 1) for _ in range(length))
    return BraidWord(strands, letters)


def _random_rewrite(rng: random.Random, letters: list[int]) -> list[int]:
    """One random Artin rewrite (commutation or braid relation) in place."""
    moves: list[tuple[str, int]] = []
    for i in range(len(letters) - 1):
        if abs(letters[i] - letters[i + 1]) >= 2:
            moves.append(("c", i))
    for i in range(len(letters) - 2):
        if abs(letters[i] - letters[i + 1]) == 1 and letters[i + 2] == letters[i]:
            moves.append(("b", i))
    if not moves:
        return letters
    kind, i = rng.choice(moves)
    out = list(letters)
    if kind == "c":
        out[i], out[i + 1] = out[i + 1], out[i]
    else:
        a, b = out[i], out[i + 1]
        out[i], out[i + 1], out[i + 2] = b, a, b
    return out


def _laurent_properties(rng: random.Random, failures: list[str]) -> int:
    cases = 0
    for _ in range(1000):
        cases += 1
        a, b, c = _random_poly(rng), _random_poly(rng), _random_poly(rng)
        if (a + b) * c != a * c + b * c:
            failures.append("distributivity failed")
        if a * b != b * a:
            failures.append("commutativity failed")
        if (a * b) * c != a * (b * c):
            failures.append("associativity failed")
        if (a - b) + b != a:
            failures.append("add/sub round-trip failed")
        while b.is_zero():
            b = _random_poly(rng)
        if (a * b).exact_div(b) != a:
            failures.append("division round-trip failed")
        if LaurentPolynomial.from_text(a.to_text()) != a:
            failures.append(f"text round-trip failed for {a.to_text()!r}")
        if failures:
            break
    return cases


def _normal_form_properties(rng: random.Random, failures: list[str]) -> int:
    cases = 0
    for _ in range(200):
        cases += 1
        word = _random_word(rng)
        nf = normal_form(word)
        letters = list(word.letters)
        for _ in range(100):
            letters = _random_rewrite(rng, letters)
        rewritten = BraidWord(word.strands, tuple(letters))
        if normal_form(rewritten) != nf:
            failures.append(f"normal form changed under rewriting: {word.as_text()}")
        renormalized = normal_form(nf.word())
        if renormalized != nf:
            failures.append(f"normal form not idempotent: {word.as_text()}")
        if failures:
            break
    return cases


def _hfk_properties(failures: list[str]) -> int:
    cases = 0
    for q in range(3, 61):
        for p in range(2, q):
            if math.gcd(p, q) != 1:
                continue
            cases += 1
            delta = alexander_torus(p, q)
            table = _hfk_table(p, q)
            gens = set(table.generators())
            mirrored = {(-s, m - 2 * s, r) for s, m, r in gens}
            if mirrored != gens:
                failures.append(f"T({p},{q}): generators not symmetric")
            if table.euler_characteristic() != delta:
                failures.append(f"T({p},{q}): Euler characteristic mismatch")
            if failures:
                return cases
    return cases


def _single_flip_properties(rng: random.Random, failures: list[str]) -> int:
    cases = 0
    for _ in range(500):
        cases += 1
        strands = rng.randint(2, 6)
        length = rng.randint(1, 20)
        word = BraidWord(
            strands, tuple(rng.randint(1, strands - 1) for _ in range(length))
        )
        diagram = closure_diagram(word)
        assignment = [rng.choice("AB") for _ in range(length)]
        before = state_components(diagram, assignment).component_count
        i = rng.randrange(length)
        assignment[i] = "B" if assignment[i] == "A" else "A"
        after = state_components(diagram, assignment).component_count
        if abs(after - before) != 1:
            failures.append(
                f"flip changed count by {after - before} on {word.as_text()}"
            )
            break
    return cases


@_check("property-suites")
def check_property_suites(failures: list[str], seed: int = 20260814) -> str:
    """Seeded randomized suites: ring axioms, rewriting invariance, symmetry."""
    rng = random.Random(seed)
    n_laurent = _laurent_properties(rng, failures)
    n_nf = _normal_form_properties(rng, failures)
    n_hfk = _hfk_properties(failures)
    n_flip = _single_flip_properties(rng, failures)
    return (
        f"{n_laurent} ring/division cases, {n_nf} rewriting words, "
        f"{n_hfk} staircase tables, {n_flip} smoothing flips"
    )


# ----------------------------------------------------------------------
# 10. bound brackets


@_check("bound-brackets")
def check_bound_brackets(failures: list[str]) -> str:
    """Bracket tables for every covered family, n = 1..4, with import labels."""
    cases = 0
    for p, r, q, _, want_upper, want_dealt in _tabulated_diagrams():
        cases += 1
        turaev, dealt = bounds(p, q)
        knot = math.gcd(p, q) == 1
        want_lower = width_torus(p, q).width - 1 if knot else 0
        if (turaev.lower, turaev.upper) != (want_lower, want_upper):
            failures.append(
                f"T({p},{q}): Turaev bracket [{turaev.lower},{turaev.upper}], "
                f"want [{want_lower},{want_upper}]"
            )
        gap = turaev.upper - turaev.lower
        open_family = p == 5 and r in (2, 3, 4)
        if knot and gap != (1 if open_family else 0):
            failures.append(f"T({p},{q}): Turaev gap {gap} unexpected")
        if dealt.lower != turaev.lower:
            failures.append(f"T({p},{q}): lower bounds disagree")
        if dealt.upper != want_dealt:
            failures.append(
                f"T({p},{q}): dealternating upper {dealt.upper}, want {want_dealt}"
            )
        known = known_dealternating_upper(p, q)
        if known is None:
            failures.append(f"T({p},{q}): no known upper tabulated")
            continue
        in_scope = p == 6
        if known.needs_pd_import != (not in_scope):
            failures.append(f"T({p},{q}): import label wrong")
        if in_scope and dealt.upper != known.value:
            failures.append(
                f"T({p},{q}): in-scope upper {dealt.upper} != known {known.value}"
            )
        if not in_scope and dealt.upper <= known.value:
            failures.append(
                f"T({p},{q}): upper {dealt.upper} not above known "
                f"{known.value} despite import label"
            )
    for (p, q), bracket in (((4, 5), (2, 2)), ((5, 7), (4, 5)), ((3, 2), (0, 0))):
        turaev, _ = bounds(p, q)
        if (turaev.lower, turaev.upper) != bracket:
            failures.append(
                f"T({p},{q}): Turaev bracket ({turaev.lower},{turaev.upper}), "
                f"want {bracket}"
            )
    for q in range(2, 13):
        for p in range(1, q + 1):
            for bracket in bounds(p, q):
                if bracket.lower > bracket.upper:
                    failures.append(f"T({p},{q}): {bracket.invariant} inverted")
    return f"{cases} family brackets, import labels and gaps as documented"


# ----------------------------------------------------------------------
# runner


CHECK_NAMES = tuple(_CHECKS)


def run_checks(
    scan_bound: int = 250,
    jobs: int = 1,
    n_max: int = 4,
    names: "tuple[str, ...] | None" = None,
) -> list[CheckResult]:
    """Run the verification checks in order; returns one result per check."""
    settings = {"scan_bound": scan_bound, "jobs": jobs, "n_max": n_max}
    selected = CHECK_NAMES if names is None else names
    unknown = [name for name in selected if name not in _CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    results = []
    for name in selected:
        check, options = _CHECKS[name]
        results.append(check(*(settings[option] for option in options)))
    return results
