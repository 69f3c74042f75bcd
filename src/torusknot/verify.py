"""Built-in verification checks.

Every headline computation in the package is re-run here against frozen
expected values and independent cross-checks: golden polynomial and
staircase outputs, formula-vs-computation sweeps, the width-jump scan,
braid-word identities, state-count tables, solver-vs-brute-force
minimality, randomized property suites, and the bound brackets.

Each check returns a :class:`CheckResult`; :func:`run_checks` runs them
all in a fixed order.  All randomness is seeded, and the scan checks its
pairs in one fixed order whatever the worker count, so output is identical
across runs and worker counts.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from .alexander import (
    NotCoprime,
    TorusFamily,
    alexander_closed_form,
    alexander_torus,
)
from .bounds import bounds, known_dealternating_upper
from .braid import (
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
from .laurent import LaurentPolynomial, NonExactDivision

__all__ = ["CheckResult", "CHECK_NAMES", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    """One named pass/fail verification outcome."""

    name: str
    passed: bool
    detail: str
    seconds: float


def _result(name: str, start: float, failures: list[str], detail: str) -> CheckResult:
    elapsed = time.perf_counter() - start
    if failures:
        summary = "; ".join(failures[:5])
        if len(failures) > 5:
            summary += f"; ... {len(failures)} failures total"
        return CheckResult(name, False, summary, elapsed)
    return CheckResult(name, True, detail, elapsed)


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


def check_golden_alexander() -> CheckResult:
    """Frozen polynomial text for small torus knots, plus domain errors."""
    start = time.perf_counter()
    failures: list[str] = []
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
    return _result(
        "golden-alexander",
        start,
        failures,
        f"{len(_GOLDEN_ALEXANDER)} golden polynomials; "
        f"T(4,5) best-of-3 {best * 1e6:.0f} us",
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


def check_golden_hfk() -> CheckResult:
    """Frozen staircase generators and the (4,5) width report."""
    start = time.perf_counter()
    failures: list[str] = []
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
    return _result(
        "golden-hfk",
        start,
        failures,
        f"{sum(len(g) for g in _GOLDEN_HFK.values())} generators frozen; "
        f"T(4,5) best-of-3 {best * 1e6:.0f} us",
    )


# ----------------------------------------------------------------------
# 3. width formulas vs staircase computation


def check_width_formulas() -> CheckResult:
    """width_formula == width_torus across all covered families, n <= 20."""
    start = time.perf_counter()
    failures: list[str] = []
    cases = 0
    pairs: set[tuple[int, int]] = set()
    for p in range(2, 13):
        for n in range(1, 21):
            for q in (p * n + 1, p * n - 1):
                if q < 2 or math.gcd(p, q) != 1:
                    continue
                pairs.add((min(p, q), max(p, q)))
    for n in range(1, 21):
        pairs.add((5, 5 * n + 2))
        pairs.add((5, 5 * n + 3))
    for p, q in sorted(pairs):
        cases += 1
        got = width_torus(p, q).width
        want = width_formula(p, q)
        if got != want:
            failures.append(f"T({p},{q}): staircase {got}, formula {want}")
    return _result(
        "width-formulas", start, failures, f"{cases} (p,q) pairs, exact match"
    )


# ----------------------------------------------------------------------
# 4. width-jump conjecture scan


def check_conjecture_scan(bound: int = 250, jobs: int = 1) -> CheckResult:
    """Exhaustive width-jump check for all coprime pairs below the bound."""
    start = time.perf_counter()
    checked, violations = scan_conjecture(bound, jobs=jobs)
    failures = [
        f"T({v.p},{v.q}): width {v.width}, previous {v.previous_width}, "
        f"expected jump {v.expected_jump}"
        for v in violations
    ]
    return _result(
        "conjecture-scan",
        start,
        failures,
        f"{checked} coprime pairs below {bound}, zero violations",
    )


# ----------------------------------------------------------------------
# 5. closed forms vs rational formula


def check_closed_forms() -> CheckResult:
    """Every closed-form family equals the rational formula, n <= 20."""
    start = time.perf_counter()
    failures: list[str] = []
    cases = 0
    families: list[TorusFamily] = []
    for p in range(2, 13):
        for n in range(0, 21):
            for kind in ("pn+1", "pn-1"):
                q = p * n + (1 if kind == "pn+1" else -1)
                if q < 1 or math.gcd(p, q) != 1:
                    continue
                families.append(TorusFamily(kind, p, n))
    for n in range(0, 21):
        families.append(TorusFamily("5n+2", 5, n))
        families.append(TorusFamily("5n+3", 5, n))
    for family in families:
        cases += 1
        closed = alexander_closed_form(family)
        rational = alexander_torus(family.p, family.q)
        if closed != rational:
            failures.append(
                f"{family.kind} p={family.p} n={family.n}: closed form "
                f"differs from rational formula"
            )
    return _result(
        "closed-forms", start, failures, f"{cases} family instances, exact match"
    )


# ----------------------------------------------------------------------
# 6. braid-word identities


def check_braid_lemmas(n_max: int = 4) -> CheckResult:
    """All tabulated torus-word rewritings hold in the braid group."""
    start = time.perf_counter()
    checks = verify_lemmas(n_max=n_max)
    failures = [
        f"({c.p},{c.q}) n={c.n} [{c.relation}] failed" for c in checks if not c.passed
    ]
    cyclic = sum(1 for c in checks if c.relation == "cyclic")
    return _result(
        "braid-lemmas",
        start,
        failures,
        f"{len(checks)} identities up to n={n_max} ({cyclic} cyclic), all pass",
    )


# ----------------------------------------------------------------------
# 7. state counts and Turaev genus of the tabulated diagrams


def _s_b_expected(p: int, r: int, n: int) -> int:
    table = {
        4: {0: (8, -2), 1: (8, 1), 2: (8, 2), 3: (8, 5)},
        5: {0: (12, -3), 1: (12, 1), 2: (12, 3), 3: (12, 5), 4: (12, 7)},
        6: {0: (18, -4), 1: (18, 1)},
    }
    a, b = table[p][r]
    return a * n + b


def _g_t_expected(p: int, r: int, n: int) -> int:
    table = {
        4: {0: (2, 0), 1: (2, 0), 2: (2, 1), 3: (2, 1)},
        5: {0: (4, 0), 1: (4, 0), 2: (4, 1), 3: (4, 2), 4: (4, 3)},
        6: {0: (6, 0), 1: (6, 0)},
    }
    a, b = table[p][r]
    return a * n + b


def _dalt_expected(p: int, r: int, n: int) -> int:
    table = {
        4: {0: (4, 0), 1: (4, 0), 2: (4, 2), 3: (4, 2)},
        5: {0: (4, 2), 1: (4, 2), 2: (4, 3), 3: (4, 4), 4: (4, 7)},
        6: {0: (6, 2), 1: (6, 2)},
    }
    a, b = table[p][r]
    return a * n + b


def _lemma_families():
    for p, residues in ((4, range(4)), (5, range(5)), (6, range(2))):
        for r in residues:
            yield p, r


def check_state_counts() -> CheckResult:
    """s_A, s_B, and Turaev genus of every tabulated diagram, n = 1..4."""
    start = time.perf_counter()
    failures: list[str] = []
    cases = 0
    for n in range(1, 5):
        for p, r in _lemma_families():
            q = p * n + r
            diagram = closure_diagram(lemma_word(p, q))
            cases += 1
            c = len(diagram.signs)
            s_a = all_a(diagram).component_count
            s_b = all_b(diagram).component_count
            g_t = turaev_genus_diagram(diagram)
            if s_a != p:
                failures.append(f"D({p},{q}): s_A = {s_a}, want {p}")
            if s_b != _s_b_expected(p, r, n):
                failures.append(
                    f"D({p},{q}): s_B = {s_b}, want {_s_b_expected(p, r, n)}"
                )
            if g_t != _g_t_expected(p, r, n):
                failures.append(
                    f"D({p},{q}): g_T = {g_t}, want {_g_t_expected(p, r, n)}"
                )
            if 2 * g_t != 2 + c - s_a - s_b:
                failures.append(f"D({p},{q}): genus identity violated")
    for (p, q), crossings in (((6, 6), 30), ((6, 7), 35)):
        if len(lemma_word(p, q).letters) != crossings:
            failures.append(
                f"word({p},{q}) has {len(lemma_word(p, q).letters)} crossings, "
                f"want {crossings}"
            )
    return _result(
        "state-counts", start, failures, f"{cases} diagrams, all three counts match"
    )


# ----------------------------------------------------------------------
# 8. dealternating solver soundness


def check_dealternating_solver() -> CheckResult:
    """Witness really alternates; brute force confirms minimality (<= 14 crossings)."""
    start = time.perf_counter()
    failures: list[str] = []
    corpus = []
    for n in range(1, 5):
        for p, r in _lemma_families():
            q = p * n + r
            corpus.append((f"tabulated ({p},{q})", closure_diagram(lemma_word(p, q))))
    for p, q in ((2, 3), (2, 5), (2, 7), (2, 9), (3, 4), (3, 5), (3, 7), (4, 4), (4, 5), (5, 6), (6, 7)):
        corpus.append((f"standard ({p},{q})", closure_diagram(torus_braid_word(p, q))))
    witnessed = 0
    brute_checked = 0
    for label, diagram in corpus:
        report = dealternating_number_diagram(diagram)
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
    for n in range(1, 5):
        for p, r in _lemma_families():
            q = p * n + r
            report = dealternating_number_diagram(closure_diagram(lemma_word(p, q)))
            if report.minimum_changes != _dalt_expected(p, r, n):
                failures.append(
                    f"tabulated ({p},{q}): minimum {report.minimum_changes}, "
                    f"want {_dalt_expected(p, r, n)}"
                )
    return _result(
        "dealternating-solver",
        start,
        failures,
        f"{witnessed} witnesses verified, {brute_checked} brute-force "
        f"minimality confirmations",
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


def check_property_suites(seed: int = 20260814) -> CheckResult:
    """Seeded randomized suites: ring axioms, rewriting invariance, symmetry."""
    start = time.perf_counter()
    failures: list[str] = []
    rng = random.Random(seed)
    n_laurent = _laurent_properties(rng, failures)
    n_nf = _normal_form_properties(rng, failures)
    n_hfk = _hfk_properties(failures)
    n_flip = _single_flip_properties(rng, failures)
    return _result(
        "property-suites",
        start,
        failures,
        f"{n_laurent} ring/division cases, {n_nf} rewriting words, "
        f"{n_hfk} staircase tables, {n_flip} smoothing flips",
    )


# ----------------------------------------------------------------------
# 10. bound brackets


def _expected_turaev(p: int, r: int, n: int) -> tuple[int, int]:
    upper = _g_t_expected(p, r, n)
    q = p * n + r
    if math.gcd(p, q) != 1:
        return 0, upper
    lower = width_torus(p, q).width - 1
    return lower, upper


def check_bound_brackets() -> CheckResult:
    """Bracket tables for every covered family, n = 1..4, with import labels."""
    start = time.perf_counter()
    failures: list[str] = []
    cases = 0
    for n in range(1, 5):
        for p, r in _lemma_families():
            q = p * n + r
            cases += 1
            turaev, dealt = bounds(p, q)
            want_lower, want_upper = _expected_turaev(p, r, n)
            if (turaev.lower, turaev.upper) != (want_lower, want_upper):
                failures.append(
                    f"T({p},{q}): Turaev bracket [{turaev.lower},{turaev.upper}], "
                    f"want [{want_lower},{want_upper}]"
                )
            gap = turaev.upper - turaev.lower
            open_family = p == 5 and r in (2, 3, 4)
            if math.gcd(p, q) == 1 and gap != (1 if open_family else 0):
                failures.append(f"T({p},{q}): Turaev gap {gap} unexpected")
            if dealt.lower != turaev.lower:
                failures.append(f"T({p},{q}): lower bounds disagree")
            if dealt.upper != _dalt_expected(p, r, n):
                failures.append(
                    f"T({p},{q}): dealternating upper {dealt.upper}, "
                    f"want {_dalt_expected(p, r, n)}"
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
    return _result(
        "bound-brackets",
        start,
        failures,
        f"{cases} family brackets, import labels and gaps as documented",
    )


# ----------------------------------------------------------------------
# runner


CHECK_NAMES = (
    "golden-alexander",
    "golden-hfk",
    "width-formulas",
    "conjecture-scan",
    "closed-forms",
    "braid-lemmas",
    "state-counts",
    "dealternating-solver",
    "property-suites",
    "bound-brackets",
)


def run_checks(
    scan_bound: int = 250,
    jobs: int = 1,
    n_max: int = 4,
    names: "tuple[str, ...] | None" = None,
) -> list[CheckResult]:
    """Run the verification checks in order; returns one result per check."""
    table = {
        "golden-alexander": check_golden_alexander,
        "golden-hfk": check_golden_hfk,
        "width-formulas": check_width_formulas,
        "conjecture-scan": lambda: check_conjecture_scan(scan_bound, jobs),
        "closed-forms": check_closed_forms,
        "braid-lemmas": lambda: check_braid_lemmas(n_max),
        "state-counts": check_state_counts,
        "dealternating-solver": check_dealternating_solver,
        "property-suites": check_property_suites,
        "bound-brackets": check_bound_brackets,
    }
    selected = CHECK_NAMES if names is None else names
    unknown = [name for name in selected if name not in table]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    return [table[name]() for name in selected]
