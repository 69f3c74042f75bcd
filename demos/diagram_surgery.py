"""Diagrams of torus links: state counts, Turaev genus, dealternating numbers.

Run:  python3 demos/diagram_surgery.py
"""

from torusknot import (
    all_a,
    all_b,
    bounds_report,
    change_crossings,
    closure_diagram,
    dealternating_number_diagram,
    export_pd,
    import_pd,
    is_alternating,
    lemma_word,
    torus_braid_word,
    turaev_genus_diagram,
    verify_lemmas,
)

print("The tabulated low-crossing words really present torus links")
print("=" * 64)
for check in verify_lemmas(n_max=1):
    mark = "ok" if check.passed else "FAIL"
    print(
        f"  ({check.p},{check.q}) {check.crossings:>3} crossings "
        f"[{check.relation:>6}] {mark}"
    )

print()
print("Kauffman state counts and Turaev genus, tabulated vs standard:")
print("-" * 64)
print(f"  {'diagram':>18} {'c':>4} {'s_A':>4} {'s_B':>4} {'g_T':>4}")
for label, word in (
    ("tabulated (6,7)", lemma_word(6, 7)),
    ("standard (6,7)", torus_braid_word(6, 7)),
    ("tabulated (4,5)", lemma_word(4, 5)),
    ("standard (4,5)", torus_braid_word(4, 5)),
):
    d = closure_diagram(word)
    print(
        f"  {label:>18} {d.n_crossings:>4} "
        f"{all_a(d):>4} {all_b(d):>4} "
        f"{turaev_genus_diagram(d):>4}"
    )

print()
print("Exact dealternating surgery on the tabulated T(6,7) diagram:")
print("-" * 64)
d = closure_diagram(lemma_word(6, 7))
report = dealternating_number_diagram(d)
print(f"  alternating before: {is_alternating(d)}")
print(f"  minimum crossing changes: {report.minimum_changes}")
print(f"  witness crossings: {report.witness}")
changed = change_crossings(d, report.witness)
print(f"  alternating after: {is_alternating(changed)}")

print()
print("Certified bounds bracket the link invariants:")
print("-" * 64)
for p, q in ((4, 5), (5, 7), (6, 7)):
    doc = bounds_report(p, q)
    g, dd = doc["turaev_genus"], doc["dealternating"]
    print(
        f"  T({p},{q}): turaev genus in [{g['lower']}, {g['upper']}], "
        f"dealternating in [{dd['lower']}, {dd['upper']}]"
    )
    known = dd.get("known_upper")
    if known and known["needs_pd_import"]:
        print(
            f"          best known dealternating upper bound is "
            f"{known['value']}; reaching it needs a hand-modified "
            f"diagram imported as a PD file"
        )

print()
print("Any diagram round-trips through the PD-code JSON format:")
d = closure_diagram(torus_braid_word(2, 3))
print("  " + export_pd(d))
print(f"  reads back as the same diagram: {import_pd(export_pd(d)) == d}")
