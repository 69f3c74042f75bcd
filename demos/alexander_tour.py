"""A tour of exact Alexander polynomials of torus knots.

Run:  python3 demos/alexander_tour.py
"""

from torusknot import TorusFamily, alexander_closed_form, alexander_torus

print("Alexander polynomials of small torus knots")
print("=" * 60)
for p, q in ((2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (5, 7)):
    print(f"  T({p},{q}):  {alexander_torus(p, q).to_text()}")

print()
print("The Lam-Leung grid and the per-family closed forms agree.")
print("Families q = pn+1 and q = pn-1 (any p), and q = 5n+2, 5n+3:")
print("-" * 60)
for family in (
    TorusFamily("pn+1", 3, 2),  # T(3,7)
    TorusFamily("pn-1", 4, 3),  # T(4,11)
    TorusFamily("pn+1", 6, 2),  # T(6,13) -- even strand count
    TorusFamily("5n+2", 5, 2),  # T(5,12)
    TorusFamily("5n+3", 5, 1),  # T(5,8)
):
    closed = alexander_closed_form(family)
    verdict = "ok" if closed == alexander_torus(family.p, family.q) else "MISMATCH"
    print(f"  {family.kind:>5}  T({family.p},{family.q}):  {verdict}")
    text = closed.to_text()
    print(f"         {text if len(text) <= 70 else text[:67] + '...'}")

print()
print("Coefficient structure: every torus-knot polynomial is palindromic,")
print("has coefficients in {-1, 0, +1}, and spans exactly [-g, g] where")
print("g = (p-1)(q-1)/2 is the Seifert genus:")
print("-" * 60)
for p, q in ((4, 7), (5, 9), (7, 9)):
    delta = alexander_torus(p, q)
    genus = (p - 1) * (q - 1) // 2
    print(
        f"  T({p},{q}): palindromic={delta.is_palindromic()}, "
        f"span=[{delta.min_exponent}, {delta.max_exponent}], genus={genus}"
    )
