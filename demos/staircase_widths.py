"""Knot Floer staircases of torus knots, their widths, and the width jump.

Run:  python3 demos/staircase_widths.py
"""

from torusknot import (
    alexander_torus,
    extract_staircase,
    hfk_from_staircase,
    scan_conjecture,
    width_formula,
    width_torus,
)

print("The staircase complex of T(4,5)")
print("=" * 60)
generators = hfk_from_staircase(extract_staircase(alexander_torus(4, 5)))
print(f"  {'s':>4} {'m':>5} {'delta = s - m':>14}")
for s, m, _rank in generators:
    print(f"  {s:>4} {m:>5} {s - m:>14}")
report = width_torus(4, 5)
print(f"  width = delta_max - delta_min + 1 = {report.delta_max} - {report.delta_min} + 1 = {report.width}")

print()
print("Widths follow closed forms on four families:")
print("-" * 60)
print(f"  {'(p, q)':>10} {'computed':>9} {'formula':>8}")
for p, q in ((4, 5), (4, 7), (6, 7), (6, 11), (5, 7), (5, 8), (9, 10), (11, 45)):
    print(f"  {f'({p}, {q})':>10} {width_torus(p, q).width:>9} {width_formula(p, q):>8}")

print()
print("Adding a full column to the torus parameter (q -> q + p) bumps the")
print("width by exactly floor((p-1)^2 / 4) in every case ever checked.")
print("Scanning all coprime pairs below 150:")
checked, violations = scan_conjecture(150)
print(f"  {checked} pairs checked, {len(violations)} violations")

print()
print("Example column, p = 5:")
print(f"  {'q':>4} {'width':>6} {'jump':>5}")
previous = None
for q in (6, 11, 16, 21, 26, 31):
    w = width_torus(5, q).width
    jump = "" if previous is None else f"+{w - previous}"
    print(f"  {q:>4} {w:>6} {jump:>5}")
    previous = w
