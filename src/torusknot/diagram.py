"""Link diagrams from braid closures: Kauffman states, Turaev genus,
alternation defects, and PD-code interchange.

A diagram is its PD code: one sign per crossing and four edge labels per
crossing, listed counterclockwise starting at the incoming under-strand.
The label at end ``4*c + slot`` is ``edge_labels[4*c + slot]``, with

    slot 0 = incoming under,   slot 1 = outgoing over,
    slot 2 = outgoing under,   slot 3 = incoming over,

and every label sits on exactly two ends, which the arc of that label
joins.  A strand passes through a crossing from slot s to slot (s+2) % 4.
For the positive crossing of a braid letter the over-strand runs
bottom-left to top-right, so the bottom-right / top-right / top-left /
bottom-left corners carry slots 0/1/2/3.  Crossingless circle components
(closed strands that meet no crossing) are counted separately in
``free_circles``.

Kauffman smoothings: the A-smoothing joins slots 0-1 and 2-3 (for a braid
letter this is the identity pattern, so the all-A state of a p-strand braid
closure has exactly p circles), and the B-smoothing joins 0-3 and 1-2.  For
a diagram D with c crossings whose all-A and all-B states have s_A and s_B
circles, the Turaev surface has genus

    g_T(D) = (2 + c - s_A - s_B) / 2,

defined for connected diagrams.

Counts are orbit walks: following the arc from end e to its partner, then a
turn at that crossing, permutes the ends.  With the smoothing join as the
turn each state circle is two orbits, one per direction, so one walk marking
both ends of each arc counts it; with the next slot (s + 1) mod 4 as the
turn each orbit is a face.  A pass is the int ``v = 2*c + over`` (over = 1
on the over-strand), so ``v >> 1`` is its crossing and ``v ^ 1`` the
crossing's other visit.

The minimum number of crossing changes making a diagram alternating is
decided exactly: alternation fixes each link component's changes up to one
flip bit, and each crossing ties the bits of the components through it.
One cached search over these ties gives each cycle its flip; its roots are
the connected pieces, which the Turaev genus counts.  Each piece has two
alternating change sets, complements of each other; the optimum takes the
smaller of each, and its witness is replayed on ``pass_cycles()``.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, compress
from operator import ne
from typing import Iterable, NamedTuple, Sequence

__all__ = [
    "MalformedPDCode",
    "DisconnectedDiagram",
    "InconsistentConstraints",
    "Diagram",
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
    "import_pd",
    "export_pd",
]


class MalformedPDCode(ValueError):
    """The PD data does not describe a diagram."""


class DisconnectedDiagram(ValueError):
    """The diagram's underlying projection is not connected."""


class InconsistentConstraints(ValueError):
    """No set of crossing changes can make the diagram alternating."""


class Diagram:
    """A PD code: crossing signs and the edge labels at the crossing ends.

    ``signs[c]`` is '+' or '-'; ``edge_labels[4*c + slot]`` is the PD edge
    label at that slot of crossing c; ``free_circles`` counts crossingless
    circle components; ``strands`` remembers the braid width for closures
    (None for imported codes without one).  The constructor checks all of
    it, planarity aside (see import_pd), and raises MalformedPDCode.
    """

    def __init__(
        self,
        signs: Sequence[str],
        edge_labels: Sequence[int],
        free_circles: int = 0,
        strands: int | None = None,
    ):
        signs, labels = tuple(signs), tuple(edge_labels)
        n = len(signs)
        # count, not a set: a sign read from JSON may be unhashable
        if signs.count("+") + signs.count("-") != n:
            c, bad = next((c, x) for c, x in enumerate(signs) if x not in ("+", "-"))
            raise MalformedPDCode(f"crossing {c} has sign {bad!r}; signs are + or -")
        if len(labels) != 4 * n:
            raise MalformedPDCode(f"{len(labels)} labels for {n} crossings, not 4 each")
        # exact types: a bool is an int to isinstance, and a float is no label
        if not set(map(type, labels)) <= {int}:
            e, bad = next((e, x) for e, x in enumerate(labels) if type(x) is not int)
            raise MalformedPDCode(f"crossing {e // 4} has label {bad!r}, not an int")
        partner = [-1] * (4 * n)
        first: dict[int, int] = {}  # label -> the first end carrying it
        for end, label in enumerate(labels):
            other = first.setdefault(label, end)
            if other != end:
                partner[end], partner[other] = other, end
        # 2n distinct labels with no end left unpaired: each is on exactly two
        if len(first) != 2 * n or -1 in partner:
            counts = Counter(labels)
            label = next(label for label in labels if counts[label] != 2)
            raise MalformedPDCode(
                f"edge label {label} at crossing {labels.index(label) // 4} "
                f"appears {counts[label]} times (need exactly 2)"
            )
        if type(free_circles) is not int or free_circles < 0:
            raise MalformedPDCode('"circles" (the circle count) must be an int >= 0')
        if strands is not None and (type(strands) is not int or strands < 1):
            raise MalformedPDCode('"strands" must be None or a positive int')
        self.signs, self.edge_labels = signs, labels
        self._partner = partner  # partner[e] is the end sharing e's label
        self.free_circles, self.strands = free_circles, strands
        self._cycles: list[list[int]] | None = None
        self._tags: list[int] = []  # the pass table; pass_cycles() fills it
        self._found: tuple | None = None  # the search over the pass cycles

    # -- basics ---------------------------------------------------------

    @property
    def n_crossings(self) -> int:
        return len(self.signs)

    def pd_rows(self) -> list[list[object]]:
        """Per-crossing PD rows: [label slot0..slot3, sign]."""
        labels = self.edge_labels
        return [[*labels[4 * c : 4 * c + 4], sign] for c, sign in enumerate(self.signs)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Diagram):
            return NotImplemented
        return (
            self.signs == other.signs
            and self.edge_labels == other.edge_labels
            and self.free_circles == other.free_circles
            and self.strands == other.strands
        )

    def __repr__(self) -> str:
        return (
            f"Diagram({self.n_crossings} crossings, "
            f"{self.components()} components, free_circles={self.free_circles})"
        )

    # -- traversal --------------------------------------------------------

    def pass_cycles(self) -> list[list[int]]:
        """Strand components as cyclic pass sequences.

        Each component of the underlying curve is one cycle; its entries are
        passes in traversal order, the pass through crossing c as the int
        v = 2*c + over, where over is 1 on the over-strand (odd slots).
        The walk also fills the pass table ``_tags``: ``_tags[v]`` is
        2k + (over xor i mod 2) when v is pass i of cycle k.
        """
        if self._cycles is None:
            partner, passes = self._partner, 2 * self.n_crossings
            tags = [-1] * (passes + 1)  # -1 until walked, and a sentinel at the end
            cycles: list[list[int]] = []
            start = tags.index(-1)  # each cycle starts at its lowest pass
            while start < passes:
                cycle: list[int] = []
                tag, v, end = 2 * len(cycles), start, start >> 1 << 2 | start & 1
                while tags[v] < 0:  # until the walk is back at its first pass
                    tags[v] = tag ^ v & 1
                    cycle.append(v)
                    end = partner[end ^ 2]  # the pass goes to slot (s + 2) % 4
                    tag, v = tag ^ 1, end >> 2 << 1 | end & 1
                cycles.append(cycle)
                start = tags.index(-1, start)
            tags.pop()
            self._cycles, self._tags = cycles, tags
        return self._cycles

    def _cycle_search(self) -> tuple[list[int], list[int], tuple[int, int] | None]:
        """Flip bits and pieces of the pass cycles, and the first clash.

        Crossing c's visits, tagged u = _tags[2c] and o = _tags[2c + 1], tie
        cycles u >> 1 and o >> 1 with bit (u ^ o) & 1; each piece's lowest
        cycle is its root, with flip 0.  Returns (flip, root, clash): per cycle
        its flip and root, and the first clashing tie's cycles, never raised.
        """
        if self._found is None:
            cycles, tags = self.pass_cycles(), self._tags
            ties: list[list[tuple[int, int]]] = [[] for _ in cycles]
            for u, o in dict.fromkeys(zip(tags[0::2], tags[1::2])):  # distinct, in crossing order
                ties[u >> 1].append((o >> 1, (u ^ o) & 1))
                ties[o >> 1].append((u >> 1, (u ^ o) & 1))
            flip, root, clash = [-1] * len(cycles), list(range(len(cycles))), None
            for start in range(len(cycles)):
                if flip[start] < 0:
                    flip[start], stack = 0, [start]
                    while stack:
                        k = stack.pop()
                        for j, bit in ties[k]:
                            if flip[j] < 0:
                                flip[j], root[j] = flip[k] ^ bit, start
                                stack.append(j)
                            elif flip[j] != flip[k] ^ bit and clash is None:
                                clash = k, j
            self._found = flip, root, clash
        return self._found

    def components(self) -> int:
        """Number of link components (curve cycles plus free circles)."""
        return len(self.pass_cycles()) + self.free_circles


def closure_diagram(word) -> Diagram:
    """The closure of a positive braid word as a diagram.

    Crossings are numbered in word order (bottom to top); strands that meet
    no crossing close into free circles.  All crossings are positive.
    """
    p = word.strands
    labels = [0] * (4 * len(word.letters))
    first_bottom: list[int | None] = [None] * p
    open_end: list[int | None] = [None] * p
    arc = 0  # arcs are labelled 1, 2, ... in the order they close
    for c, g in enumerate(word.letters):
        for col, end in ((g - 1, 4 * c + 3), (g, 4 * c)):
            if open_end[col] is None:
                first_bottom[col] = end
            else:
                arc += 1
                labels[open_end[col]] = labels[end] = arc
        open_end[g - 1] = 4 * c + 2
        open_end[g] = 4 * c + 1
    free = 0
    for col in range(p):
        if open_end[col] is None:
            free += 1
        else:
            arc += 1
            labels[open_end[col]] = labels[first_bottom[col]] = arc
    return Diagram("+" * len(word.letters), labels, free_circles=free, strands=p)


# ----------------------------------------------------------------------
# Kauffman states


def _orbits(step: list[int]) -> int:
    """Number of cycles of the permutation ``step`` of the ends."""
    seen = bytearray(len(step))
    count = 0
    for start in range(len(step)):
        if not seen[start]:
            count += 1
            end = start
            while not seen[end]:
                seen[end] = 1
                end = step[end]
    return count


def _pieces(diagram: Diagram) -> int:
    """Connected pieces of the crossings: the roots of Diagram._cycle_search."""
    return sum(k == r for k, r in enumerate(diagram._cycle_search()[1]))


def state_components(diagram: Diagram, assignment: Iterable[str]) -> int:
    """Count the circles of the Kauffman state given by ``assignment``.

    ``assignment`` gives 'A' or 'B' per crossing, in crossing order.  The
    all-A state of a braid closure recovers the braid strands, e.g. 4
    circles for a closed 4-strand braid.  Each circle is walked once, an
    arc then a smoothing join at a time, marking both ends of each arc: the
    walk the other way round is the same circle.  A mixed assignment is
    counted as the all-A state with its B crossings changed.
    """
    choice = tuple(assignment)
    if len(choice) != diagram.n_crossings:
        raise ValueError(f"need {diagram.n_crossings} smoothings, got {len(choice)}")
    a, b = choice.count("A"), choice.count("B")  # not a set: x may be unhashable
    if a + b != len(choice):
        raise ValueError("smoothings must be 'A' or 'B'")
    if a and b:  # a change swaps a crossing's A- and B-smoothings
        changed = [c for c, x in enumerate(choice) if x == "B"]
        diagram = change_crossings(diagram, changed)
    join = 1 if a else 3  # A joins e to e ^ 1 (slots 0-1, 2-3), B e ^ 3
    partner, seen, count = diagram._partner, bytearray(4 * len(choice)), 0
    start = seen.find(0)
    while start >= 0:
        count, end = count + 1, start
        while not seen[end]:
            far = partner[end]
            seen[end] = seen[far] = 1
            end = far ^ join
        start = seen.find(0, start)
    return count + diagram.free_circles


def all_a(diagram: Diagram) -> int:
    """The circle count of the all-A state."""
    return state_components(diagram, "A" * diagram.n_crossings)


def all_b(diagram: Diagram) -> int:
    """The circle count of the all-B state."""
    return state_components(diagram, "B" * diagram.n_crossings)


def _turaev_counts(diagram: Diagram) -> tuple[int, int, int]:
    """(g_T, s_A, s_B) of a connected diagram; see turaev_genus_diagram."""
    if diagram.free_circles + _pieces(diagram) != 1:  # one piece or one circle
        raise DisconnectedDiagram("the Turaev surface needs a connected diagram")
    c = diagram.n_crossings
    s_a, s_b = all_a(diagram), all_b(diagram)
    doubled = 2 + c - s_a - s_b
    if doubled % 2 or doubled < 0:
        # A connected planar diagram has s_A + s_B <= c + 2, of the parity of c.
        raise MalformedPDCode(
            f"2 + c - s_A - s_B = {doubled} (c = {c}, s_A = {s_a}, s_B = {s_b}) "
            "is not a nonnegative even number: the diagram is not planar"
        )
    return doubled // 2, s_a, s_b


def turaev_genus_diagram(diagram: Diagram) -> int:
    """Genus of the Turaev surface of a connected diagram.

    (2 + c - s_A - s_B) / 2; raises DisconnectedDiagram when the projection
    is not connected (the surface is defined component-by-component only).
    """
    return _turaev_counts(diagram)[0]


# ----------------------------------------------------------------------
# alternation


def is_alternating(diagram: Diagram) -> bool:
    """Whether every component alternates over/under along its passes."""
    return _witness_alternates(diagram.pass_cycles(), ())


def _witness_alternates(cycles: list, witness: Iterable[int]) -> bool:
    """Whether the passes alternate with the witness's pass bits flipped."""
    flipped = set(witness)
    cycle_bits = ([v & 1 ^ (v >> 1 in flipped) for v in cycle] for cycle in cycles)
    return all(all(map(ne, b, b[-1:] + b[:-1])) for b in cycle_bits)  # cyclically


def change_crossings(diagram: Diagram, crossings: Iterable[int]) -> Diagram:
    """Switch over- and under-strand at the given crossings.

    A change re-aims the slot numbering at the new incoming under-strand:
    slots rotate by +1 at a '+' crossing (which becomes '-') and by -1 at a
    '-' crossing (which becomes '+'), keeping slot 0 on the incoming
    under-strand.  Each flipped crossing's four labels rotate with its
    slots, and the constructor builds the result.
    """
    chosen = tuple(crossings)
    n = diagram.n_crossings
    for c in chosen:  # before deduplication, which would hide True behind 1
        if type(c) is not int:
            raise TypeError(f"crossing id {c!r} is not an int")
        if not 0 <= c < n:
            raise IndexError(f"no crossing {c} in a {n}-crossing diagram")
    signs, labels = list(diagram.signs), list(diagram.edge_labels)
    for c in set(chosen):
        row = labels[4 * c : 4 * c + 4]
        plus = signs[c] == "+"
        signs[c] = "-" if plus else "+"
        labels[4 * c : 4 * c + 4] = row[3:] + row[:3] if plus else row[1:] + row[:1]
    return Diagram(signs, labels, diagram.free_circles, diagram.strands)


class ConstraintComponent(NamedTuple):
    """One connected piece of the diagram, its crossings in increasing order.

    ``changes`` is the smaller of the piece's two alternating change sets.
    """

    crossings: tuple[int, ...]
    changes: tuple[int, ...]


class DaltReport(NamedTuple):
    """Exact minimum crossing changes to alternation, with a witness."""

    minimum_changes: int
    witness: tuple[int, ...]
    component_structure: tuple[ConstraintComponent, ...]


def dealternating_number_diagram(diagram: Diagram) -> DaltReport:
    """Minimize crossing changes until the diagram alternates, exactly.

    A component with passes v_i = 2*c_i + t_i in order, t_i = goes over,
    alternates after the changes x exactly when x_{c_i} = t_i xor (i mod 2)
    xor e for one bit e per component.  A crossing's two visits v and v ^ 1
    tie two such bits, so each connected piece has two alternating change
    sets, complements of each other; the minimum takes the smaller, or on a
    tie the one holding the piece's lowest crossing.  Crossing c's change
    bit is t & 1 xor the flip that Diagram._cycle_search gives cycle t >> 1,
    t = _tags[2c]; a table over the tags holds it with the piece's root,
    and each side of each piece is read off the crossings in one pass.  The
    witness is replayed on the pass bits of pass_cycles(), not on those
    flips, before return.

    Raises InconsistentConstraints when no change set alternates: never for
    a planar diagram, but possible for one built directly past import_pd's
    planarity check (an odd pass cycle, or ties that clash).
    """
    cycles, tags = diagram.pass_cycles(), diagram._tags
    for k, cycle in enumerate(cycles):
        if len(cycle) % 2:
            raise InconsistentConstraints(f"component {k} has an odd number of passes")
    flip, root, clash = diagram._cycle_search()
    if clash:
        raise InconsistentConstraints("components %d and %d receive contradictory flips" % clash)
    # code[t] is the root of tag t's piece, then its change bit t xor (i mod 2) xor e
    code = [root[t >> 1] << 1 | t & 1 ^ flip[t >> 1] for t in range(2 * len(cycles))]
    under, blocks = tags[0::2], []  # each crossing's under-pass tag
    everyone = range(len(under))
    for r in dict.fromkeys(root):  # one pass over the crossings per piece and bit
        near, far = (  # the root's lowest crossing has bit 0
            tuple(compress(everyone, map([k == side for k in code].__getitem__, under)))
            for side in (r << 1, r << 1 | 1)
        )
        blocks.append(ConstraintComponent(tuple(sorted(near + far)), min(near, far, key=len)))
    witness = sorted(chain.from_iterable(block.changes for block in blocks))
    report = DaltReport(len(witness), tuple(witness), tuple(blocks))
    if not _witness_alternates(cycles, report.witness):
        raise RuntimeError(f"witness {list(report.witness)} does not make the diagram alternate")
    return report


_BRUTE_FORCE_LIMIT = 14  # crossings, so at most 2^14 subsets


def brute_force_dealternating(diagram: Diagram) -> int:
    """Reference minimum by trying every crossing subset (c <= _BRUTE_FORCE_LIMIT).

    Independent of the constraint solver; used to cross-check it.
    """
    n = diagram.n_crossings
    if n > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"{n} crossings exceed the brute-force limit {_BRUTE_FORCE_LIMIT}")
    # consecutive passes 2*c1 + t1, 2*c2 + t2 of a cycle, cyclically,
    # alternate after the changes x exactly when x_c1 xor x_c2 = t1 xor t2 xor 1
    pairs = [
        (v >> 1, w >> 1, (v ^ w) & 1 ^ 1)
        for cycle in diagram.pass_cycles()
        for v, w in zip(cycle, cycle[1:] + cycle[:1])
    ]
    for mask in sorted(range(1 << n), key=int.bit_count):  # smallest sets first
        if all((mask >> c1 ^ mask >> c2) & 1 == want for c1, c2, want in pairs):
            return mask.bit_count()
    raise InconsistentConstraints("no subset of changes alternates")


# ----------------------------------------------------------------------
# PD-code JSON interchange


def export_pd(diagram: Diagram) -> str:
    """Serialize to the PD JSON format (see README: format notes).

    Keys: optional "strands", optional "circles" (crossingless circle
    count, when nonzero), and "crossings": one [e0, e1, e2, e3, sign] row
    per crossing, slots counterclockwise from the incoming under-strand.
    ``import_pd(export_pd(d))`` reproduces ``d`` exactly, and re-exporting
    reproduces the byte-identical text.
    """
    import json  # only PD interchange reads or writes JSON

    obj: dict[str, object] = {}
    if diagram.strands is not None:
        obj["strands"] = diagram.strands
    if diagram.free_circles:
        obj["circles"] = diagram.free_circles
    obj["crossings"] = diagram.pd_rows()
    return json.dumps(obj)


def _check_planar(diagram: Diagram) -> None:
    """Raise MalformedPDCode unless the diagram's projection is planar.

    The counterclockwise slot order at each crossing is a rotation system.
    Its faces are the orbits of "follow the arc from end e to its partner,
    then turn to the next slot (s + 1) mod 4"; by Euler's formula a planar
    4-valent graph with c vertices has c + 2 faces per connected piece, and
    the pieces are the pass cycles joined at shared crossings (_pieces).
    """
    faces = _orbits([far - far % 4 + (far + 1) % 4 for far in diagram._partner])
    want = diagram.n_crossings + 2 * _pieces(diagram)
    if faces != want:
        raise MalformedPDCode(
            f"the crossings and arcs bound {faces} faces, not "
            f"{want}: the diagram is not planar"
        )


def import_pd(text: str) -> Diagram:
    """Parse the PD JSON format; raises MalformedPDCode on any defect.

    Besides the format, this checks that the code describes a planar
    diagram; generated closures are planar by construction and skip it.
    """
    import json

    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise MalformedPDCode(f"not valid JSON: {err}") from None
    except RecursionError:
        raise MalformedPDCode("PD code nested too deeply to parse") from None
    if not isinstance(obj, dict) or "crossings" not in obj:
        raise MalformedPDCode('expected an object with a "crossings" list')
    rows = obj["crossings"]
    if not isinstance(rows, list):
        raise MalformedPDCode('"crossings" must be a list')
    for c, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 5:
            raise MalformedPDCode(f"crossing {c} must be [end, end, end, end, '+'|'-']")
    diagram = Diagram(
        [row[4] for row in rows],
        [label for row in rows for label in row[:4]],
        obj.get("circles", 0),
        obj.get("strands"),
    )
    _check_planar(diagram)
    return diagram
