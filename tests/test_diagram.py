"""Closed-braid diagrams, Kauffman states, Turaev genus, dealternating numbers."""

import hashlib
import json
import random
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    column_closure,
    crossing_graph_dealternating,
    pd_pass_cycles,
    rebuilt_change_crossings,
    union_find_faces,
    union_find_pieces,
    union_find_state_circles,
)
from torusknot.words import (
    _FAMILIES,
    BraidWord,
    UnsupportedTorusFamily,
    lemma_word,
    torus_braid_word,
)
from torusknot import diagram as diagram_module
from torusknot.diagram import (
    DaltReport,
    Diagram,
    DisconnectedDiagram,
    InconsistentConstraints,
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


# ----------------------------------------------------------------------
# closures and states


def test_closure_shape():
    d = closure_diagram(torus_braid_word(4, 5))
    assert d.n_crossings == 15
    assert d.strands == 4
    assert d.free_circles == 0
    assert sorted(d.edge_labels) == sorted(2 * list(range(1, 31)))


def _closure_words(rng: random.Random, count: int):
    """Seeded positive words: empty, one letter, columns skipped, and
    strands above the highest letter, besides plain random words."""
    yield BraidWord(1, ())
    yield BraidWord(5, ())
    for i in range(count):
        strands = rng.randint(2, 9)
        top = rng.randint(1, strands - 1)  # the highest letter; strands may exceed top + 1
        kind = i % 8
        if kind == 0:
            yield BraidWord(strands, ())
        elif kind == 1:
            yield BraidWord(strands, (rng.randint(1, top),))
        elif kind < 5:  # a random subset of the generators, so columns are skipped
            used = rng.sample(range(1, top + 1), rng.randint(1, top))
            yield BraidWord(strands, [rng.choice(used) for _ in range(rng.randint(1, 30))])
        else:
            yield BraidWord(strands, [rng.randint(1, top) for _ in range(rng.randint(0, 40))])


def test_closure_matches_the_column_oracle():
    """Labels, free circles and PD text of closures against a per-column build."""
    rng = random.Random(1707)
    words = list(_closure_words(rng, 800))
    words += [torus_braid_word(p, q) for p, q in ((2, 3), (4, 5), (3, 7))]
    words += [lemma_word(p, p + r) for p, r in _FAMILIES]
    assert len(set(words)) > 500  # distinct words
    shapes = set()
    for word in words:
        got, want = closure_diagram(word), column_closure(word)
        assert got.edge_labels == want.edge_labels, word
        assert got.free_circles == want.free_circles, word
        assert export_pd(got) == export_pd(want), word
        top = max(word.letters, default=0)
        skipped = len(set(range(1, top + 1)) - set(word.letters)) > 0
        shapes.add((len(word.letters) > 1, skipped, word.strands > top + 1))
    assert len(shapes) >= 6, shapes


def test_closure_of_empty_word_is_free_circles():
    d = closure_diagram(BraidWord(3, ()))
    assert d.n_crossings == 0
    assert d.free_circles == 3


def test_all_a_of_a_closure_counts_strands():
    for p, q in ((2, 3), (3, 4), (4, 5), (5, 6), (6, 7)):
        assert all_a(closure_diagram(torus_braid_word(p, q))) == p
    assert all_a(closure_diagram(lemma_word(5, 7))) == 5


def test_two_strand_closures_are_alternating():
    for q in (2, 3, 5, 8):
        d = closure_diagram(torus_braid_word(2, q))
        assert is_alternating(d)
        assert all_b(d) == q
        assert turaev_genus_diagram(d) == 0


def test_standard_many_strand_closures_are_not_alternating():
    assert not is_alternating(closure_diagram(torus_braid_word(3, 4)))
    assert not is_alternating(closure_diagram(torus_braid_word(4, 5)))


def test_state_components_explicit_assignment():
    d = closure_diagram(torus_braid_word(2, 3))
    assert state_components(d, "AAA") == 2
    assert state_components(d, "BBB") == 3
    assert state_components(d, "ABA") == 1
    with pytest.raises(ValueError):
        state_components(d, "AA")
    with pytest.raises(ValueError):
        state_components(d, "AAX")


def test_state_components_refuses_an_unhashable_smoothing():
    d = closure_diagram(torus_braid_word(2, 3))
    for assignment in (["A", ["B"], "A"], ["A", "B", {}], [["A"]] * 3):
        with pytest.raises(ValueError, match="^smoothings must be 'A' or 'B'$"):
            state_components(d, assignment)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 6).flatmap(
        lambda p: st.tuples(
            st.just(p), st.lists(st.integers(1, p - 1), min_size=1, max_size=16)
        )
    ),
    st.data(),
)
def test_single_smoothing_flip_changes_count_by_one(pw, data):
    p, letters = pw
    d = closure_diagram(BraidWord(p, tuple(letters)))
    assignment = data.draw(
        st.lists(
            st.sampled_from("AB"), min_size=len(letters), max_size=len(letters)
        )
    )
    i = data.draw(st.integers(0, len(letters) - 1))
    flipped = list(assignment)
    flipped[i] = "B" if flipped[i] == "A" else "A"
    before = state_components(d, assignment)
    after = state_components(d, flipped)
    assert abs(after - before) == 1


# ----------------------------------------------------------------------
# orbit walks against the union-find oracle


def _random_closure(rng: random.Random, strands: tuple[int, int], length: int):
    p = rng.randint(*strands)
    return closure_diagram(
        BraidWord(p, tuple(rng.randint(1, p - 1) for _ in range(length)))
    )


def _arcs(d) -> list[tuple[int, int]]:
    """The pairs of ends (``4*c + slot``) that share a label in ``d.pd_rows()``."""
    ends: dict[int, list[int]] = {}
    for c, row in enumerate(d.pd_rows()):
        for slot, label in enumerate(row[:4]):
            ends.setdefault(label, []).append(4 * c + slot)
    return [(u, v) for u, v in ends.values()]


def _labelled(arcs) -> list[int]:
    """Edge labels that put label i on both ends of ``arcs[i]``."""
    labels = [0] * (2 * len(arcs))
    for i, (u, v) in enumerate(arcs):
        labels[u] = labels[v] = i
    return labels


def _oracle_circles(d, assignment: str) -> int:
    return union_find_state_circles(d.n_crossings, _arcs(d), assignment, d.free_circles)


def test_state_components_match_oracle_on_random_closures():
    rng = random.Random(15)
    for _ in range(400):
        d = _random_closure(rng, (3, 6), rng.randint(0, 40))
        assignment = "".join(rng.choice("AB") for _ in range(d.n_crossings))
        got = state_components(d, assignment)
        assert got == _oracle_circles(d, assignment), export_pd(d)


def test_uniform_states_build_no_step_list():
    d = closure_diagram(torus_braid_word(9, 120))  # 960 crossings
    tracemalloc.start()
    try:
        assert (all_a(d), all_b(d)) == (9, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a mask per crossing and a step (a new int) per end: 168 KB; a byte per end: 13 KB
    assert peak < 25_000


def test_state_components_match_oracle_on_every_assignment():
    rng = random.Random(16)
    words = [torus_braid_word(2, 5), torus_braid_word(3, 4), torus_braid_word(4, 3)]
    words += [BraidWord(4, (1, 3, 1, 3)), BraidWord(5, (2, 2))]
    diagrams = [closure_diagram(w) for w in words]
    diagrams += [_random_closure(rng, (2, 6), c) for c in range(1, 11)]
    for d in diagrams:
        c = d.n_crossings
        assert c <= 10
        for mask in range(1 << c):
            assignment = "".join("B" if mask >> i & 1 else "A" for i in range(c))
            got = state_components(d, assignment)
            assert got == _oracle_circles(d, assignment), (export_pd(d), assignment)


def test_state_components_match_oracle_after_pd_roundtrip():
    rng = random.Random(17)
    for _ in range(200):
        d = import_pd(export_pd(_random_closure(rng, (2, 6), rng.randint(1, 30))))
        assignment = "".join(rng.choice("AB") for _ in range(d.n_crossings))
        got = state_components(d, assignment)
        assert got == _oracle_circles(d, assignment), export_pd(d)


def _matching(rng: random.Random, n: int, free_circles: int = 0) -> Diagram:
    """n crossings of random signs whose 4n ends are paired at random:
    mostly not planar, with odd pass cycles and clashing ties."""
    ends = list(range(4 * n))
    rng.shuffle(ends)
    arcs = list(zip(ends[::2], ends[1::2]))
    signs = "".join(rng.choice("+-") for _ in range(n))
    return Diagram(signs, _labelled(arcs), free_circles)


def _pass_walk_cases() -> list[Diagram]:
    """Positive and mixed-sign closures and arbitrary matchings, seeded."""
    rng = random.Random(26)
    diagrams = [_random_closure(rng, (2, 7), rng.randint(0, 40)) for _ in range(150)]
    diagrams += [_mixed_sign(rng, (2, 8), rng.randint(0, 60)) for _ in range(150)]
    diagrams += [
        _matching(rng, rng.randint(1, 9), rng.randint(0, 2)) for _ in range(300)
    ]
    return diagrams


def _pass_ints(cycles) -> list[list[int]]:
    """(crossing, goes_over) passes as the ints 2*crossing + over."""
    return [[2 * c + over for c, over in cycle] for cycle in cycles]


def test_pass_cycles_match_the_pd_row_walk():
    lengths = set()
    for d in _pass_walk_cases():
        cycles = d.pass_cycles()
        assert cycles == _pass_ints(pd_pass_cycles(d)), export_pd(d)
        assert d.components() == len(cycles) + d.free_circles
        lengths.update(len(cycle) % 2 for cycle in cycles)
    assert lengths == {0, 1}  # the matchings walk odd cycles too


def test_each_pass_lies_once_on_the_cycle_its_tag_names():
    """Every pass 0 <= v < 2c is on exactly one cycle, the one _tags[v] names,
    and its tag's low bit is its over bit xor its parity along that cycle."""
    for d in _pass_walk_cases():
        cycles, tags = d.pass_cycles(), d._tags
        passes = sorted(v for cycle in cycles for v in cycle)
        assert passes == list(range(2 * d.n_crossings)), export_pd(d)
        for k, cycle in enumerate(cycles):
            want = [2 * k + (v & 1 ^ i & 1) for i, v in enumerate(cycle)]
            assert [tags[v] for v in cycle] == want, export_pd(d)


def test_piece_counts_beyond_positive_closures():
    rng = random.Random(2618)
    cases = [_mixed_sign(rng, (2, 8), rng.randint(0, 60)) for _ in range(150)]
    cases += [_matching(rng, rng.randint(1, 9), rng.randint(0, 2)) for _ in range(300)]
    split = closure_diagram(BraidWord(6, (1, 1, 3, 4, 3)))  # strand 6 is free
    assert (split.free_circles, diagram_module._pieces(split)) == (1, 2)
    cases.append(split)
    counts = set()
    for d in cases:
        pieces = diagram_module._pieces(d)
        assert pieces == union_find_pieces(d.n_crossings, _arcs(d)), export_pd(d)
        counts.add(min(pieces, 2))
        if d.free_circles + pieces != 1:
            with pytest.raises(DisconnectedDiagram):
                turaev_genus_diagram(d)
    assert counts == {0, 1, 2}


def test_pieces_join_cycles_that_pass_one_way():
    """A component that passes under (or over) at every crossing it meets is
    joined to the components it crosses: a search that follows each crossing
    from one side only counts such a diagram as several pieces."""
    mixed = import_pd(json.dumps({"strands": 5, "crossings": [
        [18, 2, 1, 17, "+"], [20, 9, 8, 19, "+"], [1, 2, 7, 3, "-"],
        [3, 5, 4, 16, "+"], [5, 6, 10, 4, "+"], [7, 13, 11, 6, "+"],
        [8, 9, 20, 15, "-"], [10, 11, 12, 16, "-"], [13, 14, 17, 12, "+"],
        [15, 19, 18, 14, "+"],
    ]}))  # from the mixed-sign cases above
    hopf = change_crossings(closure_diagram(BraidWord(2, (1, 1))), [0])
    for d in (mixed, hopf):
        assert d.pass_cycles() == _pass_ints(pd_pass_cycles(d))
    assert hopf.pass_cycles() == [[0, 2], [1, 3]]  # both under, then both over
    assert mixed.pass_cycles()[2] == [2, 12]  # under at crossings 1 and 6
    for d, genus in ((mixed, 3), (hopf, 1)):
        assert diagram_module._pieces(d) == union_find_pieces(d.n_crossings, _arcs(d)) == 1
        assert turaev_genus_diagram(d) == genus  # connected: no DisconnectedDiagram


def test_face_and_piece_counts_of_random_closures():
    rng = random.Random(18)
    for _ in range(300):
        d = _random_closure(rng, (2, 7), rng.randint(0, 30))
        partner = d._partner
        faces = diagram_module._orbits(
            [far - far % 4 + (far + 1) % 4 for far in partner]
        )
        pieces = diagram_module._pieces(d)
        assert pieces == union_find_pieces(d.n_crossings, _arcs(d))
        assert faces == d.n_crossings + 2 * pieces, export_pd(d)


# ----------------------------------------------------------------------
# Turaev genus


def test_turaev_genus_values():
    assert turaev_genus_diagram(closure_diagram(torus_braid_word(1, 1))) == 0
    assert turaev_genus_diagram(closure_diagram(lemma_word(4, 4))) == 2
    assert turaev_genus_diagram(closure_diagram(lemma_word(6, 6))) == 6
    assert turaev_genus_diagram(closure_diagram(lemma_word(6, 7))) == 6


def test_turaev_genus_euler_identity():
    for p, q in ((4, 5), (5, 6), (5, 8), (6, 7)):
        d = closure_diagram(lemma_word(p, q))
        c = d.n_crossings
        s_a = all_a(d)
        s_b = all_b(d)
        assert 2 * turaev_genus_diagram(d) == 2 + c - s_a - s_b


def test_turaev_genus_rejects_disconnected():
    # sigma_1 on three strands: the third strand closes to a split circle.
    with pytest.raises(DisconnectedDiagram):
        turaev_genus_diagram(closure_diagram(BraidWord(3, (1,))))


# ----------------------------------------------------------------------
# crossing changes


def test_change_crossings_involution_and_signs():
    d = closure_diagram(torus_braid_word(3, 4))
    changed = change_crossings(d, (0, 3, 5))
    assert changed.signs != d.signs
    assert [s for i, s in enumerate(changed.signs) if i in (0, 3, 5)] == ["-"] * 3
    assert change_crossings(changed, (0, 3, 5)) == d
    assert change_crossings(d, ()) == d


def test_a_flip_is_the_diagram_of_its_rotated_rows():
    """A flip rotates the row [a, b, c, d] to [d, a, b, c] at a '+' crossing
    and to [b, c, d, a] at a '-' one; a repeated id flips its crossing once."""
    d = closure_diagram(BraidWord(3, (1, 2, 1)))
    assert d.pd_rows() == [[5, 1, 2, 4, "+"], [6, 6, 3, 1, "+"], [3, 5, 4, 2, "+"]]
    once = change_crossings(d, (0, 2, 0))
    assert once == Diagram("-+-", [4, 5, 1, 2, 6, 6, 3, 1, 2, 3, 5, 4], 0, 3)
    twice = change_crossings(once, (2, 1, 2, 1))
    assert twice == Diagram("--+", [4, 5, 1, 2, 1, 6, 6, 3, 3, 5, 4, 2], 0, 3)
    assert change_crossings(twice, (1, 0)) == d


def test_change_crossings_bad_index():
    d = closure_diagram(torus_braid_word(2, 3))
    for bad in (3, -1):
        with pytest.raises(IndexError, match=f"no crossing {bad} "):
            change_crossings(d, (bad,))


@pytest.mark.parametrize("bad", [1.0, True, False, "1", None])
def test_change_crossings_rejects_non_integer_ids(bad):
    d = closure_diagram(torus_braid_word(2, 3))
    with pytest.raises(TypeError, match=f"crossing id {bad!r} is not an int"):
        change_crossings(d, (bad,))
    with pytest.raises(TypeError, match=f"crossing id {bad!r} "):
        change_crossings(d, [0, bad, 2])  # even where a set would merge True into 1


def _flip_cases(rng: random.Random, count: int):
    """(diagram, flip set) pairs: positive closures on 2-6 strands, and
    mixed-sign diagrams read back from their PD codes, each with a random
    flip set that may repeat a crossing."""
    for i in range(count):
        d = _random_closure(rng, (2, 6), rng.randint(1, 24))
        if i % 2:
            mixed = [c for c in range(d.n_crossings) if rng.random() < 0.5]
            d = import_pd(export_pd(rebuilt_change_crossings(d, mixed)))
        n = d.n_crossings
        yield d, [rng.randrange(n) for _ in range(rng.randint(0, n + 2))]


def test_change_crossings_matches_rebuilt_oracle():
    rng = random.Random(2017)
    for d, flips in _flip_cases(rng, 300):
        fast = change_crossings(d, flips)
        want = rebuilt_change_crossings(d, flips)
        assert fast.pd_rows() == want.pd_rows()
        assert fast._partner == want._partner
        assert fast.signs == want.signs
        assert fast.edge_labels == want.edge_labels
        assert fast.free_circles == want.free_circles
        assert fast.strands == want.strands
        assert fast.components() == want.components()
        assert fast.pass_cycles() == want.pass_cycles()
        # a flipped diagram flips again like one the constructor validated
        again = rng.sample(range(d.n_crossings), rng.randint(0, d.n_crossings))
        assert change_crossings(fast, again) == rebuilt_change_crossings(want, again)
        assert all_a(fast) == all_a(want) and all_b(fast) == all_b(want)


def test_witness_replay_matches_rebuilt_alternation():
    """The solver's pass-bit replay decides what a rebuilt diagram decides."""
    rng = random.Random(1996)
    outcomes = set()
    for d, flips in _flip_cases(rng, 400):
        if rng.random() < 0.5:  # near a witness, so that both outcomes occur
            witness = set(dealternating_number_diagram(d).witness)
            flips = sorted(witness ^ set(flips[: rng.randint(0, 1)]))
        replay = diagram_module._witness_alternates(d, flips)
        assert replay == is_alternating(rebuilt_change_crossings(d, flips))
        outcomes.add(replay)
    assert outcomes == {True, False}
    # Planar cycles have even length; built directly, an odd one never alternates.
    loops = Diagram(["+"], [1, 2, 1, 2])
    assert [len(cycle) for cycle in loops.pass_cycles()] == [1, 1]
    for flips in ((), (0,)):
        assert not diagram_module._witness_alternates(loops, flips)
        assert not is_alternating(rebuilt_change_crossings(loops, flips))
    with pytest.raises(InconsistentConstraints, match="odd number of passes"):
        dealternating_number_diagram(loops)
    # An entry that names no crossing is refused, never ignored or wrapped
    # round: past the end, -1 (the last crossing to a bytearray), a bool.
    d = closure_diagram(torus_braid_word(3, 4))
    witness = list(dealternating_number_diagram(d).witness)
    assert diagram_module._witness_alternates(d, witness)
    for bad in (d.n_crossings, d.n_crossings + 5, -1, True, 1.0):
        with pytest.raises(ValueError, match=f"witness entry {bad!r} is not a crossing"):
            diagram_module._witness_alternates(d, witness + [bad])


# ----------------------------------------------------------------------
# dealternating numbers


def test_genus_and_solver_peak_memory_on_a_large_closure():
    word = torus_braid_word(9, 120)  # 960 crossings
    dealternating_number_diagram(closure_diagram(word))  # warm the free lists
    d = closure_diagram(word)
    tracemalloc.start()
    try:
        assert turaev_genus_diagram(d) == 476
        assert dealternating_number_diagram(d).minimum_changes == 480
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a tuple-keyed dict of the 1,920 visits: 463 KB; the pass table of ints: 194 KB
    assert peak < 300_000


def test_alternating_diagrams_need_no_changes():
    for q in (2, 5, 9):
        report = dealternating_number_diagram(closure_diagram(torus_braid_word(2, q)))
        assert report.minimum_changes == 0
        assert report.witness == ()
    empty = closure_diagram(BraidWord(3, ()))  # three free circles, no crossing
    assert dealternating_number_diagram(empty) == DaltReport(0, (), ())


def test_golden_full_twist_dealternating():
    report = dealternating_number_diagram(closure_diagram(torus_braid_word(4, 4)))
    assert report.minimum_changes == 4
    assert report.witness == (1, 4, 7, 10)


def test_witness_yields_alternating_diagram():
    for p, q in ((3, 4), (4, 5), (5, 6), (6, 7)):
        for word in (torus_braid_word(p, q),) + (
            (lemma_word(p, q),) if p >= 4 else ()
        ):
            d = closure_diagram(word)
            report = dealternating_number_diagram(d)
            assert len(report.witness) == report.minimum_changes
            assert is_alternating(change_crossings(d, report.witness))


def test_solver_matches_brute_force_on_torus_words():
    for p, q in ((2, 3), (2, 7), (3, 4), (3, 5), (4, 4)):
        d = closure_diagram(torus_braid_word(p, q))
        assert (
            dealternating_number_diagram(d).minimum_changes
            == brute_force_dealternating(d)
        )


def test_solver_matches_brute_force_on_random_words():
    rng = random.Random(11)
    done = 0
    while done < 30:
        strands = rng.randint(2, 4)
        length = rng.randint(1, 12)
        word = BraidWord(
            strands, tuple(rng.randint(1, strands - 1) for _ in range(length))
        )
        d = closure_diagram(word)
        assert (
            dealternating_number_diagram(d).minimum_changes
            == brute_force_dealternating(d)
        ), word.as_text()
        done += 1


def _mixed_sign(rng: random.Random, strands: tuple[int, int], length: int) -> Diagram:
    """A random closure with a random subset of its crossings changed."""
    d = _random_closure(rng, strands, length)
    return rebuilt_change_crossings(
        d, [c for c in range(d.n_crossings) if rng.random() < 0.5]
    )


def test_solver_matches_crossing_graph_oracle_on_mixed_signs():
    rng = random.Random(1703)
    links = 0
    for _ in range(300):
        d = _mixed_sign(rng, (2, 8), rng.randint(0, 200))
        links += d.components() > 1
        assert dealternating_number_diagram(d) == crossing_graph_dealternating(d), (
            export_pd(d)
        )
    assert links > 100


def test_solver_matches_brute_force_on_mixed_sign_links():
    rng = random.Random(2506)
    done = 0
    while done < 40:
        d = _mixed_sign(rng, (3, 6), rng.randint(2, 14))
        if len(d.pass_cycles()) < 2:
            continue
        assert (
            dealternating_number_diagram(d).minimum_changes
            == brute_force_dealternating(d)
        ), export_pd(d)
        done += 1


def _outcome(solve, d):
    try:
        return solve(d)
    except InconsistentConstraints:
        return "inconsistent"


def test_solver_matches_oracles_on_arbitrary_matchings():
    """Random end matchings, mostly not planar: odd cycles and clashing ties."""
    rng = random.Random(1703_02506)
    outcomes = set()
    for _ in range(400):
        d = _matching(rng, rng.randint(1, 7))
        got = _outcome(dealternating_number_diagram, d)
        assert got == _outcome(crossing_graph_dealternating, d), export_pd(d)
        minimum = _outcome(brute_force_dealternating, d)
        assert minimum == (got if got == "inconsistent" else got.minimum_changes)
        outcomes.add(got if got == "inconsistent" else "solved")
    assert outcomes == {"inconsistent", "solved"}
    # Gauss code 1 2 1 2: crossing 0 recurs after an even number of passes
    clash = Diagram("++", _labelled([(2, 4), (6, 3), (1, 7), (5, 0)]))
    assert [len(cycle) for cycle in clash.pass_cycles()] == [4]
    with pytest.raises(InconsistentConstraints, match="contradictory flips"):
        dealternating_number_diagram(clash)


def test_component_structure_partitions_crossings():
    rng = random.Random(57)
    diagrams = [closure_diagram(lemma_word(5, 7))]
    diagrams += [_mixed_sign(rng, (2, 7), rng.randint(0, 40)) for _ in range(100)]
    for d in diagrams:
        report = dealternating_number_diagram(d)
        blocks = report.component_structure
        seen = sorted(c for comp in blocks for c in comp.crossings)
        assert seen == list(range(d.n_crossings))
        assert len(blocks) == diagram_module._pieces(d)  # one block per piece
        total = sum(len(comp.changes) for comp in blocks)
        assert total == report.minimum_changes


def test_solver_and_pieces_match_oracles_on_the_grid_and_the_table():
    """The full report, component structure included, and the piece count on
    every tabulated diagram for n <= 4 and the standard closures of the
    bounds grid (2 <= p <= 9) with q <= 40."""
    words = [lemma_word(p, p * n + r) for p, r in _FAMILIES for n in range(1, 5)]
    words += [torus_braid_word(p, q) for p in range(2, 10) for q in range(2, 41)]
    assert len(words) == 356
    for word in words:
        d = closure_diagram(word)
        assert dealternating_number_diagram(d) == crossing_graph_dealternating(d), word
        assert diagram_module._pieces(d) == union_find_pieces(d.n_crossings, _arcs(d))


def test_positive_closure_dealternating_number_is_the_smaller_letter_parity():
    """On a positive word using every letter 1..p-1 the closure is connected,
    its two alternating assignments give sigma_i the sign e * (-1)^i, so the
    solver's minimum is min(#odd letters, #even letters)."""
    rng = random.Random(2_718)
    words = [lemma_word(p, p * n + r) for p, r in _FAMILIES for n in range(1, 6)]
    for _ in range(2_600):
        p = rng.randint(2, 7)
        letters = list(range(1, p)) + [rng.randint(1, p - 1) for _ in range(rng.randint(0, 41 - p))]
        rng.shuffle(letters)
        words.append(BraidWord(p, letters))
    for word in words:
        assert set(word.letters) == set(range(1, word.strands)), word
        odd = sum(g & 1 for g in word.letters)
        want = min(odd, len(word.letters) - odd)
        assert dealternating_number_diagram(closure_diagram(word)).minimum_changes == want, word


def test_the_shared_search_never_raises_outside_the_solver():
    """A clash the search records stays the solver's: the piece count, the
    Turaev genus and the planarity check of import_pd read the same search,
    and raise only what they raised before it was shared."""
    rng = random.Random(3807)
    clash = Diagram("++", _labelled([(2, 4), (6, 3), (1, 7), (5, 0)]))  # Gauss code 1212
    cases = [clash] + [
        _matching(rng, rng.randint(1, 9), rng.randint(0, 2)) for _ in range(200)
    ]
    clashes, seen = 0, set()
    for d in cases:
        arcs = _arcs(d)
        pieces = diagram_module._pieces(d)
        assert pieces == union_find_pieces(d.n_crossings, arcs), export_pd(d)
        try:
            dealternating_number_diagram(d)
        except InconsistentConstraints as err:
            named = re.fullmatch(r"components (\d+) and (\d+) receive contradictory flips", str(err))
            if named:  # the two cycles it names share a crossing
                clashes += 1
                where = {v: k for k, cycle in enumerate(d.pass_cycles()) for v in cycle}
                pair = set(map(int, named.groups()))
                assert any({where[v], where[v + 1]} == pair for v in range(0, len(where), 2))
        try:
            turaev_genus_diagram(d)
        except (MalformedPDCode, DisconnectedDiagram):
            pass
        planar = union_find_faces(d.n_crossings, arcs) == d.n_crossings + 2 * pieces
        if planar:
            assert import_pd(export_pd(d)) == d
        else:
            with pytest.raises(MalformedPDCode, match="not planar"):
                import_pd(export_pd(d))
        seen.add(planar)
    assert clashes > 1 and seen == {True, False}
    with pytest.raises(MalformedPDCode, match="not planar"):
        import_pd(export_pd(clash))
    message = "^components 0 and 0 receive contradictory flips$"  # its one cycle clashes
    with pytest.raises(InconsistentConstraints, match=message):
        dealternating_number_diagram(clash)


def test_brute_force_limit():
    with pytest.raises(ValueError, match="^15 crossings exceed the brute-force limit 14$"):
        brute_force_dealternating(closure_diagram(torus_braid_word(4, 5)))


# ----------------------------------------------------------------------
# PD codes


def test_pd_roundtrip_is_byte_exact():
    for word in (torus_braid_word(3, 4), lemma_word(4, 5), lemma_word(6, 6)):
        d = closure_diagram(word)
        text = export_pd(d)
        again = import_pd(text)
        assert again == d
        assert export_pd(again) == text


def test_pd_preserves_free_circles():
    d = closure_diagram(BraidWord(2, ()))
    text = export_pd(d)
    assert json.loads(text)["circles"] == 2
    assert import_pd(text).free_circles == 2


def test_pd_import_validates_labels():
    good = json.loads(export_pd(closure_diagram(torus_braid_word(2, 3))))
    del good["strands"]
    import_pd(json.dumps(good))  # strand count is optional

    bad = json.loads(export_pd(closure_diagram(torus_braid_word(2, 3))))
    bad["crossings"][0][0] = 99  # label 99 appears once, its partner zero times
    with pytest.raises(MalformedPDCode):
        import_pd(json.dumps(bad))

    bad = json.loads(export_pd(closure_diagram(torus_braid_word(2, 3))))
    bad["crossings"][0][4] = "x"
    with pytest.raises(MalformedPDCode):
        import_pd(json.dumps(bad))

    bad = json.loads(export_pd(closure_diagram(torus_braid_word(2, 3))))
    bad["crossings"][0] = bad["crossings"][0][:4]
    with pytest.raises(MalformedPDCode):
        import_pd(json.dumps(bad))


def _with_true(field: str) -> str:
    """The PD code of the T(2,3) closure with one integer replaced by true."""
    code = json.loads(export_pd(closure_diagram(torus_braid_word(2, 3))))
    if field == "label":
        assert code["crossings"][0][2] == 1
        code["crossings"][0][2] = True  # equal to 1, so it would pair with 1
    else:
        code[field] = True
    return json.dumps(code)


@pytest.mark.parametrize("field", ["label", "strands", "circles"])
def test_pd_import_rejects_booleans(field):
    # json reads true as a bool, a subclass of int: it must not pass as 1.
    assert "true" in _with_true(field)
    with pytest.raises(MalformedPDCode):
        import_pd(_with_true(field))


@pytest.mark.parametrize(
    "row,message",
    [
        ([1, 1, 2, 2, ["+"]], r"crossing 1 has sign \['\+'\]"),
        ([1, 1, 2, {}, "+"], "crossing 1 has label {}, not an int"),
        ([1, 1, 2, 2.0, "+"], "crossing 1 has label 2.0, not an int"),
        ([1, 1, 2, 3, "+"], "edge label 2 at crossing 1 appears 1 times"),
    ],
    ids=["list sign", "object label", "float label", "label seen once"],
)
def test_pd_import_names_the_crossing_of_a_bad_entry(row, message):
    # JSON can put a list or an object anywhere; each is a MalformedPDCode
    code = {"crossings": [[5, 5, 6, 6, "+"], row]}
    with pytest.raises(MalformedPDCode, match=message):
        import_pd(json.dumps(code))


def test_pd_import_rejects_non_planar_codes():
    # One crossing whose two arcs join opposite slots: one face, not c + 2 = 3.
    with pytest.raises(MalformedPDCode, match="bound 1 faces, not 3: .* not planar"):
        import_pd(json.dumps({"crossings": [[1, 2, 1, 2, "+"]]}))
    # The same crossing built directly, past import_pd.
    direct = Diagram(["+"], [1, 2, 1, 2])
    with pytest.raises(MalformedPDCode, match="bound 1 faces, not 3"):
        diagram_module._check_planar(direct)
    with pytest.raises(MalformedPDCode, match=r"= 1 \(c = 1, s_A = 1, s_B = 1\)"):
        turaev_genus_diagram(direct)
    # The planar kink: arcs join neighbouring slots.
    assert import_pd(json.dumps({"crossings": [[1, 1, 2, 2, "+"]]})).n_crossings == 1


def test_pd_import_accepts_random_closures():
    rng = random.Random(11)
    for _ in range(300):
        strands = rng.randint(2, 6)
        letters = tuple(rng.randint(1, strands - 1) for _ in range(rng.randint(1, 30)))
        d = closure_diagram(BraidWord(strands, letters))
        assert import_pd(export_pd(d)) == d


def test_pd_roundtrip_of_changed_crossings():
    rng = random.Random(18)
    for d, flips in _flip_cases(rng, 200):
        changed = change_crossings(d, flips)
        assert import_pd(export_pd(changed)) == changed


def test_constructor_rejects_what_int_would_coerce():
    d = closure_diagram(torus_braid_word(2, 3))
    # int() would truncate these floats onto the closure, and True count as 1
    with pytest.raises(MalformedPDCode, match="crossing 0 has label 6.5, not an int"):
        Diagram(d.signs, [x + 0.5 for x in d.edge_labels], free_circles=True)
    with pytest.raises(MalformedPDCode, match='"circles"'):
        Diagram(d.signs, d.edge_labels, free_circles=True)
    assert Diagram(d.signs, d.edge_labels, strands=2) == d


def _closure_parts(**change) -> dict:
    """The T(2,3) closure's constructor arguments, with ``change`` applied."""
    d = closure_diagram(torus_braid_word(2, 3))
    parts = dict(signs=d.signs, edge_labels=d.edge_labels, strands=d.strands)
    return {**parts, **change}


_T23_LABELS = (6, 2, 1, 5, 2, 4, 3, 1, 4, 6, 5, 3)  # the T(2,3) closure's


def _relabelled(at: dict, cut: int | None = None) -> dict:
    """The T(2,3) labels with ``at[end]`` at those ends, cut at ``cut``."""
    labels = [at.get(end, label) for end, label in enumerate(_T23_LABELS)]
    return {"edge_labels": tuple(labels[:cut])}


@pytest.mark.parametrize(
    "change,message",
    [
        (_relabelled({2: 1.0}), "crossing 0 has label 1.0"),
        (_relabelled({7: True}), "crossing 1 has label True"),
        (_relabelled({7: 7}), "crossing 0 appears 1 times"),
        (_relabelled({11: 1}), "crossing 0 appears 3 times"),
        (_relabelled({}, cut=11), "11 labels for 3 crossings"),
        (_relabelled({11: [3]}), "crossing 2 has label"),
        ({"free_circles": 1.0}, "circle count"),
        ({"free_circles": True}, "circle count"),
        ({"free_circles": -1}, "circle count"),
        ({"strands": "x"}, "strands"),
        ({"strands": -3}, "strands"),
        ({"strands": 0}, "strands"),
        ({"strands": True}, "strands"),
        ({"strands": 2.0}, "strands"),
        ({"signs": ("+", "", "+")}, "signs"),
        ({"signs": ("+", "+-", "+")}, "signs"),
        ({"signs": ("+", ["+"], "+")}, "crossing 1 has sign"),
        (_relabelled({6: 2, 10: 2}), "crossing 0 appears 4 times"),
    ],
)
def test_constructor_rejects_malformed_parts(change, message):
    assert Diagram(**_closure_parts())  # the unchanged parts are a diagram
    assert _closure_parts()["edge_labels"] == _T23_LABELS
    with pytest.raises(MalformedPDCode, match=message):
        Diagram(**_closure_parts(**change))


def test_exported_codes_of_checked_diagrams_import():
    # every diagram the constructor accepts exports a code import_pd reads
    for strands in (None, 1, 7):
        d = Diagram(**_closure_parts(strands=strands))
        assert import_pd(export_pd(d)) == d


def test_constructor_export_and_import_agree():
    """A diagram rebuilt from its own fields, or from its exported code, is itself."""
    rng = random.Random(22)
    cases = [(_random_closure(rng, (2, 6), rng.randint(0, 30)), ()) for _ in range(100)]
    cases += list(_flip_cases(rng, 100))
    for d, flips in cases:
        d = change_crossings(d, flips)
        again = Diagram(d.signs, d.edge_labels, d.free_circles, d.strands)
        assert again == d == import_pd(export_pd(d)), export_pd(d)
        assert again._partner == d._partner
        assert again.pd_rows() == d.pd_rows()


def test_pd_import_rejects_non_json():
    with pytest.raises(ValueError):
        import_pd("not json at all {")


@pytest.mark.parametrize(
    "prefix,suffix", [("", ""), ('{"crossings": ', "}")], ids=["bare", "crossings"]
)
def test_pd_import_refuses_deep_nesting(prefix, suffix):
    deep = prefix + "[" * 200_000 + "]" * 200_000 + suffix
    with pytest.raises(MalformedPDCode, match="nested too deeply"):
        import_pd(deep)


def test_dealternating_on_imported_diagram():
    d = closure_diagram(lemma_word(4, 4))
    again = import_pd(export_pd(d))
    assert (
        dealternating_number_diagram(again).minimum_changes
        == dealternating_number_diagram(d).minimum_changes
    )


# ----------------------------------------------------------------------
# golden diagrams: state counts, Turaev genus and dealternating numbers

_DIAGRAMS_GOLDEN_PATH = Path(__file__).with_name("diagrams_golden.json")
# the grid the bounds workload walks
_BOUNDS_GRID = [(p, q) for p in range(2, 10) for q in range(2, 121)]


def _closure_record(word: BraidWord) -> list:
    """[s_A, s_B, g_T, dealternating minimum, witness digest] of a closure."""
    d = closure_diagram(word)
    report = dealternating_number_diagram(d)
    witness = ",".join(map(str, report.witness)).encode()
    return [
        all_a(d),
        all_b(d),
        turaev_genus_diagram(d),
        report.minimum_changes,
        hashlib.sha256(witness).hexdigest()[:12],
    ]


def _mixed_states() -> list[list]:
    """[strands, word, assignment, circles] of seeded closures and smoothings."""
    rng = random.Random(2017)
    rows = []
    for _ in range(300):
        strands = rng.randint(2, 7)
        letters = tuple(rng.randint(1, strands - 1) for _ in range(rng.randint(1, 40)))
        assignment = "".join(rng.choice("AB") for _ in letters)
        d = closure_diagram(BraidWord(strands, letters))
        count = state_components(d, assignment)
        rows.append([strands, BraidWord(strands, letters).as_text(), assignment, count])
    return rows


def _diagrams_record() -> dict:
    closures = {}
    for p, q in _BOUNDS_GRID:
        entry = {"standard": _closure_record(torus_braid_word(p, q))}
        try:
            entry["tabulated"] = _closure_record(lemma_word(p, q))
        except UnsupportedTorusFamily:
            pass
        closures[f"{p},{q}"] = entry
    return {"closures": closures, "states": _mixed_states()}


def test_diagrams_match_golden():
    golden = json.loads(_DIAGRAMS_GOLDEN_PATH.read_text(encoding="utf-8"))
    assert len(golden["closures"]) == len(_BOUNDS_GRID) == 952
    assert _diagrams_record() == golden


if __name__ == "__main__":
    # Re-record tests/diagrams_golden.json from the current code:
    #     PYTHONPATH=src python tests/test_diagram.py
    # Only do this for a deliberate change of a diagram invariant.
    record = _diagrams_record()
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in record["closures"].items()]
    states = [f"  {json.dumps(row)}" for row in record["states"]]
    _DIAGRAMS_GOLDEN_PATH.write_text(
        '{"closures": {\n' + ",\n".join(lines) + '\n},\n"states": [\n'
        + ",\n".join(states) + "\n]}\n",
        encoding="utf-8",
    )
