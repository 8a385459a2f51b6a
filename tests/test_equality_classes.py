"""EqualityClasses against a naive one-sided closure of each class
representative, and the invariant that keeps its closures exact."""

import pytest

from dimeralg import fixtures as fixtures_mod
from dimeralg import rewriting
from dimeralg.center import reduced_center_contains
from dimeralg.cli import main
from dimeralg.contraction import is_cyclic, sigma, source_cycle_algebra_generators
from dimeralg.monomial_algebra import cycles_with_image, homotopy_center_monomials, mon_add
from dimeralg.quiver import PathWord, concat, unit_cycle
from dimeralg.rewriting import (
    DEFAULT_BOUNDS,
    EQUAL,
    NOT_EQUAL,
    UNKNOWN,
    EqualityClasses,
    RewriteSystem,
    SearchBounds,
    enumerate_cycles,
    find_noncancellative_pair,
    replay_witness,
)

from conftest import FIXTURES


def pairwise_split(rs, words, bounds=DEFAULT_BOUNDS, classes=None):
    """The reference loop: each word against each class representative's
    whole closure under the pair's word cap, grown breadth first.  A word
    in it is equal; a closure that never hit the cap is the class, so a
    word outside it is not equal; anything else is unknown.  With
    ``classes``, every pair is also put to it: its decided verdicts must
    agree with the decided reference ones, and every word it finds equal
    must be reached by replaying its witness from the representative."""
    closures, found = {}, []
    split, unknown = [], 0
    for k, w in enumerate(words):
        for cls in split:
            rep = words[cls[0]]
            cap = bounds.word_cap(rs.quiver, rep, w)
            if (rep, cap) not in closures:
                closures[(rep, cap)] = bfs_closure(rs, (), [rep.arrows], cap)
            closure, truncated = closures[(rep, cap)]
            ref = EQUAL if w.arrows in closure else UNKNOWN if truncated else NOT_EQUAL
            if classes is not None:
                verdict = classes.compare(rep, w).verdict
                if UNKNOWN not in (verdict, ref):
                    assert verdict == ref, (rep, w)
                if verdict == EQUAL:
                    found.append((rep, w))
            if ref == EQUAL:
                cls.append(k)
                break
            if ref == UNKNOWN:
                unknown += 1
        else:
            split.append([k])
    # the witnesses are read after every merge, from the final closures
    for rep, w in found:
        assert replay_witness(rs, rep, classes.witness(rep, w))[-1] == w, (rep, w)
    return split, unknown


def differential_quivers():
    quivers = {name: fixtures_mod.fixture(name).quiver for name in FIXTURES}
    quivers["c3"] = fixtures_mod.c3_quiver()
    quivers["conifold"] = fixtures_mod.conifold_quiver()
    return quivers


@pytest.mark.parametrize("name", sorted(differential_quivers()))
def test_cycle_classes_match_pairwise_loop(name):
    q = differential_quivers()[name]
    rs = RewriteSystem(q)
    for v in range(q.num_vertices):
        enum = enumerate_cycles(q, v, 6, rs=rs, dedup_mod_relations=True)
        ref, unknown = pairwise_split(rs, enum.cycles, classes=EqualityClasses(rs))
        assert [[enum.cycles[k] for k in cls] for cls in ref] == enum.classes, (name, v)
        assert enum.unknown_pairs == unknown == 0


def test_reduced_center_counts_match_pairwise_loop(all_contractions):
    for name, c in all_contractions.items():
        rs = RewriteSystem(c.source)
        monomials = set(homotopy_center_monomials(c, 2)) | {sigma(c)}
        if name == "fig_iso_R":
            free = next(g for g in source_cycle_algebra_generators(c) if sum(g) == 1)
            monomials.add(mon_add(sigma(c), free))
        for g in sorted(monomials):
            res = reduced_center_contains(c, g)
            for v, count in res.candidate_counts.items():
                cycles = cycles_with_image(c, v, g)
                split, _ = pairwise_split(rs, cycles, classes=EqualityClasses(rs))
                assert count == len(cycles), (name, g, v)
                assert res.class_counts[v] == len(split), (name, g, v)


def bfs_closure(rs, words, pending, cap):
    """Grow ``words`` breadth first from the ``pending`` ones only."""
    words, layer, truncated = set(words), list(pending), False
    while layer:
        nxt = []
        for w in layer:
            succs, trunc = rs.successors(w, cap)
            truncated = truncated or trunc
            for step in succs:
                if step[0] not in words:
                    words.add(step[0])
                    nxt.append(step[0])
        layer = nxt
    return words, truncated


def test_grown_closure_is_the_breadth_first_closure(all_fixtures):
    # Queries that meet the closure mid-expansion merge the word's search
    # into it; finishing the expansion from the pending words alone must
    # still give the plain closure of the representative.
    q = all_fixtures["fig_hsb_ii"].quiver
    rs = RewriteSystem(q)
    u = unit_cycle(q, 0)
    rep = concat(q, concat(q, u, u), u)
    cap = DEFAULT_BOUNDS.word_cap(q, rep)
    class_words, class_truncated = bfs_closure(rs, (), [rep.arrows], cap)
    members = sorted(w for w in class_words if len(w) == len(rep.arrows))[::-8]
    others = [
        c for c in enumerate_cycles(q, 0, len(rep.arrows)).cycles
        if len(c.arrows) == len(rep.arrows) and c.arrows not in class_words
    ]

    ec = EqualityClasses(rs)
    met, cut = 0, 0
    for k, w in enumerate(members):
        # a small budget now and then cuts a search off mid-layer
        res = ec.compare(rep, PathWord(0, w), max_states=5 if k % 2 else None)
        closure = ec.closures[(rep, cap)]
        met += res.is_equal and res.states > 0 and bool(closure.pending)
        cut += res.reason == "state_budget"
        res = ec.compare(rep, others[k % len(others)], max_states=50)
        assert res.verdict != EQUAL
    assert met >= 3 and cut >= 3

    assert closure.pending and closure.words.keys() < class_words
    words, truncated = bfs_closure(rs, closure.words, closure.pending, cap)
    assert words == class_words
    assert (closure.truncated or truncated) == class_truncated


def test_complete_closure_decides_not_equal(all_fixtures):
    fx = all_fixtures["fig_noncancellative_central"]
    rs = RewriteSystem(fx.quiver)
    ec = EqualityClasses(rs)
    res = ec.compare(fx.paths["p"], fx.paths["q"])
    assert (res.verdict, res.reason) == (NOT_EQUAL, "saturated")
    # the closures are kept: asking again costs no state
    assert ec.compare(fx.paths["p"], fx.paths["q"]).states == 0


def test_noncancellative_search_stops_when_budget_is_spent(iso_r_contraction, monkeypatch):
    budgets = []
    compare = EqualityClasses.compare

    def counted(self, rep, word, max_states=None):
        budgets.append(max_states)
        return compare(self, rep, word, max_states)

    monkeypatch.setattr(rewriting.EqualityClasses, "compare", counted)
    rep = find_noncancellative_pair(iso_r_contraction.target, bounds=SearchBounds(0, 2000))
    assert rep.exhausted and not rep.found
    assert rep.pairs_tested == len(budgets)
    assert all(b > 0 for b in budgets)


def test_iso_r_target_is_decided_cancellative(iso_r_contraction):
    rep = is_cyclic(iso_r_contraction)
    assert rep.cancellative_target is True
    assert rep.cyclic_up_to_bound is True
    assert main(["contract", "fixture:fig_iso_R", "--check-cyclic"]) == 0


def test_cut_off_target_search_is_undecided(iso_r_contraction, capsys):
    rep = is_cyclic(iso_r_contraction, SearchBounds(0, 2000))
    assert rep.semigroups_match
    assert rep.cancellative_target is None
    assert rep.cyclic_up_to_bound is None
    code = main(["contract", "fixture:fig_iso_R", "--check-cyclic", "--max-states", "2000"])
    assert code == 2
    assert '"cyclic_up_to_bound": null' in capsys.readouterr().out
