import itertools
import random

import pytest

from dimeralg import fixtures as fixtures_mod
from dimeralg.contraction import contract
from dimeralg.matchings import (
    MatchingCapExceeded,
    enumerate_perfect_matchings,
    is_nondegenerate,
    is_perfect_matching,
    is_simple_matching,
    matching_catalog,
    matching_cover,
    perfect_matching_masks,
)
from dimeralg.oracles import oracle_matchings
from dimeralg.quiver import DomainError, quiver_from_json, quiver_to_json

from conftest import insert_2cycle, load_torus_cover


def _base(name):
    if name == "c3":
        return fixtures_mod.c3_quiver()
    if name == "conifold":
        return fixtures_mod.conifold_quiver()
    return fixtures_mod.fixture(name).quiver


def _cover(name, n, m):
    return load_torus_cover()(_base(name), n, m)


def test_oracle_agreement_on_fixtures(all_fixtures):
    for name, fx in all_fixtures.items():
        if len(fx.quiver.arrows) > 20:
            continue
        fast = enumerate_perfect_matchings(fx.quiver)
        slow = oracle_matchings(fx.quiver)
        assert fast == slow, name


def test_oracle_agreement_on_helpers():
    for q in (fixtures_mod.c3_quiver(), fixtures_mod.conifold_quiver(),
              fixtures_mod.bigon_inserted_c3()):
        assert enumerate_perfect_matchings(q) == oracle_matchings(q)


def _relabeled(q, rng):
    """Same quiver with permuted arrow ids and rotated face lists."""
    data = quiver_to_json(q)
    perm = list(range(len(data["arrows"])))
    rng.shuffle(perm)
    data["arrows"] = sorted(
        ({**a, "id": perm[a["id"]]} for a in data["arrows"]), key=lambda a: a["id"]
    )
    new_faces = []
    for f in data["faces"]:
        k = rng.randrange(len(f))
        rotated = f[k:] + f[:k]
        new_faces.append([perm[a] for a in rotated])
    rng.shuffle(new_faces)
    data["faces"] = new_faces
    return quiver_from_json(data), perm


def test_oracle_agreement_on_randomized_quivers(all_fixtures):
    rng = random.Random(17)
    bases = [fx.quiver for fx in all_fixtures.values() if len(fx.quiver.arrows) <= 20]
    bases += [fixtures_mod.c3_quiver(), fixtures_mod.conifold_quiver()]
    count = 0
    while count < 25:
        base = bases[count % len(bases)]
        q, _ = _relabeled(base, rng)
        assert enumerate_perfect_matchings(q) == oracle_matchings(q)
        count += 1


# covers under the oracle's 20-arrow guard: 12, 16 and 14 arrows
SMALL_COVERS = [("c3", 2, 2), ("conifold", 2, 2), ("fig_deformation", 2, 1)]


@pytest.mark.parametrize("base,n,m", SMALL_COVERS)
def test_oracle_agreement_on_torus_covers(base, n, m):
    q = _cover(base, n, m)
    assert len(q.arrows) <= 20
    assert enumerate_perfect_matchings(q) == oracle_matchings(q)
    # relabelled copies put arrow bits in an order unrelated to the faces
    rng = random.Random(f"{base}|{n}|{m}")
    for _ in range(3):
        r = _relabeled(q, rng)[0]
        assert enumerate_perfect_matchings(r) == oracle_matchings(r)


# counts past the oracle's guard, as the set-based enumerator gave them;
# the 1 x 1 cover is the base quiver itself
LARGE_COUNTS = [
    ("c3", 3, 3, 42),
    ("fig_deformation", 2, 2, 108),
    ("fig_nested(3)", 1, 1, 256),
    ("c3", 4, 4, 417),
    ("conifold", 3, 3, 448),
]


@pytest.mark.parametrize("base,n,m,count", LARGE_COUNTS)
def test_matchings_past_the_oracle_guard(base, n, m, count):
    q = _cover(base, n, m)
    assert len(q.arrows) > 20
    found = enumerate_perfect_matchings(q)
    assert len(found) == count
    assert len(set(found)) == count
    assert all(is_perfect_matching(q, d) for d in found)
    assert found == sorted(found, key=lambda d: tuple(sorted(d)))
    r = _relabeled(q, random.Random(f"{base}|{n}|{m}"))[0]
    assert len(enumerate_perfect_matchings(r)) == count


def test_cap_boundary():
    q = _cover("conifold", 2, 2)
    full = enumerate_perfect_matchings(q)
    assert enumerate_perfect_matchings(q, cap=len(full)) == full
    with pytest.raises(MatchingCapExceeded) as info:
        enumerate_perfect_matchings(q, cap=len(full) - 1)
    assert info.value.cap == len(full) - 1
    assert enumerate_perfect_matchings(fixtures_mod.bigon_inserted_c3(), cap=0) == []
    # 12,366 matchings: the cap stops the search part way
    with pytest.raises(MatchingCapExceeded):
        enumerate_perfect_matchings(_cover("fig_deformation", 3, 3), cap=4096)


def test_no_matchings_when_face_count_is_odd():
    q = fixtures_mod.bigon_inserted_c3()
    assert enumerate_perfect_matchings(q) == []
    ok, uncovered = is_nondegenerate(q)
    assert not ok
    assert uncovered == [a.id for a in q.arrows]


def test_matching_size_is_half_the_face_count(all_fixtures):
    for fx in all_fixtures.values():
        q = fx.quiver
        for d in enumerate_perfect_matchings(q):
            assert 2 * len(d) == len(q.faces)


def test_single_vertex_matchings_are_simple():
    q = fixtures_mod.c3_quiver()
    for d in enumerate_perfect_matchings(q):
        assert is_simple_matching(q, d)


def test_simple_matching_requires_perfect(deformation):
    with pytest.raises(DomainError):
        is_simple_matching(deformation.quiver, frozenset({0}))


def test_matching_that_disconnects_is_not_simple(deformation):
    # removing both arrows into the interior vertex leaves it unreachable
    q = deformation.quiver
    d = frozenset({0, 1})
    assert d in set(enumerate_perfect_matchings(q))
    assert not is_simple_matching(q, d)


def test_fixtures_are_nondegenerate(all_fixtures):
    for name, fx in all_fixtures.items():
        ok, uncovered = is_nondegenerate(fx.quiver)
        assert ok, (name, uncovered)


def test_seeded_search_finds_the_matchings_through_the_seed(all_fixtures):
    for fx in all_fixtures.values():
        q = fx.quiver
        full = list(perfect_matching_masks(q))
        for a in q.arrows:
            through = sorted(d for d in full if d >> a.id & 1)
            assert sorted(perfect_matching_masks(q, a.id)) == through, a.id


def test_nondegeneracy_is_the_enumerated_answer(all_fixtures, all_contractions, deformation):
    quivers = [fixtures_mod.c3_quiver(), fixtures_mod.conifold_quiver(),
               fixtures_mod.bigon_inserted_c3(), insert_2cycle(deformation.quiver, 1, 2),
               contract(deformation.quiver, frozenset({2})).target]
    for name, fx in all_fixtures.items():
        quivers += [fx.quiver, all_contractions[name].target]
    degenerate = 0
    for q in quivers:
        covered = set().union(*enumerate_perfect_matchings(q))
        uncovered = sorted({a.id for a in q.arrows} - covered)
        assert is_nondegenerate(q) == (not uncovered, uncovered)
        cover, rest = matching_cover(q)
        assert rest == uncovered
        assert cover[:1] == list(itertools.islice(perfect_matching_masks(q), 1))  # D0 first
        assert {a.id for a in q.arrows if any(d >> a.id & 1 for d in cover)} == covered
        degenerate += bool(uncovered)
    assert degenerate == 2


def test_nondegeneracy_past_the_enumeration_cap():
    # more perfect matchings than the enumeration allows; one seeded search
    # per arrow left uncovered still answers
    q = _cover("fig_deformation", 3, 4)
    with pytest.raises(MatchingCapExceeded):
        enumerate_perfect_matchings(q)
    assert is_nondegenerate(q) == (True, [])


def test_degenerate_quiver_lists_uncovered_arrows(deformation):
    # contracting the connector arrow instead of the marked one yields a
    # valid quiver in which the other connector and the loop are matched
    # by nothing
    c = contract(deformation.quiver, frozenset({2}))
    ok, uncovered = is_nondegenerate(c.target)
    assert not ok
    assert uncovered == sorted(
        [c.arrow_map[3], c.arrow_map[6]]
    )


def test_catalog_is_deterministic(deformation):
    a = matching_catalog(deformation.quiver)
    b = matching_catalog(deformation.quiver)
    assert a == b
    assert list(a) == sorted(a, key=lambda d: tuple(sorted(d)))


def test_deformation_target_has_three_simple_matchings(deformation_contraction):
    assert len(deformation_contraction.catalog) == 3
