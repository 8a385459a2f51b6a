import itertools
import json
import random

import pytest

from dimeralg import fixtures as fixtures_mod
from dimeralg.quiver import (
    DomainError,
    PathWord,
    StructuralError,
    bigon_reduce,
    check_path,
    concat,
    make_quiver,
    path_homology,
    quiver_from_json,
    quiver_to_json,
    unit_cycle,
    validate_dimer,
)
from dimeralg.rewriting import EQUAL, NOT_EQUAL, RewriteSystem, paths_equal

from conftest import IRREMOVABLE_2CYCLES, load_torus_cover


def test_all_fixtures_validate(all_fixtures):
    for name, fx in all_fixtures.items():
        report = validate_dimer(fx.quiver)
        assert report.ok, f"{name}: {report.violations}"


def test_helper_quivers_validate():
    for q in (fixtures_mod.c3_quiver(), fixtures_mod.conifold_quiver(),
              fixtures_mod.bigon_inserted_c3()):
        assert validate_dimer(q).ok


def test_covers_validate():
    # contraction targets are validated by contract itself
    torus_cover = load_torus_cover()
    for q in (fixtures_mod.c3_quiver(), fixtures_mod.conifold_quiver(),
              fixtures_mod.fixture("fig_deformation").quiver):
        for n, m in itertools.product(range(1, 4), repeat=2):
            assert validate_dimer(torus_cover(q, n, m)).ok


def test_pinched_vertex_link_is_reported():
    # c3's three loops, with both faces in the same cyclic order: the
    # Euler characteristic, the incidences and the homology data all pass,
    # but the faces glue to a sphere pinched twice, not a torus, and its
    # two unit cycles at the vertex are not equal as they are in c3
    pinched = make_quiver(1, [(0, 0, (1, 0)), (0, 0, (0, 1)), (0, 0, (-1, -1))],
                          [(0, 1, 2), (0, 1, 2)])
    assert validate_dimer(pinched).codes() == {"vertex_link"}
    c3 = fixtures_mod.c3_quiver()
    assert [f.boundary for f in c3.faces] == [(0, 1, 2), (0, 2, 1)]
    for q, verdict in ((pinched, NOT_EQUAL), (c3, EQUAL)):
        res = paths_equal(RewriteSystem(q), PathWord(0, (0, 1, 2)), PathWord(0, (1, 2, 0)))
        assert res.verdict == verdict


def test_missing_face_breaks_euler(deformation):
    q = deformation.quiver
    data = quiver_to_json(q)
    data["faces"] = data["faces"][:-1]
    mutated = quiver_from_json(data)
    report = validate_dimer(mutated)
    assert not report.ok
    assert "euler" in report.codes()
    # links are read only once every arrow lies on two faces
    assert "vertex_link" not in report.codes()


def test_arrow_repeated_in_a_face_is_reported():
    # c3's loops with faces (0, 1, 2, 0) and (1, 2): every arrow lies on
    # exactly two faces, so only the repeat check reports the incidence
    q = make_quiver(1, [(0, 0, (1, 0)), (0, 0, (0, 1)), (0, 0, (-1, -1))],
                    [(0, 1, 2, 0), (1, 2)])
    report = validate_dimer(q)
    assert not report.ok
    assert [(v.message, v.where) for v in report.violations
            if v.code == "arrow_face_count"] == [("arrow 0 repeats in face 0", "face 0")]


def test_zero_homology_everywhere_fails_span(deformation):
    q = deformation.quiver
    data = quiver_to_json(q)
    for a in data["arrows"]:
        a["homology"] = [0, 0]
    mutated = quiver_from_json(data)
    report = validate_dimer(mutated)
    assert "homology_span" in report.codes()


def test_structural_errors_are_not_reports():
    with pytest.raises(StructuralError):
        make_quiver(2, [(0, 5, (0, 0))], [])
    with pytest.raises(StructuralError):
        quiver_from_json({"vertices": 1, "arrows": [], "faces": [], "extra": 1})
    with pytest.raises(StructuralError):
        quiver_from_json({"vertices": 1, "arrows": [
            {"id": 0, "tail": 0, "head": 0, "homology": [1, 0]},
            {"id": 0, "tail": 0, "head": 0, "homology": [0, 1]},
        ], "faces": []})


def test_empty_quiver_rejected():
    report = validate_dimer(make_quiver(0, [], []))
    assert not report.ok and "connectivity" in report.codes()


def test_validation_is_pure(deformation):
    q = deformation.quiver
    assert validate_dimer(q) == validate_dimer(q)


def test_unit_cycle_rotates_to_base():
    q = fixtures_mod.conifold_quiver()
    u = unit_cycle(q, 0)
    assert len(u.arrows) == 4 and u.base == 0
    assert q.arrow(u.arrows[0]).tail == 0
    # rotation of a face boundary, all arrows accounted for
    assert sorted(u.arrows) == sorted(q.faces[0].boundary)


def test_unit_cycle_vertex_not_on_face(deformation):
    q = deformation.quiver
    # face 0 passes every vertex here, so test the explicit mismatch on a
    # quiver with more vertices
    qi = fixtures_mod.fixture("fig_iso_R").quiver
    with pytest.raises(DomainError):
        unit_cycle(qi, 7, 0)  # face 0 is the small triangle missing vertex 7


def test_two_unit_cycles_at_one_vertex_exist(deformation):
    q = deformation.quiver
    u1 = unit_cycle(q, 0, 0)
    u2 = unit_cycle(q, 0, 1)
    assert u1 != u2
    assert u1.base == u2.base == 0


def test_trivial_path_homology(deformation):
    assert path_homology(deformation.quiver, PathWord(1, ())) == (0, 0)


def test_face_boundaries_have_zero_homology(all_fixtures):
    for fx in all_fixtures.values():
        q = fx.quiver
        for f in q.faces:
            base = q.arrow(f.boundary[0]).tail
            assert path_homology(q, PathWord(base, f.boundary)) == (0, 0)


def test_unit_cycles_have_zero_homology(all_fixtures):
    for fx in all_fixtures.values():
        q = fx.quiver
        for f in q.faces:
            for aid in f.boundary:
                i = q.arrow(aid).tail
                assert path_homology(q, unit_cycle(q, i, f.id)) == (0, 0)


def _random_path(q, rng, max_len=6):
    start = rng.randrange(q.num_vertices)
    v = start
    word = []
    for _ in range(rng.randrange(max_len + 1)):
        outs = q.out_arrows(v)
        if not outs:
            break
        a = rng.choice(outs)
        word.append(a.id)
        v = a.head
    return PathWord(start, tuple(word))


def test_homology_additive_under_concat(all_fixtures):
    rng = random.Random(9)
    qs = [fx.quiver for fx in all_fixtures.values()]
    for _ in range(200):
        q = rng.choice(qs)
        p = _random_path(q, rng)
        head = p.base if not p.arrows else q.arrow(p.arrows[-1]).head
        outs = q.out_arrows(head)
        if not outs:
            continue
        a = rng.choice(outs)
        r = PathWord(head, (a.id,))
        total = path_homology(q, concat(q, p, r))
        hp, hr = path_homology(q, p), path_homology(q, r)
        assert total == (hp[0] + hr[0], hp[1] + hr[1])


def test_non_composable_word_rejected(deformation):
    q = deformation.quiver
    with pytest.raises(DomainError):
        path_homology(q, PathWord(0, (0, 0)))  # arrow 0 runs 0 -> 2


@pytest.mark.parametrize("call, message", [
    (lambda q: check_path(q, PathWord(9, ())), "path base 9 out of range"),
    (lambda q: concat(q, PathWord(0, (0,)), PathWord(0, (6,))), "paths not composable"),
    (lambda q: unit_cycle(q, 0, 99), "unknown face id 99"),
], ids=["path-base", "concat", "face-id"])
def test_outside_words_are_refused(deformation, call, message):
    with pytest.raises(DomainError, match=message):
        call(deformation.quiver)


def test_json_roundtrip(all_fixtures):
    for fx in all_fixtures.values():
        data = quiver_to_json(fx.quiver)
        again = quiver_from_json(json.loads(json.dumps(data)))
        assert again == fx.quiver


@pytest.mark.parametrize("q, message", [case[1:] for case in IRREMOVABLE_2CYCLES],
                         ids=[case[0] for case in IRREMOVABLE_2CYCLES])
def test_irremovable_2cycle_is_domain_error(q, message):
    with pytest.raises(DomainError, match=message):
        bigon_reduce(q)
