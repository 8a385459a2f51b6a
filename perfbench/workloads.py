"""The four benchmark workloads: set-up, seeded job lists and answer checks.

A workload's build function takes the imported library, the seed and the
recorded reference answers, and returns its job list.  Everything a job
needs (fixtures, covers, contractions, rewrite systems, algebras) is made
there, so building counts as set-up; a job is one public library
call, or one ``cli.main`` call.  Jobs look functions up on the module at
call time, so the traced run sees them through its wrappers.

Seeds only choose and order jobs out of fixed pools.  Every pool entry
has a reference answer in ``reference.json`` (see ``record.py``), so any
seed is checked against the answers recorded when the benchmark was
defined.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

from covers import torus_cover


@dataclass
class Job:
    key: str
    run: Callable[[], Any]
    # result -> (decided, answer); the answer is compared with the reference
    answer: Callable[[Any], tuple[bool, Any]]
    # result -> error message or None; replayed outside the timed region
    certify: Callable[[Any], str | None] | None = None
    # recorded cost (microseconds), used to stratify seeded picks from a pool
    cost: int = 0


def digest(value) -> str:
    return hashlib.sha1(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def monomials(dim: int, max_degree: int) -> list[tuple[int, ...]]:
    """Every exponent vector of degree 1..max_degree, in a fixed order."""
    out = [()]
    for _ in range(dim):
        out = [m + (e,) for m in out for e in range(max_degree + 1)]
    return sorted((m for m in out if 0 < sum(m) <= max_degree), key=lambda m: (sum(m), m))


def stratified(rng, pool, picks):
    """One job from each of ``picks`` strata of similar recorded cost, so
    that every seed draws the same mix of cheap and expensive jobs."""
    ordered = sorted(pool, key=lambda j: j.cost)
    n = len(ordered)
    return [rng.choice(ordered[k * n // picks:(k + 1) * n // picks]) for k in range(picks)]


def fresh(c):
    """A copy of a contraction without anything a previous job cached on it."""
    return dataclasses.replace(c)


# -- classify -----------------------------------------------------------------

# (fixture, cycle length or degree bound), sized so that one pass takes a
# few seconds and a run holds several passes
CLASSIFY_CYCLES = (("fig_deformation", 7), ("fig_iso_R", 8), ("fig_hsb_ii", 6))
CLASSIFY_CENTER = (("fig_deformation", 6), ("fig_iso_R", 4))
ZSIGMA_VERTEX, ZSIGMA_CANDIDATES, ZSIGMA_CLASSES = 2, 6, 5


def free_variable(lib, c):
    deg1 = [g for g in lib.contraction.source_cycle_algebra_generators(fresh(c)) if sum(g) == 1]
    if len(deg1) != 1:
        raise ValueError("no unique degree-one cycle-algebra generator")
    return deg1[0]


def pair_witness_error(lib, q, pr) -> str | None:
    """Replay a non-cancellative pair's equality witness for p.r = q.r."""
    PathWord = lib.quiver.PathWord
    if pr.side == "after":
        start = PathWord(pr.vertex, pr.p.arrows + pr.r.arrows)
        goal = PathWord(pr.vertex, pr.q.arrows + pr.r.arrows)
    else:
        start = PathWord(pr.r.base, pr.r.arrows + pr.p.arrows)
        goal = PathWord(pr.r.base, pr.r.arrows + pr.q.arrows)
    return replay_error(lib, lib.rewriting.RewriteSystem(q), start, goal, pr.equality_witness)


def replay_error(lib, rs, p, q, steps) -> str | None:
    try:
        trail = lib.rewriting.replay_witness(rs, p, steps)
    except lib.quiver.DomainError as exc:
        return f"witness does not replay: {exc}"
    if trail[-1] != q:
        return "witness ends at another word"
    return None


def build_classify(lib, seed, reference=None, full=False):
    F, rw, center = lib.fixtures, lib.rewriting, lib.center
    jobs = []
    for name, max_len in CLASSIFY_CYCLES:
        fx = F.fixture(name)
        q = fx.quiver
        rs = rw.RewriteSystem(q)
        for v in range(q.num_vertices):
            jobs.append(Job(
                f"classes|{name}|{v}|{max_len}",
                lambda q=q, v=v, n=max_len, rs=rs: rw.enumerate_cycles(
                    q, v, n, rs=rs, dedup_mod_relations=True),
                lambda r: (r.unknown_pairs == 0,
                           digest([[list(w.arrows) for w in cls] for cls in r.classes])),
            ))
    for name, degree_bound in CLASSIFY_CENTER:
        fx = F.fixture(name)
        c = lib.contraction.contract(fx.quiver, fx.contraction_arrows)
        zsigma = lib.monomial_algebra.mon_add(lib.contraction.sigma(c), free_variable(lib, c))
        mons = lib.monomial_algebra.homotopy_center_monomials(c, degree_bound)
        for g in sorted(mons, key=lambda m: (sum(m), m)):
            jobs.append(Job(
                f"center|{name}|{','.join(map(str, g))}",
                lambda c=c, g=g: center.reduced_center_contains(c, g),
                lambda r: (r.verdict != "unknown", r.verdict),
                lambda r, c=c, refusal=(name == "fig_iso_R" and g == zsigma):
                    center_error(lib, c, r, refusal),
            ))
    for name, _ in CLASSIFY_CYCLES:
        fx = F.fixture(name)
        c = lib.contraction.contract(fx.quiver, fx.contraction_arrows)
        for side, q, contraction in (("source", fx.quiver, c), ("target", c.target, None)):
            jobs.append(Job(
                f"noncancellative|{name}|{side}",
                lambda q=q, k=contraction: rw.find_noncancellative_pair(q, k),
                lambda r: (r.found or not r.exhausted, "found" if r.found else "none"),
                lambda r, q=q: pair_witness_error(lib, q, r.pair) if r.found else None,
            ))
    random.Random(seed).shuffle(jobs)
    return jobs


def center_error(lib, c, r, refusal) -> str | None:
    if refusal:
        got = (r.verdict, r.candidate_counts.get(ZSIGMA_VERTEX), r.class_counts.get(ZSIGMA_VERTEX))
        if got != ("no", ZSIGMA_CANDIDATES, ZSIGMA_CLASSES):
            return f"z*sigma refusal changed: verdict, candidates, classes = {got}"
    if r.verdict == "yes":
        cert = lib.center.verify_central(c.source, r.witness)
        if not cert.central:
            return f"reduced-center witness is not central at arrows {cert.failing_arrows()}"
    return None


# -- pairs --------------------------------------------------------------------

# (name, base quiver, cover index); covers of fig_deformation sit on both
# sides of the 4096-matching profile cap of RewriteSystem (856 and 12366)
PAIR_QUIVERS = (
    ("fig_deformation", "fig_deformation", None),
    ("fig_iso_R", "fig_iso_R", None),
    ("fig_hsb_ii", "fig_hsb_ii", None),
    ("fig_nested(2)", "fig_nested(2)", None),
    ("c3_4x4", "c3", (4, 4)),
    ("conifold_3x3", "conifold", (3, 3)),
    ("fig_deformation_3x2", "fig_deformation", (3, 2)),
    ("fig_deformation_3x3", "fig_deformation", (3, 3)),
)
PAIR_LENGTHS = (12, 16, 20)
PAIR_KINDS = ("scrambled", "swapped")
PAIR_POOL = 6  # pairs per (quiver, length, kind) cell
PAIR_PICK = 144  # pairs per job list, one from each stratum of two
PAIR_MAX_STATES = 5_000


def pair_quiver(lib, base, index):
    F = lib.fixtures
    if base == "c3":
        q = F.c3_quiver()
    elif base == "conifold":
        q = F.conifold_quiver()
    else:
        q = F.fixture(base).quiver
    return q if index is None else torus_cover(q, *index)


def random_walk(rng, q, out, v, length):
    word, at = [], v
    for _ in range(length):
        aid = rng.choice(out[at])
        word.append(aid)
        at = q.arrows[aid].head
    return tuple(word)


def scrambled_pair(rng, q, out, arcs, length):
    """A walk and the word reached from it by ``length`` random rewrite
    steps: equal modulo the relations by construction."""
    cap = length + q.max_face_length()
    while True:
        v = rng.randrange(q.num_vertices)
        word = random_walk(rng, q, out, v, length)
        other = word
        for _ in range(length):
            moves = [
                (pos, arc, repl)
                for pos, aid in enumerate(other)
                for arc, repl in arcs.get(aid, ())
                if other[pos:pos + len(arc)] == arc and len(other) - len(arc) + len(repl) <= cap
            ]
            if moves:
                pos, arc, repl = rng.choice(moves)
                other = other[:pos] + repl + other[pos + len(arc):]
        if other != word:
            return v, word, other


def swapped_pair(rng, q, out, length):
    """A walk through some vertex three times, and the walk with its two
    sub-cycles at that vertex swapped: same endpoints, homology and arrow
    multiset, hence the same matching profile."""
    while True:
        v = rng.randrange(q.num_vertices)
        word = random_walk(rng, q, out, v, length)
        at = [v] + [q.arrows[aid].head for aid in word]
        visits: dict[int, list[int]] = {}
        for pos, x in enumerate(at):
            visits.setdefault(x, []).append(pos)
        options = sorted(x for x, pos in visits.items() if len(pos) >= 3)
        if not options:
            continue
        i, j, k = sorted(rng.sample(visits[rng.choice(options)], 3))
        other = word[:i] + word[j:k] + word[i:j] + word[k:]
        if other != word:
            return v, word, other


def build_pairs(lib, seed, reference=None, full=False):
    rw, PathWord = lib.rewriting, lib.quiver.PathWord
    bounds = rw.SearchBounds(0, PAIR_MAX_STATES)
    rng = random.Random(seed)
    costs = (reference or {}).get("cost", {})
    pool = []
    for name, base, index in PAIR_QUIVERS:
        q = pair_quiver(lib, base, index)
        if not lib.quiver.validate_dimer(q).ok:
            raise ValueError(f"{name} is not a dimer quiver")
        rs = rw.RewriteSystem(q)
        out = [[] for _ in range(q.num_vertices)]
        for a in q.arrows:
            out[a.tail].append(a.id)
        arcs: dict[int, list] = {}
        for left, right in rs.rules.values():
            for arc, repl in ((left, right), (right, left)):
                arcs.setdefault(arc[0], []).append((arc, repl))
        for length in PAIR_LENGTHS:
            for kind in PAIR_KINDS:
                pool_rng = random.Random(f"{name}|{length}|{kind}")
                for n in range(PAIR_POOL):
                    if kind == "scrambled":
                        v, p, r = scrambled_pair(pool_rng, q, out, arcs, length)
                    else:
                        v, p, r = swapped_pair(pool_rng, q, out, length)
                    key = f"pair|{name}|{length}|{kind}|{n}|{digest([v, p, r])}"
                    pool.append(Job(
                        key,
                        lambda p=PathWord(v, p), r=PathWord(v, r), rs=rs: rw.paths_equal(rs, p, r, bounds),
                        lambda res: (res.verdict != "unknown", res.verdict),
                        lambda res, p=PathWord(v, p), r=PathWord(v, r), rs=rs, kind=kind:
                            pair_error(lib, rs, p, r, res, kind),
                        cost=costs.get(key, 0),
                    ))
    jobs = pool if full else stratified(rng, pool, PAIR_PICK)
    rng.shuffle(jobs)
    return jobs


def pair_error(lib, rs, p, r, res, kind) -> str | None:
    if res.verdict == "not_equal" and kind == "scrambled":
        return f"scrambled pair refuted ({res.reason})"
    if res.verdict == "equal":
        return replay_error(lib, rs, p, r, res.steps)
    return None


# -- monomial -------------------------------------------------------------------

# fig_nested(5) is left out for run length: its normality_report and
# minimal_sigma_power take about 10 s together
MONOMIAL_FIXED = tuple(f"fig_nested({n})" for n in range(1, 5)) + (
    "fig_deformation", "fig_iso_R", "fig_hsb_ii")
MONOMIAL_CENTER_DEGREE = 6
REALIZABLE = ("fig_deformation", "fig_iso_R", "fig_hsb_ii",
              "fig_nested(1)", "fig_nested(2)", "fig_nested(3)")
REALIZABLE_DEGREE, REALIZABLE_PICK = 4, 72
ALGEBRA = ("fig_deformation", "fig_iso_R", "fig_hsb_ii", "fig_nested(1)", "fig_nested(2)")
ALGEBRA_DEGREE, ALGEBRA_PICK = 6, 6


def build_monomial(lib, seed, reference=None, full=False):
    F, ma, nm = lib.fixtures, lib.monomial_algebra, lib.normality
    rng = random.Random(seed)
    costs = (reference or {}).get("cost", {})
    contractions = {}
    for name in dict.fromkeys(MONOMIAL_FIXED + REALIZABLE + ALGEBRA):
        fx = F.fixture(name)
        contractions[name] = lib.contraction.contract(fx.quiver, fx.contraction_arrows)

    jobs = []
    for name in MONOMIAL_FIXED:
        c = contractions[name]
        jobs.append(Job(
            f"homotopy_center|{name}|{MONOMIAL_CENTER_DEGREE}",
            lambda c=c: ma.homotopy_center_monomials(c, MONOMIAL_CENTER_DEGREE),
            lambda r: (True, digest(sorted(r))),
        ))
        jobs.append(Job(
            f"normality|{name}",
            lambda c=c: nm.normality_report(fresh(c)),
            lambda r: (r.minimal_power is not None, digest(r.as_dict())),
        ))
        jobs.append(Job(
            f"sigma_power|{name}",
            lambda c=c: nm.minimal_sigma_power(fresh(c)),
            lambda r: (r.verdict != "unknown", r.n),
        ))

    pool = []
    for name in REALIZABLE:
        c = contractions[name]
        for g in monomials(len(c.catalog), REALIZABLE_DEGREE):
            for i in range(c.source.num_vertices):
                key = f"realizable|{name}|{i}|{','.join(map(str, g))}"
                pool.append(Job(
                    key,
                    lambda c=c, i=i, g=g: ma.realizable_at_vertex(c, i, g),
                    lambda r: (True, r.verdict),
                    lambda r, c=c, i=i, g=g: realizability_error(lib, c, i, g, r),
                    cost=costs.get(key, 0),
                ))
    jobs += pool if full else stratified(rng, pool, REALIZABLE_PICK)
    for name in ALGEBRA:
        c = contractions[name]
        algebra = ma.MonomialAlgebra(
            tuple(lib.contraction.source_cycle_algebra_generators(fresh(c))), label=name)
        pool = [
            Job(f"algebra|{name}|{','.join(map(str, g))}",
                lambda a=algebra, g=g: ma.algebra_contains(a, g),
                lambda r: (True, r),
                cost=sum(g))
            for g in monomials(len(c.catalog), ALGEBRA_DEGREE)
        ]
        jobs += pool if full else stratified(rng, pool, ALGEBRA_PICK)
    rng.shuffle(jobs)
    return jobs


def realizability_error(lib, c, i, g, r) -> str | None:
    if r.verdict != "yes":
        return None
    w = r.witness
    try:
        lib.quiver.check_path(c.source, w)
    except lib.quiver.DomainError as exc:
        return f"realizability witness is not a path: {exc}"
    if w.base != i or lib.quiver.path_head(c.source, w) != i:
        return "realizability witness is not a closed walk at its vertex"
    if lib.contraction.tau_psi(c, w) != g:
        return "realizability witness has another image"
    return None


# -- fixture_check ----------------------------------------------------------------

# the seven fixtures of the test suite, plus fig_nested(4)
CHECKED_FIXTURES = (
    "fig_deformation", "fig_iso_R", "fig_nested(1)", "fig_nested(2)", "fig_nested(3)",
    "fig_hsb_ii", "fig_noncancellative_central", "fig_nested(4)",
)


def run_check(lib, name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lib.cli.main(["fixtures", "--check", name])
    return code, out.getvalue()


def check_claims(result) -> list:
    code, text = result
    return json.loads(text)["results"]["claims"]


def check_answer(result):
    code, _ = result
    if code == 2:
        return False, None
    return True, {c["claim"]: c["derived"] for c in check_claims(result)}


def check_error(result) -> str | None:
    code, text = result
    if code not in (0, 1, 2):
        return f"fixtures --check exited {code}"
    try:
        check_claims(result)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable fixtures --check report: {exc!r}"
    return None


def build_fixture_check(lib, seed, reference=None, full=False):
    jobs = [
        Job(f"check|{name}", lambda name=name: run_check(lib, name), check_answer, check_error)
        for name in CHECKED_FIXTURES
    ]
    random.Random(seed).shuffle(jobs)
    return jobs


def claim_mismatches(job, result) -> list[str]:
    """Fixture claims whose derived value differs from the expected one."""
    if not job.key.startswith("check|") or isinstance(result, BaseException):
        return []
    name = job.key.split("|", 1)[1]
    return [
        f"{name}: {c['claim']} derived {c['derived']!r}, expected {c['expected']!r}"
        for c in check_claims(result) if not c["ok"]
    ]


WORKLOADS = {
    "classify": build_classify,
    "pairs": build_pairs,
    "monomial": build_monomial,
    "fixture_check": build_fixture_check,
}
