"""Command-line interface.

Every subcommand reads a quiver either from a JSON file or from a
built-in fixture given as ``fixture:NAME``.  Reports are JSON (default)
or a flat text rendering of the same fields.  Exit codes: 0 success,
1 a checked claim failed, 2 a bounded procedure could not decide,
3 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import fixtures as fixtures_mod
from .acceptance import check_fixture, distinguished_candidate
from .center import (
    CentralCandidate,
    nilpotency_and_kernel_check,
    reduced_center_contains,
)
from .contraction import (
    Contraction,
    ContractionError,
    bigon_reduce,
    contract,
    is_cyclic,
    source_cycle_algebra_generators,
    tau_psi,
)
from .matchings import MatchingCapExceeded, enumerate_perfect_matchings, is_simple_matching
from .monomial_algebra import (
    homotopy_center_contains,
    homotopy_center_generators,
    render_monomial,
)
from .normality import normality_report
from .quiver import (
    DomainError,
    PathWord,
    StructuralError,
    quiver_from_json,
    quiver_to_json,
    validate_dimer,
)
from .rewriting import (
    UNKNOWN,
    CycleFilter,
    ResourceExhausted,
    RewriteSystem,
    SearchBounds,
    enumerate_cycles,
    find_noncancellative_pair,
    paths_equal,
)

EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3


class CliError(Exception):
    def __init__(self, message, code=EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _load_source(source: str):
    if source.startswith("fixture:"):
        name = source[len("fixture:"):]
        try:
            fx = fixtures_mod.fixture(name)
        except KeyError as exc:
            raise CliError(str(exc)) from exc
        return fx.quiver, fx
    try:
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {source}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{source}: invalid JSON ({exc})") from exc
    try:
        return quiver_from_json(data), None
    except StructuralError as exc:
        raise CliError(f"{source}: {exc}") from exc


def _bounds(args) -> SearchBounds:
    return SearchBounds(args.max_word_length, args.max_states)


def _contraction(q, fx, args) -> Contraction:
    if args.arrows is not None:
        ids = list(_parse_ints(args.arrows, "contracted arrows")) if args.arrows else []
    elif fx is not None:
        ids = sorted(fx.contraction_arrows)
    else:
        ids = []
    try:
        return contract(q, frozenset(ids))
    except ContractionError as exc:
        raise CliError(f"contraction failed ({exc.kind}): {exc}") from exc


def _emit(args, payload: dict) -> None:
    if args.text:
        for line in _render_text(payload):
            print(line)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _render_text(payload, prefix=""):
    lines = []
    if isinstance(payload, dict):
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, (dict, list)):
                lines.append(f"{prefix}{key}:")
                lines.extend(_render_text(value, prefix + "  "))
            else:
                lines.append(f"{prefix}{key}: {value}")
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)):
                lines.extend(_render_text(value, prefix + "  "))
            else:
                lines.append(f"{prefix}- {value}")
    return lines


def _report(command, inputs, bounds, results):
    return {
        "command": command,
        "inputs": inputs,
        "bounds": {
            "max_word_length": bounds.max_word_length,
            "max_states": bounds.max_states,
        },
        "results": results,
    }


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x != "")
    except ValueError:
        raise CliError(f"{what}: expected comma-separated integers, got {text!r}") from None


def _parse_word(q, text: str) -> PathWord:
    ids = _parse_ints(text, "arrow list")
    if not ids:
        raise CliError("empty arrow list")
    try:
        base = q.arrow(ids[0]).tail
    except IndexError:
        raise CliError(f"unknown arrow id {ids[0]}") from None
    return PathWord(base, ids)


def cmd_validate(args):
    q, _ = _load_source(args.quiver)
    rep = validate_dimer(q)
    results = {
        "ok": rep.ok,
        "violations": [
            {"code": v.code, "message": v.message, "where": v.where} for v in rep.violations
        ],
    }
    _emit(args, _report("validate", {"quiver": args.quiver}, _bounds(args), results))
    return EXIT_OK if rep.ok else EXIT_CLAIM_FAILED


def cmd_matchings(args):
    q, _ = _load_source(args.quiver)
    matchings = enumerate_perfect_matchings(q, args.cap)
    if args.simple_only:
        matchings = [d for d in matchings if is_simple_matching(q, d)]
    results = {"matchings": [sorted(d) for d in matchings], "count": len(matchings)}
    _emit(args, _report("matchings", {"quiver": args.quiver}, _bounds(args), results))
    return EXIT_OK


def cmd_eq(args):
    q, _ = _load_source(args.quiver)
    rs = RewriteSystem(q)
    p = _parse_word(q, args.p)
    r = _parse_word(q, args.q)
    res = paths_equal(rs, p, r, _bounds(args))
    results = {
        "verdict": res.verdict,
        "reason": res.reason,
        "witness": [
            {"pos": s.pos, "arrow": s.arrow, "old": list(s.old), "new": list(s.new)}
            for s in res.steps
        ],
    }
    _emit(args, _report("eq", {"quiver": args.quiver, "p": args.p, "q": args.q},
                        _bounds(args), results))
    return EXIT_UNKNOWN if res.verdict == UNKNOWN else EXIT_OK


def cmd_cycles(args):
    q, _ = _load_source(args.quiver)
    if args.filter == "all":
        filt = CycleFilter.all()
    elif args.filter == "vertex-simple":
        filt = CycleFilter.vertex_simple()
    elif args.filter == "lift-simple":
        filt = CycleFilter.lift_simple()
    elif args.filter.startswith("homology:"):
        pair = _parse_ints(args.filter[len("homology:"):], "homology class")
        if len(pair) != 2:
            raise CliError("homology filter needs two components")
        filt = CycleFilter.homology_class(pair)
    else:
        raise CliError(f"unknown filter {args.filter!r}")
    enum = enumerate_cycles(
        q, args.vertex, args.max_len, filt,
        dedup_mod_relations=args.dedup, bounds=_bounds(args),
    )
    results = {"cycles": [list(c.arrows) for c in enum.cycles], "count": len(enum.cycles)}
    if enum.classes is not None:
        results["classes"] = [[list(c.arrows) for c in cls] for cls in enum.classes]
        results["class_count"] = len(enum.classes)
        results["undecided_comparisons"] = enum.unknown_pairs
    _emit(args, _report("cycles", {"quiver": args.quiver, "vertex": args.vertex},
                        _bounds(args), results))
    if enum.classes is not None and enum.unknown_pairs:
        return EXIT_UNKNOWN
    return EXIT_OK


def cmd_tau(args):
    q, fx = _load_source(args.quiver)
    c = _contraction(q, fx, args)
    p = _parse_word(q, args.path)
    img = tau_psi(c, p)
    results = {
        "monomial": list(img),
        "rendered": render_monomial(img),
        "catalog": [sorted(d) for d in c.catalog.simple],
    }
    _emit(args, _report("tau", {"quiver": args.quiver, "path": args.path},
                        _bounds(args), results))
    return EXIT_OK


def cmd_contract(args):
    q, fx = _load_source(args.quiver)
    c = _contraction(q, fx, args)
    results = {
        "target": quiver_to_json(c.target),
        "vertex_map": list(c.vertex_map),
        "fiber_counts": list(c.fiber_counts),
        "simple_matchings": [sorted(d) for d in c.catalog.simple],
    }
    code = EXIT_OK
    if args.check_cyclic:
        rep = is_cyclic(c, _bounds(args), args.degree_bound)
        results["cyclic_up_to_bound"] = rep.cyclic_up_to_bound
        results["cycle_algebra_generators"] = [list(g) for g in rep.source_generators]
        results["target_generators"] = [list(g) for g in rep.target_generators]
        results["cancellative_target"] = rep.cancellative_target
        if rep.cancellative_target is None:
            code = EXIT_UNKNOWN
    if args.reduce:
        red = bigon_reduce(c.target, to_fixpoint=True)
        results["reduced_target"] = quiver_to_json(red.quiver)
        results["removed_2cycles"] = len(red.steps)
    _emit(args, _report("contract", {"quiver": args.quiver}, _bounds(args), results))
    return code


def cmd_cycle_algebra(args):
    q, fx = _load_source(args.quiver)
    c = _contraction(q, fx, args)
    gens = source_cycle_algebra_generators(c)
    results = {
        "generators": [list(g) for g in gens],
        "rendered": [render_monomial(g) for g in gens],
        "catalog": [sorted(d) for d in c.catalog.simple],
    }
    _emit(args, _report("cycle-algebra", {"quiver": args.quiver}, _bounds(args), results))
    return EXIT_OK


def cmd_homotopy_center(args):
    q, fx = _load_source(args.quiver)
    c = _contraction(q, fx, args)
    gens = homotopy_center_generators(c, args.degree_bound)
    results = {
        "degree_bound": args.degree_bound,
        "generators": [list(g) for g in gens.algebra.generators],
        "rendered": [render_monomial(g) for g in gens.algebra.generators],
        "monomial_count": len(gens.monomials),
    }
    if args.contains:
        g = _parse_ints(args.contains, "monomial")
        res = homotopy_center_contains(c, g)
        results["contains"] = {
            "monomial": list(g),
            "verdict": res.verdict,
            "failing_vertex": res.vertex if res.verdict != "yes" else None,
        }
    _emit(args, _report("homotopy-center", {"quiver": args.quiver}, _bounds(args), results))
    return EXIT_OK


def cmd_center(args):
    q, fx = _load_source(args.quiver)
    c = _contraction(q, fx, args)
    g = _parse_ints(args.image, "monomial")
    res = reduced_center_contains(c, g, _bounds(args))
    results = {
        "monomial": list(g),
        "verdict": res.verdict,
        "reason": res.reason,
        "candidate_counts": {str(k): v for k, v in sorted(res.candidate_counts.items())},
        "class_counts": {str(k): v for k, v in sorted(res.class_counts.items())},
    }
    if res.witness is not None:
        results["witness"] = _candidate_json(res.witness)
    _emit(args, _report("center", {"quiver": args.quiver, "image": args.image},
                        _bounds(args), results))
    return EXIT_UNKNOWN if res.verdict == UNKNOWN else EXIT_OK


def _candidate_json(z: CentralCandidate):
    return {
        str(v): [[t.numerator, t.denominator, list(w.arrows)] for t, w in terms]
        for v, terms in sorted(z.components.items())
    }


def _candidate_from_json(q, data) -> CentralCandidate:
    comps = {}
    for v, terms in data.items():
        parsed = []
        for num, den, arrows in terms:
            arrows = tuple(int(a) for a in arrows)
            base = q.arrow(arrows[0]).tail if arrows else int(v)
            parsed.append((Fraction(int(num), int(den)), PathWord(base, arrows)))
        comps[int(v)] = parsed
    return CentralCandidate(comps)


def cmd_nilradical(args):
    q, fx = _load_source(args.quiver)
    c = _contraction(q, fx, args)
    if args.candidate == "builtin" and fx is not None and "p" in fx.paths:
        z = distinguished_candidate(fx)
    else:
        try:
            with open(args.candidate, "r", encoding="utf-8") as fh:
                z = _candidate_from_json(q, json.load(fh))
        except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
            raise CliError(f"cannot read candidate: {exc}") from exc
    rep = nilpotency_and_kernel_check(c, z, _bounds(args))
    results = rep.as_dict()
    _emit(args, _report("nilradical", {"quiver": args.quiver}, _bounds(args), results))
    if UNKNOWN in results.values():
        return EXIT_UNKNOWN
    return EXIT_OK if rep.consistent == "equal" else EXIT_CLAIM_FAILED


def cmd_normality(args):
    q, fx = _load_source(args.quiver)
    c = _contraction(q, fx, args)
    rep = normality_report(c, args.degree_bound, args.n_max)
    _emit(args, _report("normality", {"quiver": args.quiver}, _bounds(args), rep.as_dict()))
    if rep.minimal_power is None:
        return EXIT_UNKNOWN
    return EXIT_OK


def cmd_noncancellative(args):
    q, fx = _load_source(args.quiver)
    c = _contraction(q, fx, args) if (args.arrows is not None or fx is not None) else None
    rep = find_noncancellative_pair(q, c, _bounds(args))
    results = {
        "found": rep.found,
        "search_exhausted": rep.exhausted,
        "cycles_considered": rep.cycles_considered,
        "pairs_tested": rep.pairs_tested,
    }
    if rep.found:
        pr = rep.pair
        results["pair"] = {
            "vertex": pr.vertex,
            "p": list(pr.p.arrows),
            "q": list(pr.q.arrows),
            "r": list(pr.r.arrows),
            "side": pr.side,
            "inequality_reason": pr.inequality_reason,
        }
    _emit(args, _report("noncancellative", {"quiver": args.quiver}, _bounds(args), results))
    if not rep.found and rep.exhausted:
        return EXIT_UNKNOWN
    return EXIT_OK


def cmd_fixtures(args):
    if args.list:
        for name in fixtures_mod.FIXTURE_NAMES:
            print(name)
        return EXIT_OK
    if args.dump:
        fx = fixtures_mod.fixture(args.dump)
        print(json.dumps(quiver_to_json(fx.quiver), indent=2, sort_keys=True))
        return EXIT_OK
    if args.check:
        results, ok = check_fixture(args.check)
        payload = {"fixture": args.check, "claims": results, "ok": ok}
        _emit(args, _report("fixtures", {"check": args.check}, _bounds(args), payload))
        return EXIT_OK if ok else EXIT_CLAIM_FAILED
    raise CliError("fixtures requires --list, --dump NAME, or --check NAME")


def _global_options(parser, suppress=False):
    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--max-word-length", type=int, default=default(0),
                        help="word-length cap for rewriting (0 = derive from inputs)")
    parser.add_argument("--max-states", type=int, default=default(200000))
    parser.add_argument("--degree-bound", type=int, default=default(8))
    parser.add_argument("--text", action="store_true", default=default(False),
                        help="flat text output instead of JSON")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dimeralg",
        description="combinatorial invariants of dimer quivers on the torus",
    )
    _global_options(parser)
    # the same options are accepted after the subcommand; SUPPRESS keeps
    # the subparser from clobbering values parsed before it
    common = argparse.ArgumentParser(add_help=False)
    _global_options(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("validate", cmd_validate)
    p.add_argument("quiver")

    p = add("matchings", cmd_matchings)
    p.add_argument("quiver")
    p.add_argument("--simple-only", action="store_true")
    p.add_argument("--cap", type=int, default=100000)

    p = add("eq", cmd_eq)
    p.add_argument("quiver")
    p.add_argument("--p", required=True, help="comma-separated arrow ids")
    p.add_argument("--q", required=True)

    p = add("cycles", cmd_cycles)
    p.add_argument("quiver")
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--filter", default="all",
                   help="all | vertex-simple | lift-simple | homology:a,b")
    p.add_argument("--dedup", action="store_true")

    p = add("tau", cmd_tau)
    p.add_argument("quiver")
    p.add_argument("--arrows", help="contracted arrow ids (default: fixture's)")
    p.add_argument("--path", required=True)

    p = add("contract", cmd_contract)
    p.add_argument("quiver")
    p.add_argument("--arrows", help="comma-separated arrow ids to contract")
    p.add_argument("--check-cyclic", action="store_true")
    p.add_argument("--reduce", action="store_true", help="also remove 2-cycles")

    p = add("cycle-algebra", cmd_cycle_algebra)
    p.add_argument("quiver")
    p.add_argument("--arrows")

    p = add("homotopy-center", cmd_homotopy_center)
    p.add_argument("quiver")
    p.add_argument("--arrows")
    p.add_argument("--contains", help="exponent vector, comma-separated")

    p = add("center", cmd_center)
    p.add_argument("quiver")
    p.add_argument("--arrows")
    p.add_argument("--image", required=True, help="exponent vector, comma-separated")

    p = add("nilradical", cmd_nilradical)
    p.add_argument("quiver")
    p.add_argument("--arrows")
    p.add_argument("--candidate", default="builtin",
                   help="candidate JSON file, or 'builtin' for the fixture's")

    p = add("normality", cmd_normality)
    p.add_argument("quiver")
    p.add_argument("--arrows")
    p.add_argument("--n-max", type=int, default=6)

    p = add("noncancellative", cmd_noncancellative)
    p.add_argument("quiver")
    p.add_argument("--arrows")

    p = add("fixtures", cmd_fixtures)
    p.add_argument("--list", action="store_true")
    p.add_argument("--dump")
    p.add_argument("--check")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (StructuralError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ResourceExhausted, MatchingCapExceeded) as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN


if __name__ == "__main__":
    sys.exit(main())
