"""Command-line interface.

Every subcommand but ``fixtures`` reads a quiver from a JSON file or a
built-in fixture given as ``fixture:NAME``.  One path in ``main`` serves
them all: it loads the quiver once, the command returns its results and
exit code, and ``main`` wraps the results in the report ``{command,
inputs, bounds, results}`` and emits it once, as JSON (default) or an
indented text rendering of the same fields, one ``-`` per list item;
the raw text of ``fixtures --list`` and ``--dump`` is emitted as it
is.  Exit codes: 0 success, 1 a checked claim failed, 2 a bounded
procedure could not decide, 3 bad input (an unknown fixture name
included).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
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
    contract,
    is_cyclic,
    source_cycle_algebra_generators,
    tau_psi,
)
from .matchings import (
    DEFAULT_MATCHING_CAP,
    MatchingCapExceeded,
    enumerate_perfect_matchings,
    is_simple_matching,
)
from .monomial_algebra import (
    homotopy_center_contains,
    homotopy_center_monomials,
    minimal_generators,
    render_monomial,
)
from .normality import DEFAULT_DEGREE_BOUND, DEFAULT_N_MAX, normality_report
from .quiver import (
    DomainError,
    PathWord,
    StructuralError,
    bigon_reduce,
    quiver_from_json,
    quiver_to_json,
    validate_dimer,
)
from .rewriting import (
    DEFAULT_BOUNDS,
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
    """Bad command-line input (exit 3)."""


def _fixture(name: str):
    try:
        return fixtures_mod.fixture(name)
    except KeyError as exc:
        raise CliError(str(exc)) from exc


def _load_source(source: str):
    if source.startswith("fixture:"):
        fx = _fixture(source[len("fixture:"):])
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
        ids = _parse_ints(args.arrows, "contracted arrows")
    else:
        ids = sorted(fx.contraction_arrows) if fx is not None else []
    try:
        return contract(q, frozenset(ids))
    except ContractionError as exc:
        raise CliError(f"contraction failed ({exc.kind}): {exc}") from exc


def _emit(args, payload) -> None:
    """Print a report, or raw text as it is."""
    if not isinstance(payload, str):
        payload = ("\n".join(_render_text(payload)) if args.text
                   else json.dumps(payload, indent=2, sort_keys=True))
    try:
        print(payload)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone (``| head``): the rest goes to the null device,
        # so that the flush at exit does not fail again, and the command
        # keeps its own exit code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


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
                lines.append(f"{prefix}-")
                lines.extend(_render_text(value, prefix + "  "))
            else:
                lines.append(f"{prefix}- {value}")
    return lines


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


def cmd_validate(args, q, fx):
    rep = validate_dimer(q)
    return {
        "ok": rep.ok,
        "violations": [
            {"code": v.code, "message": v.message, "where": v.where} for v in rep.violations
        ],
    }, EXIT_OK if rep.ok else EXIT_CLAIM_FAILED


def cmd_matchings(args, q, fx):
    matchings = enumerate_perfect_matchings(q, args.cap)
    if args.simple_only:
        matchings = [d for d in matchings if is_simple_matching(q, d)]
    return {"matchings": [sorted(d) for d in matchings], "count": len(matchings)}, EXIT_OK


def cmd_eq(args, q, fx):
    rs = RewriteSystem(q)
    res = paths_equal(rs, _parse_word(q, args.p), _parse_word(q, args.q), _bounds(args))
    results = {
        "verdict": res.verdict,
        "reason": res.reason,
        "witness": [
            {"pos": s.pos, "arrow": s.arrow, "old": list(s.old), "new": list(s.new)}
            for s in res.steps
        ],
    }
    return results, EXIT_UNKNOWN if res.verdict == UNKNOWN else EXIT_OK


def cmd_cycles(args, q, fx):
    variant, colon, hom = args.filter.partition(":")
    filt = CycleFilter(variant, _parse_ints(hom, "homology class") if colon else None)
    enum = enumerate_cycles(q, args.vertex, args.max_len, filt,
                            dedup_mod_relations=args.dedup, bounds=_bounds(args))
    results = {"cycles": [list(c.arrows) for c in enum.cycles], "count": len(enum.cycles)}
    if enum.classes is not None:
        results["classes"] = [[list(c.arrows) for c in cls] for cls in enum.classes]
        results["class_count"] = len(enum.classes)
        results["undecided_comparisons"] = enum.unknown_pairs
    return results, EXIT_UNKNOWN if enum.classes is not None and enum.unknown_pairs else EXIT_OK


def cmd_tau(args, q, fx):
    c = _contraction(q, fx, args)
    img = tau_psi(c, _parse_word(q, args.path))
    return {
        "monomial": list(img),
        "rendered": render_monomial(img),
        "catalog": [sorted(d) for d in c.catalog],
    }, EXIT_OK


def cmd_contract(args, q, fx):
    c = _contraction(q, fx, args)
    results = {
        "target": quiver_to_json(c.target),
        "vertex_map": list(c.vertex_map),
        "fiber_counts": list(c.fiber_counts),
        "simple_matchings": [sorted(d) for d in c.catalog],
    }
    code = EXIT_OK
    if args.check_cyclic:
        rep = is_cyclic(c, _bounds(args))
        results["cyclic_up_to_bound"] = rep.cyclic_up_to_bound
        results["cycle_algebra_generators"] = [list(g) for g in rep.source_generators]
        results["target_generators"] = [list(g) for g in rep.target_generators]
        results["cancellative_target"] = rep.cancellative_target
        code = EXIT_UNKNOWN if rep.cancellative_target is None else EXIT_OK
    if args.reduce:
        red = bigon_reduce(c.target)
        results["reduced_target"] = quiver_to_json(red.quiver)
        results["removed_2cycles"] = red.removed
    return results, code


def cmd_cycle_algebra(args, q, fx):
    c = _contraction(q, fx, args)
    gens = source_cycle_algebra_generators(c)
    return {
        "generators": [list(g) for g in gens],
        "rendered": [render_monomial(g) for g in gens],
        "catalog": [sorted(d) for d in c.catalog],
    }, EXIT_OK


def cmd_homotopy_center(args, q, fx):
    c = _contraction(q, fx, args)
    mons = homotopy_center_monomials(c, args.degree_bound)
    gens = sorted(minimal_generators(mons))
    results = {
        "degree_bound": args.degree_bound,
        "generators": [list(g) for g in gens],
        "rendered": [render_monomial(g) for g in gens],
        "monomial_count": len(mons),
    }
    if args.contains:
        g = _parse_ints(args.contains, "monomial")
        res = homotopy_center_contains(c, g)
        results["contains"] = {
            "monomial": list(g),
            "verdict": res.verdict,
            "failing_vertex": res.vertex,
        }
    return results, EXIT_OK


def cmd_center(args, q, fx):
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
    return results, EXIT_UNKNOWN if res.verdict == UNKNOWN else EXIT_OK


def _candidate_json(z: CentralCandidate):
    return {
        str(v): [[t.numerator, t.denominator, list(w.arrows)] for t, w in terms]
        for v, terms in sorted(z.components.items())
    }


def _candidate_term(q, v, term) -> tuple[Fraction, PathWord]:
    """[numerator, nonzero denominator, [arrow ids]] as (coefficient,
    cycle at v); JSON booleans are not integers here."""
    shaped = isinstance(term, list) and len(term) == 3 and isinstance(term[2], list)
    if not (shaped and all(type(x) is int for x in term[:2] + term[2]) and term[1] != 0
            and all(0 <= a < len(q.arrows) for a in term[2])):
        raise CliError(f"candidate: term {term!r} at vertex {v} is not "
                       "[numerator, nonzero denominator, [arrow ids]]")
    num, den, arrows = term
    base = q.arrow(arrows[0]).tail if arrows else int(v)
    return Fraction(num, den), PathWord(base, tuple(arrows))


def _candidate_from_json(q, data) -> CentralCandidate:
    if not (isinstance(data, dict) and all(isinstance(t, list) for t in data.values())):
        raise CliError("candidate: expected an object mapping vertices to lists of terms")
    return CentralCandidate({int(v): [_candidate_term(q, v, t) for t in terms]
                             for v, terms in data.items()})


def cmd_nilradical(args, q, fx):
    c = _contraction(q, fx, args)
    if args.candidate == "builtin":
        if fx is None or "p" not in fx.paths:
            where = "a quiver file" if fx is None else f"fixture {fx.name}"
            raise CliError(f"{where} has no built-in candidate; pass --candidate FILE")
        z = distinguished_candidate(fx)
    else:
        try:
            with open(args.candidate, "r", encoding="utf-8") as fh:
                z = _candidate_from_json(q, json.load(fh))
        except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
            raise CliError(f"cannot read candidate: {exc}") from exc
    rep = nilpotency_and_kernel_check(c, z, _bounds(args))
    results = dataclasses.asdict(rep)
    code = EXIT_OK if rep.consistent == "equal" else EXIT_CLAIM_FAILED
    return results, EXIT_UNKNOWN if UNKNOWN in results.values() else code


def cmd_normality(args, q, fx):
    c = _contraction(q, fx, args)
    rep = normality_report(c, args.degree_bound, args.n_max)
    results = rep.as_dict()
    undecided = rep.minimal_power is None or UNKNOWN in results.values()
    return results, EXIT_UNKNOWN if undecided else EXIT_OK


def cmd_noncancellative(args, q, fx):
    c = _contraction(q, fx, args) if (args.arrows is not None or fx is not None) else None
    rep = find_noncancellative_pair(q, c, _bounds(args))
    results = {
        "found": rep.found,
        "search_exhausted": rep.exhausted,
        "cycles_considered": rep.cycles_considered,
        "pairs_tested": rep.pairs_tested,
        "removed_2cycles": rep.removed_2cycles,
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
    return results, EXIT_UNKNOWN if not rep.found and rep.exhausted else EXIT_OK


def cmd_fixtures(args, q, fx):
    if args.list:
        return "\n".join(fixtures_mod.FIXTURE_NAMES), EXIT_OK
    if args.dump:
        dumped = quiver_to_json(_fixture(args.dump).quiver)
        return json.dumps(dumped, indent=2, sort_keys=True), EXIT_OK
    if args.check:
        # an unknown name is bad input, not a failed claim
        claims, ok = check_fixture(_fixture(args.check))
        results = {"fixture": args.check, "claims": claims, "ok": ok}
        return results, EXIT_OK if ok else EXIT_CLAIM_FAILED
    raise CliError("fixtures requires --list, --dump NAME, or --check NAME")


def _count(text: str) -> int:
    """An integer option that may not be negative."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _global_options(parser, suppress=False):
    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--max-word-length", type=_count,
                        default=default(DEFAULT_BOUNDS.max_word_length),
                        help="word cap of every rewriting search (0 = its start word's bound)")
    parser.add_argument("--max-states", type=_count, default=default(DEFAULT_BOUNDS.max_states))
    parser.add_argument("--degree-bound", type=_count, default=default(DEFAULT_DEGREE_BOUND))
    parser.add_argument("--text", action="store_true", default=default(False),
                        help="indented text output instead of JSON")


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

    def add(name, fn, *inputs, contracts=False):
        """A subcommand whose report echoes ``inputs``; one that echoes
        ``quiver`` reads it, one that ``contracts`` takes ``--arrows``."""
        p = sub.add_parser(name, parents=[common])
        p.set_defaults(fn=fn, inputs=inputs)
        if "quiver" in inputs:
            p.add_argument("quiver")
        if contracts:
            p.add_argument("--arrows",
                           help="comma-separated arrow ids to contract (default: the fixture's)")
        return p

    add("validate", cmd_validate, "quiver")

    p = add("matchings", cmd_matchings, "quiver")
    p.add_argument("--simple-only", action="store_true")
    p.add_argument("--cap", type=_count, default=DEFAULT_MATCHING_CAP)

    p = add("eq", cmd_eq, "quiver", "p", "q")
    p.add_argument("--p", required=True, help="comma-separated arrow ids")
    p.add_argument("--q", required=True)

    p = add("cycles", cmd_cycles, "quiver", "vertex")
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--max-len", type=_count, required=True)
    p.add_argument("--filter", default="all",
                   help="all | vertex-simple | lift-simple | homology:a,b")
    p.add_argument("--dedup", action="store_true")

    p = add("tau", cmd_tau, "quiver", "path", contracts=True)
    p.add_argument("--path", required=True)

    p = add("contract", cmd_contract, "quiver", contracts=True)
    p.add_argument("--check-cyclic", action="store_true")
    p.add_argument("--reduce", action="store_true", help="also remove 2-cycles")

    add("cycle-algebra", cmd_cycle_algebra, "quiver", contracts=True)

    p = add("homotopy-center", cmd_homotopy_center, "quiver", contracts=True)
    p.add_argument("--contains", help="exponent vector, comma-separated")

    p = add("center", cmd_center, "quiver", "image", contracts=True)
    p.add_argument("--image", required=True, help="exponent vector, comma-separated")

    p = add("nilradical", cmd_nilradical, "quiver", contracts=True)
    p.add_argument("--candidate", default="builtin",
                   help="candidate JSON file, or 'builtin' for the fixture's")

    p = add("normality", cmd_normality, "quiver", contracts=True)
    p.add_argument("--n-max", type=_count, default=DEFAULT_N_MAX)

    add("noncancellative", cmd_noncancellative, "quiver", contracts=True)

    p = add("fixtures", cmd_fixtures, "check")
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
        q, fx = _load_source(args.quiver) if "quiver" in args.inputs else (None, None)
        results, code = args.fn(args, q, fx)
    except (CliError, StructuralError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ResourceExhausted, MatchingCapExceeded) as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    if not isinstance(results, str):
        results = {
            "command": args.command,
            "inputs": {name: getattr(args, name) for name in args.inputs},
            "bounds": {"max_word_length": args.max_word_length, "max_states": args.max_states},
            "results": results,
        }
    _emit(args, results)
    return code


if __name__ == "__main__":
    sys.exit(main())
