"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each traced public function with a wrapper in
every ``dimeralg`` module namespace that binds it, so calls between
modules go through the wrapper too; ``RewriteSystem`` is traced through
its methods.  Each wrapped call records a span (name, start, end, parent
span, job id) in memory; a span's self time is its duration minus the
time its child spans cover.  Counts are read off the arguments and the
results at the same boundary.  ``oracles`` is the reference and is not
traced.
"""

from __future__ import annotations

from array import array
from time import perf_counter

# module -> public functions traced with a span each
TRACED = {
    "quiver": ("validate_dimer",),
    "matchings": ("enumerate_perfect_matchings",),
    "rewriting": ("paths_equal", "enumerate_cycles", "find_noncancellative_pair",
                  "vertex_simple_cycles"),
    "contraction": ("contract", "tau_psi", "is_cyclic", "source_cycle_algebra_generators"),
    "monomial_algebra": ("realizable_at_vertex", "homotopy_center_contains",
                         "homotopy_center_monomials", "cycles_with_image",
                         "semigroup_monomials", "minimal_generators"),
    "center": ("reduced_center_contains", "verify_central", "nilpotency_and_kernel_check"),
    "normality": ("normality_report", "minimal_sigma_power"),
    "acceptance": ("check_fixture",),
    "cli": ("main",),
}
# RewriteSystem methods that are only counted: they run millions of times
COUNTED = ("successors", "profile")

PATH_VERDICTS = ("equal", "not_equal_invariant", "not_equal_saturated",
                 "unknown_word_length", "unknown_state_budget")

# metric suffix -> unit, for the counts read off results
EXTRA_UNITS = {
    "matchings": "count", "states": "count",
    "cycles": "count", "unknown_pairs": "count", "pairs_tested": "count",
    "cycles_considered": "count", "exhausted": "count", "candidates": "count",
    "classes": "count", "wasted_state_share": "1", "repeat_word_share": "1",
    **{v: "count" for v in PATH_VERDICTS},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.stats: dict[str, dict] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.stack: list[list] = []  # [span index, time covered by children]
        self.job = -1
        self.origin = perf_counter()
        self._restore: list[tuple] = []
        self._seen_words: set = set()
        self._quivers: dict = {}  # keeps every keyed quiver alive, so ids stay unique

    # -- wrappers --------------------------------------------------------------

    def _traced(self, name, fn, after=None):
        stats = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        name_id = len(self.names)
        self.names.append(name)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            idx = len(tracer.span_start)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_job.append(tracer.job)
            frame = [idx, 0.0]
            stack.append(frame)
            start = perf_counter()
            tracer.span_start.append(start)
            tracer.span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.span_end[idx] = end
                duration = end - start
                stats["calls"] += 1
                stats["self_s"] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(tracer, stats, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, name, fn):
        stats = self.stats.setdefault(name, {"calls": 0})

        def counted(*args, **kwargs):
            stats["calls"] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self, lib, modules) -> None:
        """Wrap the traced names of ``lib`` in every one of ``modules``."""
        for home, names in TRACED.items():
            for fname in names:
                original = getattr(getattr(lib, home), fname)
                wrapper = self._traced(f"{home}.{fname}", original, AFTER.get(fname))
                for m in modules:
                    if m.__dict__.get(fname) is original:
                        self._restore.append((m, fname, original))
                        setattr(m, fname, wrapper)
        rs_class = lib.rewriting.RewriteSystem
        profile = rs_class.profile
        for method in COUNTED:
            original = rs_class.__dict__[method]
            self._restore.append((rs_class, method, original))
            setattr(rs_class, method, self._counted(f"rewriting.RewriteSystem.{method}", original))

        def profile_off(tracer, stats, args, kwargs, result):
            stats["profile_off"] = stats.get("profile_off", 0) + (profile(args[0], ()) is None)

        init = rs_class.__dict__["__init__"]
        self._restore.append((rs_class, "__init__", init))
        rs_class.__init__ = self._traced("rewriting.RewriteSystem", init, profile_off)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for home, names in TRACED.items():
            for fname in names:
                prefix = f"{home}.{fname}"
                stats = self.stats[prefix]
                out[f"{prefix}.calls"] = (stats["calls"], "count")
                out[f"{prefix}.self_s"] = (stats["self_s"], "s")
                for extra in EXTRAS.get(fname, ()):
                    out[f"{prefix}.{extra}"] = (_extra(stats, extra), EXTRA_UNITS[extra])
        rs = self.stats["rewriting.RewriteSystem"]
        out["rewriting.RewriteSystem.calls"] = (rs["calls"], "count")
        out["rewriting.RewriteSystem.self_s"] = (rs["self_s"], "s")
        out["rewriting.RewriteSystem.profile_off"] = (rs.get("profile_off", 0), "count")
        for method in COUNTED:
            name = f"rewriting.RewriteSystem.{method}"
            out[f"{name}.calls"] = (self.stats[name]["calls"], "count")
        return out

    def job_calls(self) -> dict[str, int]:
        """Span counts per traced name, leaving out set-up (job id -1)."""
        out = dict.fromkeys(self.names, 0)
        for k, job in enumerate(self.span_job):
            if job >= 0:
                out[self.names[self.span_name[k]]] += 1
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\tjob\n")
            for k in range(len(self.span_start)):
                fh.write(
                    f"{k}\t{self.names[self.span_name[k]]}\t"
                    f"{self.span_start[k] - self.origin:.9f}\t{self.span_end[k] - self.origin:.9f}\t"
                    f"{self.span_parent[k]}\t{self.span_job[k]}\n"
                )


def _extra(stats, extra):
    if extra == "wasted_state_share":
        return stats.get("unknown_states", 0) / stats["states"] if stats.get("states") else 0.0
    if extra == "repeat_word_share":
        return stats.get("repeats", 0) / stats["calls"] if stats["calls"] else 0.0
    return stats.get(extra, 0)


def _add(stats, key, amount) -> None:
    stats[key] = stats.get(key, 0) + amount


def _after_paths_equal(tracer, stats, args, kwargs, result):
    rs = args[0]
    words = [args[1] if len(args) > 1 else kwargs["p"], args[2] if len(args) > 2 else kwargs["q_"]]
    tracer._quivers.setdefault(id(rs.quiver), rs.quiver)
    keys = [(id(rs.quiver), w.base, w.arrows) for w in words]
    if any(k in tracer._seen_words for k in keys):
        _add(stats, "repeats", 1)
    tracer._seen_words.update(keys)
    _add(stats, "states", result.states)
    if result.verdict == "equal":
        _add(stats, "equal", 1)
    elif result.verdict == "not_equal":
        _add(stats, "not_equal_saturated" if result.reason == "saturated" else "not_equal_invariant", 1)
    else:
        _add(stats, f"unknown_{result.reason}", 1)
        _add(stats, "unknown_states", result.states)



def _after_matchings(tracer, stats, args, kwargs, result):
    _add(stats, "matchings", len(result))


def _after_cycles(tracer, stats, args, kwargs, result):
    _add(stats, "cycles", len(result.cycles))
    _add(stats, "unknown_pairs", result.unknown_pairs)


def _after_noncancellative(tracer, stats, args, kwargs, result):
    _add(stats, "pairs_tested", result.pairs_tested)
    _add(stats, "cycles_considered", result.cycles_considered)
    _add(stats, "exhausted", int(result.exhausted))


def _after_realizable(tracer, stats, args, kwargs, result):
    _add(stats, "states", result.states)


def _after_cycles_with_image(tracer, stats, args, kwargs, result):
    _add(stats, "cycles", len(result))


def _after_reduced_center(tracer, stats, args, kwargs, result):
    _add(stats, "candidates", sum(result.candidate_counts.values()))
    _add(stats, "classes", sum(result.class_counts.values()))


AFTER = {
    "enumerate_perfect_matchings": _after_matchings,
    "paths_equal": _after_paths_equal,
    "enumerate_cycles": _after_cycles,
    "find_noncancellative_pair": _after_noncancellative,
    "realizable_at_vertex": _after_realizable,
    "cycles_with_image": _after_cycles_with_image,
    "reduced_center_contains": _after_reduced_center,
}
EXTRAS = {
    "enumerate_perfect_matchings": ("matchings",),
    "paths_equal": ("states",) + PATH_VERDICTS + ("wasted_state_share", "repeat_word_share"),
    "enumerate_cycles": ("cycles", "unknown_pairs"),
    "find_noncancellative_pair": ("pairs_tested", "cycles_considered", "exhausted"),
    "realizable_at_vertex": ("states",),
    "cycles_with_image": ("cycles",),
    "reduced_center_contains": ("candidates", "classes"),
}
