"""Span and count tracing around the library's public functions.

The library binds names with ``from .x import f``, so one function can
be reachable under several module globals (``as_lattice`` lives in
``lattices`` and is also bound in ``geometry``, ``dimension``, ``cli``
and the package).  ``Tracer.install`` replaces every binding of each
traced function in every loaded ``convexitylab`` module, and methods
on their class, then confirms that no original binding is left.

Three kinds of probe:

* ``span``: a span (id, name, start, end, parent id, job id) is kept in
  memory for every call and written out by ``write``;
* ``timed``: for functions called thousands of times per job, only the
  call count and the self time are accumulated, no span is stored;
* ``count``: call count only; the time stays in the caller's self time.

Self time is a call's duration minus the time covered by the traced
calls made inside it.  Wrappers do nothing but forward while the tracer
is inactive, so output checks that call library oracles are not traced.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# metric name -> (module, attribute or Class.method, kind)
PROBES = {
    "closure.close": ("closure", "ClosureSystem.close", "timed"),
    "closure.enumerate_closed_sets": ("closure", "enumerate_closed_sets", "span"),
    "closure.covers": ("closure", "ClosedSetLattice.covers", "span"),
    "closure.lattice_join": ("closure", "ClosedSetLattice.join", "count"),
    "relconvex.relconvex_system": ("relconvex", "relconvex_system", "span"),
    "relconvex.hull_membership": ("relconvex", "hull_membership", "span"),
    "relconvex.max_convexly_independent": ("relconvex", "max_convexly_independent", "span"),
    "relconvex.min_line_cover": ("relconvex", "min_line_cover", "span"),
    "relconvex.check_es5": ("relconvex", "check_es5", "span"),
    "relconvex.dimension_sandwich_report": ("relconvex", "dimension_sandwich_report", "span"),
    "lattices.as_lattice": ("lattices", "as_lattice", "span"),
    "lattices.downset_lattice": ("lattices", "downset_lattice", "span"),
    "lattices.semilattice_join": ("lattices", "JoinSemilattice.join", "count"),
    "geometry.check_anti_exchange": ("geometry", "check_anti_exchange", "span"),
    "geometry.is_convex_geometry": ("geometry", "is_convex_geometry", "span"),
    "geometry.check_convexity_characterization": (
        "geometry", "check_convexity_characterization", "span"),
    "geometry.is_distributive": ("geometry", "is_distributive", "span"),
    "geometry.is_modular": ("geometry", "is_modular", "span"),
    "geometry.check_cover_structure": ("geometry", "check_cover_structure", "span"),
    "geometry.antimatroid_from_distributive": (
        "geometry", "antimatroid_from_distributive", "span"),
    "dimension.join_dimension": ("dimension", "join_dimension", "span"),
    "dimension.min_chain_cover": ("dimension", "min_chain_cover", "span"),
    "dimension.embed_via_chain_covers": ("dimension", "embed_via_chain_covers", "span"),
    "ordergen.multichain_system": ("ordergen", "multichain_system", "span"),
    "ordergen.interval_system": ("ordergen", "interval_system", "span"),
    "ordergen.compact_semilattice_of_geometry": (
        "ordergen", "compact_semilattice_of_geometry", "span"),
    "obstructions.embeds_as_join_subsemilattice": (
        "obstructions", "embeds_as_join_subsemilattice", "span"),
    "obstructions.independent_sets": ("obstructions", "independent_sets", "span"),
    "obstructions.obstruction_report": ("obstructions", "obstruction_report", "span"),
    "fileio.parse_any": ("fileio", "parse_any", "span"),
    "fileio.dumps": ("fileio", "dumps", "span"),
    "fileio.system_from_payload": ("fileio", "system_from_payload", "span"),
    "fileio.system_to_payload": ("fileio", "system_to_payload", "span"),
    "fileio.lattice_to_payload": ("fileio", "lattice_to_payload", "span"),
    "fileio.lattice_to_dot": ("fileio", "lattice_to_dot", "span"),
    "cli.main": ("cli", "main", "span"),
}


def _library_modules() -> list:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "convexitylab" or name.startswith("convexitylab."))
    ]


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.job: int | None = None
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.closed_sets = 0
        self.found = 0

    def reset(self) -> None:
        """Forget everything recorded so far (wrappers stay installed)."""
        self.spans.clear()
        self.calls.clear()
        self.self_s.clear()
        self.closed_sets = 0
        self.found = 0

    # ---------------------------------------------------------- jobs

    def begin_job(self, job: int) -> None:
        self.job = job
        self._stack = [[0.0, self._new_id(), perf_counter()]]
        self.active = True

    def end_job(self) -> None:
        end = perf_counter()
        self.active = False
        _, sid, start = self._stack.pop()
        self.spans.append((sid, "job", start, end, None, self.job))

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    # ------------------------------------------------------- wrappers

    def _wrap(self, name: str, fn, kind: str):
        tracer = self
        calls, self_s = self.calls, self.self_s

        if kind == "count":
            def counted(*args, **kwargs):
                if tracer.active:
                    calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        keep_span = kind == "span"
        on_result = {
            "closure.enumerate_closed_sets": self._count_closed_sets,
            "obstructions.embeds_as_join_subsemilattice": self._count_found,
        }.get(name)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1]
            # A timed call has no span of its own; spans under it hang
            # off the nearest span above.
            frame = [0.0, tracer._new_id() if keep_span else parent[1]]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                parent[0] += duration
                calls[name] += 1
                self_s[name] += duration - frame[0]
                if keep_span:
                    tracer.spans.append((frame[1], name, start, end, parent[1], tracer.job))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_closed_sets(self, lattice) -> None:
        self.closed_sets += len(lattice.masks)

    def _count_found(self, embedding) -> None:
        self.found += embedding is not None

    # ------------------------------------------------------- patching

    def install(self) -> None:
        """Wrap every binding of every probed function; raise if one is missed."""
        modules = _library_modules()
        by_name = {mod.__name__.rpartition(".")[2]: mod for mod in modules}
        originals = []
        for name, (module, attr, kind) in PROBES.items():
            owner = by_name[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(name, original, kind))
            else:
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, kind)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)
            originals.append((name, original))
        for mod in modules:
            for key, value in vars(mod).items():
                for name, original in originals:
                    if value is original:
                        raise RuntimeError(f"{mod.__name__}.{key} still bypasses the {name} probe")

    def _set(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patched):
            setattr(owner, key, value)
        self._patched.clear()

    def missing(self) -> list[str]:
        """Probe names that never fired."""
        return sorted(name for name in PROBES if self.calls[name] == 0)

    # --------------------------------------------------------- output

    def write(self, path) -> None:
        with open(path, "w") as out:
            json.dump(
                {
                    "fields": ["id", "name", "start_s", "end_s", "parent", "job"],
                    "spans": self.spans,
                },
                out,
            )
