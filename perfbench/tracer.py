"""Outside-in tracer for the l1comb layers.

The tracer replaces the public names one layer calls in another (the names
``l1comb.cli`` imported from ``groups``, ``bicombing``, ``kernel``, ``espace``
and ``actions``, plus the hot ``CayleyBall``/``GroupPresentation`` lookups)
with wrappers that time each call.  Nothing under ``src/`` changes.

Hot lookups run millions of times per command, so a span name keeps only a
call count, its total time and its self time (total minus the time of traced
calls made inside it), never one record per call.  A span stack gives the
self time.  Counters record the work each layer did, read from the call's
arguments or result.  Everything stays in memory until :meth:`Tracer.report`.
"""

from __future__ import annotations

import functools
import time


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}
        self._stack: list[float] = []  # time spent in traced children, per open span

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` timed under span ``name``.  ``count(counters, result,
        *args, **kwargs)`` may add work counters after each call."""
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner
                if stack:
                    stack[-1] += elapsed
            if count is not None:
                count(counters, result, *args, **kwargs)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))

    def report(self) -> dict:
        return {
            "spans": {name: {"calls": c, "total_s": t, "self_s": s}
                      for name, (c, t, s) in self.spans.items()},
            "counters": dict(self.counters),
        }


COUNTERS = (
    "groups.elements", "bicombing.chain_nnz", "bicombing.triples", "kernel.n",
    "kernel.matrix_bytes", "kernel.displacement_translates", "kernel.crossval_pairs",
    "kernel.dump_bytes", "espace.opnorm_iters", "espace.properness_rows",
    "actions.orbit_pairs",
)


def _add(counters: dict, key: str, amount: int) -> None:
    counters[key] += int(amount)


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


def _count_ball(counters, result, *args, **kwargs):
    _add(counters, "groups.elements", len(result))


def _count_chain(counters, result, *args, **kwargs):
    _add(counters, "bicombing.chain_nnz", len(result.coeffs))


def _count_area_scan(counters, result, *args, **kwargs):
    _add(counters, "bicombing.triples", result.triples_scanned)


def _count_kernel(counters, result, *args, **kwargs):
    _add(counters, "kernel.n", result.n)
    # computed from the array sizes, not measured
    nbytes = result.values.nbytes
    if result.twice is not None:
        nbytes += result.twice.nbytes
    _add(counters, "kernel.matrix_bytes", nbytes)


def _count_displacement(counters, result, kernel, s_radius, pair_radius):
    # every non-identity s in the s ball gives one translate block
    _add(counters, "kernel.displacement_translates",
         kernel.ball.size_within(s_radius) - 1)


def _count_crossval(counters, result, spec, radius=None, kernel=None, **kwargs):
    if radius is None:
        radius = spec.ball.radius if kernel is None else kernel.radius
    _add(counters, "kernel.crossval_pairs", _pairs(spec.ball.size_within(radius)))


def _count_dump(counters, result, *args, **kwargs):
    _add(counters, "kernel.dump_bytes", len(result))  # the dump is ASCII


def _count_opnorm(counters, result, *args, **kwargs):
    _add(counters, "espace.opnorm_iters", result.iterations)


def _count_properness(counters, result, *args, **kwargs):
    _add(counters, "espace.properness_rows", len(result.rows))


def _count_orbit(counters, result, *args, **kwargs):
    _add(counters, "actions.orbit_pairs", _pairs(result.n))


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of an imported l1comb with ``tracer``'s spans."""
    from l1comb import actions, cli, groups, kernel

    tracer.counters.update(dict.fromkeys(COUNTERS, 0))
    patch = tracer.patch
    # groups: parsing, ball enumeration and the word-problem oracle
    patch(groups, "parse_presentation", "groups.parse")
    patch(cli, "parse_presentation", "groups.parse")
    patch(cli, "ball", "groups.ball", _count_ball)
    patch(groups.GroupPresentation, "normal", "groups.normal")
    patch(groups.CayleyBall, "canonical_index", "groups.canonical_index")
    patch(groups.CayleyBall, "name", "groups.name")
    # bicombing: chains as the kernel and the verify suite request them
    patch(cli, "make_bicombing", "bicombing.make")
    patch(cli, "antisymmetrize", "bicombing.make")
    patch(cli, "combing_chain", "bicombing.chain", _count_chain)
    patch(kernel, "combing_chain", "bicombing.chain", _count_chain)
    patch(cli, "empirical_area_constant", "bicombing.area_scan", _count_area_scan)
    patch(cli, "quasi_geodesic_constants", "bicombing.qg_scan")
    patch(cli, "boundary", "bicombing.boundary")
    patch(cli, "translate_chain", "bicombing.translate")
    # kernel: build, displacement scan, certificates and the CSV dump
    patch(cli, "kernel_from_bicombing", "kernel.build", _count_kernel)
    patch(kernel, "empirical_displacement_constant", "kernel.displacement",
          _count_displacement)
    patch(cli, "cnd_min_eigenvalue", "kernel.cnd")
    patch(cli, "kernel_cross_validate", "kernel.crossval", _count_crossval)
    patch(cli, "kernel_dump", "kernel.dump", _count_dump)
    # espace: operator-norm probe, per-vector checks, properness rows
    patch(cli, "op_norm_lower_bound", "espace.opnorm", _count_opnorm)
    for name in ("norm_e", "per_vector_bound_check", "check_cocycle_identity"):
        patch(cli, name, "espace.check")
    patch(cli, "properness_report", "espace.properness", _count_properness)
    # actions: orbit kernel and growth report
    patch(cli, "parse_action", "actions.parse")
    patch(actions, "parse_action", "actions.parse")
    patch(cli, "orbit_kernel", "actions.orbit_kernel", _count_orbit)
    patch(cli, "orbit_growth_report", "actions.growth")
    # cli: the report writer; the command itself is the root span
    patch(cli, "_write_csv", "cli.write_csv")
