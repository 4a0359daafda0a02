"""Per-layer spans for the traced benchmark run.

The wrappers live here, not in ``ebwave``: each one is installed on the name
its caller looks up at call time (a module global or a class attribute) and
the original is put back in ``finally``. The untraced run never installs
them. Spans are aggregated in memory: inclusive time, self time (inclusive
minus the time covered by child spans), call count and an optional work
count per span name; ``splitting.strang_step`` also keeps every duration for
its percentiles.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import ebwave.dispersive as dispersive
import ebwave.hyperbolic as hyperbolic
import ebwave.scenarios as scenarios
import ebwave.splitting as splitting

CONVERSION_INVERSE = "splitting.conversion_inverse"


def _cells(state, *_args, **_kwargs) -> int:
    return state.zeta.size


def _rows(result, *_args, **_kwargs) -> int:
    return sum(len(s.x) for s in result.snapshots)


# (owner, attribute, span name, work counter). The layer of a span is the
# part of its name before the first dot.
PATCHES = (
    (hyperbolic, "hyperbolic_rhs", "hyperbolic.hyperbolic_rhs", _cells),
    (splitting, "rk4_fv_step", "hyperbolic.rk4_fv_step", None),
    (splitting, "rk4_fd_step", "dispersive.rk4_fd_step", None),
    (dispersive, "zeta_source_term", "dispersive.zeta_source_term", None),
    (dispersive, "velocity_rate", "dispersive.velocity_rate", None),
    (dispersive.CirculantSolver, "solve", "dispersive.solve", None),
    (splitting.ConversionOperator, "forward", "splitting.conversion_forward", None),
    (splitting.ConversionOperator, "inverse", CONVERSION_INVERSE, None),
    (scenarios, "choose_dt", "splitting.choose_dt", None),
    (splitting.StrangSolver, "strang_step", "splitting.strang_step", None),
    (splitting.StrangSolver, "__init__", "splitting.StrangSolver", None),
    (scenarios, "initial_state", "scenarios.initial_state", None),
    (scenarios, "corrected_solution", "analytic.corrected_solution", None),
    (scenarios, "heap_profile", "analytic.heap_profile", None),
    (scenarios, "dam_break_profile", "analytic.dam_break_profile", None),
    (scenarios, "write_snapshots_csv", "scenarios.write_snapshots_csv", _rows),
    (scenarios, "run_scenario", "scenarios.run_scenario", None),
)

KEEP_DURATIONS = {"splitting.strang_step"}


def originals() -> dict[tuple[int, str], object]:
    """The objects currently bound at every patch site."""
    return {(id(owner), attr): vars(owner)[attr] for owner, attr, _, _ in PATCHES}


class Tracer:
    """In-memory span aggregates keyed by span name."""

    def __init__(self):
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.work = defaultdict(int)
        self.durations = defaultdict(list)
        self._stack: list[list] = []    # [span name, ns covered by children]

    def wrap(self, name: str, fn, work=None):
        stack = self._stack
        keep = name in KEEP_DURATIONS
        # the conversion inverse is a circulant solve; count it once, as
        # conversion, not again as a dispersive solve
        skip_under = CONVERSION_INVERSE if name == "dispersive.solve" else None

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == skip_under:
                return fn(*args, **kwargs)
            frame = [name, 0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.total_ns[name] += elapsed
                self.self_ns[name] += elapsed - frame[1]
                self.calls[name] += 1
                if work is not None:
                    self.work[name] += work(*args, **kwargs)
                if keep:
                    self.durations[name].append(elapsed)

        traced.__wrapped__ = fn
        return traced


@contextmanager
def installed(tracer: Tracer):
    """Install the span wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, work in PATCHES:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, work))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
