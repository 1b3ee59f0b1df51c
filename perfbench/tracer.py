"""Call tracing for the traced benchmark run, installed from outside the package.

The package binds names with ``from .dynamics import step``, so a function
is reached through several module attributes. ``Tracer.install`` replaces
every binding of each function in ``WRAPS`` with a wrapper, and
``Tracer.remove`` puts the originals back. Nothing in ``src/`` changes.

Three wrapper kinds, cheapest last:

- ``SPAN``: timed, and every call is kept as a span (name, start, end,
  parent span, request id) for the span file written when the run ends.
- ``TIMED``: timed into the per-name totals only. Used for the hot leaves
  (``dynamics.step`` and ``dynamics.cost``, millions of calls per episode
  cycle), whose individual spans would not fit in memory.
- ``COUNTED``: call count only.

Self time is the span minus the time its timed children cover, kept on a
stack as calls return, so it needs no stored spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

SPAN, TIMED, COUNTED = "span", "timed", "counted"

#: Spans kept in memory at most; later spans only feed the totals.
MAX_SPANS = 200_000

#: (defining module, function, kind, metric name, metric name per binding module).
#: A binding module missing from the last field uses the metric name.
WRAPS = (
    ("cli", "main", SPAN, "cli.main", {}),
    ("sim", "run_episode", SPAN, "sim.run_episode", {}),
    ("sim", "observation_likelihoods", SPAN, "sim.observation_likelihoods", {}),
    ("planner", "bilevel_plan", SPAN, "planner.bilevel_plan", {}),
    ("planner", "follower_plan", SPAN, "planner.follower_plan", {"sim": "sim.follower_plan"}),
    ("explore", "select_action", SPAN, "explore.select_action", {}),
    ("belief", "bayes_update", SPAN, "belief.bayes_update.write",
     {"explore": "belief.bayes_update.hypothetical"}),
    ("dynamics", "step", TIMED, "dynamics.step", {}),
    ("dynamics", "cost", TIMED, "dynamics.cost", {}),
    ("dynamics", "features", COUNTED, "dynamics.features", {}),
    ("explore", "info_gain_bonus", COUNTED, "explore.info_gain_bonus", {}),
    ("explore", "expected_reward_gain_bonus", COUNTED, "explore.expected_reward_gain_bonus", {}),
    ("explore", "conflict_region", COUNTED, "explore.conflict_region", {}),
    ("explore", "conflict_mass", COUNTED, "explore.conflict_mass", {}),
    ("belief", "partition_domain", COUNTED, "belief.partition_domain", {}),
    ("belief", "response_per_cell", COUNTED, "belief.response_per_cell", {}),
    ("belief", "entropy", COUNTED, "belief.entropy", {}),
    ("game", "follower_best_response", COUNTED, "game.follower_best_response", {}),
    ("game", "stackelberg_equilibrium", COUNTED, "game.stackelberg_equilibrium", {}),
    ("game", "intersection_points", COUNTED, "game.intersection_points", {}),
)

_PLAN = "planner.bilevel_plan"
_CANDIDATE = "planner.follower_plan"


def metric_names(kind: str) -> list[str]:
    """Names of the wrapped functions of one kind, every binding split included."""
    names = []
    for _, _, wrap_kind, name, per_binding in WRAPS:
        if wrap_kind == kind:
            names += [name, *per_binding.values()]
    return names


def package_modules() -> list:
    """Every loaded module of the package, the package itself first."""
    return [sys.modules[name] for name in sorted(sys.modules)
            if name == "altmerge" or name.startswith("altmerge.")]


class Tracer:
    """Per-name totals, kept spans, and the planner's candidate bookkeeping.

    ``stats[name]`` is ``[calls, total_ns, self_ns]``; ``counts[name]`` the
    calls of a ``COUNTED`` function. ``edges[(parent, name)]`` counts timed
    calls by their nearest timed caller, which splits ``dynamics.cost`` into
    leader and follower objective evaluations.
    """

    def __init__(self) -> None:
        self.stats: dict[str, list[int]] = {}
        self.counts: Counter = Counter()
        self.edges: Counter = Counter()
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.request: str | None = None
        self.leader_candidates = 0
        self.leader_distinct = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every function in WRAPS."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = package_modules()
        by_module = {module.__name__: module for module in modules}
        for owner, function, kind, name, per_binding in WRAPS:
            original = getattr(by_module[f"altmerge.{owner}"], function)
            wrappers: dict[str, object] = {}
            for module in modules:
                binding = module.__name__.rpartition(".")[2]
                for attr, value in list(vars(module).items()):
                    if value is not original:
                        continue
                    metric = per_binding.get(binding, name)
                    if metric not in wrappers:
                        wrappers[metric] = self._wrap(original, kind, metric)
                    setattr(module, attr, wrappers[metric])
                    self._patches.append((module, attr, original))

    def remove(self) -> None:
        """Put every original function back."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, kind: str, name: str):
        if kind == COUNTED:
            counts = self.counts

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        stats = self.stats.setdefault(name, [0, 0, 0])
        stack, clock = self._stack, time.perf_counter_ns
        keep = kind == SPAN
        is_plan = name == _PLAN
        is_candidate = name == _CANDIDATE

        def timed(*args, **kwargs):
            parent = stack[-1] if stack else None
            if is_candidate and parent is not None and parent[0] == _PLAN:
                parent[4].append(args[2] if len(args) > 2 else kwargs["leader_controls"])
            frame = [name, 0, 0, self._new_id() if keep else None, [] if is_plan else None]
            stack.append(frame)
            frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, parent, clock(), stats, keep)

        return timed

    def _close(self, frame: list, parent: list | None, end: int, stats: list, keep: bool) -> None:
        self._stack.pop()
        elapsed = end - frame[1]
        stats[0] += 1
        stats[1] += elapsed
        stats[2] += elapsed - frame[2]
        if parent is not None:
            parent[2] += elapsed
        self.edges[(parent[0] if parent else None, frame[0])] += 1
        if frame[4] is not None:
            self.leader_candidates += len(frame[4])
            self.leader_distinct += len(set(frame[4]))
        if not keep:
            return
        if len(self.spans) >= MAX_SPANS:
            self.spans_dropped += 1
            return
        parent_id = parent[3] if parent is not None else None
        self.spans.append((frame[3], parent_id, frame[0], frame[1], end, self.request))

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @contextmanager
    def request_span(self, name: str, request: str):
        """Top-level span of one episode, decision or stream step."""
        stats = self.stats.setdefault(name, [0, 0, 0])
        self.request = request
        frame = [name, 0, 0, self._new_id(), None]
        self._stack.append(frame)
        frame[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(frame, None, time.perf_counter_ns(), stats, True)
            self.request = None

    # -- results ------------------------------------------------------------

    def calls(self, name: str) -> int:
        if name in self.counts:
            return self.counts[name]
        return self.stats.get(name, [0, 0, 0])[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0, 0])[1] / 1e9

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0, 0])[2] / 1e9

    def write_spans(self, path) -> None:
        """Write the kept spans as JSON lines, one header line first."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            handle.write(json.dumps({"spans": len(self.spans), "dropped": self.spans_dropped,
                                     "fields": ["id", "parent", "name", "start_ns",
                                                "end_ns", "request"]}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
