"""The three benchmark workloads: seeded inputs, a measured loop, output checks.

Each workload is a closed loop driven by one caller in one process: the
next operation starts when the previous one returns. A workload object is
built from the imported package and the seed (that is its set-up), then
``run`` measures operations until their summed time reaches the requested
seconds, and ``check`` compares what the package returned against the
committed reference (seed ``REFERENCE_SEED``) or, on any other seed,
against invariants and the brute-force oracles in ``tests/oracles.py``.

- ``closed_loop``: the ten shipped episodes through ``altmerge.cli.main``,
  in whole cycles, in an order drawn from the seed. One operation is one
  simulated step; its latency is the episode's wall time over its steps.
- ``decide_fresh``: independent ``select_action`` calls, each on a game and
  belief never seen before. One operation is one decision.
- ``belief_stream``: twelve planner-free streams (shipped game x strategy
  x conflict flag) of decide -> likelihood -> Bayes update, stepped round
  robin. One operation is one stream step.

Every call into the package goes through a module attribute at call time,
so the tracer's wrappers see it when they are installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import importlib.util
import io
import itertools
import json
import math
import random
import signal
import statistics
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE_DIR = BENCH_DIR / "reference"

#: The seed whose outputs are committed under reference/.
REFERENCE_SEED = 0

#: Absolute tolerance on an action total against the reference.
TOTAL_TOL = 1e-9

#: Tolerance of mass conservation and of the bonus sign (criteria 8b, 8d).
MASS_TOL = 1e-9

#: Tolerance against the grid oracles, as in criterion 8c.
ORACLE_TOL = 1e-2

#: Measured operation time between two runs of the reference kernel.
REFERENCE_EVERY_S = 0.02

#: Fewest kernel times an operation's time is divided by: those run during
#: it, or else the last this many, about a second of measured time.
REFERENCE_WINDOW = 50

SCENARIOS = ("lane_merge", "lane_merge_responsibility")
STRATEGIES = ("passive", "info-gain", "reward-gain")


def import_package(root: Path):
    """Import ``altmerge`` afresh from ``root/src`` and return the package.

    Dropping the cached modules first makes every call pay the full import,
    so set-up can be timed more than once per process.
    """
    src = str(root / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "altmerge" or n.startswith("altmerge.")]:
        del sys.modules[name]
    pkg = importlib.import_module("altmerge")
    importlib.import_module("altmerge.cli")
    if Path(pkg.__file__).resolve().parent != (root / "src" / "altmerge").resolve():
        raise ImportError(f"altmerge imported from {pkg.__file__}, not from {src}")
    return pkg


def load_oracles(root: Path):
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    if spec is None or not path.is_file():
        raise ImportError(f"{path} not found")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_reference(workload: str):
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def reference_kernel() -> Fraction:
    """Fixed pure-Python work of the package's kind, which the package never runs.

    Exact-rational arithmetic and small tuples and floats, about 0.4 ms. The shared host runs all Python code faster or slower
    together, by up to a third over tens of seconds, so the kernel's time
    next to the measured operations tells how fast the host ran them.
    """
    total = Fraction(0)
    points = []
    for i in range(1, 48):
        total += Fraction(i, i + 3) * Fraction(3, i + 1)
        points.append((i, float(total), -i * 0.5))
    return total + Fraction(len({point[1] for point in points}))


@dataclass
class Run:
    """What one measured loop did.

    ``latencies`` holds one sample per operation in groups of like
    operations: one group per stream for belief_stream, per decision class
    for decide_fresh, and per episode run for closed_loop, whose one sample
    is the episode's time over its steps. ``busy_s`` is the measured
    time the throughput divides by. On a paced run, ``reference`` holds the
    times of the reference kernel, run inside the operations once per
    ``REFERENCE_EVERY_S`` of measured time and left out of it, and
    ``busy_ref`` and the latencies are in units of the kernel's time
    around each operation (see ``timing``). ``record`` is the JSON form of
    the outputs the reference pins.
    """

    items: int = 0
    ops: int = 0
    busy_s: float = 0.0
    latencies: dict = field(default_factory=dict)
    reference: array = field(default_factory=lambda: array("d"))
    paced: bool = True
    busy_ref: float = 0.0
    elapsed: float = 0.0
    elapsed_ref: float = math.nan
    _kernel_s: float = 0.0
    _next_kernel_s: float = REFERENCE_EVERY_S
    failed: set = field(default_factory=set)
    notes: list = field(default_factory=list)
    record: object = None
    true_cell_mass: float = 0.0
    resets: int = 0
    bytes_written: int = 0

    @contextlib.contextmanager
    def timing(self):
        """Time one operation into ``elapsed`` and ``busy_s``, unless it raises.

        On a paced run an interval timer stops the operation after every
        ``REFERENCE_EVERY_S`` of measured time, carried over from one
        operation to the next, to run the reference kernel. The kernel's
        time is taken out of the operation's, and ``elapsed_ref`` is the
        operation's time over the mean kernel time around it: of the
        kernels run during it, or of the last ``REFERENCE_WINDOW`` when
        fewer ran. The first operation is preceded by that many kernels.
        """
        if self.paced and not self.reference:
            for _ in range(REFERENCE_WINDOW):
                self._run_kernel()
        kernels_before, kernel_before = len(self.reference), self._kernel_s
        if self.paced:
            # A plain function: signal.signal formats a handler it returns or
            # replaces, and a bound method would format the whole run.
            previous = signal.signal(signal.SIGALRM, lambda signum, frame: self._run_kernel())
        started = time.perf_counter()
        if self.paced:
            signal.setitimer(signal.ITIMER_REAL, self._next_kernel_s, REFERENCE_EVERY_S)
        try:
            yield
        finally:
            if self.paced:
                self._next_kernel_s = (signal.setitimer(signal.ITIMER_REAL, 0)[0]
                                       or REFERENCE_EVERY_S)
            ended = time.perf_counter()
            if self.paced:
                signal.signal(signal.SIGALRM, previous)
        self.elapsed = ended - started - (self._kernel_s - kernel_before)
        self.busy_s += self.elapsed
        if self.paced:
            around = self.reference[-max(len(self.reference) - kernels_before, REFERENCE_WINDOW):]
            self.elapsed_ref = self.elapsed / statistics.fmean(around)
            self.busy_ref += self.elapsed_ref

    def _run_kernel(self) -> None:
        started = time.perf_counter()
        reference_kernel()
        seconds = time.perf_counter() - started
        self.reference.append(seconds)
        self._kernel_s += seconds

    def sample(self, group: str, seconds: float) -> None:
        self.latencies.setdefault(group, array("d")).append(seconds)

    def fail(self, item, reason: str) -> None:
        self.failed.add(item)
        self.notes.append(f"FAIL {item}: {reason}")


def _request(tracer, name: str, request: str):
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.request_span(name, request)


def _mass_of_cell(breakpoints, masses, alpha: float) -> float:
    for (lo, hi), mass in zip(zip(breakpoints, breakpoints[1:]), masses):
        if float(lo) <= alpha < float(hi):
            return mass
    return masses[-1]


def _conserved(masses) -> bool:
    """Belief mass is nonnegative and sums to 1 (criterion 8d)."""
    return min(masses) >= 0 and abs(sum(masses) - 1.0) <= MASS_TOL


def _evaluation_problems(evaluations, best) -> list[str]:
    """Criteria 8b and 8d on one decision: bonus sign, outcome mass, argmax."""
    problems = []
    totals = [e.total for e in evaluations]
    if not all(math.isfinite(t) for t in totals):
        problems.append(f"non-finite total in {totals}")
    for e in evaluations:
        if e.bonus < -MASS_TOL:
            problems.append(f"negative bonus {e.bonus} on action {e.action_index}")
        if not _conserved(e.outcome_probabilities):
            problems.append(f"outcome probabilities {e.outcome_probabilities} do not sum to 1")
    if totals and best != max(range(len(totals)), key=lambda i: (totals[i], -i)):
        problems.append(f"argmax {best} is not the best of {totals}")
    return problems


def _compare_decisions(run: Run, items, got, expected) -> None:
    """Argmax must equal the reference and every total lie within TOTAL_TOL."""
    for item, (best, totals), (ref_best, ref_totals) in zip(items, got, expected):
        if best != ref_best:
            run.fail(item, f"argmax {best}, reference {ref_best}")
        elif len(totals) != len(ref_totals) or any(
            abs(a - b) > TOTAL_TOL for a, b in zip(totals, ref_totals)
        ):
            run.fail(item, f"totals {totals}, reference {ref_totals}")


# ---------------------------------------------------------------------------
# closed_loop


@dataclass(frozen=True)
class Episode:
    scenario: str
    alpha: str
    strategy: str
    conflict_aware: bool

    @property
    def id(self) -> str:
        aware = "/aware" if self.conflict_aware else ""
        return f"{self.scenario}/alpha{self.alpha}/{self.strategy}{aware}"

    def argv(self, root: Path, out: Path) -> list[str]:
        argv = ["run", "--scenario", str(root / "scenarios" / f"{self.scenario}.json"),
                "--alpha", self.alpha, "--strategy", self.strategy,
                "--out", str(out), "--plots"]
        return argv + ["--conflict-aware"] if self.conflict_aware else argv


#: lane_merge at both coefficients under every strategy, and the
#: responsibility scenario's conflict pair (its own reward-gain strategy).
EPISODES = tuple(
    [Episode("lane_merge", a, s, False) for a in ("0.2", "0.9") for s in STRATEGIES]
    + [Episode("lane_merge_responsibility", a, "reward-gain", aware)
       for a in ("0.2", "0.9") for aware in (False, True)]
)


def behaviour_problems(episode: Episode, summary: dict) -> list[str]:
    """Acceptance criteria 6 and 7 for one shipped episode."""
    outcome = summary["outcome"]
    rows = [cell[0] for cell in summary["chosen_cells"]]
    expected = None
    problems = []
    if episode.scenario == "lane_merge":
        ahead = episode.alpha == "0.9" and episode.strategy == "reward-gain"
        expected = "ahead" if ahead else "behind"
        explorer = episode.alpha == "0.2" and episode.strategy == "reward-gain"
        if explorer and not {0, 1, 2} <= set(rows):
            problems.append(f"reward-gain at alpha 0.2 tried only rows {sorted(set(rows))}")
    else:
        first = 2 if episode.conflict_aware else 0
        if rows[0] != first:
            problems.append(f"first chosen row {rows[0]}, expected {first}")
        if episode.conflict_aware:
            expected = "ahead" if episode.alpha == "0.9" else "behind"
    if expected is not None and outcome != expected:
        problems.append(f"outcome {outcome}, expected {expected}")
    return problems


class ClosedLoop:
    """The shipped episodes, run as a user runs them: CLI, artifacts, plots."""

    name = "closed_loop"

    def __init__(self, pkg, seed: int, root: Path, episodes=EPISODES) -> None:
        self.pkg, self.seed, self.root, self.episodes = pkg, seed, root, episodes
        self.steps = {
            name: pkg.sim.load_scenario(root / "scenarios" / f"{name}.json").episode_steps
            for name in SCENARIOS
        }
        self.order = list(episodes)
        random.Random(seed).shuffle(self.order)
        self.out = OUT_DIR / self.name

    def prepared(self, items: int) -> "ClosedLoop":
        return ClosedLoop(self.pkg, self.seed, self.root, self.episodes)

    def run(self, seconds: float, tracer=None, limit: int | None = None) -> Run:
        """Whole cycles of the episodes until ``seconds`` are measured, or ``limit`` episodes."""
        run = Run(record={}, paced=tracer is None)
        masses = []
        for position, episode in enumerate(itertools.cycle(self.order)):
            if limit is not None:
                if position >= limit:
                    break
            elif position and position % len(self.order) == 0 and run.busy_s >= seconds:
                break
            out = self.out / episode.id
            item = f"{episode.id}#{position}"
            run.items += 1
            try:
                with run.timing(), _request(tracer, "request.episode", item), \
                        contextlib.redirect_stdout(io.StringIO()):
                    status = self.pkg.cli.main(episode.argv(self.root, out))
            except Exception:
                run.fail(item, traceback.format_exc())
                continue
            steps = self.steps[episode.scenario]
            run.ops += steps
            run.sample(item, run.elapsed_ref / steps)
            if status not in (0, 2):
                run.fail(item, f"exit status {status}")
                continue
            try:
                digest, mass, resets = self._inspect(run, item, episode, out)
            except (OSError, ValueError, KeyError, IndexError) as error:
                run.fail(item, f"unreadable run directory: {error!r}")
                continue
            if run.record.setdefault(episode.id, digest) != digest:
                run.fail(item, "artifacts differ from the same episode's earlier cycle")
            masses.append(mass)
            run.resets += resets
        run.true_cell_mass = sum(masses) / len(masses) if masses else 0.0
        return run

    def _inspect(self, run: Run, item: str, episode: Episode, out: Path):
        summary = json.loads((out / "summary.json").read_text())
        for problem in behaviour_problems(episode, summary):
            run.fail(item, problem)
        belief_text = (out / "belief.jsonl").read_text()
        records = [json.loads(line) for line in belief_text.splitlines()]
        for record in records:
            if not _conserved(record["masses"]):
                run.fail(item, f"step {record['step']}: masses {record['masses']} do not sum to 1")
                break
        run.bytes_written += sum(p.stat().st_size for p in out.iterdir())
        digest = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("trace.csv", "belief.jsonl")
        }
        last = records[-1]
        mass = _mass_of_cell(last["breakpoints"], last["masses"], float(episode.alpha))
        return digest, mass, summary["warnings"]

    def check(self, run: Run, oracles) -> None:
        """Digest match is reported, not failed: behaviour changes may move it."""
        reference = load_reference(self.name)["digests"]
        for episode_id, digest in sorted(run.record.items()):
            match = reference.get(episode_id) == digest
            run.notes.append(f"digest_match {episode_id}: {str(match).lower()}")


# ---------------------------------------------------------------------------
# decide_fresh

#: Decisions generated during set-up; the rest are generated between
#: measured calls, outside the clock.
DECIDE_POOL = 200

#: Decisions whose outputs are kept and checked.
DECIDE_CHECKED = 1000

#: Decisions after which the pattern of game sources, strategies and
#: conflict flags repeats; runs stop at a whole number of periods.
DECIDE_PERIOD = 240

#: Random games compared against the grid oracles on a seed without reference.
DECIDE_ORACLE_GAMES = 3


def decision_inputs(pkg, seed: int, root: Path):
    """Endless seeded stream of (class, game, belief, strategy), no game repeated.

    Strategies cycle passive / info-gain / reward-gain, and one decision in
    eight is conflict-aware. One in ten uses a shipped reward matrix, the
    two in turn, with a fresh random leader coefficient. The rest use a
    random integer game as in criterion 8b, alternately 2 and 3 rows by 2
    columns. The belief has random positive masses on the game's decision
    partition. The fixed pattern, which repeats every ``DECIDE_PERIOD``
    decisions, keeps the mix of cheap and conflict-aware decisions the same
    on every seed; the games themselves are random. The class names the
    game's source, the strategy and the conflict flag.
    """
    explore, belief = pkg.explore, pkg.belief
    shipped = [pkg.sim.load_scenario(root / "scenarios" / f"{name}.json").game
               for name in SCENARIOS]
    kinds = list(explore.StrategyKind)
    rng = random.Random(seed)
    for index in itertools.count():
        if index % 10 == 7:
            source = SCENARIOS[(index // 40) % 2]
            base = shipped[(index // 40) % 2]
            game = pkg.game.AltruismGame(base.leader_actions, base.follower_actions,
                                         base.rewards, rng.random())
        else:
            m = 2 + (index // 8) % 2
            source = f"random{m}x2"
            rewards = tuple(
                tuple((rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(2))
                for _ in range(m)
            )
            game = pkg.game.AltruismGame(tuple(f"r{i}" for i in range(m)), ("x", "y"), rewards)
        aware = index % 8 == 7
        partition = explore.decision_partition(game, aware)
        weights = [rng.expovariate(1.0) for _ in range(partition.n_cells)]
        total = sum(weights)
        strategy = explore.ExplorationStrategy(kinds[index % 3], conflict_aware=aware)
        yield (f"{source}/{strategy.kind.value}{'/aware' if aware else ''}", game,
               belief.IntervalBelief(partition, tuple(w / total for w in weights)), strategy)


class DecideFresh:
    """Independent decisions: the game, explore and belief layers, no planner."""

    name = "decide_fresh"

    def __init__(self, pkg, seed: int, root: Path, prefetch: int = DECIDE_POOL) -> None:
        self.pkg, self.seed, self.root = pkg, seed, root
        self.inputs = decision_inputs(pkg, seed, root)
        self.pool = list(itertools.islice(self.inputs, prefetch))
        self.checked: list = []

    def prepared(self, items: int) -> "DecideFresh":
        return DecideFresh(self.pkg, self.seed, self.root, prefetch=items)

    def run(self, seconds: float, tracer=None, limit: int | None = None) -> Run:
        """Whole periods of the pattern until ``seconds`` are measured, or ``limit`` decisions."""
        run = Run(record=[], paced=tracer is None)
        self.checked = []
        decisions = enumerate(itertools.chain(self.pool, self.inputs))
        for index, (group, game, belief, strategy) in decisions:
            if limit is not None:
                if index >= limit:
                    break
            elif index % DECIDE_PERIOD == 0 and index and run.busy_s >= seconds:
                break
            run.items += 1
            try:
                with run.timing(), _request(tracer, "request.decision", str(index)):
                    evaluations, best = self.pkg.explore.select_action(game, belief, strategy)
            except Exception:
                run.fail(index, traceback.format_exc())
                continue
            run.ops += 1
            run.sample(group, run.elapsed_ref)
            if index < DECIDE_CHECKED:
                run.record.append([best, [e.total for e in evaluations]])
                self.checked.append((index, evaluations, best))
        return run

    def check(self, run: Run, oracles) -> None:
        for index, evaluations, best in self.checked:
            for problem in _evaluation_problems(evaluations, best):
                run.fail(index, problem)
        items = [index for index, _, _ in self.checked]
        if self.seed == REFERENCE_SEED:
            _compare_decisions(run, items, run.record, load_reference(self.name)["decisions"])
            return
        games = [game for _, game, _, _ in self.pool if game.alpha_leader == 0]
        rng = random.Random(self.seed)
        for number, game in enumerate(games[:DECIDE_ORACLE_GAMES]):
            for problem in game_oracle_problems(self.pkg, oracles, game, rng):
                run.fail(f"oracle game {number}", problem)


def game_oracle_problems(pkg, oracles, game, rng) -> list[str]:
    """Equilibria and both bonuses against the brute-force oracles (8a, 8c)."""
    problems = []
    for _ in range(5):
        alpha = Fraction(rng.randint(0, 100), 100)
        eq = pkg.game.stackelberg_equilibrium(game, alpha)
        got = (eq.leader_index, eq.follower_index)
        want = oracles.oracle_equilibrium(game.rewards, alpha, game.alpha_leader)
        if got != want:
            problems.append(f"equilibrium at {alpha}: {got}, oracle {want}")
    lo = rng.uniform(0, 0.8)
    hi = rng.uniform(lo + 0.05, 1.0)
    belief = pkg.belief.IntervalBelief.uniform_on(lo, hi, pkg.belief.partition_domain(game))
    lo, hi = (float(x) for x in belief.support)
    for i in range(game.n_leader):
        pairs = (
            (pkg.explore.info_gain_bonus(game, belief, i),
             oracles.oracle_info_gain(game.rewards, i, lo, hi)),
            (pkg.explore.expected_reward_gain_bonus(game, belief, i),
             oracles.oracle_reward_gain(game.rewards, i, lo, hi)),
        )
        for got, want in pairs:
            if abs(got - want) > ORACLE_TOL:
                problems.append(f"row {i} bonus {got}, oracle {want} on [{lo}, {hi}]")
    return problems


# ---------------------------------------------------------------------------
# belief_stream

#: Every stream makes at least this many steps; their outputs are checked
#: and the true-cell mass is read at this step, so it does not depend on
#: how many steps a faster program fits into the run.
STREAM_CHECKPOINT = 50

#: Control grid per axis for each cell's nominal follower control.
CONTROL_GRID = 7

#: Observation noise, as a share of each actuator limit.
CONTROL_NOISE = 0.25


@dataclass
class Stream:
    id: str
    game: object
    strategy: object
    alpha: float
    partition: object
    belief: object
    true_response: tuple
    controls: dict
    scenario: object
    leader_next: object
    rng: random.Random
    steps: int = 0
    resets: int = 0
    recorded: list = field(default_factory=list)
    checkpoint_mass: float = 0.0


def nominal_controls(pkg, scenario, leader_next) -> dict:
    """Best one-step follower control per game cell under that cell's weights."""
    dyn = pkg.dynamics
    params = scenario.bicycle_params
    grid = [k / (CONTROL_GRID - 1) * 2 - 1 for k in range(CONTROL_GRID)]
    candidates = [dyn.Control(a * params.accel_max, s * params.steer_max)
                  for a in grid for s in grid]
    phis = [dyn.features(dyn.step(scenario.follower_start, c, params, scenario.dt),
                         leader_next, scenario.feature_params) for c in candidates]
    controls = {}
    for cell, (_, follower_weights) in scenario.weights.items():
        scores = [sum(w * f for w, f in zip(follower_weights, phi)) for phi in phis]
        controls[cell] = candidates[max(range(len(scores)), key=scores.__getitem__)]
    return controls


class BeliefStream:
    """Long decide -> observe -> update streams on the shipped games."""

    name = "belief_stream"

    def __init__(self, pkg, seed: int, root: Path, checkpoint: int = STREAM_CHECKPOINT) -> None:
        self.pkg, self.seed, self.root, self.checkpoint = pkg, seed, root, checkpoint
        rng = random.Random(seed)
        self.streams = []
        for name in SCENARIOS:
            scenario = pkg.sim.load_scenario(root / "scenarios" / f"{name}.json")
            game = scenario.game
            leader_next = pkg.dynamics.step(scenario.leader_start, pkg.dynamics.Control(0.0, 0.0),
                                            scenario.bicycle_params, scenario.dt)
            controls = nominal_controls(pkg, scenario, leader_next)
            for kind in pkg.explore.StrategyKind:
                for aware in (False, True):
                    alpha = rng.random()
                    partition = pkg.explore.decision_partition(game, aware)
                    self.streams.append(Stream(
                        id=f"{name}/{kind.value}{'/aware' if aware else ''}",
                        game=game,
                        strategy=pkg.explore.ExplorationStrategy(
                            kind, scenario.strategy.lam, conflict_aware=aware),
                        alpha=alpha,
                        partition=partition,
                        belief=pkg.belief.IntervalBelief.uniform(partition),
                        true_response=tuple(pkg.game.follower_best_response(game, i, alpha)
                                            for i in range(game.n_leader)),
                        controls=controls,
                        scenario=scenario,
                        leader_next=leader_next,
                        rng=random.Random(rng.random()),
                    ))

    def prepared(self, items: int) -> "BeliefStream":
        return BeliefStream(self.pkg, self.seed, self.root, self.checkpoint)

    def run(self, seconds: float, tracer=None, limit: int | None = None) -> Run:
        """Round-robin steps until ``seconds`` are measured and every stream
        reached the checkpoint, or ``limit`` steps."""
        run = Run(paced=tracer is None)
        streams = self.streams
        for position, stream in enumerate(itertools.cycle(streams)):
            if limit is not None:
                if position >= limit:
                    break
            elif (position % len(streams) == 0 and run.busy_s >= seconds
                  and min(s.steps for s in streams) >= self.checkpoint):
                break
            self._step(run, stream, tracer)
        run.record = {s.id: [[a, t] for a, t, _, _ in s.recorded] for s in streams}
        run.true_cell_mass = sum(s.checkpoint_mass for s in streams) / len(streams)
        run.resets = sum(s.resets for s in streams)
        return run

    def _step(self, run: Run, stream: Stream, tracer) -> None:
        pkg, scenario = self.pkg, stream.scenario
        item = f"{stream.id}#{stream.steps}"
        run.items += 1
        stream.steps += 1
        controls = self._noisy_controls(stream)
        try:
            with run.timing(), _request(tracer, "request.stream_step", item):
                evaluations, action = pkg.explore.select_action(
                    stream.game, stream.belief, stream.strategy)
                likelihoods = pkg.sim.observation_likelihoods(
                    stream.game, action, controls[action], scenario.follower_start,
                    stream.leader_next, scenario.weights, scenario.feature_params,
                    scenario.bicycle_params, scenario.dt, scenario.observation_temperature)
                try:
                    stream.belief = pkg.belief.bayes_update(
                        stream.belief, stream.game, action, likelihoods)
                except pkg.belief.BeliefContradictionError:
                    stream.belief = pkg.belief.IntervalBelief.uniform(stream.partition)
                    stream.resets += 1
        except Exception:
            run.fail(item, traceback.format_exc())
            return
        run.ops += 1
        run.sample(stream.id, run.elapsed_ref)
        if stream.steps <= self.checkpoint:
            stream.recorded.append((action, [e.total for e in evaluations], evaluations,
                                    stream.belief.masses))
        if stream.steps == self.checkpoint:
            stream.checkpoint_mass = _mass_of_cell(
                stream.partition.breakpoints, stream.belief.masses, stream.alpha)

    def _noisy_controls(self, stream: Stream) -> list:
        """The follower's true-response control for each row, plus seeded noise."""
        params = stream.scenario.bicycle_params
        noise = (stream.rng.gauss(0.0, CONTROL_NOISE), stream.rng.gauss(0.0, CONTROL_NOISE))
        controls = []
        for row, column in enumerate(stream.true_response):
            nominal = stream.controls[(row, column)]
            accel = nominal.accel + noise[0] * params.accel_max
            steer = nominal.steer + noise[1] * params.steer_max
            controls.append(self.pkg.dynamics.Control(
                max(-params.accel_max, min(params.accel_max, accel)),
                max(-params.steer_max, min(params.steer_max, steer))))
        return controls

    def check(self, run: Run, oracles) -> None:
        reference = load_reference(self.name)["streams"] if self.seed == REFERENCE_SEED else None
        for stream in self.streams:
            items = [f"{stream.id}#{k}" for k in range(len(stream.recorded))]
            for item, (action, _, evaluations, masses) in zip(items, stream.recorded):
                problems = _evaluation_problems(evaluations, action)
                if not _conserved(masses):
                    problems.append(f"masses {masses} do not sum to 1")
                for problem in problems:
                    run.fail(item, problem)
            if not _conserved(stream.belief.masses):
                run.fail(f"{stream.id}#final", f"masses {stream.belief.masses} do not sum to 1")
            if reference is not None:
                _compare_decisions(run, items, run.record[stream.id], reference[stream.id])
                continue
            rewards, alpha = stream.game.rewards, stream.alpha
            want = oracles.oracle_equilibrium(rewards, alpha, stream.game.alpha_leader)
            eq = self.pkg.game.stackelberg_equilibrium(stream.game, alpha)
            responses = tuple(oracles.oracle_best_response(rewards, i, alpha)
                              for i in range(stream.game.n_leader))
            if (eq.leader_index, eq.follower_index) != want or responses != stream.true_response:
                run.fail(f"{stream.id}#oracle", f"equilibrium or responses at {alpha} "
                                                f"disagree with the oracle")


WORKLOADS = {cls.name: cls for cls in (ClosedLoop, DecideFresh, BeliefStream)}
