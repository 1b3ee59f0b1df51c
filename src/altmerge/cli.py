"""Command-line front end: run scenarios, persist traces, render figures.

``altmerge run`` executes one episode per (alpha, strategy) combination and
writes three artifacts per run: ``trace.csv`` (per-step states and
controls), ``belief.jsonl`` (per-step belief snapshots and action
evaluations), and ``summary.json`` (outcome class and chosen-cell
sequence). ``altmerge plot`` renders the four SVG views of a finished run
directory. SVG output is plain generated markup, byte-identical for
identical traces.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

from .explore import StrategyKind
from .sim import EpisodeResult, Scenario, load_scenario, run_episode

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_WARNINGS = 2

TRACE_COLUMNS = ["step", "vehicle", "x", "y", "v", "theta", "accel", "steer", "cell_i", "cell_j"]


def _apply_overrides(
    scenario: Scenario, args: argparse.Namespace, alpha, strategy_name
) -> Scenario:
    """The scenario with the run's flags applied; ``Scenario`` checks the result."""
    strategy = scenario.strategy
    if strategy_name is not None:
        strategy = dataclasses.replace(strategy, kind=StrategyKind(strategy_name))
    if args.lam is not None:
        strategy = dataclasses.replace(strategy, lam=args.lam)
    if args.conflict_aware is not None:
        strategy = dataclasses.replace(strategy, conflict_aware=args.conflict_aware)
    replacements: dict = {"strategy": strategy}
    if alpha is not None:
        replacements["true_alpha"] = alpha
    if args.steps is not None:
        replacements["episode_steps"] = args.steps
    return dataclasses.replace(scenario, **replacements)


def _write_trace(path: Path, result: EpisodeResult) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRACE_COLUMNS)
        for record in result.records:
            leader, follower = record.leader_state, record.follower_state
            writer.writerow([
                record.step, "leader", leader.x, leader.y, leader.v, leader.theta,
                record.leader_control.accel, record.leader_control.steer,
                record.chosen_cell[0], record.chosen_cell[1],
            ])
            writer.writerow([
                record.step, "follower", follower.x, follower.y, follower.v, follower.theta,
                record.follower_control.accel, record.follower_control.steer,
                record.chosen_cell[0], record.follower_action,
            ])


def _write_belief_log(path: Path, result: EpisodeResult) -> None:
    with path.open("w") as handle:
        for record in result.records:
            handle.write(json.dumps({
                "step": record.step,
                "breakpoints": list(record.belief_breakpoints),
                "masses": list(record.belief_masses),
                "chosen_cell": list(record.chosen_cell),
                "evaluations": [
                    {"action": e.action_index, "expected_reward": e.expected_reward,
                     "bonus": e.bonus, "total": e.total,
                     "outcome_probabilities": list(e.outcome_probabilities)}
                    for e in record.evaluations
                ],
                "likelihoods": list(record.likelihoods),
                "warning": record.warning,
            }) + "\n")


def _write_summary(path: Path, scenario: Scenario, result: EpisodeResult) -> None:
    summary = result.summary
    path.write_text(json.dumps({
        "scenario": scenario.name,
        "outcome": summary.outcome,
        "final_relative_position": summary.final_relative_position,
        "final_belief_support": list(summary.final_belief_support),
        "chosen_cells": [list(c) for c in summary.chosen_cells],
        "warnings": summary.warnings,
        "steps": summary.steps,
        "true_alpha": summary.true_alpha,
        "strategy": summary.strategy_kind,
        "conflict_aware": summary.conflict_aware,
        "lanes": {
            "x_left": scenario.feature_params.x_left,
            "x_right": scenario.feature_params.x_right,
        },
        "leader_actions": list(scenario.game.leader_actions),
        "follower_actions": list(scenario.game.follower_actions),
    }, indent=2) + "\n")


def run(args: argparse.Namespace) -> int:
    """Execute the runs the ``run`` flags ask for; 0 on success, 1 on bad input, 2 on warnings.

    A bad scenario or override, two sweep runs that share a directory, an
    episode that leaves the float range, and an output directory that cannot
    be created or written each end the runs with one ``error:`` line; the
    first two are found before any episode runs.
    """
    combos = [(a, s) for a in args.alpha or (None,) for s in args.strategy or (None,)]
    warned = False
    try:
        scenario = load_scenario(args.scenario)
        runs: dict[Path, Scenario] = {}
        for alpha, strategy_name in combos:
            try:
                run_scenario = _apply_overrides(scenario, args, alpha, strategy_name)
            except (ValueError, ArithmeticError) as error:
                raise ValueError(f"{args.scenario}: {error}") from None
            label = f"alpha{run_scenario.true_alpha:g}_{run_scenario.strategy.kind.value}"
            run_dir = args.out / label if len(combos) > 1 else args.out
            if run_dir in runs:
                raise ValueError(f"two sweep runs would write to the same directory {run_dir}")
            runs[run_dir] = run_scenario
        for run_dir, run_scenario in runs.items():
            try:
                run_dir.mkdir(parents=True, exist_ok=True)
                result = run_episode(run_scenario)
            except (ValueError, ArithmeticError) as error:
                # finite but extreme values that overflow an episode
                raise ValueError(f"{args.scenario}: {error}") from None
            _write_trace(run_dir / "trace.csv", result)
            _write_belief_log(run_dir / "belief.jsonl", result)
            _write_summary(run_dir / "summary.json", run_scenario, result)
            if result.summary.warnings:
                warned = True
                print(
                    f"warning: {result.summary.warnings} inference contradiction(s) in {run_dir}",
                    file=sys.stderr,
                )
            if args.plots:
                status = plot(run_dir)
                if status != EXIT_OK:
                    return status
            print(f"{run_dir}: outcome={result.summary.outcome} "
                  f"steps={result.summary.steps} warnings={result.summary.warnings}")
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_WARNINGS if warned else EXIT_OK


# ---------------------------------------------------------------------------
# SVG rendering

_WIDTH, _HEIGHT = 640, 420
_MARGIN = 56
_COLORS = ("#6b4fbb", "#e07b39", "#2e8b57", "#b03060", "#3a6ea5", "#777777")


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def _ratio(value: float, lo: float, hi: float) -> float:
    """(value - lo) / (hi - lo) from halves: the same for normal floats, finite for any span."""
    return (value / 2 - lo / 2) / (hi / 2 - lo / 2)


def _clamp(value: float) -> float:
    """``value`` in the float range: a sum past it draws at the range's edge."""
    return min(max(value, -sys.float_info.max), sys.float_info.max)


def _span(values) -> tuple[float, float]:
    """(min, max) of finite ``values``, a flat one widened to a finite, nonempty span.

    A span under 1e-9 grows to 1.0 above its low end. Where adding 1.0 changes
    nothing (beyond 2**53), one end steps one float toward zero instead: the
    low end of a positive value, the high end of a negative one.
    """
    lo, hi = min(values), max(values)
    if hi - lo >= 1e-9:
        return lo, hi
    if lo + 1.0 != lo:
        return lo, lo + 1.0
    return (math.nextafter(lo, 0.0), hi) if lo > 0 else (lo, math.nextafter(hi, 0.0))


class _Frame:
    """Affine map from data coordinates into the SVG viewport; every value must be finite."""

    def __init__(self, xs, ys):
        if not all(map(math.isfinite, [*xs, *ys])):
            raise ValueError("a plotted value is not finite")
        self.x_lo, self.x_hi = _span(xs)
        self.y_lo, self.y_hi = _span(ys)

    def x(self, value: float) -> float:
        span = _WIDTH - 2 * _MARGIN
        return _MARGIN + _ratio(value, self.x_lo, self.x_hi) * span

    def y(self, value: float) -> float:
        span = _HEIGHT - 2 * _MARGIN
        return _HEIGHT - _MARGIN - _ratio(value, self.y_lo, self.y_hi) * span


def _svg_document(body: list[str], title: str) -> str:
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def _polyline(points: list[tuple[float, float]], color: str, width: float, dash="") -> str:
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{dash_attr}/>')


def _label(x: float, y: float, text: str, color="#333333", size=11) -> str:
    return (f'<text x="{_fmt(x)}" y="{_fmt(y)}" fill="{color}" font-family="sans-serif" '
            f'font-size="{size}" text-anchor="start">{text}</text>')


@contextlib.contextmanager
def _reading(path: Path):
    """Report a missing, empty or malformed run file as one ValueError naming it."""
    try:
        yield
    except FileNotFoundError:
        raise ValueError(f"{path} not found; run the scenario first") from None
    except (KeyError, IndexError, TypeError, ValueError, ArithmeticError, RecursionError,
            csv.Error) as error:
        raise ValueError(f"{path} is empty or malformed: {error!r}") from None


def _read_float(text: str) -> float:
    """A number read from a run file; NaN or an infinity makes the file malformed."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def _json(text: str):
    """A run file's JSON, with every non-integer number checked by ``_read_float``."""
    return json.loads(text, parse_float=_read_float, parse_constant=_read_float)


def _plot_trajectories(rows: list[dict], x_left: float, x_right: float) -> str:
    # from halves, as in _ratio: the same for normal floats, and finite for any lanes
    half_lane = x_right / 2 - x_left / 2
    edges = [_clamp(x_left - half_lane), x_left / 2 + x_right / 2, _clamp(x_right + half_lane)]
    per_vehicle: dict[str, list[tuple[float, float]]] = {"leader": [], "follower": []}
    for row in rows:
        per_vehicle[row["vehicle"]].append((row["x"], row["y"]))
    xs = [p[0] for pts in per_vehicle.values() for p in pts] + edges
    ys = [p[1] for pts in per_vehicle.values() for p in pts]
    frame = _Frame(xs, ys)
    body = []
    for edge in edges:
        body.append(_polyline(
            [(frame.x(edge), frame.y(frame.y_lo)), (frame.x(edge), frame.y(frame.y_hi))],
            "#bbbbbb", width=1.0, dash="6,4",
        ))
    for (name, pts), color in zip(per_vehicle.items(), _COLORS):
        body.append(_polyline([(frame.x(x), frame.y(y)) for x, y in pts], color, 2.0))
        body.append(_label(frame.x(pts[-1][0]) + 4, frame.y(pts[-1][1]), name, color))
    body.append(_label(_MARGIN, _HEIGHT - 18, "lateral position (m)"))
    body.append(_label(12, _MARGIN, "longitudinal (m)"))
    return _svg_document(body, "vehicle trajectories")


def _plot_relative_position(rows: list[dict]) -> str:
    leader = {r["step"]: r["y"] for r in rows if r["vehicle"] == "leader"}
    follower = {r["step"]: r["y"] for r in rows if r["vehicle"] == "follower"}
    steps = sorted(leader)
    gaps = [leader[s] - follower[s] for s in steps]
    frame = _Frame(steps, gaps + [0.0])
    body = [
        _polyline([(frame.x(frame.x_lo), frame.y(0.0)), (frame.x(frame.x_hi), frame.y(0.0))],
                  "#bbbbbb", 1.0, dash="4,4"),
        _polyline([(frame.x(s), frame.y(g)) for s, g in zip(steps, gaps)], _COLORS[0], 2.0),
        _label(_MARGIN, _HEIGHT - 18, "step"),
        _label(12, _MARGIN, "leader lead (m)"),
    ]
    return _svg_document(body, "relative longitudinal position")


def _plot_belief(records: list[dict]) -> str:
    steps = [r["step"] for r in records]
    frame = _Frame(steps, [0.0, 1.0])
    body = []
    cells = list(zip(records[-1]["breakpoints"], records[-1]["breakpoints"][1:]))
    for k, (lo, hi) in enumerate(cells):
        color = _COLORS[k % len(_COLORS)]
        points = [(frame.x(r["step"]), frame.y(r["masses"][k])) for r in records]
        body.append(_polyline(points, color, 2.0))
        body.append(_label(_WIDTH - _MARGIN + 4, _MARGIN + 14 * k,
                           f"[{lo:.3g},{hi:.3g}]", color, size=10))
    body.append(_label(_MARGIN, _HEIGHT - 18, "step"))
    body.append(_label(12, _MARGIN, "cell mass"))
    return _svg_document(body, "belief evolution over coefficient cells")


def _plot_bonuses(records: list[dict], actions: list[str]) -> str:
    n_actions = len(records[0]["evaluations"])
    totals = [abs(e["expected_reward"]) + e["bonus"]
              for r in records for e in r["evaluations"]]
    peak = max(_clamp(max(totals)), 1e-9)
    frame = _Frame([0, len(records) * n_actions], [-peak, peak])
    slot = (_WIDTH - 2 * _MARGIN) / max(1, len(records))
    bar = slot / (n_actions + 1)
    body = [_polyline(
        [(frame.x(frame.x_lo), frame.y(0.0)), (_WIDTH - _MARGIN, frame.y(0.0))],
        "#bbbbbb", 1.0, dash="4,4",
    )]
    for r_index, record in enumerate(records):
        for a_index, evaluation in enumerate(record["evaluations"]):
            x0 = _MARGIN + r_index * slot + a_index * bar
            color = _COLORS[a_index % len(_COLORS)]
            reward = evaluation["expected_reward"]
            bonus = evaluation["bonus"]
            y_zero = frame.y(0.0)
            y_reward = frame.y(reward)
            top = min(y_zero, y_reward)
            height = abs(y_zero - y_reward)
            body.append(
                f'<rect x="{_fmt(x0)}" y="{_fmt(top)}" width="{_fmt(bar * 0.9)}" '
                f'height="{_fmt(height)}" fill="{color}" fill-opacity="0.55"/>'
            )
            bonus_base = frame.y(_clamp(max(reward, 0.0) + bonus))
            bonus_height = abs(frame.y(max(reward, 0.0)) - bonus_base)
            body.append(
                f'<rect x="{_fmt(x0)}" y="{_fmt(bonus_base)}" width="{_fmt(bar * 0.9)}" '
                f'height="{_fmt(bonus_height)}" fill="{color}"/>'
            )
    for a_index, name in enumerate(actions[:n_actions]):
        body.append(_label(_MARGIN + 90 * a_index, _HEIGHT - 18, name,
                           _COLORS[a_index % len(_COLORS)]))
    body.append(_label(12, _MARGIN, "value"))
    return _svg_document(body, "per-step action values (solid: bonus, faded: expected reward)")


def plot(run_dir: str | Path) -> int:
    """Render the four SVG views of a run directory: 0, or 1 after one ``error:`` line.

    A bad run file writes no figure; a figure that cannot be written leaves those before it."""
    run_dir = Path(run_dir)
    trace, log, summary = (run_dir / name for name in ("trace.csv", "belief.jsonl", "summary.json"))
    try:
        with _reading(summary):
            facts = _json(summary.read_text())
            lanes = float(facts["lanes"]["x_left"]), float(facts["lanes"]["x_right"])
            actions = [str(name) for name in facts["leader_actions"]]
        with _reading(trace), trace.open() as handle:
            rows = [{"step": int(row["step"]), "vehicle": row["vehicle"],
                     **{column: _read_float(row[column]) for column in TRACE_COLUMNS[2:]}}
                    for row in csv.DictReader(handle)]
            figures = {"trajectory.svg": _plot_trajectories(rows, *lanes),
                       "relative_position.svg": _plot_relative_position(rows)}
        with _reading(log):
            records = [_json(line) for line in log.read_text().splitlines() if line.strip()]
            figures["belief.svg"] = _plot_belief(records)
            figures["bonuses.svg"] = _plot_bonuses(records, actions)
        for name, svg in figures.items():
            (run_dir / name).write_text(svg)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


def _parse_list(raw: str, read, what: str) -> tuple:
    """Each nonblank comma-separated part of ``raw``, read; none, or a ValueError, is an error."""
    try:
        values = tuple(read(part) for part in raw.split(",") if part.strip())
    except ValueError:
        values = ()
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {raw!r}")
    return values


def _parse_float_list(raw: str) -> tuple[float, ...]:
    return _parse_list(raw, float, "numbers")


def _parse_strategy_list(raw: str) -> tuple[str, ...]:
    names = _parse_list(raw, str.strip, "strategies")
    valid = {kind.value for kind in StrategyKind}
    for name in names:
        if name not in valid:
            raise argparse.ArgumentTypeError(
                f"unknown strategy {name!r}; choose from {sorted(valid)}"
            )
    return names


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as one ``error:`` line and exit status 1."""

    def error(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="altmerge",
        description="Active altruism learning in a two-vehicle lane merge.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run one scenario or a sweep")
    runp.add_argument("--scenario", required=True, type=Path, help="scenario JSON path")
    runp.add_argument("--strategy", type=_parse_strategy_list, default=(),
                      help="strategy override: passive|info-gain|reward-gain, comma list sweeps")
    runp.add_argument("--lambda", dest="lam", type=float, default=None,
                      help="exploration bonus scale override")
    runp.add_argument("--alpha", type=_parse_float_list, default=(),
                      help="true-coefficient override; comma list sweeps")
    runp.add_argument("--steps", type=int, default=None, help="episode length override")
    runp.add_argument("--out", required=True, type=Path, help="output directory")
    runp.add_argument("--plots", action="store_true", help="emit SVG figures per run")
    runp.add_argument("--conflict-aware", action="store_true", default=None,
                      help="hedge expected rewards against leader-role confusion")

    plotp = sub.add_parser("plot", help="render figures for a finished run directory")
    plotp.add_argument("run_dir", type=Path)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "plot":
        return plot(args.run_dir)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
