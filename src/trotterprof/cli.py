"""Command-line driver.

Subcommands: ``run`` (trotter/ep/mpf error curves), ``profile`` (single-time
sweep plus fit report), ``mpf`` (extrapolation curve plus weights),
``calibrate`` (basis report), ``slope`` (log-log gradients), and ``cost``
(``run``'s engine batches).  Each reads its setup from ``--config FILE`` or
``--preset NAME`` and takes ``--out``; any other flag exists only where it
is read: ``--seed`` on the commands that draw noise (run, profile, mpf,
slope), ``--method`` on run and slope, ``--time`` on profile and
``--window`` on slope.  Everything else, ``cost``'s depth, step counts and
grid included, comes from the document.  Results are written atomically as
CSV.  Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from functools import lru_cache
from typing import Sequence

from ._version import __version__
from .config import (
    ConfigDocument,
    PRESETS,
    base_metadata,
    parse_document,
)
from .errors import (
    CalibrationError,
    ConfigError,
    DegenerateInputError,
    ExtractionError,
    SingularFitError,
    TrotterProfError,
)
from .experiments import (
    METHODS,
    ErrorCurve,
    ExperimentConfig,
    _per_time_jitters,
    constituent_columns,
    plan,
    run_error_curve,
    stable_slope_fit,
)
from .formulas import sample_template
from .mpf import mpf_weights
from .profiling import exact_values, mitigated_estimate, resolve_basis, sweep_grid
from .report import ResultRow, ResultTable, atomic_write_text, write_csv

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2

_NUMERIC_ERRORS = (SingularFitError, CalibrationError, ExtractionError)


class _CliParser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as config errors."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ConfigError(message, "usage")


@lru_cache(maxsize=None)
def _build_parser() -> _CliParser:
    """The command-line parser, built once per process: ``parse_args`` keeps
    no state between calls, and building it takes about a millisecond."""
    parser = _CliParser(prog="trotterprof", description=__doc__)
    parser.add_argument("--version", action="version", version=f"trotterprof {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, *, seed: bool = False, method: bool = False):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="path to a JSON config document")
        p.add_argument("--preset", help=f"built-in setup, one of {', '.join(PRESETS)}")
        p.add_argument(
            "--out", help="output path (overrides the config's, which cost never writes)"
        )
        if seed:
            p.add_argument("--seed", type=int, help="override the noise seed")
        if method:
            p.add_argument(
                "--method", help="comma-separated subset of trotter,ep,mpf (default: all)"
            )
        return p

    command("run", "error curves for every requested method", seed=True, method=True)
    command("profile", "sweep the split parameter at one time", seed=True).add_argument(
        "--time", type=float, help="evaluation time (default: largest configured time)"
    )
    command("mpf", "multi-product curve and weight report", seed=True)
    command("calibrate", "report the calibrated fit basis")
    command("slope", "log-log error gradients per method", seed=True, method=True).add_argument(
        "--window",
        nargs=2,
        type=float,
        metavar=("TMIN", "TMAX"),
        default=(0.1, 0.5),
        help="time window for the gradient fit (default 0.1 0.5)",
    )
    command("cost", "the engine batches and gates that run executes")
    return parser


def _load_document(args: argparse.Namespace) -> ConfigDocument:
    if args.config and args.preset:
        raise ConfigError("give either --config or --preset, not both", "usage")
    if args.config:
        try:
            with open(args.config, "r") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}", "config") from exc
    elif args.preset:
        text = json.dumps({"preset": args.preset})
    else:
        raise ConfigError("one of --config or --preset is required", "usage")
    doc = parse_document(text)
    if getattr(args, "seed", None) is None:
        return doc
    return ConfigDocument(replace(doc.experiment, seed=args.seed), doc.output_path)


def _methods(args: argparse.Namespace) -> tuple[str, ...]:
    if not args.method:
        return METHODS
    picked = tuple(m.strip() for m in args.method.split(",") if m.strip())
    for i, m in enumerate(picked):
        if m not in METHODS:
            raise ConfigError(
                f"unknown method {m!r}; choose from {', '.join(METHODS)}", "method"
            )
        if m in picked[:i]:
            raise ConfigError(f"method {m!r} is given twice in --method", "method")
    if not picked:
        raise ConfigError("empty --method list", "method")
    return picked


def _write_rows(args: argparse.Namespace, doc: ConfigDocument, rows: list[ResultRow]) -> bool:
    """Write ``rows`` as CSV when an output path is set; whether one was."""
    path = args.out or doc.output_path
    if path:
        write_csv(ResultTable.from_rows(rows, base_metadata(doc.experiment)), path)
        print(f"wrote {len(rows)} rows to {path}")
    return bool(path)


def _curve_rows(cfg: ExperimentConfig, curve: ErrorCurve) -> list[ResultRow]:
    """One CSV row per curve point; ``a_or_steps`` is the depth the method ran."""
    if curve.method == "mpf":
        label = max(cfg.mpf_step_counts)
    else:
        label = cfg.trotter_steps
    return [
        ResultRow(curve.method, p.t, label, p.estimate, p.exact, p.abs_error)
        for p in curve.points
    ]


def _check_grid(cfg: ExperimentConfig) -> None:
    """Refuse a configured grid whose design leaves the float range
    (``sweep_grid``), before any circuit runs: it needs no calibration."""
    if cfg.a_grid is not None:
        sweep_grid(cfg)


def _curves(cfg: ExperimentConfig, methods: Sequence[str]) -> list[ErrorCurve]:
    """Each method's curve, from one exact column and one batch per step count."""
    if "ep" in methods:
        _check_grid(cfg)
    exact = exact_values(cfg.times, cfg)
    columns = constituent_columns(cfg, methods)
    return [run_error_curve(cfg, method, exact, columns) for method in methods]


def _cmd_run(args: argparse.Namespace, doc: ConfigDocument) -> int:
    cfg = doc.experiment
    rows = [row for curve in _curves(cfg, _methods(args)) for row in _curve_rows(cfg, curve)]
    if not _write_rows(args, doc, rows):
        for row in ResultTable.from_rows(rows).rows:
            print(
                f"{row.method:8s} t={row.t:<10.6g} estimate={row.estimate:+.12g}"
                f" exact={row.exact:+.12g} abs_error={row.abs_error:.3e}"
            )
    return EXIT_OK


def _cmd_profile(args: argparse.Namespace, doc: ConfigDocument) -> int:
    cfg = doc.experiment
    t = args.time if args.time is not None else cfg.times[-1]
    if not (math.isfinite(t) and t > 0):
        raise ConfigError(f"--time must be positive and finite, got {t}", "time")
    # A configured time draws its noise from the stream ``run`` uses there.
    jitters = dict(zip(cfg.times, _per_time_jitters(cfg)))
    if cfg.noise_sigma > 0 and t not in jitters:
        raise ConfigError(
            f"--time {t} is not a configured time, so it has no noise stream;"
            " pick one of the configured times or set noise.sigma to 0",
            "time",
        )
    # a configured time takes run's exact value, from the same call over every
    # time; computed first, so that a time it refuses runs no circuit
    if t in cfg.times:
        exact = float(exact_values(cfg.times, cfg)[cfg.times.index(t)])
    else:
        exact = float(exact_values((t,), cfg)[0])
    _check_grid(cfg)
    basis = resolve_basis(cfg)
    _, fit = mitigated_estimate(t, replace(cfg, basis=basis), jitter=jitters.get(t))

    print(f"time {t}")
    print(f"basis orders {list(basis.orders)} antisymmetric {basis.include_antisymmetric}")
    print(f"mitigated estimate {fit.y_star:+.12g}   exact {exact:+.12g}")
    print(f"abs error {abs(fit.y_star - exact):.3e}")
    print(f"residual norm {fit.residual_norm:.3e}   condition number {fit.condition_number:.3e}")
    for order, value in fit.coefficients.items():
        print(f"  m[{order}] = {value:+.6e}")
    for order, value in fit.antisymmetric_coefficients.items():
        print(f"  m_odd[{order}] = {value:+.6e}")

    rows = [
        ResultRow("profile-sample", t, s.a, s.value, exact, abs(s.value - exact))
        for s in fit.samples
    ]
    rows.append(
        ResultRow("ep", t, cfg.trotter_steps, fit.y_star, exact, abs(fit.y_star - exact))
    )
    _write_rows(args, doc, rows)
    return EXIT_OK


def _cmd_mpf(args: argparse.Namespace, doc: ConfigDocument) -> int:
    cfg = doc.experiment
    weights = mpf_weights(cfg.mpf_step_counts, cfg.formula.alpha, cfg.formula.symmetric)
    print(f"step counts {list(weights.step_counts)}")
    print(f"weights     {[round(w, 12) for w in weights.weights]}")
    print(f"cancelled orders {list(weights.cancelled_orders)}")
    print(f"condition number {weights.condition_number:.3e}"
          + ("  (ill-conditioned)" if weights.ill_conditioned else ""))
    rows = _curve_rows(cfg, run_error_curve(cfg, "mpf"))
    if not _write_rows(args, doc, rows):
        for row in rows:
            print(f"t={row.t:<10.6g} estimate={row.estimate:+.12g} abs_error={row.abs_error:.3e}")
    return EXIT_OK


def _cmd_calibrate(args: argparse.Namespace, doc: ConfigDocument) -> int:
    cfg = doc.experiment
    _check_grid(cfg)
    basis = resolve_basis(cfg)
    print(f"surviving orders {list(basis.orders)}")
    print(f"antisymmetric columns {basis.include_antisymmetric}")
    print(f"sweep grid size {len(sweep_grid(cfg, basis))}")
    rows = [ResultRow("calibrate", 0.0, order, 1.0, 1.0, 0.0) for order in basis.orders]
    _write_rows(args, doc, rows)
    return EXIT_OK


def _cmd_slope(args: argparse.Namespace, doc: ConfigDocument) -> int:
    cfg = doc.experiment
    window = (args.window[0], args.window[1])
    if not (math.isfinite(window[0]) and math.isfinite(window[1]) and window[0] < window[1]):
        raise ConfigError(f"--window needs finite TMIN < TMAX, got {window[0]} {window[1]}", "window")
    rows, missing = [], []
    for curve in _curves(cfg, _methods(args)):
        rows.extend(_curve_rows(cfg, curve))
        try:
            gradient = stable_slope_fit(curve, window)
        except DegenerateInputError as exc:  # too few usable points: a numerical outcome
            missing.append(curve.method)
            print(f"no slope for {curve.method}: {exc}", file=sys.stderr)
            continue
        print(f"{curve.method:8s} slope {gradient:+.3f} over t in [{window[0]}, {window[1]}]")
    _write_rows(args, doc, rows)
    return EXIT_NUMERIC if missing else EXIT_OK


def _cmd_cost(args: argparse.Namespace, doc: ConfigDocument) -> int:
    cfg = doc.experiment
    totals = {stage.name: stage.totals() for stage in plan(cfg, METHODS)}
    totals["total"] = tuple(map(sum, zip(*totals.values())))
    rows = [("stage", ("batches", "rows", "row-gates", "folded", "kernel steps")), *totals.items()]
    lines = [f"{name:<13}{b:>8}{r:>8}{g:>12}{f:>12}{k:>14}" for name, (b, r, g, f, k) in rows]
    # per time: one time's circuits of the ep sweep and of the mpf constituents
    count, per_step = len(cfg.times), len(sample_template(cfg.formula, cfg.partition).words)
    variants, ep_rows, ep_gates, _, _ = totals["sweep"]
    circuits, gates = ep_rows // count, ep_gates // count
    steps, mpf_steps = gates // per_step, sum(cfg.mpf_step_counts)
    lines += [
        f"profiling: {circuits} circuits x depth {steps // circuits} steps"
        f" = {steps} steps, {gates} gates (grid {circuits // variants})",
        f"multi-product (counts {', '.join(map(str, cfg.mpf_step_counts))}):"
        f" {len(cfg.mpf_step_counts)} circuits, {mpf_steps} steps,"
        f" {mpf_steps * per_step} gates",
    ]
    text = "\n".join(lines) + "\n"
    print(text, end="")
    # the document's output path names the data file of ``run``, not this report
    if args.out:
        atomic_write_text(text, args.out)
        print(f"wrote cost report to {args.out}")
    return EXIT_OK


_HANDLERS = {
    "run": _cmd_run,
    "profile": _cmd_profile,
    "mpf": _cmd_mpf,
    "calibrate": _cmd_calibrate,
    "slope": _cmd_slope,
    "cost": _cmd_cost,
}


def run_command(argv: Sequence[str]) -> int:
    """Execute one CLI invocation; diagnostics go to stderr, never the data file."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        return _HANDLERS[args.command](args, _load_document(args))
    except SystemExit as exc:  # --version and friends
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage(), end="", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except TrotterProfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point it at /dev/null so the flush at
        # shutdown stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_CONFIG
    sys.exit(code)


if __name__ == "__main__":
    main()
