"""Command-line driver.

Subcommands: ``run`` (trotter/ep/mpf error curves), ``profile`` (single-time
sweep plus fit report), ``mpf`` (extrapolation curve plus weights),
``calibrate`` (basis report), ``slope`` (log-log gradients), and ``cost``
(circuit accounting).  Each reads its setup from ``--config FILE`` or
``--preset NAME`` and takes ``--out``; any other flag exists only where it
is read: ``--seed`` on the commands that draw noise (run, profile, mpf,
slope), ``--method`` on run and slope, ``--time`` on profile and
``--window`` on slope.  Everything else, ``cost``'s depth, step counts and
grid included, comes from the document.  Results are written atomically as
CSV.  Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from typing import Sequence

from ._version import __version__
from .config import (
    ConfigDocument,
    PRESETS,
    base_metadata,
    parse_document,
    preset_config,
)
from .errors import (
    CalibrationError,
    ConfigError,
    ExtractionError,
    SingularFitError,
    TrotterProfError,
)
from .experiments import (
    METHODS,
    ErrorCurve,
    ExperimentConfig,
    _per_time_jitters,
    circuit_cost,
    run_error_curve,
    stable_slope_fit,
)
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


def _build_parser() -> _CliParser:
    parser = _CliParser(prog="trotterprof", description=__doc__)
    parser.add_argument("--version", action="version", version=f"trotterprof {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, *, seed: bool = False, method: bool = False):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="path to a JSON config document")
        p.add_argument("--preset", help=f"built-in setup, one of {', '.join(PRESETS)}")
        p.add_argument("--out", help="output CSV path (overrides the config)")
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
    command("cost", "circuit and gate accounting")
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
        doc = parse_document(text)
    elif args.preset:
        doc = ConfigDocument(preset_config(args.preset))
    else:
        raise ConfigError("one of --config or --preset is required", "usage")
    if getattr(args, "seed", None) is None:
        return doc
    return ConfigDocument(replace(doc.experiment, seed=args.seed), doc.output_path)


def _methods(args: argparse.Namespace) -> tuple[str, ...]:
    if not args.method:
        return METHODS
    picked = tuple(m.strip() for m in args.method.split(",") if m.strip())
    for m in picked:
        if m not in METHODS:
            raise ConfigError(
                f"unknown method {m!r}; choose from {', '.join(METHODS)}", "method"
            )
    if not picked:
        raise ConfigError("empty --method list", "method")
    return picked


def _out_path(args: argparse.Namespace, doc: ConfigDocument) -> str | None:
    return args.out or doc.output_path


def _write_rows(args: argparse.Namespace, doc: ConfigDocument, rows: list[ResultRow]) -> bool:
    """Write ``rows`` as CSV when an output path is set; whether one was."""
    path = _out_path(args, doc)
    if path:
        write_csv(ResultTable.from_rows(rows, base_metadata(doc.experiment)), path)
        print(f"wrote {len(rows)} rows to {path}")
    return bool(path)


def _curve_rows(cfg: ExperimentConfig, curve: ErrorCurve) -> list[ResultRow]:
    """One CSV row per curve point; ``a_or_steps`` is the depth the method ran."""
    if curve.method == "mpf":
        label = max(cfg.mpf.step_counts)
    else:
        label = cfg.trotter_steps
    return [
        ResultRow(curve.method, p.t, label, p.estimate, p.exact, p.abs_error)
        for p in curve.points
    ]


def _cmd_run(args: argparse.Namespace) -> int:
    doc = _load_document(args)
    cfg = doc.experiment
    exact = exact_values(cfg.times, cfg)
    rows = []
    for method in _methods(args):
        rows.extend(_curve_rows(cfg, run_error_curve(cfg, method, exact)))
    if not _write_rows(args, doc, rows):
        for row in ResultTable.from_rows(rows).rows:
            print(
                f"{row.method:8s} t={row.t:<10.6g} estimate={row.estimate:+.12g}"
                f" exact={row.exact:+.12g} abs_error={row.abs_error:.3e}"
            )
    return EXIT_OK


def _cmd_profile(args: argparse.Namespace) -> int:
    doc = _load_document(args)
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
    basis = resolve_basis(cfg)
    _, fit = mitigated_estimate(t, replace(cfg, basis=basis), jitter=jitters.get(t))
    # a configured time takes run's exact value, stepped through the earlier times
    times = cfg.times[: cfg.times.index(t) + 1] if t in cfg.times else (t,)
    exact = float(exact_values(times, cfg)[-1])

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


def _cmd_mpf(args: argparse.Namespace) -> int:
    doc = _load_document(args)
    cfg = doc.experiment
    weights = mpf_weights(cfg.mpf.step_counts, cfg.formula.alpha, cfg.mpf.symmetric)
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


def _cmd_calibrate(args: argparse.Namespace) -> int:
    doc = _load_document(args)
    cfg = doc.experiment
    basis = resolve_basis(cfg)
    print(f"surviving orders {list(basis.orders)}")
    print(f"antisymmetric columns {basis.include_antisymmetric}")
    print(f"sweep grid size {len(sweep_grid(cfg, basis))}")
    rows = [ResultRow("calibrate", 0.0, order, 1.0, 1.0, 0.0) for order in basis.orders]
    _write_rows(args, doc, rows)
    return EXIT_OK


def _cmd_slope(args: argparse.Namespace) -> int:
    doc = _load_document(args)
    cfg = doc.experiment
    window = (args.window[0], args.window[1])
    exact = exact_values(cfg.times, cfg)
    rows = []
    for method in _methods(args):
        curve = run_error_curve(cfg, method, exact)
        gradient = stable_slope_fit(curve, window)
        print(f"{method:8s} slope {gradient:+.3f} over t in [{window[0]}, {window[1]}]")
        rows.extend(_curve_rows(cfg, curve))
    _write_rows(args, doc, rows)
    return EXIT_OK


def _cmd_cost(args: argparse.Namespace) -> int:
    doc = _load_document(args)
    cfg = doc.experiment
    grid = len(sweep_grid(cfg))
    counts = cfg.mpf.step_counts
    ep = circuit_cost(
        "ep",
        formula=cfg.formula,
        partition=cfg.partition,
        trotter_steps=cfg.trotter_steps,
        grid_points=grid,
    )
    mpf = circuit_cost("mpf", formula=cfg.formula, partition=cfg.partition, step_counts=counts)
    lines = [
        f"profiling: {ep.circuits} circuits x depth {ep.depth_steps} steps"
        f" = {ep.total_steps} steps, {ep.elementary_gates} gates (grid {grid})",
        f"multi-product (counts {', '.join(map(str, counts))}): {mpf.circuits} circuits,"
        f" {mpf.total_steps} steps, {mpf.elementary_gates} gates",
    ]
    text = "\n".join(lines) + "\n"
    print(text, end="")
    path = _out_path(args, doc)
    if path:
        atomic_write_text(text, path)
        print(f"wrote cost report to {path}")
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
        return _HANDLERS[args.command](args)
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
