"""Command-line interface: simulate, sweep, bounds, worstcase, render.

Configuration comes from an optional flat key=value file plus flags; flags
override file values. Exit codes: 0 success, 2 configuration error, 3 I/O
error. Each command checks its inputs, through harness.check_inputs where
they are the model's, and reports a bad one as a configuration error; any
other exception is a fault in the program and propagates with its traceback
(exit code 1).
"""
from __future__ import annotations

import argparse
import contextlib
import math
import sys

from . import bounds as bounds_mod
from .geometry import RoundedRect, build_comb, build_thin_rectangle, region_xl, region_xs
from .harness import (CSV_COLUMNS, METRIC_FIELDS, GridError, best_radius, bound_table,
                      check_inputs, mean_and_se, run_units, sweep, write_sweep_csv, _cells,
                      _fmt, _write_table)
from .render import render_field
from .sampling import write_field_csv
from .vote import SINGLE_ROUND, multi_round_mode, round_count


class ConfigError(Exception):
    pass


PAPER_R_GRID = tuple(round(0.005 * k, 10) for k in range(1, 21))
PAPER_P_GRID = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35)
PAPER_LAM_GRID = (2500.0, 5000.0, 10000.0, 20000.0)

NAMED_REGIONS = {"xs": region_xs, "xl": region_xl}

# the keys that some command reads; one file serves several commands, each reading its own
CONFIG_KEYS = ("lambda", "p", "r", "seed", "trials", "mode", "c", "region.type", "region.cx",
               "region.cy", "region.width", "region.height", "region.corner_radius",
               "region.r", "region.ell")


def parse_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, _, value = (part.strip() for part in line.partition("="))
                if key not in CONFIG_KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _get(cfg: dict, key: str, flag_value, default, cast):
    if flag_value is not None:
        value = flag_value
    elif key in cfg:
        try:
            value = cast(cfg[key])
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {cfg[key]}") from exc
    else:
        value = default
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key}={value} must be finite")
    return value


def build_region(cfg: dict, args):
    rtype = _get(cfg, "region.type", args.region_type, "xs", str).lower()
    if rtype in NAMED_REGIONS:
        return NAMED_REGIONS[rtype]()
    try:
        if rtype == "rounded_rect":
            cx = _get(cfg, "region.cx", args.region_cx, 0.5, float)
            cy = _get(cfg, "region.cy", args.region_cy, 0.5, float)
            width = _get(cfg, "region.width", args.region_width, 0.4, float)
            height = _get(cfg, "region.height", args.region_height, 0.4, float)
            rho = _get(cfg, "region.corner_radius", args.region_corner_radius, 0.1, float)
            return RoundedRect(cx, cy, width, height, rho)
        if rtype in ("thin_rect", "comb"):
            r = _get(cfg, "region.r", args.region_r, None, float)
            if r is None:  # the run's own radius, read only where it is the default
                r = _get(cfg, "r", args.r, 0.05, float)
            if rtype == "thin_rect":
                return build_thin_rectangle(r)
            return build_comb(r, _get(cfg, "region.ell", args.region_ell, 8 * r, float))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown region.type {rtype!r}")


def _vote_mode(cfg: dict, args):
    name = _get(cfg, "mode", args.mode, "single", str).lower()
    c = _get(cfg, "c", args.c, 0.5, float)
    if name not in ("single", "multi"):
        raise ConfigError(f"unknown mode {name!r} (expected single or multi)")
    try:
        return SINGLE_ROUND if name == "single" else multi_round_mode(c)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _one_cell(args, workers: int = 1) -> tuple:
    """The checked (seed, lam, region, p, r, mode, trials) of a simulate or render run."""
    cfg = parse_config_file(args.config) if args.config else {}
    lam = _get(cfg, "lambda", args.lam, 600.0, float)
    p = _get(cfg, "p", args.p, 0.15, float)
    r = _get(cfg, "r", args.r, 0.05, float)
    seed = _get(cfg, "seed", args.seed, 0, int)
    trials = _get(cfg, "trials", args.trials, 1, int)
    mode = _vote_mode(cfg, args)
    check_inputs((r,), (p,), (lam,), seed=seed, trials=trials, workers=workers)
    if mode.kind == "multi":
        try:
            round_count(p, r, mode.c)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    region = build_region(cfg, args)
    return seed, lam, region, p, r, mode, trials


def _group(*options) -> argparse.ArgumentParser:
    """A parent parser of shared options, each given as (flag, keyword arguments)."""
    group = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    for flag, kwargs in options:
        group.add_argument(flag, **kwargs)
    return group


def _floats(text: str) -> tuple:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad number list {text!r}") from exc
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"bad number list {text!r}: numbers must be finite")
    return values


def _grids(args) -> tuple:
    """The (r, p, lambda) grids of a sweep or bound table; the paper's where not given."""
    return tuple(grid if text is None else _floats(text) for text, grid in (
        (args.r_values, PAPER_R_GRID), (args.p_values, PAPER_P_GRID),
        (args.lambda_values, PAPER_LAM_GRID)))


@contextlib.contextmanager
def _output(path):
    """stdout for no path or "-", else the file at path, closed on exit."""
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh


def cmd_simulate(args) -> int:
    seed, lam, region, p, r, mode, trials = _one_cell(args, args.workers)
    if args.dump_field:
        field, _, _ = next(_cells(seed, lam, 0, (region,), (p,), (r,), mode))
        write_field_csv(field, args.dump_field)
    cell = run_units(seed, (lam,), trials, (region,), (p,), (r,), mode, args.workers)[0, 0, 0, 0]
    print(f"region={region.name} lambda={_fmt(lam)} p={_fmt(p)} "
          f"r={_fmt(r)} mode={mode.kind} trials={trials}")
    if mode.kind == "multi":
        print(f"rounds={round_count(p, r, mode.c)}")
    for name, values in zip(METRIC_FIELDS, cell.T):
        mean, se = mean_and_se(values)
        print(f"{name}_mean={mean:.6g} se={se:.4g}")
    return 0


def cmd_sweep(args) -> int:
    cfg = parse_config_file(args.config) if args.config else {}
    seed = _get(cfg, "seed", args.seed, 0, int)
    trials = _get(cfg, "trials", args.trials, 1, int)
    mode = _vote_mode(cfg, args)
    r_values, p_values, lam_values = _grids(args)
    names = [tok.strip().lower() for tok in args.regions.split(",") if tok.strip()]
    for name in names:
        if name not in NAMED_REGIONS:
            raise ConfigError(f"unknown sweep region {name!r} (expected xs or xl)")
    regions = [NAMED_REGIONS[name]() for name in names]
    result = sweep(r_values, p_values, lam_values, regions, seed=seed,
                   trials=trials, mode=mode, workers=args.workers)
    with _output(args.out) as fh:
        write_sweep_csv(result, fh)
    if args.best_radius:
        for p in p_values:
            lo, hi = best_radius(result, p)
            print(f"best_radius p={_fmt(p)}: [{_fmt(lo)}, {_fmt(hi)}]", file=sys.stderr)
    return 0


def cmd_bounds(args) -> int:
    cfg = parse_config_file(args.config) if args.config else {}
    region = build_region(cfg, args)
    reports = bound_table(*_grids(args), [region])
    with _output(args.out) as fh:
        _write_table(fh, ("region", "lambda", "p", "r", "zr_area", "area_outside",
                          *CSV_COLUMNS[-5:]),
                     ([region.name, b.lam, b.p, b.r, b.zr_area, b.area_outside,
                       *(getattr(b, name) for name in CSV_COLUMNS[-5:])] for b in reports))
    return 0


def cmd_worstcase(args) -> int:
    lam = _get({}, "lambda", args.lam, 20000.0, float)
    p = _get({}, "p", args.p, 0.25, float)
    r = _get({}, "r", args.r, 0.05, float)
    trials = _get({}, "trials", args.trials, 200, int)
    seed = _get({}, "seed", args.seed, 0, int)
    check_inputs((r,), (p,), (lam,), seed=seed, trials=trials, workers=args.workers)
    if args.shape == "thin":
        if args.ell is not None:
            raise ConfigError("--ell applies only to --shape comb")
        ell, lower_target = math.nan, 0.5 * lam * r * r
    else:
        ell = _get({}, "ell", args.ell, 8 * r, float)
        lower_target = lam * ell * ell / 32.0
    try:
        region = build_thin_rectangle(r) if args.shape == "thin" else build_comb(r, ell)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    per_trial = run_units(seed, (lam,), trials, (region,), (p,), (r,), SINGLE_ROUND,
                          args.workers)
    metric = dict(zip(METRIC_FIELDS, per_trial[0, 0, 0, 0].T))  # name -> its trial values
    t2 = bounds_mod.thm2_upper(lam, r, region.perimeter, region.components)
    with _output(args.out) as fh:
        _write_table(fh, ("shape", "lambda", "p", "r", "ell", "trials", "n_sensors_mean",
                          "errors_in_zr_mean", "errors_in_zr_se", "thm2_upper", "lower_target"),
                     [[args.shape, lam, p, r, ell, trials, mean_and_se(metric["n_sensors"])[0],
                       *mean_and_se(metric["errors_in_zr"]), t2, lower_target]])
    return 0


def cmd_render(args) -> int:
    seed, lam, region, p, r, mode, _ = _one_cell(args)
    if args.trial < 0:
        raise ConfigError(f"trial={args.trial} must be nonnegative")
    field, outcome, _ = next(_cells(seed, lam, args.trial, (region,), (p,), (r,), mode))
    render_field(field, outcome, region, args.out)
    return 0


def make_parser() -> argparse.ArgumentParser:
    """The CLI; each command takes only the option groups that it reads, unabbreviated."""
    config = _group(("--config", dict(help="flat key=value config file")))
    lam_p = _group(("--lambda", dict(dest="lam", type=float, help="Poisson intensity")),
                   ("--p", dict(type=float, help="measurement error probability")))
    radius = _group(("--r", dict(type=float, help="neighborhood radius")))
    seeding = _group(("--seed", dict(type=int, help="master seed")),
                     ("--trials", dict(type=int, help="trials per cell")))
    voting = _group(("--mode", dict(choices=("single", "multi"), help="vote mode")),
                    ("--c", dict(type=float, help="multi-round constant c")))
    region = _group(("--region-type", dict(choices=("xs", "xl", "rounded_rect", "thin_rect",
                                                    "comb"))),
                    *((f"--region-{name}", dict(type=float)) for name in (
                        "cx", "cy", "width", "height", "corner-radius", "r", "ell")))
    workers = _group(("--workers", dict(type=int, default=1,
                                        help="worker processes, each running whole fields")))
    one_cell = [config, lam_p, radius, seeding, voting, region]

    parser = argparse.ArgumentParser(
        prog="boundaryvote", allow_abbrev=False,
        description="Majority-vote event boundary detection: simulation and bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, parents, summary):
        cmd = sub.add_parser(name, parents=parents, allow_abbrev=False, help=summary)
        cmd.set_defaults(func=func)
        return cmd

    p_sim = command("simulate", cmd_simulate, one_cell + [workers],
                    "run one configuration, print metrics")
    p_sim.add_argument("--dump-field", help="write trial-0 field CSV here")

    p_sweep = command("sweep", cmd_sweep, [config, seeding, voting, workers], "grid sweep to CSV")
    p_sweep.add_argument("--r-values", help="comma list (default: paper grid)")
    p_sweep.add_argument("--p-values", help="comma list (default: paper grid)")
    p_sweep.add_argument("--lambda-values", help="comma list (default: paper grid)")
    p_sweep.add_argument("--regions", default="xs,xl", help="comma list of xs,xl")
    p_sweep.add_argument("--out", help="output CSV path (default stdout)")
    p_sweep.add_argument("--best-radius", action="store_true",
                         help="also print the best radius per p to stderr")

    p_bounds = command("bounds", cmd_bounds, [config, radius, region], "bound table to CSV")
    p_bounds.add_argument("--r-values")
    p_bounds.add_argument("--p-values")
    p_bounds.add_argument("--lambda-values")
    p_bounds.add_argument("--out")

    p_worst = command("worstcase", cmd_worstcase, [lam_p, radius, seeding, workers],
                      "thin-rectangle / comb experiments")
    p_worst.add_argument("--shape", choices=("thin", "comb"), required=True)
    p_worst.add_argument("--ell", type=float)
    p_worst.add_argument("--out")

    p_render = command("render", cmd_render, one_cell, "render one trial as SVG")
    p_render.add_argument("--trial", type=int, default=0)
    p_render.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, GridError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
