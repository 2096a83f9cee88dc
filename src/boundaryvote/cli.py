"""Command-line interface: simulate, sweep, bounds, worstcase, render.

Configuration comes from an optional flat key=value file plus flags; flags
override file values. Exit codes: 0 success, 2 configuration error, 3 I/O
error. Each command checks its own inputs and reports a bad one as a
configuration error; any other exception is a fault in the program and
propagates with its traceback (exit code 1).
"""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import bounds as bounds_mod
from .geometry import RoundedRect, build_comb, build_thin_rectangle, region_xl, region_xs
from .harness import (METRIC_FIELDS, GridError, SimConfig, best_radius, bound_table,
                      run_trial, run_trial_field, sweep, write_sweep_csv, _fmt)
from .render import render_field
from .sampling import write_field_csv
from .vote import SINGLE_ROUND, multi_round_mode, round_count


class ConfigError(Exception):
    pass


PAPER_R_GRID = tuple(round(0.005 * k, 10) for k in range(1, 21))
PAPER_P_GRID = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35)
PAPER_LAM_GRID = (2500.0, 5000.0, 10000.0, 20000.0)


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
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _get(cfg: dict, key: str, flag_value, default, cast):
    if flag_value is not None:
        return flag_value
    if key in cfg:
        try:
            return cast(cfg[key])
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {cfg[key]}") from exc
    return default


def build_region(cfg: dict, args, default_r: float):
    rtype = _get(cfg, "region.type", getattr(args, "region_type", None), "xs", str).lower()
    if rtype == "xs":
        return region_xs()
    if rtype == "xl":
        return region_xl()
    if rtype == "rounded_rect":
        cx = _get(cfg, "region.cx", args.region_cx, 0.5, float)
        cy = _get(cfg, "region.cy", args.region_cy, 0.5, float)
        width = _get(cfg, "region.width", args.region_width, 0.4, float)
        height = _get(cfg, "region.height", args.region_height, 0.4, float)
        rho = _get(cfg, "region.corner_radius", args.region_corner_radius, 0.1, float)
        try:
            return RoundedRect(cx, cy, width, height, rho)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if rtype == "thin_rect":
        r = _get(cfg, "region.r", args.region_r, default_r, float)
        try:
            return build_thin_rectangle(r)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if rtype == "comb":
        r = _get(cfg, "region.r", args.region_r, default_r, float)
        ell = _get(cfg, "region.ell", args.region_ell, 8 * r, float)
        try:
            return build_comb(r, ell)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown region.type {rtype!r}")


def build_sim_config(args) -> SimConfig:
    cfg = parse_config_file(args.config) if args.config else {}
    lam = _get(cfg, "lambda", args.lam, 600.0, float)
    p = _get(cfg, "p", args.p, 0.15, float)
    r = _get(cfg, "r", args.r, 0.05, float)
    seed = _get(cfg, "seed", args.seed, 0, int)
    trials = _get(cfg, "trials", args.trials, 1, int)
    mode_name = _get(cfg, "mode", args.mode, "single", str).lower()
    c = _get(cfg, "c", args.c, 0.5, float)
    if mode_name not in ("single", "multi"):
        raise ConfigError(f"unknown mode {mode_name!r} (expected single or multi)")
    region = build_region(cfg, args, r)
    try:
        mode = SINGLE_ROUND if mode_name == "single" else multi_round_mode(c)
        return SimConfig(lam=lam, p=p, r=r, region=region, mode=mode,
                         seed=seed, trials=trials)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _add_common(parser):
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--lambda", dest="lam", type=float, help="Poisson intensity")
    parser.add_argument("--p", type=float, help="measurement error probability")
    parser.add_argument("--r", type=float, help="neighborhood radius")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--trials", type=int, help="trials per cell")
    parser.add_argument("--mode", choices=("single", "multi"), help="vote mode")
    parser.add_argument("--c", type=float, help="multi-round constant c")
    parser.add_argument("--region-type",
                        choices=("xs", "xl", "rounded_rect", "thin_rect", "comb"))
    parser.add_argument("--region-cx", type=float)
    parser.add_argument("--region-cy", type=float)
    parser.add_argument("--region-width", type=float)
    parser.add_argument("--region-height", type=float)
    parser.add_argument("--region-corner-radius", type=float)
    parser.add_argument("--region-r", type=float)
    parser.add_argument("--region-ell", type=float)


def _floats(text: str) -> tuple:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad number list {text!r}") from exc


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline="\n"), True


def cmd_simulate(args) -> int:
    config = build_sim_config(args)
    field, _, first = run_trial_field(config, 0)
    if args.dump_field:
        write_field_csv(field, args.dump_field)
    rows = [first] + [run_trial(config, t) for t in range(1, config.trials)]
    agg = {}
    for name in METRIC_FIELDS:
        vals = np.array([getattr(m, name) for m in rows], dtype=float)
        agg[name] = (vals.mean(), vals.std(ddof=1) / math.sqrt(len(vals)) if len(vals) > 1 else 0.0)
    print(f"region={config.region.name} lambda={_fmt(config.lam)} p={_fmt(config.p)} "
          f"r={_fmt(config.r)} mode={config.mode.kind} trials={config.trials}")
    if config.mode.kind == "multi":
        print(f"rounds={round_count(config.p, config.r, config.mode.c)}")
    for name, (mean, se) in agg.items():
        print(f"{name}_mean={mean:.6g} se={se:.4g}")
    return 0


def cmd_sweep(args) -> int:
    config = build_sim_config(args)
    r_values = _floats(args.r_values) if args.r_values else PAPER_R_GRID
    p_values = _floats(args.p_values) if args.p_values else PAPER_P_GRID
    lam_values = _floats(args.lambda_values) if args.lambda_values else PAPER_LAM_GRID
    region_names = [tok.strip().lower() for tok in args.regions.split(",") if tok.strip()]
    regions = []
    for name in region_names:
        if name == "xs":
            regions.append(region_xs())
        elif name == "xl":
            regions.append(region_xl())
        else:
            raise ConfigError(f"unknown sweep region {name!r} (expected xs or xl)")
    if not regions:
        regions = [region_xs(), region_xl()]
    try:
        result = sweep(r_values, p_values, lam_values, regions, seed=config.seed,
                       trials=config.trials, mode=config.mode, workers=args.workers)
    except GridError as exc:
        raise ConfigError(str(exc)) from exc
    fh, close = _open_out(args.out)
    try:
        write_sweep_csv(result, fh)
    finally:
        if close:
            fh.close()
    if args.best_radius:
        for p in p_values:
            lo, hi = best_radius(result, p)
            print(f"best_radius p={_fmt(p)}: [{_fmt(lo)}, {_fmt(hi)}]", file=sys.stderr)
    return 0


def cmd_bounds(args) -> int:
    config = build_sim_config(args)
    region = config.region
    r_values = _floats(args.r_values) if args.r_values else PAPER_R_GRID
    p_values = _floats(args.p_values) if args.p_values else PAPER_P_GRID
    lam_values = _floats(args.lambda_values) if args.lambda_values else PAPER_LAM_GRID
    try:
        reports = bound_table(r_values, p_values, lam_values, [region])
    except GridError as exc:
        raise ConfigError(str(exc)) from exc
    fh, close = _open_out(args.out)
    try:
        fh.write("region,lambda,p,r,zr_area,area_outside,thm1_upper,thm1_lower,"
                 "thm2_upper,thm3_upper,combined_upper\n")
        for b in reports:
            cells = [region.name, b.lam, b.p, b.r, b.zr_area, b.area_outside,
                     b.thm1_upper, b.thm1_lower, b.thm2_upper, b.thm3_upper,
                     b.combined_upper]
            fh.write(",".join(_fmt(v) for v in cells) + "\n")
    finally:
        if close:
            fh.close()
    return 0


def cmd_worstcase(args) -> int:
    lam = args.lam if args.lam is not None else 20000.0
    p = args.p if args.p is not None else 0.25
    r = args.r if args.r is not None else 0.05
    trials = args.trials if args.trials is not None else 200
    seed = args.seed if args.seed is not None else 0
    if args.shape == "thin":
        lower_target = 0.5 * lam * r * r
        ell = math.nan
    else:
        ell = args.ell if args.ell is not None else 8 * r
        lower_target = lam * ell * ell / 32.0
    try:
        region = build_thin_rectangle(r) if args.shape == "thin" else build_comb(r, ell)
        config = SimConfig(lam=lam, p=p, r=r, region=region, seed=seed, trials=trials)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = [run_trial(config, t) for t in range(trials)]
    in_zr = np.array([m.errors_in_zr for m in rows], dtype=float)
    t2 = bounds_mod.thm2_upper(lam, r, region.perimeter, region.components)
    fh, close = _open_out(args.out)
    try:
        fh.write("shape,lambda,p,r,ell,trials,n_sensors_mean,errors_in_zr_mean,"
                 "errors_in_zr_se,thm2_upper,lower_target\n")
        se = in_zr.std(ddof=1) / math.sqrt(trials) if trials > 1 else 0.0
        cells = [args.shape, lam, p, r, ell, trials,
                 float(np.mean([m.n_sensors for m in rows])),
                 float(in_zr.mean()), se, t2, lower_target]
        fh.write(",".join(_fmt(v) for v in cells) + "\n")
    finally:
        if close:
            fh.close()
    return 0


def cmd_render(args) -> int:
    config = build_sim_config(args)
    if args.trial < 0:
        raise ConfigError(f"trial={args.trial} must be nonnegative")
    field, outcome, _ = run_trial_field(config, args.trial)
    render_field(field, outcome, config.region, args.out)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boundaryvote",
        description="Majority-vote event boundary detection: simulation and bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one configuration, print metrics")
    _add_common(p_sim)
    p_sim.add_argument("--dump-field", help="write trial-0 field CSV here")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="grid sweep to CSV")
    _add_common(p_sweep)
    p_sweep.add_argument("--r-values", help="comma list (default: paper grid)")
    p_sweep.add_argument("--p-values", help="comma list (default: paper grid)")
    p_sweep.add_argument("--lambda-values", help="comma list (default: paper grid)")
    p_sweep.add_argument("--regions", default="xs,xl", help="comma list of xs,xl")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--out", help="output CSV path (default stdout)")
    p_sweep.add_argument("--best-radius", action="store_true",
                         help="also print the best radius per p to stderr")
    p_sweep.set_defaults(func=cmd_sweep)

    p_bounds = sub.add_parser("bounds", help="bound table to CSV")
    _add_common(p_bounds)
    p_bounds.add_argument("--r-values")
    p_bounds.add_argument("--p-values")
    p_bounds.add_argument("--lambda-values")
    p_bounds.add_argument("--out")
    p_bounds.set_defaults(func=cmd_bounds)

    p_worst = sub.add_parser("worstcase", help="thin-rectangle / comb experiments")
    p_worst.add_argument("--shape", choices=("thin", "comb"), required=True)
    p_worst.add_argument("--lambda", dest="lam", type=float)
    p_worst.add_argument("--p", type=float)
    p_worst.add_argument("--r", type=float)
    p_worst.add_argument("--ell", type=float)
    p_worst.add_argument("--trials", type=int)
    p_worst.add_argument("--seed", type=int)
    p_worst.add_argument("--out")
    p_worst.set_defaults(func=cmd_worstcase)

    p_render = sub.add_parser("render", help="render one trial as SVG")
    _add_common(p_render)
    p_render.add_argument("--trial", type=int, default=0)
    p_render.add_argument("--out", required=True)
    p_render.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
