"""Experiment orchestration: trials, parameter sweeps, metrics, bound tables.

One runner, `run_units`, runs every trial: it fills a grid's per-trial
metric array, one sampled (lam, trial) field per work unit. A sweep takes two
steps: `run_units`, then `sweep`'s tabulation of that array into rows beside
the grid's bound table. `simulate` and `worstcase` read the same array for
their one cell and evaluate no bound.

Seeding: each trial draws its randomness from sub-streams keyed only by
(master seed, lam, trial index). The region, the error probability p, and the
radius r are deliberately excluded, so every cell of a sweep that shares
(lam, trial) also shares sensor positions and noise draws (common random
numbers across cells); this makes cross-cell comparisons and the best-radius
extraction far more stable. Aggregation always reduces trials in index order,
so results are byte-identical no matter how many workers ran them.
"""
from __future__ import annotations

import functools
import math
import sys
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .bounds import bound_report
from .geometry import dubious_zone_areas
from .neighborhood import build_indexes
from .sampling import assign_measurements_at, sample_field
from .vote import SINGLE_ROUND, VoteMode, run_vote


METRIC_FIELDS = (
    "n_sensors", "initial_errors", "final_errors", "corrected", "new_errors",
    "errors_in_zr", "errors_in_zr_and_x", "errors_outside_zr",
    "correction_rate",        # net: (initial - final) / initial
    "gross_correction_rate",  # corrected / initial
)

TrialMetrics = namedtuple("TrialMetrics", METRIC_FIELDS)

CSV_COLUMNS = (
    "region", "lambda", "p", "r", "mode", "trials",
    "n_sensors_mean", "initial_errors_mean", "final_errors_mean", "final_errors_se",
    "corrected_mean", "new_errors_mean", "errors_in_zr_mean", "errors_in_zr_and_x_mean",
    "correction_rate_mean",
    "thm1_upper", "thm1_lower", "thm2_upper", "thm3_upper", "combined_upper",
)


def trial_seed(master_seed: int, lam: float, trial_index: int) -> int:
    """Per-trial sub-seed; excludes region, p, and r by design."""
    bits = int(np.float64(lam).view(np.uint64))
    key = (bits >> 32, bits & 0xFFFFFFFF, trial_index)
    return int(np.random.SeedSequence(master_seed, spawn_key=key).generate_state(1, np.uint64)[0])


def compute_metrics(truth, measured, decided, signed_dist, r: float) -> TrialMetrics:
    """Bucket final decisions against ground truth, split by the band Z_r.

    Both correction rates are 1 when the trial has no initial error.
    """
    wrong0 = measured != truth
    wrong1 = decided != truth
    in_zr = np.abs(signed_dist) <= r
    in_x = signed_dist >= 0.0
    initial = int(np.count_nonzero(wrong0))
    final = int(np.count_nonzero(wrong1))
    corrected = int(np.count_nonzero(wrong0 & ~wrong1))
    new_errors = int(np.count_nonzero(~wrong0 & wrong1))
    errors_in_zr = int(np.count_nonzero(wrong1 & in_zr))
    errors_in_zr_and_x = int(np.count_nonzero(wrong1 & in_zr & in_x))
    net = 1.0 if initial == 0 else (initial - final) / initial
    gross = 1.0 if initial == 0 else corrected / initial
    return TrialMetrics(
        n_sensors=truth.shape[0],
        initial_errors=initial,
        final_errors=final,
        corrected=corrected,
        new_errors=new_errors,
        errors_in_zr=errors_in_zr,
        errors_in_zr_and_x=errors_in_zr_and_x,
        errors_outside_zr=final - errors_in_zr,
        correction_rate=net,
        gross_correction_rate=gross,
    )


def _cells(master_seed, lam, trial, regions, p_values, r_values, mode):
    """(field, outcome, metrics) of one sampled field's every (region, p, r) cell, radius-major.

    The cells share the field and one pair listing at the largest radius,
    with a view at each radius. They run radius by radius, over the distinct
    radii in the order given, and at each radius over the (region, p) cells
    in grid order, so the listing holds one radius's U at a time. The listing
    is handed every (region, p) measurement vector first, so that it tallies
    them several to a word.
    """
    _check_sampled((lam,))
    seed = trial_seed(master_seed, lam, trial)
    field = sample_field(lam, seed)
    # built before the measurements exist, so they miss the listing's peak
    indexes = build_indexes(field, r_values)
    fields = [measured for region in regions
              for measured in assign_measurements_at(field, region, p_values, seed)]
    indexes[0].share_tallies(measured.measured for measured in fields)
    for index in dict.fromkeys(indexes):  # equal radii share a view, run once
        for measured in fields:
            outcome = run_vote(measured, index, mode)
            yield measured, outcome, compute_metrics(
                measured.truth, measured.measured, outcome.decided,
                measured.boundary_dist, index.r)


def mean_and_se(values) -> tuple[float, float]:
    """Mean of a 1-D vector of trial values and its standard error (0 for one trial)."""
    values = np.asarray(values, dtype=float)
    se = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    return float(values.mean()), se


# ---------------------------------------------------------------------------
# Sweeps


# a sweep cell: its grid point, each metric's trial mean, the SE of the
# final-error mean, and the bound report's columns, which close CSV_COLUMNS
SweepRow = namedtuple("SweepRow", (
    "region", "lam", "p", "r", "mode", "trials", *(f"{name}_mean" for name in METRIC_FIELDS),
    "final_errors_se", *CSV_COLUMNS[-5:]))


@dataclass(frozen=True)
class SweepResult:
    rows: list
    regions: tuple
    lam_values: tuple
    p_values: tuple
    r_values: tuple
    mode: VoteMode
    seed: int
    trials: int
    per_trial: np.ndarray  # shape (regions, lams, ps, rs, trials, metrics)

    def row(self, region_name: str, lam: float, p: float, r: float) -> SweepRow:
        for row in self.rows:
            if (row.region == region_name and row.lam == lam
                    and math.isclose(row.p, p, abs_tol=1e-12)
                    and math.isclose(row.r, r, abs_tol=1e-12)):
                return row
        raise KeyError(f"no sweep cell ({region_name}, {lam}, {p}, {r})")


def _field_unit(master_seed, lam, trial, regions, p_values, r_values, mode):
    """All metrics of one sampled field, shaped (regions, p values, r values, metrics)."""
    cells = _cells(master_seed, lam, trial, regions, p_values, r_values, mode)
    out = np.array([m for _, _, m in cells], dtype=float)
    radii = list(dict.fromkeys(float(r) for r in r_values))  # the distinct radii _cells runs
    out = out.reshape(len(radii), len(regions), len(p_values), len(METRIC_FIELDS))
    return out.transpose(1, 2, 0, 3)[:, :, [radii.index(float(r)) for r in r_values]]


class GridError(ValueError):
    """A command input outside the domain of the model or its bounds."""


def check_inputs(r_values, p_values, lam_values, *, seed: int = 0, trials: int = 1,
                 workers: int = 1) -> None:
    """Raise a GridError for a grid, seed, trial count or worker count the model cannot run.

    Every command checks its inputs here before it samples a field. The rules
    that only the bounds need stay in bound_table.
    """
    if seed < 0:
        raise GridError("seed must be nonnegative")
    if trials < 1:
        raise GridError("trials must be at least 1")
    if workers < 1:
        raise GridError("workers must be at least 1")
    if not (r_values and p_values and lam_values):
        raise GridError("grids must be nonempty")
    for lam in lam_values:
        if not lam > 0:
            raise GridError(f"lambda={lam} must be positive")
        if not math.isfinite(lam):
            raise GridError(f"lambda={lam} must be finite")
    for p in p_values:
        if not 0.0 <= p <= 0.5:
            raise GridError(f"p={p} must lie in [0, 1/2]")
    for r in r_values:
        if not r > 0:
            raise GridError(f"r={r} must be positive")


def _check_sampled(lam_values) -> None:
    """Raise a GridError for a lambda too large to sample: sensor ids are int32.

    The bounds take any finite lambda, so only the commands that sample check it.
    """
    for lam in lam_values:
        if lam >= 2**31:
            raise GridError(f"lambda={lam} must be below 2**31 to sample: sensor ids are int32")


def bound_table(r_values, p_values, lam_values, regions) -> list:
    """Bound report of every grid cell, in sweep row order (region, lam, p, r).

    Checks the grids first and evaluates no field, so a sweep whose grid or
    bounds are out of domain fails with a GridError before it samples anything.
    """
    check_inputs(r_values, p_values, lam_values)
    if not regions:
        raise GridError("grids must be nonempty")
    for r in r_values:
        if 4.0 * math.pi * r * r < sys.float_info.min:  # Theorem 1's lower bound divides by it
            raise GridError(f"r={r} is too small: 4*pi*r^2 underflows")
    reports = []
    for region in regions:
        zr_areas = [area.value for area in dubious_zone_areas(region, r_values)]
        for r, zr_area in zip(r_values, zr_areas):
            if zr_area >= 1.0:  # Theorem 1 needs some area outside Z_r
                raise GridError(f"Z_r of region {region.name} at r={r} covers Y")
        reports += [bound_report(region, lam, p, r, zr_area)
                    for lam in lam_values for p in p_values
                    for r, zr_area in zip(r_values, zr_areas)]
    return reports


def run_units(seed, lam_values, trials, regions, p_values, r_values, mode,
              workers=1) -> np.ndarray:
    """Every trial's metrics, shaped (regions, lams, ps, rs, trials, metrics).

    Work units are (lam, trial) fields; each unit evaluates every region, p,
    and r on the same sampled positions. The units fill the array in fixed
    lam/trial order, so it is identical for any worker count. The caller
    checks the inputs; a lambda too large to sample raises a GridError here,
    before any field is sampled.
    """
    _check_sampled(lam_values)
    per_trial = np.empty((len(regions), len(lam_values), len(p_values), len(r_values),
                          trials, len(METRIC_FIELDS)))
    units = [(li, t) for li in range(len(lam_values)) for t in range(trials)]
    unit = functools.partial(_field_unit, seed, regions=regions, p_values=p_values,
                             r_values=r_values, mode=mode)
    workers = min(workers, len(units))  # a fork pool starts all its workers at once
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        results = (pool.map if pool else map)(
            unit, [lam_values[li] for li, _ in units], [t for _, t in units])
        for li, t in units:  # no name holds a unit's metrics while the next one runs
            per_trial[:, li, :, :, t, :] = next(results)
    return per_trial


def sweep(r_values, p_values, lam_values, regions, *, seed: int = 0, trials: int = 1,
          mode: VoteMode = SINGLE_ROUND, workers: int = 1) -> SweepResult:
    """Cartesian sweep: run_units' per-trial metrics, aggregated per cell beside its bounds.

    The grids and the bounds are checked before any field is sampled.
    Reduction runs in fixed grid/trial order, so the output is identical for
    any worker count.
    """
    r_values = tuple(float(v) for v in r_values)
    p_values = tuple(float(v) for v in p_values)
    lam_values = tuple(float(v) for v in lam_values)
    regions = tuple(regions)
    check_inputs(r_values, p_values, lam_values, seed=seed, trials=trials, workers=workers)
    reports = bound_table(r_values, p_values, lam_values, regions)
    per_trial = run_units(seed, lam_values, trials, regions, p_values, r_values, mode, workers)

    rows = []
    fi = METRIC_FIELDS.index("final_errors")
    # the grid axes in bound table order (region, lam, p, r)
    for (gi, li, pi, ri), b in zip(np.ndindex(per_trial.shape[:4]), reports):
        cell = per_trial[gi, li, pi, ri]  # (trials, metrics)
        rows.append(SweepRow(
            regions[gi].name, lam_values[li], p_values[pi], r_values[ri], mode.kind, trials,
            *map(float, cell.mean(axis=0)), mean_and_se(cell[:, fi])[1],
            *(getattr(b, name) for name in CSV_COLUMNS[-5:])))
    return SweepResult(rows=rows, regions=regions, lam_values=lam_values,
                       p_values=p_values, r_values=r_values, mode=mode,
                       seed=seed, trials=trials, per_trial=per_trial)


def best_radius(result: SweepResult, p: float, tie_se: float = 3.0) -> tuple[float, float]:
    """Radius grid cell(s) minimizing mean final errors for a p slice.

    Final-error means are averaged over lambda values and regions with equal
    weight. Cells whose paired difference from the minimizing cell is within
    tie_se standard errors count as tied (trials share fields across r, so
    the paired comparison is tight); tie_se=0 returns exact argmin cells only.
    The return value is the (lowest, highest) tied radius.
    """
    try:
        pi = next(k for k, v in enumerate(result.p_values)
                  if math.isclose(v, p, abs_tol=1e-12))
    except StopIteration:
        raise ValueError(f"p={p} not present in the sweep") from None
    fi = METRIC_FIELDS.index("final_errors")
    # (r, trial) matrix of final errors averaged over regions and lambdas
    agg = result.per_trial[:, :, pi, :, :, fi].mean(axis=(0, 1))
    means = agg.mean(axis=1)
    k0 = int(np.argmin(means))
    winners = []
    for k in range(agg.shape[0]):
        mean_diff, se = mean_and_se(agg[k] - agg[k0])
        if k == k0 or mean_diff == 0.0 or mean_diff <= tie_se * se:
            winners.append(result.r_values[k])
    return min(winners), max(winners)


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    f = float(value)
    if math.isnan(f):
        return "nan"
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _write_table(fh, columns, rows) -> None:
    """Write a header of column names and one comma-separated line per row of values."""
    fh.write(",".join(columns) + "\n")
    for values in rows:
        fh.write(",".join(_fmt(v) for v in values) + "\n")


def write_sweep_csv(result: SweepResult, fh) -> None:
    """Emit the sweep table with the fixed column set, one row per grid cell."""
    fields = ["lam" if name == "lambda" else name for name in CSV_COLUMNS]
    _write_table(fh, CSV_COLUMNS, ([getattr(row, f) for f in fields] for row in result.rows))


def sweep_csv_string(result: SweepResult) -> str:
    import io

    buf = io.StringIO()
    write_sweep_csv(result, buf)
    return buf.getvalue()
