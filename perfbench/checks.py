"""Output checks for the benchmark workloads, made apart from the program.

Every check rebuilds the sensor fields from the program's public inputs
(`trial_seed`, `sample_field`, `assign_measurements` and the regions) and
recomputes the vote with code written here: an all-pairs closed-ball
majority for single-round sweeps, a scipy sparse adjacency for multi-round
sweeps and k-d tree ball counts for the comb. The program's `neighborhood`,
`vote` and metric code is not used. The remaining checks are properties the
method must have. None compares against a stored copy of earlier output.

Each check returns a `Verdict`: the operations it covered (sweep cells or
worst-case trials), the ones that failed, and notes to print.
"""
from __future__ import annotations

import csv
import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.sparse
from scipy.spatial import cKDTree

from boundaryvote import assign_measurements, sample_field, trial_seed

# Pooled counts must lie within this many standard errors of expectation.
Z_LIMIT = 5.0
# Multi-round reference scores this close to zero may round either way.
TIE_EPS = 1e-12

COUNT_FIELDS = ("initial_errors", "final_errors", "corrected", "new_errors",
                "errors_in_zr", "errors_in_zr_and_x")


@dataclass
class Verdict:
    attempted: int
    failed: set = field(default_factory=set)
    notes: list = field(default_factory=list)

    def fail(self, keys, why):
        keys = list(keys)
        self.failed.update(keys)
        self.notes.append(f"FAIL ({len(keys)} ops): {why}")


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# Independent recomputation


def fields_for(seed, lam, trial, regions, p_values):
    """The trial's field, and its measured copy for every (region, p)."""
    s = trial_seed(seed, lam, trial)
    base = sample_field(lam, s)
    return base, {(g.name, p): assign_measurements(base, g, p, s)
                  for g in regions for p in p_values}


def error_counts(truth, measured, decided, sd, r):
    """The six error counts of one vote, by their definitions."""
    wrong0 = measured != truth
    wrong1 = decided != truth
    in_zr = np.abs(sd) <= r
    return {
        "initial_errors": int(wrong0.sum()),
        "final_errors": int(wrong1.sum()),
        "corrected": int((wrong0 & ~wrong1).sum()),
        "new_errors": int((~wrong0 & wrong1).sum()),
        "errors_in_zr": int((wrong1 & in_zr).sum()),
        "errors_in_zr_and_x": int((wrong1 & in_zr & (sd >= 0.0)).sum()),
    }


def majority(measured, votes_in, k):
    """Strict majority of the neighbors; a tie keeps the own measurement."""
    margin = 2 * votes_in - k
    return np.where(margin > 0, True, np.where(margin < 0, False, measured))


def reference_single(seed, lam, trial, regions, p_values, r_values):
    """{(region, p, r): (counts, 0)} of one trial by an all-pairs closed-ball vote."""
    base, measured = fields_for(seed, lam, trial, regions, p_values)
    x, y = base.x, base.y
    dist = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])
    np.fill_diagonal(dist, np.inf)
    keys = list(measured)
    m = np.column_stack([measured[key].measured for key in keys]).astype(np.float32)
    out = {}
    for r in r_values:
        adj = (dist <= r).astype(np.float32)
        k = adj.sum(axis=1).astype(np.int64)
        votes = np.rint(adj @ m).astype(np.int64)
        for c, (name, p) in enumerate(keys):
            fld = measured[(name, p)]
            decided = majority(fld.measured, votes[:, c], k)
            out[(name, p, r)] = (error_counts(fld.truth, fld.measured, decided,
                                              fld.boundary_dist, r), 0)
    return base.n, out


def round_count(p, r, c):
    """t = max(ceil(c*p/r), 1), in exact decimal arithmetic."""
    ratio = Fraction(repr(c)) * Fraction(repr(p)) / Fraction(repr(r))
    return max(math.ceil(ratio), 1)


def reference_multi(seed, lam, trial, regions, cells, c):
    """{(region, p, r): (counts, near-tie sensors)} of one trial, by sparse products."""
    base, measured = fields_for(seed, lam, trial, regions, sorted({p for p, _ in cells}))
    tree = cKDTree(np.column_stack((base.x, base.y)))
    out = {}
    for r in sorted({r for _, r in cells}):
        rec = tree.sparse_distance_matrix(tree, r, output_type="ndarray")
        rec = rec[rec["i"] != rec["j"]]
        adj = scipy.sparse.csr_matrix(
            (np.ones(len(rec)), (rec["i"], rec["j"])), shape=(base.n, base.n))
        k = np.asarray(adj.sum(axis=1)).ravel()
        for p in sorted({p for p, rr in cells if rr == r}):
            t = round_count(p, r, c)
            for g in regions:
                fld = measured[(g.name, p)]
                score = np.where(fld.measured, 1.0, -1.0)
                decided = fld.measured.copy()
                for _ in range(t):
                    score = np.where(k > 0, (adj @ score) / np.maximum(k, 1), score)
                    decided = np.where(score > 0, True, np.where(score < 0, False, decided))
                # A final score away from zero fixes the decision. First-round
                # scores are exact (integer sums); later rounds add fractions
                # in another order than the program, so a final score near
                # zero may fall either way.
                near_tie = int(np.count_nonzero(np.abs(score) <= TIE_EPS)) if t > 1 else 0
                counts = error_counts(fld.truth, fld.measured, decided, fld.boundary_dist, r)
                out[(g.name, p, r)] = (counts, near_tie)
    return base.n, out


# ---------------------------------------------------------------------------
# Sweep checks


def _trial_sums(row, trials):
    """Per-field sums behind a row's means; None if a mean is not k/trials."""
    sums = {}
    for name in ("n_sensors",) + COUNT_FIELDS:
        total = float(row[f"{name}_mean"]) * trials
        if abs(total - round(total)) > 1e-6 * max(1.0, abs(total)):
            return None
        sums[name] = int(round(total))
    return sums


def check_sweep(rows, *, seed, trials, mode, regions, lam_values, p_values, r_values,
                recompute_lams=(), multi_cells=(), c=0.5):
    """Check a sweep CSV cell by cell.

    Single-round sweeps recompute every cell of each lambda in
    `recompute_lams`; multi-round sweeps recompute the (p, r) `multi_cells`
    of every region. Every cell gets the property checks.
    """
    grid = [(g.name, lam, p, r) for g in regions for lam in lam_values
            for p in p_values for r in r_values]
    verdict = Verdict(attempted=len(grid))
    cells = {}
    for row in rows:
        key = (row["region"], float(row["lambda"]), float(row["p"]), float(row["r"]))
        cells[key] = row
    missing = [key for key in grid if key not in cells]
    if missing:
        verdict.fail(missing, "cells missing from the CSV")
    bad_meta = [key for key in grid if key in cells and (
        cells[key]["mode"] != mode or int(cells[key]["trials"]) != trials)]
    if bad_meta:
        verdict.fail(bad_meta, "mode or trials column does not match the command")
    sums = {key: _trial_sums(cells[key], trials) for key in grid if key in cells}
    not_integral = [key for key, s in sums.items() if s is None]
    if not_integral:
        verdict.fail(not_integral, "a mean is not a whole count over the trials")
    sums = {key: s for key, s in sums.items() if s is not None}

    broken = [key for key, s in sums.items() if not (
        s["final_errors"] == s["initial_errors"] - s["corrected"] + s["new_errors"]
        and 0 <= s["corrected"] <= s["initial_errors"]
        and s["errors_in_zr_and_x"] <= s["errors_in_zr"] <= s["final_errors"])]
    if broken:
        verdict.fail(broken, "final != initial - corrected + new, or errors in Z_r > final")

    for lam in lam_values:
        n_values = {s["n_sensors"] for key, s in sums.items() if key[1] == lam}
        if len(n_values) > 1:
            verdict.fail([key for key in sums if key[1] == lam],
                         f"lambda={lam:g}: sensor count differs between cells")
        for p in p_values:
            group = [key for key in sums if key[1] == lam and key[2] == p]
            if len({sums[key]["initial_errors"] for key in group}) > 1:
                verdict.fail(group, f"lambda={lam:g} p={p:g}: initial errors depend on r or region")

    for p in p_values:
        observed, expected = 0, 0.0
        for lam in lam_values:
            group = [key for key in sums if key[1] == lam and key[2] == p]
            if group:
                observed += sums[group[0]]["initial_errors"]
                expected += lam * p * trials
        z = (observed - expected) / math.sqrt(expected) if expected > 0 else 0.0
        if abs(z) > Z_LIMIT:
            verdict.fail([key for key in sums if key[2] == p],
                         f"p={p:g}: pooled initial errors {observed} vs lambda*p {expected:g} (z={z:.2f})")

    references = [(lam, "all-pairs vote", functools.partial(
        reference_single, seed, lam, regions=regions, p_values=p_values, r_values=r_values))
        for lam in recompute_lams]
    references += [(lam, "sparse-adjacency rounds", functools.partial(
        reference_multi, seed, lam, regions=regions, cells=multi_cells, c=c))
        for lam in (lam_values if multi_cells else ())]
    for lam, method, reference in references:
        ref = {}
        for t in range(trials):
            n, counts = reference(trial=t)
            for cell, (values, near) in counts.items():
                acc = ref.setdefault(cell, [Counter(), 0, 0])
                acc[0].update(values)
                acc[1] += near
                acc[2] += n
        wrong = []
        for (name, p, r), (want, near, n_total) in ref.items():
            got = sums.get((name, lam, p, r))
            if got is not None and (
                    got["n_sensors"] != n_total or got["initial_errors"] != want["initial_errors"]
                    or any(abs(got[f] - want[f]) > near for f in COUNT_FIELDS)):
                wrong.append((name, lam, p, r))
        if wrong:
            verdict.fail(wrong, f"lambda={lam:g}: counts differ from the {method}")
        ties = sum(near for _, near, _ in ref.values())
        verdict.notes.append(
            f"lambda={lam:g}: {len(ref)} cells recomputed by {method}, {len(ref) - len(wrong)} agree"
            + (f"; {ties} sensors ended with a reference score within {TIE_EPS:g} of zero"
               if multi_cells else ""))
    return verdict


# ---------------------------------------------------------------------------
# Worst-case comb


def reference_comb_trial(seed, lam, trial, region, p, r):
    """(sensors, sensors inside, errors in Z_r) from k-d tree ball counts."""
    s = trial_seed(seed, lam, trial)
    fld = assign_measurements(sample_field(lam, s), region, p, s)
    pos = np.column_stack((fld.x, fld.y))
    own = fld.measured.astype(np.int64)
    k = cKDTree(pos).query_ball_point(pos, r, return_length=True) - 1
    votes_in = cKDTree(pos[fld.measured]).query_ball_point(pos, r, return_length=True) - own
    decided = majority(fld.measured, votes_in, k)
    wrong = (decided != fld.truth) & (np.abs(fld.boundary_dist) <= r)
    return fld.n, int(fld.truth.sum()), int(wrong.sum())


def check_comb(rows, *, seed, trials, lam, p, r, ell, region):
    """Check a `worstcase --shape comb` CSV; its trials pass or fail together."""
    verdict = Verdict(attempted=trials)
    everything = range(trials)
    if len(rows) != 1:
        verdict.fail(everything, f"expected one CSV row, got {len(rows)}")
        return verdict
    row = rows[0]
    ref = [reference_comb_trial(seed, lam, t, region, p, r) for t in range(trials)]
    n = np.array([v[0] for v in ref], dtype=float)
    inside = np.array([v[1] for v in ref], dtype=float) / n
    in_zr = np.array([v[2] for v in ref], dtype=float)
    mean = float(row["errors_in_zr_mean"])
    lower = float(row["lower_target"])
    upper = float(row["thm2_upper"])
    if int(row["trials"]) != trials or row["shape"] != "comb":
        verdict.fail(everything, "shape or trials column does not match the command")
    if not math.isclose(float(row["n_sensors_mean"]), n.mean(), rel_tol=1e-12):
        verdict.fail(everything, f"n_sensors_mean {row['n_sensors_mean']} != {n.mean()!r}")
    if not math.isclose(mean, in_zr.mean(), rel_tol=1e-12):
        verdict.fail(everything, f"errors_in_zr_mean {mean!r} != ball-count vote {in_zr.mean()!r}")
    if not math.isclose(lower, lam * ell * ell / 32.0, rel_tol=1e-12):
        verdict.fail(everything, f"lower_target {lower!r} != lambda*ell^2/32")
    expected_t2 = 2.0 * lam * r * region.perimeter + lam * math.pi * r * r * region.components
    if not math.isclose(upper, expected_t2, rel_tol=1e-12):
        verdict.fail(everything, f"thm2_upper {upper!r} != 2*lambda*r*peri + lambda*pi*r^2")
    if not lower <= mean <= upper:
        verdict.fail(everything, f"errors_in_zr_mean {mean:g} outside [{lower:g}, {upper:g}]")
    se = inside.std(ddof=1) / math.sqrt(trials) if trials > 1 else math.inf
    z = (inside.mean() - region.area) / se
    if abs(z) > Z_LIMIT:
        verdict.fail(everything, f"fraction inside {inside.mean():.6f} vs comb area "
                                 f"{region.area:.6f} (z={z:.2f})")
    verdict.notes.append(f"{trials} comb trials recomputed by ball counts; errors_in_zr mean "
                         f"{in_zr.mean():g} in [{lower:g}, {upper:g}]; inside-fraction z={z:.2f}")
    return verdict
