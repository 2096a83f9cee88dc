"""Self-tests for the benchmark's output checks.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Each test runs a boundaryvote command on a small field, hands its output to
the check the benchmark uses, and expects no failed operation. It then runs
the command again with one rule of the program deliberately broken (patched
in this process only) and expects the check to report failed operations.
These tests are not part of the repository's test suite. The script exits
with 1 if any test fails.
"""
from __future__ import annotations

import sys
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from boundaryvote import cli, vote  # noqa: E402
from boundaryvote.geometry import build_comb, region_xl, region_xs  # noqa: E402

OUT = HERE / "out" / "selftest"
SEED = 7


def own_reading_votes(field, index):
    """Broken single round: the sensor's own reading counts as one more vote."""
    votes_in = index.count_sums(field.measured) + field.measured
    k = index.counts + 1
    decided = checks.majority(field.measured, votes_in, k)
    return vote.VoteOutcome(decided=decided, rounds_executed=1)


def own_score_in_mean(field, index, t, keep_history=False):
    """Broken multi round: the sensor's own score enters its neighbor mean."""
    score = np.where(field.measured, 1.0, -1.0)
    decided = field.measured.copy()
    k = index.counts
    for _ in range(t):
        score = (index.weighted_sums(score) + score) / (k + 1)
        decided = np.where(score > 0.0, True, np.where(score < 0.0, False, decided))
    return vote.VoteOutcome(decided=decided, rounds_executed=t)


def run_cli(name, argv):
    path = OUT / f"{name}.csv"
    code = cli.main([*argv, "--seed", str(SEED), "--out", str(path)])
    if code != 0:
        raise RuntimeError(f"boundaryvote {' '.join(argv)} exited with {code}")
    return checks.read_csv(path)


SINGLE = dict(regions=[region_xs(), region_xl()], lam_values=(500.0, 1000.0),
              p_values=(0.1, 0.3), r_values=(0.03, 0.06, 0.1))
SINGLE_ARGV = ["sweep", "--lambda-values", "500,1000", "--p-values", "0.1,0.3",
               "--r-values", "0.03,0.06,0.1", "--trials", "2"]


def check_single(rows):
    return checks.check_sweep(rows, seed=SEED, trials=2, mode="single",
                              recompute_lams=SINGLE["lam_values"], **SINGLE)


def test_single_round_check():
    good = check_single(run_cli("single", SINGLE_ARGV))
    assert not good.failed, good.notes
    with mock.patch.object(vote, "majority_round", own_reading_votes):
        bad = check_single(run_cli("single-own-vote", SINGLE_ARGV))
    assert bad.failed, "a vote that counts the own reading passed the check"
    return f"own-reading vote: {len(bad.failed)} of {bad.attempted} cells fail"


def test_sweep_properties():
    rows = run_cli("single", SINGLE_ARGV)
    row = rows[5]
    row["final_errors_mean"] = repr(float(row["final_errors_mean"]) + 1.0)
    bad = checks.check_sweep(rows, seed=SEED, trials=2, mode="single", **SINGLE)
    key = (row["region"], float(row["lambda"]), float(row["p"]), float(row["r"]))
    assert key in bad.failed, bad.notes
    row["initial_errors_mean"] = "0"
    bad = checks.check_sweep(rows, seed=SEED, trials=2, mode="single", **SINGLE)
    assert len(bad.failed) > 1, bad.notes
    return f"edited cells: {len(bad.failed)} of {bad.attempted} cells fail"


def test_multi_round_check():
    grid = dict(regions=[region_xs(), region_xl()], lam_values=(2000.0,),
                p_values=(0.1, 0.35), r_values=(0.01, 0.05))
    argv = ["sweep", "--mode", "multi", "--lambda-values", "2000", "--p-values", "0.1,0.35",
            "--r-values", "0.01,0.05", "--trials", "2"]
    cells = [(0.35, 0.01), (0.1, 0.05)]

    def check(rows):
        return checks.check_sweep(rows, seed=SEED, trials=2, mode="multi",
                                  multi_cells=cells, **grid)

    good = check(run_cli("multi", argv))
    assert not good.failed, good.notes
    with mock.patch.object(vote, "multi_round", own_score_in_mean):
        bad = check(run_cli("multi-own-score", argv))
    assert bad.failed, "rounds that average in the own score passed the check"
    return f"own score in the mean: {len(bad.failed)} of {bad.attempted} cells fail"


def test_comb_check():
    argv = ["worstcase", "--shape", "comb", "--lambda", "3000", "--p", "0.25",
            "--r", "0.05", "--ell", "0.4", "--trials", "4"]

    def check(rows):
        return checks.check_comb(rows, seed=SEED, trials=4, lam=3000.0, p=0.25, r=0.05,
                                 ell=0.4, region=build_comb(0.05, 0.4))

    good = check(run_cli("comb", argv))
    assert not good.failed, good.notes
    with mock.patch.object(vote, "majority_round", own_reading_votes):
        bad = check(run_cli("comb-own-vote", argv))
    assert bad.failed, "a comb vote that counts the own reading passed the check"
    return f"own-reading vote: {len(bad.failed)} of {bad.attempted} trials fail"


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    failures = 0
    for name, test in [(k, v) for k, v in globals().items() if k.startswith("test_")]:
        try:
            print(f"PASS {name}: {test()}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
