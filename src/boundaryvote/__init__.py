"""Local event-boundary detection by unreliable 0-1 sensors.

Simulation of the neighborhood majority vote scheme (single round and
multi-round score propagation) over Poisson sensor fields, closed-form
evaluators for the analytical misclassification bounds, and a Monte Carlo
harness that validates those bounds by parameter sweep.
"""
from .bounds import (BoundReport, bad_segment_length_upper, beta_fraction,
                     beta_inverse, bound_report, combined_upper,
                     lemma_good0_prob, lemma_good1_prob, majority_tail_bounds,
                     majority_tail_exact, thm1_bounds, thm2_upper, thm3_upper)
from .geometry import (Comb, RoundedRect, SensorClass, ZoneArea,
                       ZoneLabel, build_comb, build_thin_rectangle,
                       classify_good_bad, contains, distance_to_boundary,
                       dubious_zone_area, dubious_zone_areas, region_xl, region_xs,
                       zone_of)
from .harness import (GridError, SimConfig, SweepResult, SweepRow, TrialMetrics,
                      best_radius, bound_table, run_trial, run_trial_field, sweep,
                      sweep_csv_string, trial_seed, write_sweep_csv)
from .neighborhood import NeighborIndex, build_index, build_indexes, neighbors_within
from .render import render_field
from .sampling import SensorField, assign_measurements, sample_field, write_field_csv
from .vote import (SINGLE_ROUND, VoteMode, VoteOutcome, majority_round,
                   multi_round, multi_round_mode, round_count, run_vote)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
