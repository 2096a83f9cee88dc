"""Poisson sensor fields over the unit square with independent 0-1 noise.

All randomness flows through labeled sub-streams of one seed so that the
sensor count, the positions, and the measurement-noise draws are independent
streams: changing the error probability p never moves a sensor, and the same
uniform draws decide the flips for every p (common random numbers).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

_STREAM_COUNT = 1
_STREAM_POSITIONS = 2
_STREAM_FLIPS = 3


def _stream(seed: int, label: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(label,)))


@dataclass(frozen=True)
class SensorField:
    """Immutable sensor field; truth/measured appear after assign_measurements."""

    x: np.ndarray
    y: np.ndarray
    lam: float
    seed: int
    p: float | None = None
    truth: np.ndarray | None = None
    measured: np.ndarray | None = None
    boundary_dist: np.ndarray | None = None  # signed distance per sensor

    @property
    def n(self) -> int:
        return self.x.shape[0]


def sample_field(lam: float, seed: int) -> SensorField:
    """Draw N ~ Poisson(lam) sensors placed i.i.d. uniformly on the unit square."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    n = int(_stream(seed, _STREAM_COUNT).poisson(lam))
    pos = _stream(seed, _STREAM_POSITIONS).random((n, 2))
    return SensorField(x=pos[:, 0].copy(), y=pos[:, 1].copy(), lam=float(lam), seed=int(seed))


def assign_measurements(field: SensorField, region, p: float, seed: int | None = None) -> SensorField:
    """Attach ground truth and noisy measurements to a field.

    truth = membership in the region; measured = truth XOR Bernoulli(p), with
    flips independent of positions. The theorems assume p <= 1/2, so larger
    p is rejected.
    """
    return assign_measurements_at(field, region, (p,), seed)[0]


def assign_measurements_at(field: SensorField, region, p_values, seed: int | None = None) -> list:
    """assign_measurements for each p in turn, from one signed distance and one flip draw.

    The measured copies share their truth and boundary_dist arrays.
    """
    for p in p_values:
        if not 0.0 <= p <= 0.5:
            raise ValueError("p must lie in [0, 1/2]")
    if seed is None:
        seed = field.seed
    sd = np.asarray(region.signed_distance(field.x, field.y), dtype=float)
    truth = sd >= 0.0
    u = _stream(seed, _STREAM_FLIPS).random(field.n)
    return [replace(field, p=float(p), truth=truth, measured=truth ^ (u < p), boundary_dist=sd)
            for p in p_values]


def write_field_csv(field: SensorField, path) -> None:
    """Dump a measured field as CSV with columns id,x,y,truth,measured."""
    if field.truth is None or field.measured is None:
        raise ValueError("field has no measurements; call assign_measurements first")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("id,x,y,truth,measured\n")
        for i in range(field.n):
            fh.write(
                f"{i},{float(field.x[i])!r},{float(field.y[i])!r},"
                f"{int(field.truth[i])},{int(field.measured[i])}\n"
            )
