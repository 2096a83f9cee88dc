"""Event-region geometry: containment, signed boundary distance, offset bands.

The region of interest Y is always the unit square [0,1]^2. Event regions are
built from axis-aligned rectangles with circular corner rounding plus a
serpentine "comb" used as a worst-case shape, and must lie inside Y. Boundaries
are represented piecewise-analytically (line segments and circular arcs) with
an arc-length parameterization, so distances and arc queries are exact up to
float precision. The path decides both the sign of a distance (the side of the
nearest piece's direction of travel) and where bd(X) enters a disk (each
piece's closed-form crossing of the disk's rim). Rounded rectangles answer
distance queries with their own closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * math.pi

# Bulb-cap tangency constants for the comb free ends: a bulb of radius r is
# joined to a strip of height r/2 by concave fillets of radius r. The fillet
# center sits at offset (sqrt(39)/4 * r, 1.25 r) from the bulb center, so the
# tangency direction makes angle asin(5/8) with the strip axis.
_CAP_PHI = math.asin(5.0 / 8.0)
_CAP_DX = math.sqrt(39.0) / 4.0  # fillet-center x offset from bulb center, in units of r
# a comb's build, memory and signed distance grow linearly in its strip count
# (1000 strips: about 1.35 s per 10^4 points of signed distance)
COMB_MAX_STRIPS = 1000


class ZoneLabel(Enum):
    """Position of a point relative to X and the dubious band around bd(X)."""

    OUTSIDE_ZR_IN_X = "outside_zr_in_x"
    OUTSIDE_ZR_OUT_X = "outside_zr_out_x"
    IN_ZR_IN_X = "in_zr_in_x"
    IN_ZR_OUT_X = "in_zr_out_x"


class SensorClass(Enum):
    GOOD = "good"
    BAD = "bad"
    NOT_IN_ZR = "not_in_zr"


# ---------------------------------------------------------------------------
# Boundary pieces


@dataclass(frozen=True)
class Segment:
    """Directed line segment from p0 to p1."""

    x0: float
    y0: float
    x1: float
    y1: float

    @property
    def length(self) -> float:
        return math.hypot(self.x1 - self.x0, self.y1 - self.y0)

    def point_at(self, s):
        t = np.asarray(s, dtype=float) / self.length
        return self.x0 + t * (self.x1 - self.x0), self.y0 + t * (self.y1 - self.y0)

    @property
    def box(self) -> tuple[float, float, float, float]:
        return (min(self.x0, self.x1), min(self.y0, self.y1),
                max(self.x0, self.x1), max(self.y0, self.y1))

    def signed_distance(self, x, y):
        """Distance to the segment, negated right of its direction of travel."""
        dx, dy = self.x1 - self.x0, self.y1 - self.y0
        px, py = np.asarray(x, dtype=float) - self.x0, np.asarray(y, dtype=float) - self.y0
        t = np.clip((px * dx + py * dy) / (dx * dx + dy * dy), 0.0, 1.0)
        d = np.hypot(px - t * dx, py - t * dy)
        return np.where(dx * py - dy * px >= 0.0, d, -d)

    def entry(self, px: float, py: float, r: float) -> list[float]:
        """Offsets in [0, length) where the segment enters the closed r-disk at (px, py)."""
        length = self.length
        ux, uy = (self.x1 - self.x0) / length, (self.y1 - self.y0) / length
        wx, wy = self.x0 - px, self.y0 - py
        b = ux * wx + uy * wy
        disc = b * b - (wx * wx + wy * wy - r * r)
        if disc <= 0.0:
            return []
        s = -b - math.sqrt(disc)  # the first root: outside -> inside
        return [s] if 0.0 <= s < length else []

    def area_term(self) -> float:
        # Green's theorem contribution of integral x dy along the segment.
        return 0.5 * (self.x0 + self.x1) * (self.y1 - self.y0)


@dataclass(frozen=True)
class Arc:
    """Circular arc traversed from angle a0 to a1 (CCW iff a1 > a0)."""

    cx: float
    cy: float
    radius: float
    a0: float
    a1: float

    @property
    def length(self) -> float:
        return self.radius * abs(self.a1 - self.a0)

    def point_at(self, s):
        t = np.asarray(s, dtype=float) / self.length
        a = self.a0 + t * (self.a1 - self.a0)
        return self.cx + self.radius * np.cos(a), self.cy + self.radius * np.sin(a)

    @property
    def box(self) -> tuple[float, float, float, float]:
        """The full circle's bounding box, which holds the arc."""
        rho = self.radius
        return self.cx - rho, self.cy - rho, self.cx + rho, self.cy + rho

    def signed_distance(self, x, y):
        """Distance to the arc, negated right of its direction of travel."""
        px = np.asarray(x, dtype=float) - self.cx
        py = np.asarray(y, dtype=float) - self.cy
        rho = np.hypot(px, py)
        lo, hi = min(self.a0, self.a1), max(self.a0, self.a1)
        theta = np.arctan2(py, px)
        theta = lo + np.mod(theta - lo, TWO_PI)
        on_arc = theta <= hi
        d_circle = np.abs(rho - self.radius)
        ex0, ey0 = self.point_at(0.0)
        ex1, ey1 = self.point_at(self.length)
        d_ends = np.minimum(
            np.hypot(np.asarray(x) - ex0, np.asarray(y) - ey0),
            np.hypot(np.asarray(x) - ex1, np.asarray(y) - ey1),
        )
        d = np.where(on_arc, d_circle, d_ends)
        left = rho <= self.radius if self.a1 > self.a0 else rho >= self.radius
        return np.where(left, d, -d)

    def entry(self, px: float, py: float, r: float) -> list[float]:
        """Offsets in [0, length) where the arc enters the closed r-disk at (px, py)."""
        qx, qy = px - self.cx, py - self.cy
        rho = math.hypot(qx, qy)
        # the circle meets the disk's rim where cos(angle - atan2(q)) = k
        k = (rho * rho + self.radius * self.radius - r * r) / (2.0 * self.radius * rho)
        if not -1.0 < k < 1.0:
            return []
        turn = 1.0 if self.a1 > self.a0 else -1.0
        angle = math.atan2(qy, qx) - turn * math.acos(k)
        s = self.radius * ((angle - self.a0) * turn % TWO_PI)
        return [s] if s < self.length else []

    def area_term(self) -> float:
        # integral x dy with x = cx + R cos t, y = cy + R sin t, t from a0 to a1.
        def anti(t: float) -> float:
            return self.cx * self.radius * math.sin(t) + self.radius**2 * (
                0.5 * t + 0.25 * math.sin(2.0 * t)
            )

        return anti(self.a1) - anti(self.a0)


class BoundaryPath:
    """Closed CCW boundary made of segments and arcs, arc-length parameterized."""

    def __init__(self, pieces):
        self.pieces = [p for p in pieces if p.length > 1e-15]
        lengths = np.array([p.length for p in self.pieces])
        self.cum = np.concatenate(([0.0], np.cumsum(lengths)))
        self.length = float(self.cum[-1])

    def points_at(self, s):
        """Boundary points at arc-length positions s (wrapped mod total length)."""
        s = np.mod(np.asarray(s, dtype=float), self.length)
        idx = np.clip(np.searchsorted(self.cum, s, side="right") - 1, 0, len(self.pieces) - 1)
        x = np.empty_like(s)
        y = np.empty_like(s)
        for k, piece in enumerate(self.pieces):
            m = idx == k
            if np.any(m):
                x[m], y[m] = piece.point_at(s[m] - self.cum[k])
        return x, y

    def signed_distance(self, x, y):
        """Distance from (x, y) to the path, positive on its left (inside).

        The nearest piece decides the sign, the earlier one on a tie. That is
        exact on a tangent-continuous path, where the nearest point is the foot
        of a normal. A piece is evaluated only at points whose distance to its
        bounding box is within 1e-9 of the nearest piece so far; the margin
        covers rounding, so a skipped piece could not have been nearer.
        """
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        shape = x.shape
        x, y = x.ravel(), y.ravel()
        d = np.zeros(x.size)
        best = np.full(x.size, np.inf)
        for piece in self.pieces:
            x0, y0, x1, y1 = piece.box
            gap = np.hypot(np.maximum(np.maximum(x0 - x, x - x1), 0.0),
                           np.maximum(np.maximum(y0 - y, y - y1), 0.0))
            near = np.flatnonzero(gap <= best + 1e-9)
            dp = piece.signed_distance(x[near], y[near])
            adp = np.abs(dp)
            d[near] = np.where(adp < best[near], dp, d[near])
            best[near] = np.minimum(best[near], adp)
        return d.reshape(shape)

    def entries(self, px: float, py: float, r: float) -> np.ndarray:
        """Arc-length positions where the path enters the closed r-disk at (px, py)."""
        return np.array([self.cum[k] + s for k, piece in enumerate(self.pieces)
                         for s in piece.entry(px, py, r)])

    def enclosed_area(self) -> float:
        return float(sum(p.area_term() for p in self.pieces))


# ---------------------------------------------------------------------------
# Regions


class RoundedRect:
    """Axis-aligned rectangle with circular corner rounding (radius may be 0).

    `width`/`height` are the full outer dimensions; the straight edge pieces
    have length width - 2*corner_radius and height - 2*corner_radius.
    """

    def __init__(self, cx: float, cy: float, width: float, height: float,
                 corner_radius: float = 0.0, name: str | None = None):
        if not all(map(math.isfinite, (cx, cy, width, height, corner_radius))):
            raise ValueError("center, size and corner_radius must be finite")
        if width <= 0 or height <= 0:
            raise ValueError("width and height must be positive")
        if corner_radius < 0:
            raise ValueError("corner_radius must be nonnegative")
        if corner_radius > min(width, height) / 2 + 1e-12:
            raise ValueError("corner_radius exceeds min(width, height)/2")
        self.cx, self.cy = float(cx), float(cy)
        self.width, self.height = float(width), float(height)
        self.corner_radius = float(corner_radius)
        self.name = name or (f"rounded_rect_{cx:g}_{cy:g}_{width:g}x{height:g}_rho{corner_radius:g}")
        x0, y0, x1, y1 = self.bbox()
        if min(x0, y0) < -1e-12 or max(x1, y1) > 1.0 + 1e-12:
            raise ValueError(f"{self.name} does not fit in the unit square")
        self.components = 1
        self.convex = True
        self.min_curvature_radius = self.corner_radius
        rho = self.corner_radius
        self.area = width * height - (4.0 - math.pi) * rho * rho
        self.perimeter = 2.0 * (width + height) - 8.0 * rho + TWO_PI * rho

    def __repr__(self) -> str:
        return (f"RoundedRect(cx={self.cx}, cy={self.cy}, width={self.width}, "
                f"height={self.height}, corner_radius={self.corner_radius})")

    def bbox(self):
        hw, hh = self.width / 2, self.height / 2
        return (self.cx - hw, self.cy - hh, self.cx + hw, self.cy + hh)

    def signed_distance(self, x, y):
        """Exact Euclidean distance to bd(X), positive inside X."""
        rho = self.corner_radius
        dx = np.abs(np.asarray(x, dtype=float) - self.cx) - (self.width / 2 - rho)
        dy = np.abs(np.asarray(y, dtype=float) - self.cy) - (self.height / 2 - rho)
        outside = np.hypot(np.maximum(dx, 0.0), np.maximum(dy, 0.0))
        inside = np.minimum(np.maximum(dx, dy), 0.0)
        return rho - (outside + inside)

    def contains(self, x, y):
        """Closed-region membership: boundary points count as inside."""
        return self.signed_distance(x, y) >= 0.0

    @cached_property
    def boundary(self) -> BoundaryPath:
        hw, hh, rho = self.width / 2, self.height / 2, self.corner_radius
        cx, cy = self.cx, self.cy
        x0, x1 = cx - hw, cx + hw
        y0, y1 = cy - hh, cy + hh
        pieces = [
            Segment(x0 + rho, y0, x1 - rho, y0),
            Arc(x1 - rho, y0 + rho, rho, -math.pi / 2, 0.0),
            Segment(x1, y0 + rho, x1, y1 - rho),
            Arc(x1 - rho, y1 - rho, rho, 0.0, math.pi / 2),
            Segment(x1 - rho, y1, x0 + rho, y1),
            Arc(x0 + rho, y1 - rho, rho, math.pi / 2, math.pi),
            Segment(x0, y1 - rho, x0, y0 + rho),
            Arc(x0 + rho, y0 + rho, rho, math.pi, 1.5 * math.pi),
        ]
        return BoundaryPath(pieces)  # it drops the zero-length arcs of rho = 0

    def eroded_area(self, r: float) -> float:
        """Area of the inner parallel body at depth r (exact)."""
        w, h = self.width - 2 * r, self.height - 2 * r
        if w <= 0 or h <= 0:
            return 0.0
        rho = max(self.corner_radius - r, 0.0)
        return w * h - (4.0 - math.pi) * rho * rho


class Comb:
    """Serpentine of thin horizontal strips joined by semicircular turns.

    Strips have height r/2 and horizontal extents ell, ell-4r, ..., 4r, stacked
    with pitch 2.5r and joined at alternating ends. Free strip ends terminate
    in a bulb of radius r blended by concave fillets of radius r, so the radius
    of curvature is at least r everywhere on the boundary (turn arcs have radii
    r and 1.5r). There are ell/(4r) strips, at most COMB_MAX_STRIPS; a larger
    count raises ValueError before anything is laid out.
    """

    def __init__(self, r: float, ell: float, name: str | None = None):
        if not 0 < r < math.inf:
            raise ValueError("r must be positive and finite")
        ratio = ell / (4.0 * r)
        n = round(ratio) if math.isfinite(ratio) else 0
        if n < 1 or abs(ratio - n) > 1e-9:
            raise ValueError("ell must be a positive multiple of 4r")
        if n > COMB_MAX_STRIPS:
            raise ValueError(f"a comb of {n} strips exceeds the limit of {COMB_MAX_STRIPS}")
        self.r = float(r)
        self.ell = float(ell)
        self.strip_count = n
        self.strip_height = r / 2.0
        self.cap_radius = float(r)
        self.name = name or f"comb_r{r:g}_ell{ell:g}"
        self.components = 1
        self.convex = False
        self.min_curvature_radius = float(r)

        # strip i joins strip i+1 at its right end iff i is even
        self._ys = [i * (2.5 * r) for i in range(n)]
        self._lefts, self._rights = [0.0], [self.ell]
        for i in range(1, n):
            li = self.ell - 4.0 * r * i
            if (i - 1) % 2 == 0:
                self._rights.append(self._rights[i - 1])
                self._lefts.append(self._rights[i] - li)
            else:
                self._lefts.append(self._lefts[i - 1])
                self._rights.append(self._lefts[i] + li)
        # free (capped) ends: strip 0's left end and the last strip's far end
        self._cap_left = [i == 0 or (i == n - 1 and n % 2 == 0) for i in range(n)]
        self._cap_right = [i == n - 1 and n % 2 == 1 for i in range(n)]

        # perimeter and area come from the trace at the origin, before the
        # shift can move a segment's hypot by an ulp
        at_origin = BoundaryPath(self._trace())
        self.perimeter = at_origin.length
        self.area = at_origin.enclosed_area()
        if self.area <= 0:
            raise AssertionError("comb boundary traversal is not CCW")
        x0, y0, x1, y1 = self.bbox()
        if x1 - x0 >= 1.0 or y1 - y0 >= 1.0:
            raise ValueError("comb does not fit in the unit square")
        dx, dy = 0.5 - (x0 + x1) / 2, 0.5 - (y0 + y1) / 2  # recenter in Y
        self._ys = [y + dy for y in self._ys]
        self._lefts = [x + dx for x in self._lefts]
        self._rights = [x + dx for x in self._rights]
        self.boundary = BoundaryPath(self._trace())

    def __repr__(self) -> str:
        return f"Comb(r={self.r}, ell={self.ell})"

    def _trace(self) -> list:
        """The CCW boundary: up one side of the serpentine, around the last
        strip's free end, back down the other side, around strip 0's left end."""
        r, n, ys, lefts, rights = self.r, self.strip_count, self._ys, self._lefts, self._rights
        phi, half = _CAP_PHI, math.pi / 2

        def edge(i, top):  # a top edge runs right to left, a bottom edge left to right
            y = ys[i] + r / 4 if top else ys[i] - r / 4
            xl = lefts[i] + (_CAP_DX * r if self._cap_left[i] else 0.0)
            xr = rights[i] - (_CAP_DX * r if self._cap_right[i] else 0.0)
            return Segment(xr, y, xl, y) if top else Segment(xl, y, xr, y)

        def turn(i, outer):  # the semicircle joining strips i and i+1
            right = i % 2 == 0
            a0, a1 = (-half, half) if right else (half, 1.5 * math.pi)
            if not outer:  # the inner arc runs back
                a0, a1 = a1, a0
            return Arc(rights[i] if right else lefts[i], (ys[i] + ys[i + 1]) / 2,
                       1.5 * r if outer else r, a0, a1)

        def cap(i, right):  # fillet, bulb, fillet around a free end
            yc = ys[i]
            if right:
                bx = rights[i]
                ax = bx - _CAP_DX * r
                return [Arc(ax, yc - 1.25 * r, r, half, phi),
                        Arc(bx, yc, r, phi - math.pi, math.pi - phi),
                        Arc(ax, yc + 1.25 * r, r, -phi, -half)]
            bx = lefts[i]
            ax = bx + _CAP_DX * r
            return [Arc(ax, yc + 1.25 * r, r, -half, phi - math.pi),
                    Arc(bx, yc, r, phi, TWO_PI - phi),
                    Arc(ax, yc - 1.25 * r, r, math.pi - phi, half)]

        pieces = []
        for i in range(n - 1):
            pieces += [edge(i, i % 2 == 1), turn(i, i % 2 == 0)]
        t = n - 1
        pieces += [edge(t, t % 2 == 1), *cap(t, t % 2 == 0), edge(t, t % 2 == 0)]
        for i in range(n - 2, -1, -1):
            pieces += [turn(i, i % 2 == 1), edge(i, i % 2 == 0)]
        return pieces + cap(0, False)

    def bbox(self):
        # strip 0's left end and the last strip are capped; the first turn
        # (with one strip, the right cap) reaches furthest right
        r = self.r
        return (self._lefts[0] - r, self._ys[0] - r,
                self._rights[0] + (1.5 * r if self.strip_count > 1 else r), self._ys[-1] + r)

    def strip_area(self) -> float:
        return sum((x1 - x0) * self.strip_height for x0, x1 in zip(self._lefts, self._rights))

    def signed_distance(self, x, y):
        """Exact Euclidean distance to bd(X), positive inside X."""
        return self.boundary.signed_distance(x, y)

    def contains(self, x, y):
        """Closed-region membership: boundary points count as inside."""
        return self.signed_distance(x, y) >= 0.0


# The two experiment regions: equal area, different perimeter.
def region_xs() -> RoundedRect:
    return RoundedRect(0.5, 0.5, 0.4, 0.4, 0.1, name="XS")


def region_xl() -> RoundedRect:
    return RoundedRect(0.5, 0.5, 0.8, 0.2, 0.1, name="XL")


def build_thin_rectangle(r: float) -> RoundedRect:
    """Worst-case thin rectangle of height r/2 and width 4r, centered in Y.

    Every point of the region lies within distance r of its boundary, so the
    whole region falls inside the dubious band Z_r; its perimeter is 9r.
    """
    if not 0 < r < math.inf:
        raise ValueError("r must be positive and finite")
    if 4.0 * r >= 1.0:
        raise ValueError("thin rectangle of width 4r does not fit in the unit square")
    return RoundedRect(0.5, 0.5, 4.0 * r, r / 2.0, 0.0, name=f"thin_rect_r{r:g}")


def build_comb(r: float, ell: float) -> Comb:
    """Worst-case non-convex serpentine with curvature radius >= r everywhere."""
    return Comb(r, ell)


# ---------------------------------------------------------------------------
# Queries


def _xy(pt) -> tuple[float, float]:
    x, y = pt
    return float(x), float(y)


def contains(region, pt) -> bool:
    """Closed-region membership test for a single point."""
    x, y = _xy(pt)
    return bool(region.contains(x, y))


def distance_to_boundary(region, pt) -> float:
    """Signed Euclidean distance to bd(X): positive inside X, negative outside."""
    x, y = _xy(pt)
    return float(region.signed_distance(x, y))


def zone_of(region, pt, r: float) -> ZoneLabel:
    """Classify a point by X membership and the dubious band Z_r.

    Points at distance exactly r count as inside Z_r; boundary points count
    as inside X.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    d = distance_to_boundary(region, pt)
    in_x = d >= 0.0
    in_zr = abs(d) <= r
    if in_zr:
        return ZoneLabel.IN_ZR_IN_X if in_x else ZoneLabel.IN_ZR_OUT_X
    return ZoneLabel.OUTSIDE_ZR_IN_X if in_x else ZoneLabel.OUTSIDE_ZR_OUT_X


@dataclass(frozen=True)
class ZoneArea:
    """Area of the dubious band Z_r (restricted to Y when it clips bd(Y))."""

    value: float
    analytic: bool
    clipped: bool

    def __float__(self) -> float:
        return self.value


def _zone_clips_unit_square(region, r: float) -> bool:
    # tol absorbs rounding in the bbox: XL's band at r = 0.1 touches bd(Y)
    # exactly, but 0.5 - 0.4 - 0.1 evaluates to -2.8e-17
    tol = 1e-12
    x0, y0, x1, y1 = region.bbox()
    return x0 - r < -tol or y0 - r < -tol or x1 + r > 1.0 + tol or y1 + r > 1.0 + tol


def _zone_distances(region, samples: int, seed: int) -> np.ndarray:
    """|signed distance| at a stratified sample of Y, drawn the same way for every r."""
    grid = max(int(math.sqrt(samples)), 10)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0x5A0E,)))
    base = (np.arange(grid) + 0.0) / grid
    gx, gy = np.meshgrid(base, base, indexing="ij")
    x = gx.ravel() + rng.random(grid * grid) / grid
    y = gy.ravel() + rng.random(grid * grid) / grid
    return np.abs(region.signed_distance(x, y))


def _zone_area_mc(region, r: float, samples: int, seed: int) -> float:
    d = _zone_distances(region, samples, seed)
    return float(np.count_nonzero(d <= r)) / d.size


def dubious_zone_areas(region, r_values, mc_samples: int = 1_000_000,
                       seed: int = 0) -> list[ZoneArea]:
    """Area of Z_r = points within distance r of bd(X), at each r of r_values.

    Exact for rounded rectangles whose band stays inside Y (outer band by the
    convex offset formula, inner band by subtracting the eroded area); falls
    back to stratified Monte Carlo over Y for the comb or when Z_r clips bd(Y).
    Every estimate counts the same sample, whose distances are computed once.
    """
    areas, distances = [], None
    for r in r_values:
        if r <= 0:
            raise ValueError("r must be positive")
        clipped = _zone_clips_unit_square(region, r)
        if clipped or not isinstance(region, RoundedRect):
            if distances is None:
                distances = _zone_distances(region, mc_samples, seed)
            value = float(np.count_nonzero(distances <= r)) / distances.size
            areas.append(ZoneArea(value, analytic=False, clipped=clipped))
        else:
            outer = region.perimeter * r + math.pi * r * r
            inner = region.area - region.eroded_area(r)
            areas.append(ZoneArea(outer + inner, analytic=True, clipped=False))
    return areas


def dubious_zone_area(region, r: float, mc_samples: int = 1_000_000, seed: int = 0) -> ZoneArea:
    """Area of Z_r at one radius, as `dubious_zone_areas` computes it."""
    return dubious_zone_areas(region, [r], mc_samples, seed)[0]


def classify_good_bad(region, pt, r: float) -> SensorClass:
    """Good/bad split for dubious-band sensors of a convex, round region.

    Traversing bd(X) counterclockwise, the boundary enters the radius-r disk A
    around the point exactly once (rolling-ball property). The point is good
    iff the antipode of that entry point lies on the same side of bd(X).
    """
    if not getattr(region, "convex", False) or region.min_curvature_radius < r:
        raise ValueError("classification requires a convex region with curvature radius >= r")
    px, py = _xy(pt)
    d = float(region.signed_distance(px, py))
    if abs(d) >= r:
        return SensorClass.NOT_IN_ZR
    path = region.boundary
    entries = path.entries(px, py, r)
    if entries.size != 1:
        raise ArithmeticError(f"bd(X) enters the disk {entries.size} times, not once")
    ex, ey = path.points_at(entries)
    qx, qy = 2 * px - float(ex[0]), 2 * py - float(ey[0])
    same_side = bool(region.contains(qx, qy)) == (d >= 0.0)
    return SensorClass.GOOD if same_side else SensorClass.BAD
