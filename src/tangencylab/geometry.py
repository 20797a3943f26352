"""Primitives for circles lifted to R^3 and boxes aligned to the light cone.

A circle in the plane with center (x1, x2) and radius x3 > 0 is encoded as
the point (x1, x2, x3). Two circles are internally tangent exactly when the
planar distance between their centers equals the absolute difference of
their radii, so tangency detection reduces to a gap computation on encoded
points, and families of mutually tangent circles lie along rays of the
light cone {|(x1, x2)| = x3}.

The module provides the scalar predicates, with the corner containment test
as the oracle of plank comparability, and the one vectorized containment
kernel (containment_window, in_window, mutual_containment) that every plank
comparison in the package is built on; comparability_graph evaluates it on
the pairs of a PlankBatch, planks of one shape held as arrays, that an
angle-gap bound leaves. point_window is
the one plank membership rule for points, the same kernel at zero inner
half-widths. expand_ranges lists ragged index ranges, and range_blocks
splits that list into memory-bounded pieces, for every sweep and scan of
the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConcentricError, InvalidParamsError, NotNearTangentError

SQRT2 = math.sqrt(2.0)

# Annuli used in rectangle-containment tests are 10*delta thick.
ANNULUS_THICKNESS_FACTOR = 10.0

# Default relative tolerance for "exact" tangency of float circles: the
# integer path is the only true zero test, floats get delta < TOL * scale.
FLOAT_TANGENCY_RTOL = 1e-9


def wrap_angle(theta: float) -> float:
    """Wrap an angle into [-pi, pi)."""
    t = math.fmod(theta + math.pi, 2.0 * math.pi)
    if t < 0.0:
        t += 2.0 * math.pi
    return t - math.pi


def wrap_axis_angle(angle: float) -> float:
    """Wrap an undirected axis angle into [0, pi)."""
    a = math.fmod(angle, math.pi)
    if a < 0.0:
        a += math.pi
    if a >= math.pi:  # fmod rounding at the seam
        a -= math.pi
    return a


@dataclass(frozen=True)
class Circle3:
    """A circle encoded as a point of R^3: planar center plus radius as height.

    Coordinates may be floats or exact Python integers; the integer form is
    what the exact tangency counting path consumes.
    """

    center: tuple
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")

    @property
    def is_integer(self) -> bool:
        return (
            isinstance(self.center[0], int)
            and isinstance(self.center[1], int)
            and isinstance(self.radius, int)
        )

    def as_point(self) -> np.ndarray:
        return np.array([self.center[0], self.center[1], self.radius], dtype=float)


def delta_gap(x: Circle3, y: Circle3) -> float:
    """Tangency gap between two encoded circles.

    Returns | |planar center distance| - |radius difference| |, which is zero
    exactly when the circles are internally tangent. Total and symmetric.
    """
    planar = math.hypot(x.center[0] - y.center[0], x.center[1] - y.center[1])
    return abs(planar - abs(x.radius - y.radius))


def is_exact_tangent_int(x: Circle3, y: Circle3) -> bool:
    """Exact internal-tangency test for integer circles.

    Evaluates (x1-y1)^2 + (x2-y2)^2 == (x3-y3)^2 in Python integers, which
    are arbitrary precision: the squares can never wrap, so no overflow
    handling is needed on this path.
    """
    if not (x.is_integer and y.is_integer):
        raise TypeError("is_exact_tangent_int requires exact integer coordinates")
    if x == y:
        raise ValueError("tangency test requires two distinct circles")
    dx = x.center[0] - y.center[0]
    dy = x.center[1] - y.center[1]
    dz = x.radius - y.radius
    return dx * dx + dy * dy == dz * dz


def is_near_tangent(x: Circle3, y: Circle3, tol: float | None = None, scale: float = 1.0) -> bool:
    """Float stand-in for exact tangency: gap below a tolerance.

    Float equality against zero is meaningless, so callers choose a relative
    tolerance; the default is FLOAT_TANGENCY_RTOL at the family scale.
    """
    if tol is None:
        tol = FLOAT_TANGENCY_RTOL * scale
    return delta_gap(x, y) < tol


# ---------------------------------------------------------------------------
# Light-cone plank frames and membership
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlankFrame:
    """Orthonormal frame attached to the light cone at angle theta.

    The frame normalizes the cone direction (cos t, sin t, 1)/sqrt(2), its
    angular derivative, and their cross product to unit vectors, so plank
    side lengths are literal Euclidean lengths. axes holds them as the rows
    (axis_a, axis_b, axis_c), built once and read-only.
    """

    theta: float
    axes: np.ndarray

    @property
    def axis_a(self) -> np.ndarray:
        return self.axes[0]

    @property
    def axis_b(self) -> np.ndarray:
        return self.axes[1]

    @property
    def axis_c(self) -> np.ndarray:
        return self.axes[2]

    def matrix(self) -> np.ndarray:
        """Rows are (axis_a, axis_b, axis_c)."""
        return self.axes


def cone_frames(thetas) -> np.ndarray:
    """Orthonormal cone frames at angles thetas in [-pi, pi), shape (m, 3, 3), read-only.

    Rows: axis_a along the cone ray, axis_b tangential, axis_c their cross
    product, unit length in closed form. math.cos and math.sin per angle give
    a frame the same bits whichever batch builds it.
    """
    t = np.asarray(thetas, dtype=float).ravel().tolist()
    c, s = np.array([math.cos(x) for x in t]), np.array([math.sin(x) for x in t])
    one, zero = np.full(len(t), 1.0 / SQRT2), np.zeros(len(t))
    rows = [c / SQRT2, s / SQRT2, one, -s, c, zero, -c / SQRT2, -s / SQRT2, one]
    axes = np.stack(rows, axis=-1).reshape(-1, 3, 3)
    axes.flags.writeable = False
    return axes


def plank_axes(theta: float) -> PlankFrame:
    """The cone frame at angle theta in [-pi, pi): cone_frames of one angle."""
    return PlankFrame(theta=theta, axes=cone_frames([theta])[0])


@dataclass(frozen=True)
class Lightplank:
    """An A x sqrt(A*B) x B box aligned to the cone frame at angle theta.

    Half-widths are A/2, sqrt(A*B)/2, B/2 along axis_a, axis_b, axis_c.
    The enumeration in this package uses A <= B (thin along the ray), but
    nothing here requires it: the lift of a planar tangency rectangle has
    A > B and is handled by the same arithmetic.
    """

    frame: PlankFrame
    v: np.ndarray
    A: float
    B: float

    def __post_init__(self):
        if not (self.A > 0 and self.B > 0):
            raise ValueError("plank side lengths must be positive")

    def half_widths(self) -> np.ndarray:
        return np.array([self.A / 2.0, math.sqrt(self.A * self.B) / 2.0, self.B / 2.0])


@dataclass(frozen=True)
class PlankBatch:
    """m planks of one shape A x sqrt(A*B) x B, held as arrays.

    Angles thetas (m,), centres (m, 3), and frames mats (m, 3, 3) that
    cone_frames builds once from the angles. One containment window serves
    every pair of a batch, so comparability_graph takes one. A and B must be
    finite and positive.
    """

    thetas: np.ndarray
    centers: np.ndarray
    A: float
    B: float
    mats: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name, side in (("A", self.A), ("B", self.B)):
            if not (math.isfinite(side) and side > 0):
                raise InvalidParamsError(f"{name}: plank sides must be finite and positive")
        thetas = np.asarray(self.thetas, dtype=float).reshape(-1)
        object.__setattr__(self, "thetas", thetas)
        centers = np.asarray(self.centers, dtype=float).reshape(thetas.size, 3)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "mats", cone_frames(thetas))

    half_widths = Lightplank.half_widths

    def __len__(self) -> int:
        return self.thetas.size

    def plank(self, t: int) -> Lightplank:
        """Plank t as a Lightplank on the batch's frame."""
        frame = PlankFrame(theta=float(self.thetas[t]), axes=self.mats[t])
        return Lightplank(frame=frame, v=self.centers[t], A=self.A, B=self.B)


def plank_contains(plank: Lightplank, x, K: float = 1.0) -> bool:
    """Whether point x lies in the K-dilation (about the center) of the plank."""
    if K < 1.0:
        raise ValueError("dilation factor K must be >= 1")
    p = x.as_point() if isinstance(x, Circle3) else np.asarray(x, dtype=float)
    offsets = (p - plank.v) @ plank.frame.matrix().T
    return bool(in_window(offsets, point_window(plank.half_widths(), K)))


def plank_corners(plank: Lightplank) -> np.ndarray:
    """The 8 corners of the plank, shape (8, 3)."""
    hw = plank.half_widths()
    axes = plank.frame.matrix()
    signs = np.array(
        [[sa, sb, sc] for sa in (-1.0, 1.0) for sb in (-1.0, 1.0) for sc in (-1.0, 1.0)]
    )
    return plank.v + (signs * hw) @ axes


def containment_slack(hw: np.ndarray) -> np.ndarray:
    """Float slack for box-containment comparisons, relative to half-widths.

    Frame transforms cost a few ulps; the slack sits far above that and far
    below the geometric margins of any lattice used here.
    """
    return 1e-9 * (1.0 + hw)


def point_window(hw: np.ndarray, K: float) -> np.ndarray:
    """Per-axis window K hw + slack of the K-dilation of a plank of half-widths hw.

    The one plank membership rule: a point lies in the K-dilation exactly
    when its offset from the center, in the plank's frame, is in_window.
    It is containment_window for an inner plank of zero half-widths, so a
    point and a degenerate plank at that point agree.
    """
    return K * hw + containment_slack(K * hw)


def plank_contained_in_dilation(inner: Lightplank, outer: Lightplank, K: float = 1.0) -> bool:
    """Whether every corner of `inner` lies in the K-dilation of `outer`.

    Corner containment decides box-in-box containment exactly, because the
    dilation is convex and corner coordinates achieve the extreme values of
    the frame coordinates over the inner box.
    """
    corners = plank_corners(inner) - outer.v
    coords = corners @ outer.frame.matrix().T
    hw = outer.half_widths() * K
    return bool(np.all(np.abs(coords) <= hw + containment_slack(hw)))


def plank_comparable(P: Lightplank, Q: Lightplank, K: float = 1.0) -> bool:
    """True when one plank is contained in the K-dilation of the other."""
    if K < 1.0:
        raise ValueError("dilation factor K must be >= 1")
    return plank_contained_in_dilation(P, Q, K) or plank_contained_in_dilation(Q, P, K)


def mixed_abs_matrix(gaps) -> np.ndarray:
    """|U(t) U(t+gap)^T| for cone frames, in closed form per angle gap.

    The frame rotates rigidly about the vertical axis, so the absolute
    mixed matrix depends on the gap alone. It is symmetric, and even and
    2 pi periodic in the gap, so one matrix serves both orders of a pair.
    """
    gaps = np.asarray(gaps, dtype=float)
    c = np.cos(gaps)
    s = np.abs(np.sin(gaps)) / SQRT2
    M = np.empty(gaps.shape + (3, 3))
    M[..., 0, 0] = (1.0 + c) / 2.0
    M[..., 0, 1] = s
    M[..., 0, 2] = (1.0 - c) / 2.0
    M[..., 1, 0] = s
    M[..., 1, 1] = np.abs(c)
    M[..., 1, 2] = s
    M[..., 2, 0] = (1.0 - c) / 2.0
    M[..., 2, 1] = s
    M[..., 2, 2] = (1.0 + c) / 2.0
    return M


def containment_window(
    gaps, hw: np.ndarray, K: float, inner_hw: np.ndarray | None = None
) -> np.ndarray:
    """Per-axis window K hw - M(g) inner_hw + slack, shape gaps.shape + (3,).

    An inner plank (half-widths inner_hw; default hw, zeros for a point) at
    angle gap g lies in the K-dilation of an outer plank (half-widths hw)
    exactly when its center's offset in the outer frame is in_window: the
    extreme inner corner coordinate on an outer axis is that offset plus the
    mixed half-width sum M(g) inner_hw. The slack is that of the corner
    oracle, plank_contained_in_dilation, which the kernel is tested against.
    """
    if inner_hw is None:
        inner_hw = hw
    return K * hw - mixed_abs_matrix(gaps) @ inner_hw + containment_slack(K * hw)


def in_window(offsets: np.ndarray, window: np.ndarray) -> np.ndarray:
    """|offsets| <= window on every axis (last dimension).

    A negative window on any axis admits no offset, so a frame pair that
    rules containment out needs no separate test.
    """
    return np.all(np.abs(offsets) <= window, axis=-1)


def frame_coords(mats: np.ndarray, diffs: np.ndarray) -> np.ndarray:
    """Offsets in cone frames: mats (..., 3, 3) applied to diffs (..., 3), broadcast.

    Each coordinate is summed in one fixed order, so a pair gets the same
    bits whichever batch it is evaluated in.
    """
    p = mats * diffs[..., None, :]
    return (p[..., 0] + p[..., 1]) + p[..., 2]


def mutual_containment(theta, v, U, thetas, centers, mats, hw, K: float):
    """Containment both ways between one plank and many, all of half-widths hw.

    The one plank has frame angle theta, center v and frame matrix U; the
    others are given by arrays of the same. Returns (inside, holds):
    inside[k] when the plank lies in the K-dilation of plank k, holds[k]
    when plank k lies in its K-dilation.
    """
    window = containment_window(theta - thetas, hw, K)
    diff = v - centers
    inside = in_window(frame_coords(mats, diff), window)
    holds = in_window(frame_coords(U, diff), window)
    return inside, holds


def comparability_gap_limit(hw: np.ndarray, K: float) -> float:
    """Largest angle gap at which two planks of half-widths hw can be K-comparable.

    With big and small the larger and smaller of hw[0] and hw[2], the window
    on the small side's axis is at most
    (K - 1/2) small - big/2 + cos(g) (big - small)/2 + slack_small,
    which falls as |g| grows on [0, pi]; past its zero no containment holds
    either way. The zero is widened by a relative 1e-9 for rounding of the
    angles. The bound leaves out the term |sin g| hw[1] / sqrt(2) of the
    same window, so past the zero the window is negative by far more than
    its rounding unless the zero is within 1e-9 of pi, where
    comparability_graph joins every pair. pi when the two sides are equal
    or the bound never reaches zero.
    """
    small, big = sorted((float(hw[0]), float(hw[2])))
    if big == small:
        return math.pi
    cos_lim = (big - (2.0 * K - 1.0) * small - 2.0 * containment_slack(K * small)) / (big - small)
    if cos_lim <= -1.0:
        return math.pi
    return min(math.pi, math.acos(cos_lim) * (1.0 + 1e-9))


def _expand(labels, offsets, counts, first: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions first, first + 1, ... laid over ranges of counts[k] values:
    each position's range label, and the position plus its range's offset."""
    values = np.repeat(offsets, counts)
    values += np.arange(first, first + values.size, dtype=np.int64)
    return np.repeat(labels, counts), values


def expand_ranges(labels, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """(label, value) for every value in [lo[k], hi[k]), range after range.

    Values ascend within a range; a range with hi[k] <= lo[k] yields nothing.
    This is the one expansion of ragged index ranges in the package.
    """
    counts = np.maximum(hi - lo, 0)
    return _expand(labels, lo - (np.cumsum(counts) - counts), counts, 0)


def range_blocks(labels, lo, hi, block: int):
    """expand_ranges(labels, lo, hi) in pieces of at most `block` values.

    Piece k holds positions [k block, (k + 1) block) of the expansion: the
    ranges that meet those positions, the first and last clipped to them.
    This is the one rule by which the package bounds the memory of a ragged
    expansion.
    """
    counts = np.maximum(hi - lo, 0)
    ends = np.cumsum(counts)
    starts = ends - counts
    offsets = lo - starts
    for first in range(0, int(ends[-1]) if ends.size else 0, block):
        # ranges k0 .. k1 - 1 meet the piece: k0 holds position `first`,
        # k1 - 1 is the last to start before first + block
        k0 = int(np.searchsorted(ends, first, side="right"))
        k1 = int(np.searchsorted(starts, first + block))
        piece = counts[k0:k1].copy()
        piece[0] -= first - starts[k0]
        piece[-1] -= max(int(ends[k1 - 1]) - first - block, 0)
        yield _expand(labels[k0:k1], offsets[k0:k1], piece, first)


# Candidate pairs of comparability_graph are evaluated in blocks of at most
# this many, so transient memory stays small: a block holds the frame
# matrices of both ends of each pair (144 bytes a pair each) at once.
_PAIR_BLOCK = 1 << 15


def comparability_graph(batch: PlankBatch, K: float):
    """Comparable pairs among the planks of a batch, joined by angle gap.

    Planks whose angle gap exceeds comparability_gap_limit cannot be
    comparable, so only pairs within it are evaluated, in range_blocks of
    _PAIR_BLOCK pairs: angles are sorted, copied at +2 pi for the
    wrap-around, and each plank is joined to the planks ahead of it within
    the limit (to all later ones in sorted order when the limit reaches pi),
    which meets every pair once. Returns (earlier, later, inside, holds) over
    the comparable pairs earlier < later, sorted by (later, earlier): inside
    when plank `later` lies in the K-dilation of plank `earlier`, holds when
    `earlier` lies in the K-dilation of `later`. A pair is evaluated exactly
    as mutual_containment evaluates it with `later` as the one plank.
    """
    thetas, centers, mats, hw = batch.thetas, batch.centers, batch.mats, batch.half_widths()
    m = thetas.shape[0]
    lim = comparability_gap_limit(hw, K)
    order = np.argsort(thetas, kind="stable")
    s = thetas[order]
    # plank at sorted position p meets positions p + 1 .. hi[p] - 1 of the
    # angles followed by their copies at +2 pi
    if lim >= math.pi * (1.0 - 1e-9):
        hi = np.full(m, m)
    else:
        hi = np.searchsorted(np.concatenate([s, s + 2.0 * math.pi]), s + lim, side="right")
    none = np.zeros(0, dtype=np.int64)
    out = [(none, none, none.astype(bool), none.astype(bool))]
    for i, pos in range_blocks(order, np.arange(m) + 1, hi, _PAIR_BLOCK):
        j = order[pos % m]
        a, b = np.minimum(i, j), np.maximum(i, j)
        inside, holds = mutual_containment(
            thetas[b], centers[b], mats[b], thetas[a], centers[a], mats[a], hw, K
        )
        keep = inside | holds
        out.append((a[keep], b[keep], inside[keep], holds[keep]))
    a, b, inside, holds = (np.concatenate(col) for col in zip(*out))
    by = np.lexsort((a, b))
    return a[by], b[by], inside[by], holds[by]


def rotate_point_z(p: np.ndarray, phi: float) -> np.ndarray:
    """Rotate a point of R^3 about the x3-axis."""
    c, s = math.cos(phi), math.sin(phi)
    return np.array([c * p[0] - s * p[1], s * p[0] + c * p[1], p[2]])


def rotate_plank_z(plank: Lightplank, phi: float) -> Lightplank:
    """Rotate a plank about the x3-axis: the frame angle advances by phi."""
    return Lightplank(
        frame=plank_axes(wrap_angle(plank.frame.theta + phi)),
        v=rotate_point_z(plank.v, phi),
        A=plank.A,
        B=plank.B,
    )


# ---------------------------------------------------------------------------
# Planar tangency rectangles and annulus containment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rect2:
    """A planar rectangle given by center, long-axis angle, and side lengths.

    width is the short side (about delta for tangency rectangles), length the
    long side (about sqrt(delta)); angle is the undirected long-axis
    direction in [0, pi).
    """

    center: tuple
    angle: float
    width: float
    length: float

    def __post_init__(self):
        if not (0.0 < self.width <= self.length):
            raise ValueError("need 0 < width <= length")
        if not (0.0 <= self.angle < math.pi):
            raise ValueError("angle must lie in [0, pi)")


def rect_axes(rect: Rect2) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors along the long and short axes."""
    c, s = math.cos(rect.angle), math.sin(rect.angle)
    return np.array([c, s]), np.array([-s, c])


def rect_corners(rect: Rect2) -> np.ndarray:
    """The 4 corners, shape (4, 2)."""
    u_long, u_short = rect_axes(rect)
    hl, hw = rect.length / 2.0, rect.width / 2.0
    cx = np.array(rect.center, dtype=float)
    return np.array(
        [cx + sl * hl * u_long + sw * hw * u_short for sl in (-1, 1) for sw in (-1, 1)]
    )


def point_rect_distance(point, rect: Rect2) -> float:
    """Euclidean distance from a planar point to the rectangle (0 if inside)."""
    u_long, u_short = rect_axes(rect)
    rel = np.array(point, dtype=float) - np.array(rect.center, dtype=float)
    du = max(abs(float(rel @ u_long)) - rect.length / 2.0, 0.0)
    dv = max(abs(float(rel @ u_short)) - rect.width / 2.0, 0.0)
    return math.hypot(du, dv)


def annulus_contains_rect(x: Circle3, rect: Rect2, delta: float) -> bool:
    """Whether the rectangle lies inside the 10*delta-thick annulus around x.

    Exact for rectangles: the farthest point of a convex polygon from the
    annulus center is a corner, and the nearest point realizes the usual
    point-to-rectangle distance. Containment holds iff
    corner max < radius + 10*delta and near distance > radius - 10*delta.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    thick = ANNULUS_THICKNESS_FACTOR * delta
    cx = np.array(x.center, dtype=float)
    far = float(np.max(np.linalg.norm(rect_corners(rect) - cx, axis=1)))
    if far >= x.radius + thick:
        return False
    near = point_rect_distance(cx, rect)
    return near > x.radius - thick


def tangency_point(x: Circle3, y: Circle3) -> tuple[np.ndarray, np.ndarray]:
    """Approximate common point of a near-tangent pair and its radial direction.

    Returns (z_star, u) where u is the unit vector from the larger circle's
    center toward the smaller circle's center and z_star sits on the larger
    circle along u. Radius ties break by lexicographic comparison of centers
    (the lexicographically smaller center plays the larger circle) so the
    output is deterministic.
    """
    if x.radius > y.radius or (x.radius == y.radius and tuple(x.center) <= tuple(y.center)):
        big, small = x, y
    else:
        big, small = y, x
    cb = np.array(big.center, dtype=float)
    cs = np.array(small.center, dtype=float)
    d = float(np.linalg.norm(cs - cb))
    if d == 0.0:
        raise ConcentricError("concentric circles have no tangency point")
    u = (cs - cb) / d
    return cb + big.radius * u, u


def tangency_rect(x: Circle3, y: Circle3, delta: float) -> Rect2:
    """The delta x sqrt(delta) rectangle witnessing a near-tangency.

    The rectangle has width 2*delta and length 2*sqrt(delta), is centered at
    the tangency point of the pair, and its long axis runs perpendicular to
    the radial direction there. Raises ConcentricError for concentric input
    and NotNearTangentError when the gap is at least delta. The result is
    contained in both 10*delta annuli (checkable via annulus_contains_rect).
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    gap = delta_gap(x, y)
    z_star, u = tangency_point(x, y)  # raises ConcentricError first if needed
    if gap >= delta:
        raise NotNearTangentError(f"gap {gap} is not below delta {delta}")
    angle = wrap_axis_angle(math.atan2(u[1], u[0]) + math.pi / 2.0)
    return Rect2(
        center=(float(z_star[0]), float(z_star[1])),
        angle=angle,
        width=2.0 * delta,
        length=2.0 * math.sqrt(delta),
    )
