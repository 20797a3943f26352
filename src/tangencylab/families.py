"""Circle family generators, diagnostics, and the columnar interchange format.

A family is a finite set of encoded circles (points of R^3) with a declared
scale, separation, bounding box, and generator provenance. Generators are
deterministic functions of their parameters and seed; the serialized form is
byte-stable so downstream reports can be traced to exact inputs by hash.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptyFamilyError, InvalidParamsError, check_positive, check_seed, parse_value, text_lines
from .geometry import Circle3, expand_ranges

Box = tuple[tuple[float, float], tuple[float, float], tuple[float, float]]

# Side length of the sampling cubes in the well-spaced construction, as a
# multiple of the separation target rho.
WELLSPACED_GRID_FACTOR = 100

# Grid keys pack three cell indices into one int64, 21 bits per field.
_KEY_BITS = 21
_KEY_MASK = (1 << _KEY_BITS) - 1


def pack_grid_keys(idx: np.ndarray, param: str) -> np.ndarray:
    """One int64 key per row of cell indices (n, 3); keys sort lexicographically.

    The indices may be integers or integral floats. Each must lie in
    [0, 2^21), checked before any cast: an index outside would carry into a
    neighbouring field and merge distinct cells, so it raises
    InvalidParamsError naming `param`, the input that set the grid.
    """
    if idx.size and (idx.min() < 0 or idx.max() > _KEY_MASK):
        raise InvalidParamsError(f"{param}: grid indices leave the 21-bit key field")
    idx = idx.astype(np.int64, copy=False)
    return (idx[:, 0] << (2 * _KEY_BITS)) + (idx[:, 1] << _KEY_BITS) + idx[:, 2]


def unpack_grid_keys(keys: np.ndarray) -> np.ndarray:
    """The cell indices (n, 3), int64, that pack_grid_keys packed into keys."""
    return np.column_stack(
        [keys >> (2 * _KEY_BITS), (keys >> _KEY_BITS) & _KEY_MASK, keys & _KEY_MASK]
    )


def _outside_box(pts: np.ndarray, box: Box) -> np.ndarray:
    """Mask (n, 3): coordinate outside its box interval by more than rounding.

    The tolerance is 1e-9 of the interval's upper end (at least 1e-9), so a
    point on a face, or a rounding error off it, is inside.
    """
    lo = np.array([b[0] for b in box], dtype=float)
    hi = np.array([b[1] for b in box], dtype=float)
    tol = 1e-9 * np.maximum(1.0, np.abs(hi))
    return (pts < lo - tol) | (pts > hi + tol)


def cube_box(R: float) -> Box:
    return ((0.0, R), (0.0, R), (0.0, R))


def annular_box(R: float) -> Box:
    """Center range [-R, R]^2 with radii in [R, 2R]."""
    return ((-R, R), (-R, R), (R, 2.0 * R))


def unit_box() -> Box:
    return annular_box(1.0)


@dataclass
class CircleFamily:
    """A finite set of encoded circles with declared scale and provenance.

    points has shape (n, 3); dtype int64 marks an integer-exact family.
    provenance records the generator name, its parameters, and the seed.
    """

    points: np.ndarray
    scale_R: float
    separation_rho: float
    box: Box
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points))
        if self.points.size == 0:
            self.points = self.points.reshape(0, 3)
        if self.points.shape[1] != 3:
            raise InvalidParamsError("points: must have shape (n, 3)")
        if self.points.dtype.kind == "f" and not np.isfinite(self.points).all():
            raise InvalidParamsError("points: NaN and inf coordinates are rejected")
        if self.points.dtype.kind == "u" and self.points.size and self.points.max() > np.iinfo(np.int64).max:
            raise InvalidParamsError("points: integer coordinates must fit in int64")

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def is_integer(self) -> bool:
        return self.points.dtype.kind in "iu"

    def circle(self, i: int) -> Circle3:
        x1, x2, x3 = self.points[i]
        if self.is_integer:
            return Circle3(center=(int(x1), int(x2)), radius=int(x3))
        return Circle3(center=(float(x1), float(x2)), radius=float(x3))

    def check_integer(self) -> None:
        """Refuse a family whose points are not integer-exact."""
        if not self.is_integer:
            raise InvalidParamsError("family: points must be integer-exact")

    def validate(self):
        """Check box membership, radii, and absence of duplicates.

        Families in a box with positive lower height are honest circle
        families and must have positive radii; cube-box families at scale R
        are lifted point sets where the height is an ordinary coordinate and
        may touch zero.
        """
        pts = self.points.astype(float)
        escaped = np.flatnonzero(_outside_box(pts, self.box).any(axis=0))
        if escaped.size:
            raise InvalidParamsError(f"points: outside the declared box on axis {escaped[0]}")
        if len(self) and self.box[2][0] > 0 and not (pts[:, 2] > 0).all():
            raise InvalidParamsError("points: all radii must be positive")
        if len(self) > 1:
            uniq = np.unique(self.points, axis=0)
            if uniq.shape[0] != len(self):
                raise InvalidParamsError("points: duplicate points are rejected at validation")

    def rescale(self, lam: float) -> "CircleFamily":
        """Scale every coordinate (and the declared geometry) by lam > 0."""
        check_positive("lam", lam)
        box = tuple((lo * lam, hi * lam) for lo, hi in self.box)
        prov = dict(self.provenance)
        prov["rescaled_by"] = prov.get("rescaled_by", 1.0) * lam
        return CircleFamily(
            points=self.points.astype(float) * lam,
            scale_R=self.scale_R * lam,
            separation_rho=self.separation_rho * lam,
            box=box,  # type: ignore[arg-type]
            provenance=prov,
        )

    def rotate_z(self, phi: float) -> "CircleFamily":
        """Rotate planar centers about the origin; radii are unchanged.

        The declared box is replaced by a bounding box of the rotated points
        since an axis-aligned box does not survive rotation.
        """
        c, s = math.cos(phi), math.sin(phi)
        pts = self.points.astype(float).copy()
        x1 = c * pts[:, 0] - s * pts[:, 1]
        x2 = s * pts[:, 0] + c * pts[:, 1]
        pts[:, 0], pts[:, 1] = x1, x2
        lo = pts.min(axis=0) if len(self) else np.zeros(3)
        hi = pts.max(axis=0) if len(self) else np.zeros(3)
        box = tuple((float(l), float(h)) for l, h in zip(lo, hi))
        prov = dict(self.provenance)
        prov["rotated_by"] = prov.get("rotated_by", 0.0) + phi
        return CircleFamily(pts, self.scale_R, self.separation_rho, box, prov)  # type: ignore[arg-type]

    # -- serialization ------------------------------------------------------

    def serialize(self) -> str:
        """Columnar text: provenance header lines, then one x1 x2 x3 per row."""
        lines = []
        meta = {
            "generator": self.provenance.get("generator", "unknown"),
            "R": format_scalar(self.scale_R),
            "rho": format_scalar(self.separation_rho),
        }
        for key, val in sorted(self.provenance.items()):
            if key == "generator":
                continue
            meta[key] = format_scalar(val)
        lines.append("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
        lines.append(
            "# box="
            + ",".join(f"{float(lo)!r}:{float(hi)!r}" for lo, hi in self.box)
            + f" integer={int(self.is_integer)} n={len(self)}"
        )
        if self.is_integer:
            for row in self.points:
                lines.append(f"{int(row[0])} {int(row[1])} {int(row[2])}")
        else:
            for row in self.points:
                lines.append(f"{float(row[0])!r} {float(row[1])!r} {float(row[2])!r}")
        return "\n".join(lines) + "\n"

    def provenance_hash(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()[:16]

    def save(self, path):
        body = self.serialize()
        digest = hashlib.sha256(body.encode()).hexdigest()[:16]
        with open(path, "w") as fh:
            fh.write(f"# hash={digest}\n")
            fh.write(body)


def format_scalar(val) -> str:
    """Text of a scalar in family headers and report CSVs: repr of a float,
    str of an int (numpy or not), str of anything else."""
    if isinstance(val, (float, np.floating)):
        return repr(float(val))
    if isinstance(val, np.integer):
        return str(int(val))
    return str(val)


def load_family(path) -> CircleFamily:
    """Parse the columnar format back into a family.

    The first non-hash comment line holds the provenance keys, later comment
    lines the structural ones (box, integer flag, count); keeping them apart
    makes load/serialize a byte-exact round trip, so hashes stay stable.
    Raises InvalidParamsError: with a line number on a malformed row or one
    outside the declared box, and naming the key of a malformed header value.
    """
    prov: dict = {}
    structural: dict = {}
    have_prov = False
    rows: list[list[str]] = []
    linenos: list[int] = []
    for lineno, raw in enumerate(text_lines(path), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            tokens = [tok for tok in line[1:].split() if "=" in tok]
            pairs = [tok.split("=", 1) for tok in tokens]
            if pairs and pairs[0][0] == "hash":
                continue
            if not have_prov:
                prov.update(pairs)
                have_prov = True
            else:
                structural.update(pairs)
            continue
        parts = line.split()
        if len(parts) != 3:
            raise InvalidParamsError(f"line {lineno}: expected 3 columns, got {len(parts)}")
        rows.append(parts)
        linenos.append(lineno)
    if not rows:
        raise EmptyFamilyError("family file contains no points")
    integer = structural.get("integer", "0") == "1"
    try:
        if integer:
            points = np.array([[int(t) for t in row] for row in rows], dtype=np.int64)
        else:
            points = np.array([[float(t) for t in row] for row in rows], dtype=float)
    except (ValueError, OverflowError) as exc:
        raise InvalidParamsError(f"points: malformed coordinate row: {exc}") from None
    scale = parse_value("R", prov.get("R", "1.0"))
    rho = parse_value("rho", prov.get("rho", "0.0"))
    if "box" in structural:
        box: Box = parse_value("box", structural["box"], _header_box)
        escaped = np.flatnonzero(_outside_box(points.astype(float), box).any(axis=1))
        if escaped.size:
            raise InvalidParamsError(
                f"line {linenos[escaped[0]]}: point lies outside the declared box"
            )
    else:
        lo = points.min(axis=0).astype(float)
        hi = points.max(axis=0).astype(float)
        box = tuple((float(a), float(b)) for a, b in zip(lo, hi))  # type: ignore[assignment]
    return CircleFamily(points, scale, rho, box, prov)


def _header_box(raw: str) -> Box:
    """The box of a family header, lo:hi for each of the three axes."""
    x, y, z = ((float(lo), float(hi)) for lo, hi in (pair.split(":") for pair in raw.split(",")))
    return x, y, z


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def gen_maximal_separated(R: float, rho: float, box_kind: str = "cube") -> CircleFamily:
    """Deterministic rho-grid of the box: nearly maximal rho-separated family.

    box_kind "cube" places the grid in [0, R]^3; "annular" uses the
    center-radius box [-R, R]^2 x [R, 2R]. Cardinality is Theta((R/rho)^3).
    Each axis is clipped to its box end, which lo + rho k can pass by a
    rounding when (hi - lo) / rho is just below an integer.
    """
    check_positive("R", R)
    if not 0 < rho <= R:
        raise InvalidParamsError("rho: need 0 < rho <= R")
    box = cube_box(R) if box_kind == "cube" else annular_box(R)
    axes = []
    for lo, hi in box:
        count = int(math.floor((hi - lo) / rho + 1e-12)) + 1
        axis = lo + rho * np.arange(count)
        axis[axis > hi] = hi
        axes.append(axis)
    g1, g2, g3 = np.meshgrid(*axes, indexing="ij")
    points = np.column_stack([g1.ravel(), g2.ravel(), g3.ravel()])
    return CircleFamily(
        points=points,
        scale_R=R,
        separation_rho=rho,
        box=box,
        provenance={"generator": "separated", "R": R, "rho": rho, "box_kind": box_kind},
    )


def wellspaced_candidates(R: float, rho: float) -> tuple[np.ndarray, bool]:
    """The candidate lattice Y of the well-spaced construction, and its tiling.

    Y holds the integer points of the rho-subcube centered in each cube of
    side WELLSPACED_GRID_FACTOR * rho tiling [0, R]^3, in tile order. The
    flag is True when the tile side exceeds R and the whole box acts as one
    tile centered at R/2.
    """
    side = WELLSPACED_GRID_FACTOR * rho
    n_cubes = int(math.floor(R / side))
    single = n_cubes < 1
    centers_1d = np.array([R / 2.0]) if single else side * (np.arange(n_cubes) + 0.5)
    half = rho / 2.0
    lo, hi = np.ceil(centers_1d - half).astype(np.int64), np.floor(centers_1d + half).astype(np.int64)
    tile, vals = expand_ranges(np.arange(centers_1d.size), lo, hi + 1)
    # every (x, y, z) of the per-axis values, in (x, y, z) position order;
    # the stable lexsort groups them by (tile_x, tile_y, tile_z) keeping that
    # order, which is the tile order
    idx = [g.ravel() for g in np.meshgrid(*[np.arange(vals.size)] * 3, indexing="ij")]
    order = np.lexsort([tile[i] for i in idx[::-1]])
    return np.column_stack([vals[i] for i in idx])[order], single


def wellspaced_probability(R: float, rho: float, eps: float) -> float:
    """p = R^eps / rho^3 of the well-spaced construction, its preconditions checked."""
    if not 10 <= R < math.inf:
        raise InvalidParamsError("R: need 10 <= R < inf")
    if not rho <= math.sqrt(R) * (1 + 1e-12):
        raise InvalidParamsError("rho: need rho <= sqrt(R)")
    if not rho >= R**eps * (1 - 1e-12):
        raise InvalidParamsError("rho: need rho >= R^eps")
    p = R**eps * rho**-3.0
    if p > 1.0:
        raise InvalidParamsError("p: inclusion probability R^eps/rho^3 exceeds 1")
    return p


def gen_random_wellspaced(R: float, rho: float, eps: float, seed: int) -> CircleFamily:
    """Randomized well-spaced family in [0, R]^3.

    The box is tiled by cubes of side WELLSPACED_GRID_FACTOR * rho; the
    candidate set Y is the integer lattice inside the concentric rho-subcube
    of each tile, and each candidate joins independently with probability
    p = R^eps / rho^3 under the seeded generator. When the tile side exceeds
    R (no full tile fits) the whole box acts as the single tile, so the
    candidates sit in one rho-subcube centered in the box.
    """
    p = wellspaced_probability(R, rho, eps)
    check_seed(seed)
    Y, single = wellspaced_candidates(R, rho)
    rng = np.random.default_rng(seed)
    keep = rng.random(Y.shape[0]) < p
    points = Y[keep].astype(float)
    return CircleFamily(
        points=points,
        scale_R=R,
        separation_rho=rho,
        box=cube_box(R),
        provenance={
            "generator": "wellspaced",
            "R": R,
            "rho": rho,
            "eps": eps,
            "seed": seed,
            "p": p,
            "n_candidates": int(Y.shape[0]),
            "single_tile": int(single),
        },
    )


def gen_clamshell(N: int, integer: bool = False) -> CircleFamily:
    """N circles all internally tangent at a single point.

    Float form: centers (k/N, 0), radii 1 + k/N, tangent at (-1, 0). Integer
    form: centers (k, 0), radii 1 + k, tangent at the same point. Every pair
    has tangency gap exactly zero, realizing all N(N-1)/2 unordered pairs.
    """
    if N < 2:
        raise InvalidParamsError("N: need N >= 2")
    ks = np.arange(1, N + 1)
    if integer:
        points = np.column_stack([ks, np.zeros(N, dtype=np.int64), 1 + ks]).astype(np.int64)
        box: Box = ((0.0, N), (0.0, 0.0), (1.0, N + 1.0))
        rho = 1.0
    else:
        t = ks / N
        points = np.column_stack([t, np.zeros(N), 1.0 + t])
        box = ((0.0, 1.0), (0.0, 0.0), (1.0, 2.0))
        rho = 1.0 / N
    return CircleFamily(
        points=points,
        scale_R=float(N) if integer else 1.0,
        separation_rho=rho,
        box=box,
        provenance={"generator": "clamshell", "N": N, "exact": int(integer)},
    )


def gen_integer_lattice(n: int) -> CircleFamily:
    """Integer-exact lattice family: centers {0..n}^2, radii {n..2n}.

    The simplest family on which exact tangency is integer-decidable through
    the Pythagorean identity; its tangency growth rate is reported by the
    experiment drivers rather than asserted.
    """
    if n < 2:
        raise InvalidParamsError("n: need n >= 2")
    cs = np.arange(0, n + 1)
    rs = np.arange(n, 2 * n + 1)
    g1, g2, g3 = np.meshgrid(cs, cs, rs, indexing="ij")
    points = np.column_stack([g1.ravel(), g2.ravel(), g3.ravel()]).astype(np.int64)
    return CircleFamily(
        points=points,
        scale_R=float(n),
        separation_rho=1.0,
        box=((0.0, n), (0.0, n), (n, 2.0 * n)),
        provenance={"generator": "lattice", "n": n},
    )


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


def check_separation(family: CircleFamily, rho: float) -> tuple[bool, float]:
    """Minimum pairwise distance and whether it reaches rho.

    The comparison carries a 1e-12 relative slack so exact grids at spacing
    rho report as separated despite float rounding.
    """
    if len(family) < 2:
        raise EmptyFamilyError("separation needs at least two points")
    pts = family.points.astype(float)
    tree = cKDTree(pts)
    dists, _ = tree.query(pts, k=2)
    min_gap = float(dists[:, 1].min())
    return min_gap >= rho * (1.0 - 1e-12), min_gap


def check_frostman(family: CircleFamily, delta: float) -> dict[float, float]:
    """Line-like concentration profile over dyadic radii in [delta, ~2].

    For each dyadic r the profile holds max over balls centered at family
    points of |X intersect B_r| * delta / r. Values staying O(1) mean the
    family is spread no worse than a delta-separated set on a curve; large
    values flag concentration (a clamshell on a segment stays Theta(1),
    a full 3-d grid blows up as r grows).
    """
    if not (0 < delta < 1):
        raise InvalidParamsError("delta: must lie in (0, 1)")
    if len(family) == 0:
        return {}
    pts = family.points.astype(float)
    tree = cKDTree(pts)
    profile: dict[float, float] = {}
    r = delta
    while r <= 2.0:
        counts = tree.query_ball_point(pts, r, return_length=True)
        profile[r] = float(np.max(counts)) * delta / r
        r *= 2.0
    return profile


@dataclass
class OccupancyProfile:
    """Counts of points per axis-aligned grid cell anchored at the box corner."""

    cell_size: float
    max_count: int
    histogram: dict[int, int]

    def total_points(self) -> int:
        return sum(count * ncells for count, ncells in self.histogram.items())


def cube_occupancy(family: CircleFamily, cell: float) -> OccupancyProfile:
    """Occupancy histogram of the anchored cell grid.

    Points on the top face of the box fold into the last cell so that every
    point is counted exactly once (conservation is an invariant). A point
    outside the declared box has no cell and raises InvalidParamsError.
    """
    check_positive("cell", cell)
    if len(family) == 0:
        return OccupancyProfile(cell_size=cell, max_count=0, histogram={})
    pts = family.points.astype(float)
    if _outside_box(pts, family.box).any():
        raise InvalidParamsError("points: a point lies outside the declared box")
    idx = np.empty_like(pts, dtype=np.int64)
    for axis, (lo, hi) in enumerate(family.box):
        n_cells = max(1, int(math.ceil((hi - lo) / cell - 1e-12)))
        raw = np.floor((pts[:, axis] - lo) / cell).astype(np.int64)
        idx[:, axis] = np.clip(raw, 0, n_cells - 1)
    _, counts = np.unique(pack_grid_keys(idx, "cell"), return_counts=True)
    values, cells = np.unique(counts, return_counts=True)
    return OccupancyProfile(
        cell_size=cell,
        max_count=int(values.max()),
        histogram={int(v): int(c) for v, c in zip(values, cells)},
    )
