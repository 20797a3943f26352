"""Shared fixtures and family builders for the test suite."""

import numpy as np
import pytest

from tangencylab.families import CircleFamily, pack_grid_keys, unit_box
from tangencylab.planks import _IDX_OFFSET, _assign_points


def random_unit_family(seed: int, n: int) -> CircleFamily:
    """Uniform random circles in the unit-scale center-radius box."""
    rng = np.random.default_rng(seed)
    pts = np.column_stack(
        [rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n), rng.uniform(1.0, 2.0, n)]
    )
    return CircleFamily(
        points=pts, scale_R=1.0, separation_rho=0.0, box=unit_box(),
        provenance={"generator": "random_uniform", "seed": seed, "n": n},
    )


def clustered_unit_family(seed: int, n: int, n_clusters: int = 8) -> CircleFamily:
    """Clustered circles: stresses near-tangency counting harder than uniform."""
    rng = np.random.default_rng(seed)
    centers = np.column_stack(
        [rng.uniform(-0.8, 0.8, n_clusters), rng.uniform(-0.8, 0.8, n_clusters),
         rng.uniform(1.1, 1.9, n_clusters)]
    )
    which = rng.integers(0, n_clusters, n)
    pts = centers[which] + rng.normal(0.0, 0.03, (n, 3))
    pts[:, 0] = np.clip(pts[:, 0], -1.0, 1.0)
    pts[:, 1] = np.clip(pts[:, 1], -1.0, 1.0)
    pts[:, 2] = np.clip(pts[:, 2], 1.0, 2.0)
    return CircleFamily(
        points=pts, scale_R=1.0, separation_rho=0.0, box=unit_box(),
        provenance={"generator": "random_clustered", "seed": seed, "n": n},
    )


def abc_keys(cells: np.ndarray) -> np.ndarray:
    """Packed keys of grid indices (n, 3) that sort as (a, b, c), the order of a slice's planks."""
    return pack_grid_keys(cells + _IDX_OFFSET, "box")


def packed_key_counts(coll, pts: np.ndarray, K_rich: float = 1.0) -> list:
    """Per slice, (sorted keys, grid indices, point counts) of the planks holding a point.

    The pass by packed keys: _assign_points' dense ids become grid indices
    through the slice's extents.cells, then abc_keys, and np.unique counts
    them, so the planks come in the order slice_incidences gives them.
    """
    out = []
    for j, spec in enumerate(coll.slices):
        cells = spec.extents.cells(_assign_points(coll, j, pts.astype(float), K_rich)[1])
        keys, first, counts = np.unique(abc_keys(cells), return_index=True, return_counts=True)
        out.append((keys, cells[first], counts))
    return out
