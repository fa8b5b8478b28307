"""Input measures: the Gaussian benchmark suite and histogram CSV files."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ParseError


@dataclass(frozen=True)
class GaussianSuiteSpec:
    """Benchmark suite: discretized Gaussians on an equispaced grid."""

    count: int = 10
    support: int = 100
    support_range: tuple = (-10.0, 10.0)
    mean_range: tuple = (-5.0, 5.0)
    var_range: tuple = (0.8, 1.8)
    seed: int = 0


def gaussian_suite(spec):
    """Deterministic-per-seed suite of discretized Gaussian histograms.

    Returns (measures, grid points): `count` rows of Gaussian densities
    evaluated on the grid and normalized to unit mass, with means and
    variances drawn uniformly from the configured ranges.
    """
    rng = np.random.default_rng(spec.seed)
    means = rng.uniform(*spec.mean_range, size=spec.count)
    variances = rng.uniform(*spec.var_range, size=spec.count)
    points = np.linspace(*spec.support_range, spec.support)
    densities = np.exp(-((points[None, :] - means[:, None]) ** 2) / (2.0 * variances[:, None]))
    measures = densities / densities.sum(axis=1, keepdims=True)
    return measures, points


def load_histograms(path, normalize=False):
    """Read one histogram per CSV row; returns (measures, grid or None).

    A leading comment row ``# grid: v1,v2,...`` supplies support points.
    Rows are rejected when their sum strays from 1 by more than 1e-6, unless
    `normalize` rescales them; either way the returned rows sit exactly on
    the simplex.
    """
    grid = None
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            if text.startswith("#"):
                body = text[1:].strip()
                if body.lower().startswith("grid:"):
                    try:
                        grid = np.array([float(v) for v in body[5:].split(",")])
                    except ValueError as exc:
                        raise ParseError(f"{path}: line {lineno}: bad grid header: {exc}") from exc
                continue
            try:
                values = np.array([float(v) for v in text.split(",")])
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from exc
            if rows and values.shape != rows[0].shape:
                raise ParseError(f"{path}: line {lineno}: inconsistent row length")
            if np.any(values < 0):
                raise ParseError(f"{path}: line {lineno}: negative mass")
            total = values.sum()
            if abs(total - 1.0) > 1e-6 and not normalize:
                raise ParseError(
                    f"{path}: line {lineno}: row mass {total!r} is not 1 (use --normalize)"
                )
            if total <= 0:
                raise ParseError(f"{path}: line {lineno}: row has no mass")
            rows.append(values / total)
    if not rows:
        raise ParseError(f"{path}: no histogram rows found")
    measures = np.vstack(rows)
    if grid is not None and grid.shape[0] != measures.shape[1]:
        raise ParseError(f"{path}: grid header length does not match rows")
    return measures, grid
