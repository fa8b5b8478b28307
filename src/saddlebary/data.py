"""Inputs: the Gaussian benchmark suite, histogram CSV files and cost CSV files."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, ParseError

SUITE_COUNT = 10
SUPPORT_RANGE = (-10.0, 10.0)
MEAN_RANGE = (-5.0, 5.0)
VAR_RANGE = (0.8, 1.8)


@dataclass(frozen=True)
class GaussianSuiteSpec:
    """Benchmark suite: grid size and the seed of the means and variances."""

    support: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("suite seed must be nonnegative")


def gaussian_suite(spec):
    """Deterministic-per-seed suite of discretized Gaussian histograms.

    Returns (measures, grid points): SUITE_COUNT rows of Gaussian densities
    on `spec.support` equispaced points of SUPPORT_RANGE, normalized to unit
    mass, with means and variances drawn uniformly from MEAN_RANGE and VAR_RANGE.
    """
    rng = np.random.default_rng(spec.seed)
    means = rng.uniform(*MEAN_RANGE, size=SUITE_COUNT)
    variances = rng.uniform(*VAR_RANGE, size=SUITE_COUNT)
    points = np.linspace(*SUPPORT_RANGE, spec.support)
    densities = np.exp(-((points[None, :] - means[:, None]) ** 2) / (2.0 * variances[:, None]))
    measures = densities / densities.sum(axis=1, keepdims=True)
    return measures, points


def _parse_floats(path, lineno, fields):
    """One CSV row as finite floats; a ParseError names the file and line."""
    try:
        values = np.array([float(v) for v in fields])
    except ValueError as exc:
        raise ParseError(f"{path}: line {lineno}: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise ParseError(f"{path}: line {lineno}: non-finite value")
    return values


@contextmanager
def _open_text(path):
    """`path` opened as UTF-8 text; bytes that do not decode raise a ParseError naming it."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None


def _read_rows(path):
    """Yield (line number, row) per nonblank line of a numeric CSV file: the
    text after the '#' of a comment line, else the values, all of one length."""
    width = None
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if text.startswith("#"):
                yield lineno, text[1:].strip()
            elif text:
                values = _parse_floats(path, lineno, text.split(","))
                if width not in (None, len(values)):
                    raise ParseError(f"{path}: line {lineno}: inconsistent row length")
                width = len(values)
                yield lineno, values


def load_cost_csv(path):
    """Read a ground-cost matrix, one row per CSV line ('#' lines skipped)."""
    rows = [row for _, row in _read_rows(path) if not isinstance(row, str)]
    if not rows:
        raise ParseError(f"{path}: empty cost matrix")
    return np.array(rows)


def load_histograms(path, normalize=False):
    """Read one histogram per CSV row; returns (measures, grid or None).

    A leading comment row ``# grid: v1,v2,...`` supplies support points.
    Rows are rejected when their sum strays from 1 by more than 1e-6, unless
    `normalize` rescales them; either way the returned rows sit exactly on
    the simplex.
    """
    grid = None
    rows = []
    for lineno, values in _read_rows(path):
        if isinstance(values, str):
            if values.lower().startswith("grid:"):
                grid = _parse_floats(path, lineno, values[5:].split(","))
            continue
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
