"""Inputs: the Gaussian benchmark suite, histogram CSV files and cost CSV files."""

from __future__ import annotations

import operator
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
        for name, low in (("support", 2), ("seed", 0)):
            value = getattr(self, name)
            try:
                value = operator.index(value)
            except TypeError:
                raise ConfigError(f"suite {name} must be an integer: got {value!r}") from None
            if value < low:
                raise ConfigError(f"suite {name} must be at least {low}: got {value}")
            object.__setattr__(self, name, value)


_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uniform_draws(seed, count):
    """The first `count` uniform doubles of NumPy's default generator at `seed`.

    NumPy's SeedSequence hashes the seed's little-endian 32-bit words into a
    4-word pool and expands it into four 64-bit words s0..s3; PCG64 (O'Neill
    2014) starts from state s0:s1 and increment s2:s3, and each draw is one
    LCG step, the XSL-RR 128/64 output and its top 53 bits.  NEP 19 fixes
    this stream across NumPy releases; `Generator` methods it leaves free.
    """
    words = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x, y):
        out = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return out ^ out >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    state, hash_const = [], 0x8B51F9DD
    for i in range(8):
        word = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        word = word * hash_const & _M32
        state.append(word ^ word >> 16)
    s0, s1, s2, s3 = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
    inc = ((s2 << 64 | s3) << 1 | 1) & _M128
    lcg = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128
    draws = []
    for _ in range(count):
        lcg = (lcg * _PCG_MULT + inc) & _M128
        x, rot = ((lcg >> 64) ^ lcg) & _M64, lcg >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        draws.append((x >> 11) * 2.0**-53)
    return draws


def gaussian_suite(spec):
    """Deterministic-per-seed suite of discretized Gaussian histograms.

    Returns (measures, grid points): SUITE_COUNT rows of Gaussian densities
    on `spec.support` equispaced points of SUPPORT_RANGE, normalized to unit
    mass, with means and variances drawn uniformly from MEAN_RANGE and VAR_RANGE.
    """
    draws = _uniform_draws(spec.seed, 2 * SUITE_COUNT)
    (mean_lo, mean_hi), (var_lo, var_hi) = MEAN_RANGE, VAR_RANGE
    means = np.array([mean_lo + (mean_hi - mean_lo) * u for u in draws[:SUITE_COUNT]])
    variances = np.array([var_lo + (var_hi - var_lo) * u for u in draws[SUITE_COUNT:]])
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
    """`path` opened as UTF-8 text, a leading byte-order mark skipped; bytes that
    do not decode raise a ParseError naming it."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
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
                f"{path}: line {lineno}: row mass {float(total)!r} is not 1 (use --normalize)"
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
