"""Small shared helpers: RNG coercion, rounding, float serialization."""

from __future__ import annotations

import math

import numpy as np

from .errors import FormatError


def as_rng(rng: np.random.Generator | int) -> np.random.Generator:
    """Accept an integer seed or anything Generator-shaped (passed through)."""
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    return rng


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator derived from a master seed and an integer key path."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(ss))


def substream_seed(master_seed: int, *key: int) -> int:
    """Integer seed derived from a master seed for APIs that record their seed."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def round_half_up(x: float) -> int:
    """round(2.5) == 3, unlike banker's rounding."""
    return int(math.floor(x + 0.5))


def fmt_float(x: float) -> str:
    """Decimal text with 17 significant digits; round-trips float64 exactly."""
    return "%.17g" % x


def text_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; a byte that is not UTF-8 raises FormatError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
