"""Small shared helpers: RNG coercion, rounding, float serialization, repeats, file records."""

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


def repeats(values: np.ndarray) -> np.ndarray:
    """Mask of the entries of a 1-D array that equal an earlier entry."""
    _, first = np.unique(values, return_index=True)
    repeat = np.ones(len(values), dtype=bool)
    repeat[first] = False
    return repeat


def first_repeat(values: np.ndarray) -> int | None:
    """Index of the first entry of a 1-D array that equals an earlier one, or None."""
    repeat = repeats(values)
    return int(np.argmax(repeat)) if repeat.any() else None


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


def records(path, fields: dict[str, tuple[tuple, int]]):
    """Yield ``(lineno, kind, values)`` for each record line of a text file.

    A record line is a kind followed by whitespace-separated fields; blank
    lines and lines whose first field starts with ``#`` are skipped.
    ``fields[kind]`` is ``(converters, optional)``: one converter per field,
    the last ``optional`` of which may be left out and then read as None.
    An unknown kind, an extra or missing field, and a field its converter
    rejects each raise a FormatError naming the line.
    """
    for lineno, raw in enumerate(text_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, *given = line.split()
        if kind not in fields:
            raise FormatError(f"line {lineno}: unknown record {kind!r}")
        converters, optional = fields[kind]
        missing = len(converters) - len(given)
        if missing < 0:
            extra = " ".join(given[len(converters) :])
            raise FormatError(f"line {lineno}: unexpected field(s) {extra!r} after a {kind!r} record")
        try:
            if missing > optional:
                raise ValueError(f"{missing} field(s) missing")
            values = tuple(convert(field) for convert, field in zip(converters, given))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: cannot parse {line!r}") from exc
        yield lineno, kind, values + (None,) * missing
