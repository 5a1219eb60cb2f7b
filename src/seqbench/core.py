"""Shared vocabulary: byte sizes, transfer directions, open modes, seeded RNG.

Everything here is small and immutable so other modules can pass these
values around (including across threads) without ceremony.
"""
from __future__ import annotations

import enum
import io

import numpy as np

from .errors import SizeParseError

__all__ = [
    "DEFAULT_SEED",
    "Direction",
    "OpenDisposition",
    "parse_size",
    "format_size",
    "make_rng",
]

U64_MAX = (1 << 64) - 1

# Binary multipliers.  K, M and G mean 2**10, 2**20 and 2**30 here, matching
# the power-of-two request sizes the benchmarks sweep over.
SUFFIXES = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}

#: Seed every tool uses unless told otherwise.
DEFAULT_SEED = 137

#: Raw 64-bit outputs per piece of a ``bytes`` draw: 64 KiB, below glibc's
#: 128 KiB mmap threshold, so each piece reuses heap memory the last one freed.
_PIECE_OUTPUTS = 8192


class Direction(enum.Enum):
    """Which way bytes move relative to the file."""

    READ = "read"
    WRITE = "write"


class OpenDisposition(enum.Enum):
    """What opening a path should do about existing or missing files.

    OPEN            the file must already exist; contents are kept.
    CREATE          always start from an empty file, creating it if needed.
    CREATE_NEW      create; fail if the path already exists.
    OPEN_OR_CREATE  keep an existing file, create an empty one otherwise.
    APPEND          like OPEN_OR_CREATE but positioned at end of file.
    TRUNCATE        the file must already exist; contents are discarded.
    """

    OPEN = "open"
    CREATE = "create"
    CREATE_NEW = "create_new"
    OPEN_OR_CREATE = "open_or_create"
    APPEND = "append"
    TRUNCATE = "truncate"


def parse_size(text: str) -> int:
    """Parse a byte count like ``1048576``, ``64K``, ``100m`` or ``1G``.

    Suffixes are case-insensitive and binary (K = 1024).  Anything else,
    including signs, fractions, whitespace and values past 2**64 - 1,
    raises SizeParseError.
    """
    if not isinstance(text, str):
        raise SizeParseError(f"size must be a string, got {type(text).__name__}")
    if not text:
        raise SizeParseError("empty size string")
    body, multiplier = text, 1
    last = text[-1]
    if not last.isdigit():
        upper = last.upper()
        if upper not in SUFFIXES:
            raise SizeParseError(f"unknown size suffix {last!r} in {text!r}")
        body, multiplier = text[:-1], SUFFIXES[upper]
    if not body or not (body.isascii() and body.isdigit()):
        raise SizeParseError(f"malformed size {text!r}")
    value = int(body) * multiplier
    if value > U64_MAX:
        raise SizeParseError(f"size {text!r} does not fit in 64 bits")
    return value


def format_size(size: int) -> str:
    """Render a byte count with the largest suffix that divides it evenly.

    The output round-trips through parse_size.  Zero renders as ``0``.
    """
    if not isinstance(size, int) or isinstance(size, bool):
        raise TypeError(f"size must be an int, got {type(size).__name__}")
    if size < 0:
        raise ValueError(f"size may not be negative: {size}")
    if size > U64_MAX:
        raise ValueError(f"size {size} does not fit in 64 bits")
    if size == 0:
        return "0"
    for suffix in ("G", "M", "K"):
        multiplier = SUFFIXES[suffix]
        if size % multiplier == 0:
            return f"{size // multiplier}{suffix}"
    return str(size)


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic random generator for a (seed, stream) pair.

    Built on a counter-based bit generator keyed by both numbers, so the
    same pair gives the same draws on every platform and every run, and
    distinct streams under one seed are statistically independent.  A
    stream must be owned by exactly one consumer at a time; hand each
    worker a stream of its own rather than sharing a generator.

    The generator is numpy's, except that ``bytes`` takes its words from
    the bit generator's raw 64-bit stream in 64 KiB pieces: the same
    bytes, leaving the same state, as numpy's ``Generator.bytes``, which
    draws them one bounded 32-bit word at a time.
    """
    if seed < 0 or stream < 0:
        raise ValueError("seed and stream must be non-negative")
    key = np.array([seed & U64_MAX, stream & U64_MAX], dtype=np.uint64)
    return _Generator(np.random.Philox(key=key))


class _Generator(np.random.Generator):
    """numpy's Generator with ``bytes`` drawn from the raw stream."""

    def bytes(self, length: int) -> bytes:
        """``length`` random bytes, as numpy's ``Generator.bytes`` draws them.

        numpy takes ceil(length / 4) words (one for a length of 0), each
        a ``next_uint32``: the half-word the bit generator holds pending
        if it has one, and otherwise the low half of a fresh 64-bit
        output, leaving the high half pending.  So the words are that
        pending half-word, then the raw outputs' halves, low half first;
        an odd count leaves the last high half pending, and numpy's
        state keeps the last high half drawn even once it is used.  A
        negative length raises ValueError, before anything is drawn.

        The result is sized once, in an ``io.BytesIO`` whose ``getvalue``
        hands its buffer over without a copy, and the raw outputs are
        written into it in pieces of 64 KiB, the last one cut to
        ``length``.  No other allocation outgrows a piece, so a draw
        holds about its own length of memory, and drawing that length
        again reuses heap pages already faulted in.
        """
        if length < 0:
            raise ValueError(f"length may not be negative, got {length}")
        bit_generator = self.bit_generator
        state = bit_generator.state
        pending = state["has_uint32"]
        words = (-(-length // 4) or 1) - pending
        outputs = -(-words // 2)
        out = io.BytesIO()
        out.seek(length)
        out.write(b"\0")  # sizes the buffer once; truncate drops this byte
        out.seek(0)
        if pending:
            out.write(state["uinteger"].to_bytes(4, "little")[:length])
        for start in range(0, outputs, _PIECE_OUTPUTS):
            raw = bit_generator.random_raw(min(_PIECE_OUTPUTS, outputs - start))
            out.write(raw.astype("<u8", copy=False).view(np.uint8)[:length - out.tell()])
        state = bit_generator.state
        state["has_uint32"] = words % 2
        if outputs:
            state["uinteger"] = int(raw[-1]) >> 32
        bit_generator.state = state
        out.truncate(length)
        return out.getvalue()

    def __reduce__(self):
        # numpy's rebuilds a plain Generator: a copy or an unpickled one would lose this bytes.
        return type(self), (self.bit_generator,)
