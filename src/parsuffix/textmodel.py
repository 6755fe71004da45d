"""Text representation with out-of-band delimiter sentinels, plus string
interleaving / deinterleaving helpers.

Symbols are plain ints: byte values 0..255 are the base alphabet, values
above ``DELIMITER_BASE`` are delimiter sentinels.  Delimiters therefore
compare greater than every base character and among themselves by index,
which gives the total order the indexes rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

DELIMITER_BASE = 256


def delimiter(i: int) -> int:
    """Sentinel symbol for delimiter number ``i`` (1-based)."""
    if i < 1:
        raise ValueError("delimiter index must be >= 1")
    return DELIMITER_BASE + i


def is_delimiter(sym: int) -> bool:
    return sym > DELIMITER_BASE


@dataclass(frozen=True)
class Text:
    """The indexed text: base bytes followed by ``k`` unique delimiters."""

    symbols: tuple[int, ...]
    base_len: int
    k: int

    def __len__(self) -> int:
        return len(self.symbols)

    def at(self, pos: int) -> int:
        """Symbol at 1-based position ``pos``."""
        return self.symbols[pos - 1]

    @property
    def raw(self) -> bytes:
        return bytes(self.symbols[: self.base_len])


@dataclass(frozen=True)
class Pattern:
    """A delimiter-free query string."""

    chars: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.chars:
            raise ValueError("pattern must be nonempty")
        if any(is_delimiter(c) for c in self.chars):
            raise ValueError("pattern must not contain delimiter sentinels")

    @property
    def m(self) -> int:
        return len(self.chars)

    def at(self, pos: int) -> int:
        """Char at 1-based position ``pos``."""
        return self.chars[pos - 1]

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Pattern":
        return cls(tuple(raw))


def make_text(raw: bytes | Sequence[int], k: int) -> Text:
    """Build a :class:`Text` from raw bytes with ``k`` appended delimiters."""
    if k < 0:
        raise ValueError("k must be >= 0")
    base = tuple(raw)
    if any(not (0 <= c <= 255) for c in base):
        raise ValueError("base characters must be byte values")
    return Text(base + tuple(delimiter(i) for i in range(1, k + 1)), len(base), k)


def interleave(x: Sequence[int], k: int) -> list[tuple[int, ...]]:
    """Split ``x`` into its ``k`` interleaved subsequences.

    Subsequence ``i`` (1-based) holds ``x[i], x[i+k], x[i+2k], ...``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    seq = tuple(x)
    return [seq[i::k] for i in range(k)]


def deinterleaved_len(l1: int, l2: int) -> int:
    """Length of the string obtained by deinterleaving sequences of the
    given lengths (the compact two-sequence form)."""
    if l1 < 0 or l2 < 0:
        raise ValueError("lengths must be >= 0")
    return min(l1, l2) + min(l1, l2 + 1)


def deinterleave2(x1: Sequence[int], x2: Sequence[int]) -> tuple[int, ...]:
    """Deinterleave two subsequences, alternating x1[1], x2[1], x1[2], ...

    The output is truncated to ``deinterleaved_len(|x1|, |x2|)``, so the
    result is always a valid alternation even when the inputs are
    arbitrarily long relative to one another.
    """
    total = deinterleaved_len(len(x1), len(x2))
    out = []
    for i in range(total):
        out.append(x1[i // 2] if i % 2 == 0 else x2[i // 2])
    return tuple(out)
