"""Text families and query patterns for the benchmark.

The families live here, not in the library: random texts over a small
alphabet, and the adversarial unary, Fibonacci and periodic texts whose
deep repeats make the naive builders quadratic.  Every generator takes a
``random.Random`` so that one seed fixes every input of a run.
"""

from __future__ import annotations

import random

FIRST = ord("a")


def random_text(rng: random.Random, n: int, sigma: int) -> bytes:
    return bytes(rng.randrange(FIRST, FIRST + sigma) for _ in range(n))


def unary_text(n: int) -> bytes:
    return b"a" * n


def fibonacci_text(n: int) -> bytes:
    """Prefix of the Fibonacci word abaababaabaab..."""
    prev, cur = b"a", b"ab"
    while len(cur) < n:
        prev, cur = cur, cur + prev
    return cur[:n]


def periodic_text(rng: random.Random, n: int, period: int) -> bytes:
    """A block of ``period`` distinct letters repeated; distinct letters
    make the block primitive, so the text's smallest period is exactly
    ``period`` whatever the seed."""
    block = bytes(rng.sample(range(FIRST, FIRST + 26), period))
    return (block * (n // period + 1))[:n]


def sampled_pattern(rng: random.Random, raw: bytes, m: int) -> bytes:
    i = rng.randrange(len(raw) - m + 1)
    return raw[i:i + m]


def mutated_pattern(rng: random.Random, raw: bytes, m: int,
                    where: float) -> bytes:
    """A substring of the text with the character at relative position
    ``where`` (0 <= where < 1) replaced by another letter of the text's
    alphabet (or the next letter, for unary text)."""
    pat = bytearray(sampled_pattern(rng, raw, m))
    alphabet = sorted(set(raw))
    alphabet.append(alphabet[-1] + 1)
    k = int(where * m)
    pat[k] = rng.choice([c for c in alphabet if c != pat[k]])
    return bytes(pat)


def random_pattern(rng: random.Random, raw: bytes, m: int) -> bytes:
    alphabet = sorted(set(raw))
    return bytes(rng.choice(alphabet) for _ in range(m))


def _pattern(rng, raw, m, kind, i, per_cell):
    if kind == "sampled":
        return sampled_pattern(rng, raw, m)
    if kind == "mutated":
        # stratified mutation positions: how far navigation gets before
        # the mismatch varies little between seeds
        return mutated_pattern(rng, raw, m, (i + rng.random()) / per_cell)
    return random_pattern(rng, raw, m)


def patterns(rng: random.Random, raw: bytes, lengths, kinds,
             per_cell: int) -> list[bytes]:
    """``per_cell`` patterns for every (length, kind) pair, so the mix of
    lengths and kinds is the same for every seed.  Kinds: "sampled" (a
    substring of the text), "mutated" (a substring with one character
    changed) and "random" (letters of the text's alphabet)."""
    return [_pattern(rng, raw, m, kind, i, per_cell)
            for m in lengths for kind in kinds for i in range(per_cell)]
