"""Seeded random Boolean matrices from a SplitMix64 stream.

SplitMix64 is fixed here because its output is a pure function of the
64-bit seed, identical on every platform and trivially re-implementable;
experiments quoting a seed are therefore reproducible anywhere.  Cells are
drawn row-major (column 1 first); a duplicate row is redrawn from the
continuing stream, so the result is still a deterministic function of the
seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrix import BooleanMatrix

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class GenerationError(RuntimeError):
    """A duplicate-free matrix could not be produced."""


class SplitMix64:
    """The standard SplitMix64 generator (64-bit state, 64-bit output)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_uint64() >> 11) * 2.0**-53


@dataclass(frozen=True)
class GeneratorConfig:
    """Shape, density of ones and seed of a random matrix; asking for more
    rows than distinct rows exist raises GenerationError."""

    rows: int
    cols: int
    ones_density: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rows < 2:
            raise ValueError("need at least two rows")
        if self.cols < 1:
            raise ValueError("need at least one column")
        if not 0.0 < self.ones_density < 1.0:
            raise ValueError("ones_density must be strictly between 0 and 1")
        if self.cols < 64 and self.rows > 1 << self.cols:
            raise GenerationError(
                f"{self.rows} distinct rows impossible with {self.cols} columns "
                f"(limit {1 << self.cols})"
            )


def generate_matrix(config: GeneratorConfig) -> BooleanMatrix:
    """Random matrix with the given shape, density and seed.

    Each cell is one independently with probability ones_density; rows
    colliding with an earlier row are redrawn.  Fails after a bounded
    number of redraws when duplicates keep coming (very dense or very
    sparse configurations close to the pigeonhole limit).
    """
    m, n = config.rows, config.cols
    rng = SplitMix64(config.seed)
    rows: list[int] = []
    seen: set[int] = set()
    attempts_left = max(1000, 50 * m)
    while len(rows) < m:
        value = 0
        for _ in range(n):
            value = (value << 1) | (1 if rng.next_float() < config.ones_density else 0)
        if value in seen:
            attempts_left -= 1
            if attempts_left <= 0:
                raise GenerationError(
                    f"could not draw {m} distinct rows "
                    f"(n={n}, density={config.ones_density}, seed={config.seed})"
                )
            continue
        seen.add(value)
        rows.append(value)
    return BooleanMatrix(
        col_count=n,
        rows=tuple(rows),
        row_labels=tuple(range(1, m + 1)),
    )


def derive_seeds(seed: int, count: int) -> tuple[int, ...]:
    """A reproducible list of per-record seeds from one master seed."""
    rng = SplitMix64(seed)
    return tuple(rng.next_uint64() for _ in range(count))
