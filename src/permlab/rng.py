"""Reproducible random streams for Monte Carlo runs.

Philox is a counter-based generator: the (seed, stream) key alone fixes the
entire draw sequence, with no dependence on thread count or on how many
other streams were consumed first.  Trial t of an experiment uses stream t
(or a documented mix of indices), so reruns are bit-stable and trials can be
executed in any order or in parallel.

Seeded sign matrices and rows (`matrices.sample_sign_matrix`,
`sample_sign_matrices`, `sample_row`) are drawn by the compiled
`sign_draws` kernel in `_kernels.c`, which runs Philox4x64-10 on the
(seed, stream) key itself and draws what numpy's Generator on that key
draws with `integers(0, 2, dtype=int8)`; numpy's Generator is its test
oracle.  `generator()` is that Generator, for the checks that draw other
shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_U64 = 1 << 64


@dataclass(frozen=True)
class RngStream:
    """A (seed, stream) pair naming one reproducible draw sequence."""

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.seed < _U64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if not 0 <= self.stream < _U64:
            raise ValueError("stream must be a 64-bit unsigned integer")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        # The key must be an explicit uint64 array: a plain list would be
        # coerced through float64 for values above 2**63 and collapse
        # adjacent streams.
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, *indices: int) -> "RngStream":
        """Derive a child stream from nonnegative indices (documented mixing).

        The mix is a fixed multiply-xor fold, so (seed, stream, indices)
        always names the same sequence across runs and platforms.
        """
        h = self.stream
        for ix in indices:
            if ix < 0:
                raise ValueError("substream indices must be nonnegative")
            h = (h * 0x9E3779B97F4A7C15 + ix + 1) % _U64
        return RngStream(self.seed, h)

