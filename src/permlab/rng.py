"""Reproducible random streams for Monte Carlo runs.

Philox is a counter-based generator: the (seed, stream) key alone fixes the
entire draw sequence, with no dependence on thread count or on how many
other streams were consumed first.  Trial t of an experiment uses stream t
or a documented mix of indices (every Monte Carlo check draws trial t from
`rng.substream(t)`; `substream_keys` gives many trials' keys at once), so
reruns are bit-stable, trials can run in any order or in parallel, and no
result depends on how trials are grouped.

Every seeded draw (`matrices.sample_sign_matrix`, `sample_sign_matrices`,
`sample_row`) is made by the compiled `sign_draws` kernel in `_kernels.c`,
which runs Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy
as 1, 2, 3", SC 2011) on the (seed, stream) key itself and draws what
numpy's Generator on that key draws with `integers(0, 2, dtype=int8)`.
That Generator is only the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_U64 = 1 << 64
_FOLD = 0x9E3779B97F4A7C15


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

    def substream(self, *indices: int) -> "RngStream":
        """The child stream of nonnegative indices, by a fixed multiply-add fold, so
        (seed, stream, indices) names the same sequence across runs and platforms."""
        h = self.stream
        for ix in indices:
            if ix < 0:
                raise ValueError("substream indices must be nonnegative")
            h = (h * _FOLD + ix + 1) % _U64
        return RngStream(self.seed, h)

    def substream_keys(self, trials) -> np.ndarray:
        """The uint64 keys (seed, stream) of substream(t), one row per t in `trials`."""
        if np.asarray(trials).min(initial=0) < 0:
            raise ValueError("substream indices must be nonnegative")
        # uint64 array arithmetic wraps mod 2**64, as the fold does
        streams = np.asarray(trials, dtype=np.uint64) + np.uint64((self.stream * _FOLD + 1) % _U64)
        return np.stack([np.full_like(streams, self.seed), streams], axis=1)
