"""permlab: exact-permanent laboratory for random sign matrices.

Exact permanent/determinant engines, the full lattice of minor permanents,
level-by-level growth and endgame runs driven by the lattice, and a
verification suite of enumeration identities and seeded Monte Carlo checks.
"""

from .engines import determinant_exact, permanent, permanent_mod, permanent_naive, permanent_ryser
from .growth import ProcessConfig, ProcessTrace, StepType, is_successful, run_growth
from .lattice import MinorTable, SplitVerdict, build_lattice, parent_histogram, split_events
from .matrices import (
    CapError,
    SignMatrix,
    from_text,
    sample_row,
    sample_sign_matrix,
    to_text,
)
from .rng import RngStream

__version__ = "0.1.0"

__all__ = [
    "CapError",
    "MinorTable",
    "ProcessConfig",
    "ProcessTrace",
    "RngStream",
    "SignMatrix",
    "SplitVerdict",
    "StepType",
    "build_lattice",
    "determinant_exact",
    "from_text",
    "is_successful",
    "parent_histogram",
    "permanent",
    "permanent_mod",
    "permanent_naive",
    "permanent_ryser",
    "run_growth",
    "sample_row",
    "sample_sign_matrix",
    "split_events",
    "to_text",
    "__version__",
]
