"""Child processes the tests start (`python -m permlab.cli ...`) import
permlab from this checkout's src/, as the test process itself does through
the `pythonpath` setting in pyproject.toml."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
