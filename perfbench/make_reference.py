"""Rebuild reference.zip: the frozen program the benchmark measures against.

    python3 perfbench/make_reference.py [REV]

Packs src/permlab as committed at REV (default HEAD) into perfbench/reference.zip
with fixed timestamps and no compression, so the same REV always gives the same
bytes.  Run it only to re-base the reference on purpose: the constants in
run.py (REFERENCE) and selftest.py (REFERENCE_SHA256) must be measured again
afterwards, and every earlier figure stops being comparable.
"""

from __future__ import annotations

import io
import subprocess
import sys
import tarfile
import zipfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    rev = sys.argv[1] if len(sys.argv) > 1 else "HEAD"
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src/permlab"],
                         cwd=HERE.parent, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf, \
            zipfile.ZipFile(HERE / "reference.zip", "w", zipfile.ZIP_STORED) as zf:
        for member in sorted((m for m in tf.getmembers() if m.isfile()), key=lambda m: m.name):
            info = zipfile.ZipInfo(member.name.removeprefix("src/"), date_time=(1980, 1, 1, 0, 0, 0))
            info.external_attr = 0o644 << 16
            zf.writestr(info, tf.extractfile(member).read())
    return 0


if __name__ == "__main__":
    sys.exit(main())
