"""Makes the checkout's own `src/linerec` importable and pins the BLAS pool.

Import this module before numpy. The benchmark is a single-process,
single-thread closed loop: the program trains and decodes with
``workers=1``, and one BLAS thread keeps timings on a small shared machine
from depending on what the other cores are doing. The pinned value is
reported in the environment record with every result.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS


class MissingProgram(RuntimeError):
    """The checkout does not hold the program's sources."""


def use_checkout_sources() -> None:
    """Put the checkout's `src` first on the path and verify that `linerec`
    then resolves to it, never to an installed copy."""
    if not (SRC / "linerec" / "__init__.py").is_file():
        raise MissingProgram(f"no program sources at {SRC / 'linerec'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import linerec

    if Path(linerec.__file__).resolve().parent != (SRC / "linerec").resolve():
        raise MissingProgram(f"linerec resolved to {linerec.__file__}, not {SRC}")
