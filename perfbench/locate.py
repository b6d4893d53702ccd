"""Finding the program in the checkout that holds this benchmark."""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class ProgramMissing(RuntimeError):
    """The checkout holds no importable copy of the program."""


def pin_native_threads() -> None:
    """One BLAS/OpenMP thread per process; must run before numpy is imported."""
    for var in _THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import `viralsearch` from the checkout's `src`, never from elsewhere."""
    package = SRC / "viralsearch"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no viralsearch package under {SRC}")
    sys.path.insert(0, str(SRC))
    import viralsearch

    if Path(viralsearch.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"viralsearch was imported from {viralsearch.__file__}")
    return viralsearch
