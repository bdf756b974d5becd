"""Locations inside the checkout the benchmark runs from."""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"  # scratch outputs, ignored by git
PINS = BENCH / "pins.json"


def use_checkout_source() -> bool:
    """Put the checkout's ``src`` first on the import path.  False when the
    checkout holds no library source (the benchmark then cannot run)."""
    if not (SRC / "eaqldpc" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import eaqldpc

    return Path(eaqldpc.__file__).resolve().is_relative_to(SRC)
