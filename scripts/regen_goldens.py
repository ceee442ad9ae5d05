#!/usr/bin/env python3
"""Regenerate the frozen catalog golden files from the symbolic formulas.

Run as `python scripts/regen_goldens.py` from a checkout after an
intentional catalog change, then review the diff; tests compare CLI output
byte-for-byte against these. It imports scorza from the checkout's `src/`,
as the tests do, so no install is needed.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from scorza.catalog import golden_objects  # noqa: E402
from scorza.cli import render_json  # noqa: E402

OUT = ROOT / "src" / "scorza" / "data" / "catalog"


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    for name, obj in golden_objects().items():
        path = OUT / name
        path.write_text(render_json(obj), encoding="utf-8")
        print("wrote", path)


if __name__ == "__main__":
    main()
