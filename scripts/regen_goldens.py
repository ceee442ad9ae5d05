#!/usr/bin/env python3
"""Regenerate the frozen catalog golden files from the symbolic formulas.

Run from the repository root after an intentional catalog change, then
review the diff; tests compare CLI output byte-for-byte against these.
"""

from pathlib import Path

from scorza.catalog import golden_objects
from scorza.cli import render_json

OUT = Path(__file__).resolve().parent.parent / "src" / "scorza" / "data" / "catalog"


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    for name, obj in golden_objects().items():
        path = OUT / name
        path.write_text(render_json(obj), encoding="utf-8")
        print("wrote", path)


if __name__ == "__main__":
    main()
