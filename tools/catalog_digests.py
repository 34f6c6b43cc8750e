"""Catalog byte-identity gate: one sha256 per sweep artifact.

``tests/golden/catalog_digests.json`` pins the artifact of every catalog
scenario at ``--scale 50``.  Re-sweep the catalog and diff it with::

    PYTHONPATH=src python -m repro sweep --scale 50 --jobs 2 --quiet \\
        --out results/catalog
    python tools/catalog_digests.py check results/catalog

``write`` re-records the manifest from a sweep directory; only a change that
is meant to alter simulated behaviour should ever need it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

MANIFEST = Path(__file__).resolve().parent.parent / "tests" / "golden" / "catalog_digests.json"
SWEEP = "python -m repro sweep --scale 50 --jobs 2 --quiet"


def digests(directory: Path) -> dict[str, str]:
    """``{artifact file name: sha256 hex}`` for every JSON artifact."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.glob("*.json"))}


def compare(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """One line per missing, extra or changed artifact (empty = identical)."""
    problems = [f"missing: {name}" for name in sorted(expected.keys() - actual.keys())]
    problems += [f"unexpected: {name}" for name in sorted(actual.keys() - expected.keys())]
    problems += [f"changed: {name}" for name in sorted(expected.keys() & actual.keys())
                 if expected[name] != actual[name]]
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("action", choices=("check", "write"))
    parser.add_argument("directory", type=Path, help="the sweep's --out directory")
    args = parser.parse_args(argv)

    actual = digests(args.directory)
    if not actual:
        print(f"no artifacts in {args.directory}", file=sys.stderr)
        return 1
    if args.action == "write":
        MANIFEST.write_text(json.dumps(
            {"sweep": SWEEP, "artifacts": actual}, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(actual)} digests to {MANIFEST}")
        return 0
    expected = json.loads(MANIFEST.read_text())["artifacts"]
    problems = compare(expected, actual)
    for line in problems:
        print(line)
    if problems:
        print(f"{len(problems)} of {len(expected)} artifacts differ from the manifest",
              file=sys.stderr)
        return 1
    print(f"all {len(expected)} catalog artifacts match the manifest")
    return 0


if __name__ == "__main__":
    sys.exit(main())
