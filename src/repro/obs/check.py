"""CLI entry point: ``python -m repro.obs.check metrics.json``.

Exits 0 when every named file validates against the checked-in
canonical metrics schema, 1 otherwise (printing each violation).
Used by the CI smoke step to keep ``--metrics-out`` honest.
"""

from __future__ import annotations

import sys
from typing import List, Optional

from ..durable import parse_json
from .schema import load_schema, validate_metrics


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print("usage: python -m repro.obs.check metrics.json [...]", file=sys.stderr)
        return 2
    schema = load_schema()
    failed = False
    for name in argv:
        try:
            with open(name, "rb") as handle:
                document = parse_json(handle.read())
        except (OSError, ValueError) as exc:
            print(f"{name}: unreadable: {exc}", file=sys.stderr)
            failed = True
            continue
        errors = validate_metrics(document, schema)
        if errors:
            failed = True
            for error in errors:
                print(f"{name}: {error}", file=sys.stderr)
        else:
            print(f"{name}: ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
