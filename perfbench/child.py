"""Work the benchmark runs in a fresh interpreter.

    python3 perfbench/child.py setup CALLS.json
        print the wall time of `import domcover` plus the set-up calls
        (setup_calls.py) listed in CALLS.json
    python3 perfbench/child.py import-cli
        print the wall time of a fresh `import domcover.cli`
    python3 perfbench/child.py extremal --seed S --target N --budget C
        seeded 3-d extremal search; prints the points as JSON, or exits 4
        when the conflict budget runs out (the CLI's budget exit code)
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("calls")
    sub.add_parser("import-cli")
    p = sub.add_parser("extremal")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--budget", type=int, required=True)
    args = parser.parse_args()

    if args.mode == "setup":
        import setup_calls

        calls = json.loads(Path(args.calls).read_text())
        start = time.perf_counter()
        import domcover  # noqa: F401

        for call in calls:
            setup_calls.make(call)
        print(time.perf_counter() - start)
        return 0

    if args.mode == "import-cli":
        start = time.perf_counter()
        import domcover.cli  # noqa: F401

        print(time.perf_counter() - start)
        return 0

    from domcover.errors import SearchFailedError
    from domcover.geometry import search_extremal_pointset_3d

    try:
        ps = search_extremal_pointset_3d(args.seed, args.budget, target=args.target)
    except SearchFailedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    print(json.dumps({"points": [[int(c) for c in p] for p in ps.points]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
