"""Record the stdout sha256 of every invocation the workloads check by digest.

Run from the root of a checkout:

    python3 perfbench/record_golden.py

It serves each invocation once through ``chainisom.cli.main`` and writes
perfbench/golden.json.  stdout is a pure function of the flags, so the file
pins the output bytes of the commit it was recorded at; record it again
only when a change to the output is intended.
"""

from __future__ import annotations

import json
import sys

from harness import serve
from run import GOLDEN, load_program


def main() -> int:
    load_program()
    from chainisom.cli import main as cli_main
    from workloads import WORKLOADS, golden_keys

    keys = sorted(set().union(*(golden_keys(w) for w in WORKLOADS)))
    golden = {}
    for key in keys:
        outcome = serve(cli_main, key.split())
        if outcome.error is not None or outcome.exit_code != 0:
            print(f"error: {key!r} failed: {outcome.error or outcome.stderr_tail}",
                  file=sys.stderr)
            return 1
        golden[key] = outcome.sha256
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} digests in {GOLDEN.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
