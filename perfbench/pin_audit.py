"""Pin the audit_small verdict vector for a list of seeds.

    python3 perfbench/pin_audit.py 0-63 20261017

Runs one untimed pass per seed, refuses to pin a seed whose pass failed the
gate (exceptions, rejected witnesses), and merges the digests into
``pins.json``. Re-pin only when a change to the program is meant to change
verdicts, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import sys
import tempfile

import run


def main(argv: list[str]) -> int:
    sys.path.insert(0, run.SRC)
    pins = run.load_pins()
    table = pins.setdefault("audit_small", {})
    status = 0
    for part in argv:
        low, _, high = part.partition("-")
        for seed in range(int(low), int(high or low) + 1):
            with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-tmp-") as workdir:
                bench = run.Run("audit_small", seed, workdir)
                bench.setup()
                bench.decide()
            if bench.failed:
                print(f"seed {seed}: {bench.failed} of {bench.attempted} decisions failed; "
                      "not pinned", file=sys.stderr)
                status = 1
                continue
            table[str(seed)] = run.verdict_digest(bench.vector)
            print(f"seed {seed}: {table[str(seed)]}", flush=True)
    pins["audit_small"] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    with open(run.PINS, "w") as fh:
        json.dump(pins, fh, indent=1)
        fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
