"""SHA-256 digests of the benchmark's CLI output CSVs.

Runs the command lines of ``perfbench/workloads.py`` (every workload's
``COMMANDS``) in-process at each given seed, and prints one JSON object that
maps ``label.seed`` to the digest of that run's CSV, or to ``exit N`` when
the command exits N != 0.  ``--root`` names the checkout
whose ``src`` and ``perfbench`` are imported (default: the one holding this
script), so one copy of the script digests any checkout:

    export OPENBLAS_NUM_THREADS=1
    diff <(python tools/csv_digests.py --root ../parent) <(python tools/csv_digests.py)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path


def digests(root, seeds):
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import cfbm.cli as cli
    import workloads

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for commands in workloads.COMMANDS.values():
            for label, argv in commands:
                for seed in seeds:
                    csv = Path(tmp) / f"{label}.{seed}.csv"
                    rc = cli.main([*argv, "--seed", str(seed), "--out", str(csv)])
                    out[f"{label}.{seed}"] = (
                        hashlib.sha256(csv.read_bytes()).hexdigest() if rc == 0 else f"exit {rc}"
                    )
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout to digest (default: this script's)")
    parser.add_argument("--seed", type=int, action="append",
                        help="seed, repeatable (default: 0 and 7)")
    args = parser.parse_args()
    result = digests(args.root.resolve(), args.seed or [0, 7])
    print(json.dumps(result, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
