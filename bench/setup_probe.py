"""One set-up probe: a fresh interpreter imports the CLI and builds its parser.

    PYTHONPATH=src python3 bench/setup_probe.py

Only `sys` and `time` are loaded before the timed part. The reference loop
runs twice just after it: loading it first would import `fractions`, which
is part of set-up. Prints one JSON line.
"""

import sys
import time

t0 = time.perf_counter()
import numpy  # noqa: E402,F401

t1 = time.perf_counter()
import lynesslab.cli  # noqa: E402

lynesslab.cli._build_parser()
t2 = time.perf_counter()

from reference import reference  # noqa: E402

refs = [reference()[0] for _ in range(2)]

import importlib.metadata as md  # noqa: E402
import json  # noqa: E402

print(json.dumps({
    "setup_s": t2 - t0,
    "import_numpy_s": t1 - t0,
    "ref_s": sum(refs) / len(refs),
    "versions": {pkg: md.version(pkg) for pkg in ("numpy", "scipy")},
    "python": sys.version.split()[0],
}))
