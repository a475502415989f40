"""Time a fresh process's set-up: ``import bioqm`` plus the workload's fields.

Usage: python3 setup_probe.py SRC_DIR P:DEGREE[,P:DEGREE...]

Prints the seconds from just before the import to the last FieldConfig built,
then the median time of the host-speed reference run right after (see
``hostclock.py``).  The import is the one every CLI call pays, so it includes
``bioqm.cli``.
"""

import os
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import bioqm  # noqa: E402
import bioqm.cli  # noqa: E402,F401

configs = [
    bioqm.FieldConfig(int(p), int(degree))
    for p, degree in (item.split(":") for item in sys.argv[2].split(","))
]
elapsed = time.perf_counter() - start
if not bioqm.__file__.startswith(sys.argv[1]):
    sys.exit(f"imported bioqm from {bioqm.__file__}, not from {sys.argv[1]}")
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import hostclock  # noqa: E402  (after timing: it imports fractions and dataclasses)

print(repr(elapsed), repr(hostclock.reference_seconds(11)))
