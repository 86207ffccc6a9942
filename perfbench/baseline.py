"""Re-measure the single-run baseline listed in ROADMAP.md, with repeats.

    python3 perfbench/baseline.py

Each item runs REPEATS times in a fresh process and the median is printed
next to the ROADMAP value and their difference; the tier-1 test suite
(it needs pytest) is timed once.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REPEATS = 3
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

FIELD = (
    "import time; from pocsets.formats import fixture_model;"
    "from pocsets.shadows import window_field;"
    "m = fixture_model('FIX-HEX'); t = time.perf_counter(); window_field(m, {w});"
    "print(time.perf_counter() - t)"
)
ORACLE = (
    "import time, itertools; from pocsets.formats import fixture_model;"
    "from pocsets.shadows import ConsistencyOracle; o = ConsistencyOracle(fixture_model('FIX-HEX'));"
    "ts = list(itertools.product(range(-12, 13), repeat=3)); t = time.perf_counter();"
    "[o.consistent(c) for c in ts]; print((time.perf_counter() - t) / len(ts))"
)
WARM_REPORT = (
    "import time; from pocsets.formats import fixture_model;"
    "from pocsets.shadows import ChainUltrafilter, shadow_report, window_field;"
    "m = fixture_model('FIX-HEX'); window_field(m, 12); u = ChainUltrafilter((5, 5, 5));"
    "t = time.perf_counter(); [shadow_report(m, u, 12) for _ in range(50)];"
    "print((time.perf_counter() - t) / 50)"
)
# (label, ROADMAP value in seconds, how to measure: python source or CLI argv)
ITEMS = [
    ("oracle per tuple, FIX-HEX", 0.32e-3, ("py", ORACLE)),
    ("window_field FIX-HEX W=12", 5.6, ("py", FIELD.format(w=12))),
    ("window_field FIX-HEX W=15", 11.8, ("py", FIELD.format(w=15))),
    ("shadow_report (5,5,5) warm", 7.6e-3, ("py", WARM_REPORT)),
    ("pocsets shadows FIX-HEX --cuts 5,5,5 --window 12", 5.2,
     ("cli", ["shadows", "FIX-HEX", "--cuts", "5,5,5", "--window", "12"])),
    ("pocsets report FIX-HEX --window 10", 4.4, ("cli", ["report", "FIX-HEX", "--window", "10"])),
    ("pocsets escape FIX-HEX --target (+,+,+) --length 20 --window 13", 6.2,
     ("cli", ["escape", "FIX-HEX", "--target=(+,+,+)", "--length", "20", "--window", "13"])),
]


def measure(kind: str, what) -> float:
    if kind == "py":
        out = subprocess.run([sys.executable, "-c", what], env=ENV, capture_output=True,
                             text=True, check=True)
        return float(out.stdout.split()[-1])
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "pocsets", *what], env=ENV, capture_output=True,
                   check=True)
    return time.perf_counter() - start


def show(label: str, before: float, now: float) -> None:
    print(f"{label:64s} roadmap {before:9.4g} s  now {now:9.4g} s  {100 * (now / before - 1):+6.1f} %")


def main() -> int:
    for label, before, (kind, what) in ITEMS:
        show(label, before, statistics.median(measure(kind, what) for _ in range(REPEATS)))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                   cwd=ROOT, env=ENV, capture_output=True, check=True)
    show("tier-1 test suite", 56.0, time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
