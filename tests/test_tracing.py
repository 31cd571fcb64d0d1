"""The benchmark's tracer still finds every function it wraps.

`benchmarks/tracing.py` wraps program functions by name, so renaming one
breaks only a traced benchmark run. Installing the tracer here looks up
every name it wraps; removing it must put each original back.
"""

import sys
from pathlib import Path

from annostream import edgecount, extension

BENCH = str(Path(__file__).resolve().parents[1] / "benchmarks")


def test_tracer_installs_and_restores():
    sys.path.insert(0, BENCH)
    try:
        import tracing
    finally:
        sys.path.remove(BENCH)
    mat_mulmod = extension.mat_mulmod
    add = vars(edgecount.PairSketch)["add"]
    with tracing.Tracer().installed():
        assert extension.mat_mulmod is not mat_mulmod
        assert vars(edgecount.PairSketch)["add"] is not add
    assert extension.mat_mulmod is mat_mulmod
    assert vars(edgecount.PairSketch)["add"] is add
