"""Benchmark of annostream: time to verdict and the paper's two costs.

Run from the repository root:

    python3 benchmarks/run.py --workload longstream --seed 1 --seconds 30 --trace 0

A round sets up, which builds the workload's stream texts and reference
answers from the seed and warms up, then makes one pass over the
workload. Rounds repeat until --seconds have gone by, and at least three
run, so that set-up and passes are both sampled across the whole run.
Both timings are scaled to a reference host speed, read from ticks timed
next to them (see hostspeed.py); the record keeps the measured times.

The last line of standard output is one JSON object: with --trace 0 it
holds the end-to-end metrics of untraced passes; with --trace 1 every
round adds a traced pass and the object holds the per-layer metrics. A
fuller record goes to benchmarks/results/. The exit code is 0 when the
run completed, even if a check failed (then "correct" is false), and 2
when it could not run.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, so the load is one process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
MIN_ROUNDS = 3
SETUP_TICKS = 3  # host-speed ticks before and after each set-up


def _die(msg: str):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Put the checkout's own sources first; refuse any other copy."""
    if not (SRC / "annostream" / "__init__.py").is_file():
        _die(f"no annostream sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import annostream
    if Path(annostream.__file__).resolve().parent != SRC / "annostream":
        _die(f"imported annostream from {annostream.__file__}, not {SRC}")


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _setup(wl, workload: str, seed: int):
    """Stream texts and references from the seed, then a warm-up.

    The warm-up runs one honest verdict of every scheme the workload uses,
    on the small forgery instances, so lazy imports and first-call costs
    land in set-up rather than in the first timed pass.
    """
    cases = wl.BUILDERS[workload](seed)
    schemes = {c.scheme for c in cases}
    warm = [c for c in wl.forgery_cases(seed) if c.scheme in schemes]
    ps = wl.run_pass("warmup", warm, seed)
    if ps.wrong:
        raise RuntimeError("warm-up verdict wrong: " + "; ".join(ps.wrong))
    return cases


def _call_site_metrics(passes, schemes) -> dict:
    """Per-layer figures timed at the benchmark's own call sites."""
    def med(f):
        return _median([f(ps) for ps in passes])

    def rate(num, den):
        return med(lambda ps: num(ps) / den(ps) if den(ps) else 0.0)

    out = {
        "stream.parse_s": (med(lambda ps: ps.parse_s), "s/pass"),
        "stream.parse_tok_per_s": (rate(lambda ps: ps.parse_tokens,
                                        lambda ps: ps.parse_s), "tok/s"),
        "stream.transcript_io_s": (med(lambda ps: ps.io_s), "s/pass"),
        "stream.transcript_elems_per_s": (rate(lambda ps: ps.io_elems,
                                               lambda ps: ps.io_s),
                                          "elems/s"),
        "protocol.prove_s": (med(lambda ps: ps.prove_s), "s/pass"),
        "protocol.verify_s": (med(lambda ps: ps.verify_s), "s/pass"),
        "protocol.verify_tok_per_s": (rate(lambda ps: ps.verify_tokens,
                                           lambda ps: ps.verify_s), "tok/s"),
        "protocol.attack_trials_per_s": (rate(lambda ps: ps.attack_trials,
                                              lambda ps: ps.attack_s),
                                         "trials/s"),
        "field.bits_per_element": (rate(lambda ps: ps.bit_elems,
                                        lambda ps: ps.help_elems), "bits"),
    }
    for name in schemes:
        out[f"prove_s.{name}"] = (
            med(lambda ps: ps.prove_by_scheme.get(name, 0.0)), "s/pass")
        out[f"verify_s.{name}"] = (
            med(lambda ps: ps.verify_by_scheme.get(name, 0.0)), "s/pass")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_program()
    import hostspeed
    import tracing
    import workloads as wl
    from annostream import SCHEMES

    if args.workload not in wl.WORKLOADS:
        _die(f"unknown workload {args.workload!r}; "
             f"known: {', '.join(wl.WORKLOADS)}")

    tracer = tracing.Tracer() if args.trace else None
    setup_raw, setup_times, plain, traced, layer_runs = [], [], [], [], []
    start = time.perf_counter()
    while True:
        ticks = [hostspeed.tick() for _ in range(SETUP_TICKS)]
        t0 = time.perf_counter()
        cases = _setup(wl, args.workload, args.seed)
        setup_raw.append(time.perf_counter() - t0)
        ticks += [hostspeed.tick() for _ in range(SETUP_TICKS)]
        setup_times.append(hostspeed.scaled(setup_raw[-1], ticks))
        plain.append(wl.run_pass(args.workload, cases, args.seed,
                                 hostspeed.tick))
        if tracer is not None:
            with tracer.installed():
                traced.append(wl.run_pass(args.workload, cases, args.seed))
            layer_runs.append(tracer.take(traced[-1].wall_s))
        if (time.perf_counter() - start >= args.seconds
                and len(plain) >= MIN_ROUNDS):
            break

    everything = plain + traced
    wrong = sorted({w for ps in everything for w in ps.wrong})
    costs = {(ps.help_elems, ps.verifier_cells, ps.failed, ps.attempted)
             for ps in everything}
    if len(costs) != 1:
        wrong.append(f"passes disagree on costs or counts: {sorted(costs)}")
    first = plain[0]

    if tracer is None:
        metrics = {
            "setup_s": (_median(setup_times), "s"),
            "verdict_s": (_median([hostspeed.scaled(ps.wall_s, ps.tick_s)
                                   for ps in plain]), "s/pass"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MiB"),
            "help_elems": (float(first.help_elems), "elements/pass"),
            "verifier_cells": (float(first.verifier_cells), "cells/pass"),
        }
    else:
        metrics = _call_site_metrics(plain, sorted(SCHEMES))
        metrics.update(tracing.layer_metrics(layer_runs))
        metrics["trace.overhead_s"] = (
            _median([ps.wall_s for ps in traced])
            - _median([ps.wall_s for ps in plain]), "s/pass")

    attempted = sum(ps.attempted for ps in plain)
    failed = sum(ps.failed for ps in plain)
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, wrong=wrong,
                  setup_s=setup_times,
                  setup_measured_s=setup_raw,
                  pass_s=[hostspeed.scaled(ps.wall_s, ps.tick_s)
                          for ps in plain],
                  pass_measured_s=[ps.wall_s for ps in plain],
                  tick_s=[ps.tick_s for ps in plain],
                  case_s=[ps.case_s for ps in plain],
                  traced_pass_s=[ps.wall_s for ps in traced],
                  functions=tracer.table() if tracer else None)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for w in wrong:
        print(f"wrong: {w}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
