"""Per-layer spans from wrappers put around the program's public functions.

While installed, a Tracer replaces each traced function in the module
that defines it, in every `annostream` module and benchmark module that
imported it by name, and, for networkx, on the `networkx` package. A
timed wrapper records calls, total time and the module's self time: the
span's duration minus the part its traced children cover. A counting
wrapper, used on the per-token sketch updates, records calls only; its
cost lands in the caller's self time, so those counts are exact while
the callers' times are inflated. Spans are aggregated per pass in
memory; nothing is written until the run ends.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time

import networkx as nx

from annostream import SCHEMES, edgecount, extension, field, oracle, setops
from annostream import stream as stream_mod
from annostream.protocol import MUTATIONS

MODULES = ("stream", "protocol", "field", "extension", "setops", "edgecount",
           "triangles", "graphapps", "sssp", "oracle", "networkx")


def _mat_mults(a, b, *_):
    return a.size * (b.shape[-1] if b.ndim > 1 else 1)


def _targets():
    """(owner, attribute, key, module, mode, extra) for every traced call.

    key names the figure; several attributes may share one key.
    """
    out = [
        (stream_mod, "parse_stream", "stream.parse_stream", "stream", "timed"),
        (stream_mod.ProofTranscript, "dump", "stream.dump", "stream", "timed"),
        (stream_mod.ProofTranscript, "load", "stream.load", "stream", "timed"),
        (stream_mod.TranscriptReader, "coeffs", "stream.coeffs", "stream",
         "timed"),
        (extension, "mat_mulmod", "extension.mat_mulmod", "extension",
         "timed", _mat_mults),
        (extension, "impulse_block", "extension.impulse_block", "extension",
         "timed"),
        (extension, "impulse_table", "extension.impulse_table", "extension",
         "timed"),
        (extension, "coeffs_from_values_1d", "extension.coeffs_from_values",
         "extension", "timed"),
        (extension, "coeffs_from_values_nd", "extension.coeffs_from_values",
         "extension", "timed"),
        (extension, "coeffs_from_serial", "extension.coeffs_from_serial",
         "extension", "timed"),
        (extension, "nd_eval", "extension.nd_eval", "extension", "timed"),
        (extension, "nd_grid_sum", "extension.nd_grid_sum", "extension",
         "timed"),
        (setops, "line_check_help", "setops.line_check_help", "setops",
         "timed"),
        (setops.LineCheck, "finish", "setops.LineCheck.finish", "setops",
         "timed"),
        (setops.Fingerprint, "add", "setops.Fingerprint.add", "setops",
         "counted"),
        (setops.LineCheck, "add_left", "setops.LineCheck.add", "setops",
         "counted"),
        (setops.LineCheck, "add_right", "setops.LineCheck.add", "setops",
         "counted"),
        (edgecount, "pair_charge", "edgecount.pair_charge", "edgecount",
         "timed"),
        (edgecount.PairSketch, "add", "edgecount.PairSketch.add",
         "edgecount", "counted"),
        (edgecount.LineArray, "add", "edgecount.LineArray.add", "edgecount",
         "counted"),
        (field, "make_rng", "field.make_rng", "field", "timed"),
        (field, "next_prime", "field.next_prime", "field", "timed"),
        (nx, "max_weight_matching", "networkx.max_weight_matching",
         "networkx", "timed"),
    ]
    for name in ("bfs_tree", "connected_components",
                 "single_source_dijkstra_path_length",
                 "dijkstra_predecessor_and_distance"):
        out.append((nx, name, f"networkx.{name}", "networkx", "timed"))
    for name in dir(oracle):
        if name.startswith("oracle_"):
            out.append((oracle, name, f"oracle.{name}", "oracle", "timed"))
    protocol = sys.modules["annostream.protocol"]
    for name in ("run_with_transcript", "run_adversarial"):
        out.append((protocol, name, f"protocol.{name}", "protocol", "timed"))
    for policy in MUTATIONS:
        out.append((MUTATIONS, policy, "protocol.mutate", "protocol",
                    "timed"))
    for cls in SCHEMES.values():
        for klass in cls.__mro__:
            mod = klass.__module__.rsplit(".", 1)[-1]
            if not klass.__module__.startswith("annostream."):
                continue
            for meth in ("prove", "run_verifier"):
                if meth in vars(klass):
                    out.append((klass, meth, f"{mod}.{klass.__name__}.{meth}",
                                mod, "timed"))
    seen, unique = set(), []
    for t in out:
        if (id(t[0]), t[1]) not in seen:
            seen.add((id(t[0]), t[1]))
            unique.append(t if len(t) == 6 else t + (None,))
    return unique


class Tracer:
    def __init__(self):
        self._stack: list = []
        self._stats: dict = {}
        self._self: dict = {}
        self._totals: dict = {}
        self._saved: list = []

    # wrappers ------------------------------------------------------------------

    def _timed(self, fn, key, module, extra):
        stack, stats, selfs = self._stack, self._stats, self._self

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                rec = stats.setdefault(key, [0, 0.0, 0])
                rec[0] += 1
                rec[1] += dt
                if extra is not None:
                    rec[2] += extra(*args, **kwargs)
                selfs[module] = selfs.get(module, 0.0) + dt - child
                if stack:
                    stack[-1] += dt
        return wrapper

    def _counted(self, fn, key):
        stats = self._stats

        def wrapper(*args, **kwargs):
            stats.setdefault(key, [0, 0.0, 0])[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    # install / remove ----------------------------------------------------------

    def _set(self, owner, name, value):
        if isinstance(owner, dict):
            self._saved.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._saved.append((owner, name, vars(owner)[name]))
            setattr(owner, name, value)

    def _install(self):
        importers = [m for n, m in list(sys.modules.items())
                     if m is not None and (n.startswith("annostream")
                                           or n in ("workloads",))]
        for owner, name, key, module, mode, extra in _targets():
            raw = owner[name] if isinstance(owner, dict) else vars(owner)[name]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if mode == "timed":
                wrapped = self._timed(fn, key, module, extra)
            else:
                wrapped = self._counted(fn, key)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            self._set(owner, name, wrapped)
            if isinstance(owner, dict) or isinstance(owner, type):
                continue
            for mod in importers:
                if mod is not owner and vars(mod).get(name) is raw:
                    self._set(mod, name, wrapped)

    def _remove(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)

    @contextlib.contextmanager
    def installed(self):
        self._install()
        try:
            yield self
        finally:
            self._remove()

    # results -------------------------------------------------------------------

    def take(self, wall_s: float) -> dict:
        """The figures of the pass just traced; resets for the next one."""
        out = {"wall_s": wall_s, "functions": self._stats,
               "self_s": self._self}
        for key, (calls, total, extra) in self._stats.items():
            t = self._totals.setdefault(key, [0, 0.0, 0, 0])
            t[0] += calls
            t[1] += total
            t[2] += extra
            t[3] += 1
        self._stats, self._self = {}, {}
        return out

    def table(self) -> dict:
        """Calls, seconds and extra counts per traced key, over all passes."""
        return {k: {"calls": c, "s": s, "extra": e, "passes": p}
                for k, (c, s, e, p) in sorted(self._totals.items())}


# name in BENCHMARK.json -> (traced key, field, unit)
LAYER_FIGURES = {
    "extension.mat_mulmod.calls": ("extension.mat_mulmod", 0, "calls/pass"),
    "extension.mat_mulmod.s": ("extension.mat_mulmod", 1, "s/pass"),
    "extension.mat_mulmod.mults": ("extension.mat_mulmod", 2, "mults/pass"),
    "extension.impulse_block.s": ("extension.impulse_block", 1, "s/pass"),
    "extension.coeffs_from_values.s": ("extension.coeffs_from_values", 1,
                                       "s/pass"),
    "setops.line_check_help.s": ("setops.line_check_help", 1, "s/pass"),
    "edgecount.pair_charge.s": ("edgecount.pair_charge", 1, "s/pass"),
    "networkx.max_weight_matching.calls": ("networkx.max_weight_matching", 0,
                                           "calls/pass"),
    "networkx.max_weight_matching.s": ("networkx.max_weight_matching", 1,
                                       "s/pass"),
    "setops.Fingerprint.add.calls": ("setops.Fingerprint.add", 0,
                                     "calls/pass"),
    "setops.LineCheck.add.calls": ("setops.LineCheck.add", 0, "calls/pass"),
    "edgecount.PairSketch.add.calls": ("edgecount.PairSketch.add", 0,
                                       "calls/pass"),
    "edgecount.LineArray.add.calls": ("edgecount.LineArray.add", 0,
                                      "calls/pass"),
    "extension.nd_eval.calls": ("extension.nd_eval", 0, "calls/pass"),
    "extension.nd_eval.s": ("extension.nd_eval", 1, "s/pass"),
    "extension.nd_grid_sum.s": ("extension.nd_grid_sum", 1, "s/pass"),
    "extension.impulse_table.calls": ("extension.impulse_table", 0,
                                      "calls/pass"),
    "extension.impulse_table.s": ("extension.impulse_table", 1, "s/pass"),
    "extension.coeffs_from_serial.s": ("extension.coeffs_from_serial", 1,
                                       "s/pass"),
    "setops.LineCheck.finish.s": ("setops.LineCheck.finish", 1, "s/pass"),
    "protocol.mutate.s": ("protocol.mutate", 1, "s/pass"),
}


def layer_metrics(runs: list) -> dict:
    """Median over traced passes of every per-layer figure."""
    def med(xs):
        return statistics.median(xs) if xs else 0.0

    out = {}
    for name, (key, idx, unit) in LAYER_FIGURES.items():
        out[name] = (med([r["functions"].get(key, [0, 0.0, 0])[idx]
                          for r in runs]), unit)
    for mod in MODULES:
        out[f"{mod}.self_s"] = (med([r["self_s"].get(mod, 0.0)
                                     for r in runs]), "s/pass")
    return out
