"""Scheme harness: runners, space accounting, adversarial trials.

A scheme couples a prover (produces a ProofTranscript from the input
stream) with a verifier (single forward pass over the stream, then a
single forward pass over the transcript, small mutable state). The
runner charges the verifier for every registered mutable cell via the
SpaceMeter; immutable precomputed tables (impulse tables at the random
point, power-sum constants) are derived from the coin flips alone and
are not charged. Help cost is the transcript element count.

Adversarial trials rerun the verifier with fresh coins against mutated
transcripts. A trial counts against soundness only when the verifier
accepts AND the reported output is wrong for the instance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .extension import ShapeConfig, check_vectorized_modulus, resolve_shape
from .field import FieldConfig, make_rng
from .oracle import oracle_acyclic
from .stream import GraphInstance, ProofTranscript, RejectError


class SpaceMeter:
    """Peak count of live registered verifier cells."""

    def __init__(self):
        self._cells: dict = {}
        self.peak = 0

    @property
    def current(self) -> int:
        return sum(self._cells.values())

    def _bump(self):
        if self.current > self.peak:
            self.peak = self.current

    def alloc(self, name: str, cells: int):
        if name in self._cells:
            raise ValueError(f"meter group {name!r} already live")
        self._cells[name] = int(cells)
        self._bump()

    def grow(self, name: str, delta: int = 1):
        self._cells[name] = self._cells.get(name, 0) + int(delta)
        self._bump()

    def free(self, name: str):
        self._cells.pop(name, None)


@dataclass
class RunResult:
    scheme: str
    status: str            # "output" or "reject"
    value: object = None
    reason: str = ""
    hcost: int = 0
    vcost: int = 0
    p: int = 0

    @property
    def accepted(self) -> bool:
        return self.status == "output"


@dataclass
class TrialStats:
    scheme: str
    policy: str
    trials: int = 0
    accepted: int = 0
    accepted_wrong: int = 0
    rejected: int = 0

    @property
    def wrong_rate(self) -> float:
        return self.accepted_wrong / self.trials if self.trials else 0.0

    def wilson_upper(self, z: float = 2.576) -> float:
        """Upper 99% Wilson bound on the accept-wrong probability."""
        n, k = self.trials, self.accepted_wrong
        if n == 0:
            return 1.0
        phat = k / n
        denom = 1 + z * z / n
        center = phat + z * z / (2 * n)
        half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
        return (center + half) / denom


class Scheme:
    """Base interface; concrete schemes subclass and register.

    By default a scheme lays the vertices out on the grid [t] x [s].
    """

    name = ""
    # scalars blocks with these labels may be hit by qd_scalar_flip
    scalar_flip_labels: tuple = ()
    # "labels" marks per-vertex distance outputs; the CLI prints those as
    # one `v dist prev` line per vertex instead of a single value
    output_kind = "value"

    # The input domain, read only by `check_domain`, which every runner
    # calls before proving:
    # - `models`: the stream models the scheme takes;
    # - `query_arity`: 0 refuses query-set lines; 1 needs at least one and
    #   takes `U:` lines only; 2 needs at least one and takes `U+W:` too;
    #   no vertex may be listed twice among all the lines' members;
    # - `header_fields`: the header fields the scheme reads;
    # - `acyclic`: the scheme orders the vertices, so the edge tokens, read
    #   as arcs u -> v, must form no cycle;
    # - every scheme needs final edge multiplicities >= 0; one that
    #   certifies a predicate of a simple graph (`simple_graph`) needs them
    #   in {0, 1}, and one that reads them as edge weights
    #   (`weight_bounded`) needs them at most the header's W;
    # - a weighted stream lists each edge once, as the parser requires.
    models: tuple = ("turnstile", "vanilla")
    query_arity = 0
    header_fields: tuple = ()
    acyclic = False
    simple_graph = False
    weight_bounded = False

    def __init__(self, n: int, t: int, s: int):
        self.n = n
        self.t = t
        self.s = s
        self.sc = ShapeConfig(n, t, s)

    @classmethod
    def configure(cls, inst: GraphInstance,
                  t: Optional[int] = None,
                  s: Optional[int] = None) -> "Scheme":
        t, s = resolve_shape(inst.n, t, s)
        return cls(inst.n, t, s)

    def auto_field(self, inst: GraphInstance) -> FieldConfig:
        """The automatic modulus: the smallest prime above n^3 and 2^20."""
        return FieldConfig.auto_from_n(inst.n)

    def field_config(self, inst: GraphInstance,
                     p: Optional[int] = None) -> FieldConfig:
        """p or the automatic modulus, if the vectorised kernels take it."""
        cfg = FieldConfig(p) if p is not None else self.auto_field(inst)
        check_vectorized_modulus(cfg.p)
        return cfg

    def count_ceiling(self, inst: GraphInstance) -> tuple:
        """(bound, formula) on the integer that a grid total of the help
        lifts to; the modulus must exceed it or the count wraps."""
        return 0, ""

    def prove(self, inst: GraphInstance, p: int) -> ProofTranscript:
        raise NotImplementedError

    def run_verifier(self, inst: GraphInstance, reader, p: int, rng,
                     meter: SpaceMeter):
        """Returns the output value; raises RejectError to reject. The
        input is inside the scheme's domain (`check_domain`)."""
        raise NotImplementedError

    def oracle_value(self, inst: GraphInstance):
        raise NotImplementedError

    def output_correct(self, inst: GraphInstance, value) -> bool:
        return value == self.oracle_value(inst)

    def hcost_bound(self, inst: GraphInstance) -> int:
        raise NotImplementedError

    def vcost_bound(self, inst: GraphInstance) -> int:
        raise NotImplementedError

    # scheme-specific lies; `register` lists the policy of each one a scheme
    # defines; return None when not applicable -----------------------------

    def mutate_output(self, inst, transcript, p, rng):
        return None

    def mutate_vertices(self, inst, transcript, p, rng):
        return None


SCHEMES: dict = {}


def register(cls):
    """Adds a scheme and works out `mutations`, the policies that apply to
    it in MUTATIONS order: the two generic ones, its own output and vertex
    lies if it defines them, and the scalar flip if it names labels."""
    if cls.name in SCHEMES:
        raise ValueError(f"duplicate scheme name {cls.name}")
    applies = {
        "output_value_lie": cls.mutate_output is not Scheme.mutate_output,
        "vertex_list_permutation_lie":
            cls.mutate_vertices is not Scheme.mutate_vertices,
        "qd_scalar_flip": bool(cls.scalar_flip_labels),
    }
    cls.mutations = tuple(m for m in MUTATIONS if applies.get(m, True))
    SCHEMES[cls.name] = cls
    return cls


def get_scheme(name: str):
    try:
        return SCHEMES[name]
    except KeyError:
        raise KeyError(f"unknown scheme {name!r}; known: "
                       + ", ".join(sorted(SCHEMES))) from None


# Help elements of assembled transcripts that `cached_build` keeps on one
# instance: 4 MiB of int64, the size of extension._GATHER_BYTES. Past it, a
# build is handed out without being kept.
_BUILD_ELEMS = 1 << 19


def _frozen(x):
    """x with its lists, tuples and dicts (items in key order) turned into
    tuples, so that it hashes; a list whose first entry is not one of those
    holds none."""
    if isinstance(x, dict):
        return tuple((k, _frozen(v)) for k, v in sorted(x.items()))
    if not isinstance(x, (list, tuple)):
        return x
    if x and isinstance(x[0], (list, tuple, dict)):
        return tuple(map(_frozen, x))
    return tuple(x)


def cached_build(assemble):
    """Decorates a prover's `assemble(scheme, inst, *args, **kw)`, whose
    arguments are the modulus and a certificate, so that each transcript is
    built once per instance.

    The build is kept on `inst.prover_cache` under the scheme's name and
    shape and the arguments as a hashable tuple, and every call hands out a
    `copy()` of it, so a lie or a verifier that edits its copy never edits
    the one kept. Lies that draw a certificate an earlier trial drew, the
    honest prove and the prove at the start of `run_adversarial` then all
    reuse one build.
    """
    @functools.wraps(assemble)
    def build(scheme, inst, *args, **kw):
        cache = inst.prover_cache
        key = ("build", scheme.name, getattr(scheme, "t", None),
               getattr(scheme, "s", None), _frozen(args), _frozen(kw))
        kept = cache.get(key)
        if kept is None:
            kept = assemble(scheme, inst, *args, **kw)
            held = cache.get("build_elems", 0) + kept.element_count()
            if held > _BUILD_ELEMS:
                return kept
            cache[key], cache["build_elems"] = kept, held
        return kept.copy()
    return build


# --- mutation policies ------------------------------------------------------


def _flip_entry(transcript, picked, p, rng):
    """Add a random nonzero residue to one entry of one nonempty block
    that `picked` accepts; None when there is no such block."""
    out = transcript.copy()
    idxs = [i for i, b in enumerate(out.blocks) if picked(b) and b.values.size]
    if not idxs:
        return None
    b = out.blocks[rng.choice(idxs)]
    pos = rng.randrange(b.values.size)
    b.values[pos] = (int(b.values[pos]) + rng.randrange(1, p)) % p
    return out


def _flip_coefficient(scheme, inst, transcript, p, rng):
    return _flip_entry(transcript, lambda b: b.kind == "coeffs", p, rng)


def _truncate_block(scheme, inst, transcript, p, rng):
    out = transcript.copy()
    if not out.blocks:
        return None
    if rng.random() < 0.5:
        cut = rng.randrange(len(out.blocks))
        out.blocks = out.blocks[:cut]
    else:
        sized = [i for i, b in enumerate(out.blocks) if b.values.size > 1]
        if sized:
            b = out.blocks[rng.choice(sized)]
            keep = rng.randrange(1, b.values.size)
            b.values = b.values[:keep]
        else:
            out.blocks = out.blocks[:-1]
    return out


def _lie_output(scheme, inst, transcript, p, rng):
    return scheme.mutate_output(inst, transcript, p, rng)


def _lie_vertices(scheme, inst, transcript, p, rng):
    return scheme.mutate_vertices(inst, transcript, p, rng)


def _flip_round_scalar(scheme, inst, transcript, p, rng):
    return _flip_entry(transcript, lambda b: b.kind == "scalars" and
                       b.label in scheme.scalar_flip_labels, p, rng)


MUTATIONS = {
    "coefficient_flip": _flip_coefficient,
    "block_truncation": _truncate_block,
    "output_value_lie": _lie_output,
    "vertex_list_permutation_lie": _lie_vertices,
    "qd_scalar_flip": _flip_round_scalar,
}


# --- runners ----------------------------------------------------------------


def check_domain(scheme, inst: GraphInstance):
    """Refuses, with ValueError naming the scheme and the model, query set,
    header field, cycle or edge at fault, an input outside the scheme's
    domain (see the domain attributes of `Scheme`)."""
    name = scheme.name
    if inst.model not in scheme.models:
        raise ValueError(f"{name} takes {' or '.join(scheme.models)} "
                         f"streams, not {inst.model}")
    if inst.queries and not scheme.query_arity:
        raise ValueError(f"{name} takes no query-set lines")
    if scheme.query_arity and not inst.queries:
        raise ValueError(f"{name} needs at least one query-set line")
    if scheme.query_arity == 1 and any(w.size for _, w in inst.queries):
        raise ValueError(f"{name} takes single-set U: lines, not U+W:")
    if inst.queries:
        listed = np.sort(np.concatenate(sum(inst.queries, ())))
        twice = listed[1:][listed[1:] == listed[:-1]]
        if twice.size:
            raise ValueError(f"{name} takes query sets: vertex {twice[0]} "
                             "is listed twice among their members")
    for key in scheme.header_fields:
        if getattr(inst, key) is None:
            raise ValueError(f"{name} needs {key}= in the header")
    if scheme.acyclic and not oracle_acyclic(inst):
        raise ValueError(f"{name} needs an acyclic stream; this one has "
                         "a cycle")
    if scheme.simple_graph:
        top, need = 1, "0 or 1"
    elif scheme.weight_bounded:
        top, need = inst.W, f"0 to W={inst.W}"
    else:
        top, need = None, "at least 0"
    if inst.model == "weighted":
        u, v = inst.edges[:2]
        keys = np.sort(np.minimum(u, v) * (inst.n + 1) + np.maximum(u, v))
        twice = keys[1:][keys[1:] == keys[:-1]]
        if twice.size:
            u, v = divmod(int(twice[0]), inst.n + 1)
            raise ValueError(f"edge {u} {v} is listed twice; {name} takes "
                             "each weighted edge once")
    edges = inst.final_edges()
    bad = [e for e, c in edges.items()
           if c < 0 or (top is not None and c > top)]
    if bad:
        u, v = min(bad)
        raise ValueError(f"edge {u} {v} has final multiplicity "
                         f"{edges[u, v]}; {name} needs {need}")


def checked_field(scheme, inst: GraphInstance,
                  p: Optional[int] = None) -> FieldConfig:
    """The scheme's field; ValueError for an input outside its domain or
    a modulus that its true count could reach."""
    check_domain(scheme, inst)
    cfg = scheme.field_config(inst, p)
    top, bound = scheme.count_ceiling(inst)
    if top >= cfg.p:
        raise ValueError(f"{scheme.name} counts up to {bound} = {top} on "
                         f"these multiplicities, not below p={cfg.p}; the "
                         "count would wrap mod p")
    return cfg


def _verify(scheme, inst, transcript, p, seed) -> RunResult:
    meter = SpaceMeter()
    rng = make_rng(seed, f"verifier/{scheme.name}")
    reader = transcript.reader(p)
    try:
        value = scheme.run_verifier(inst, reader, p, rng, meter)
        if not reader.at_end():
            raise RejectError("unexpected trailing help")
        status, reason = "output", ""
    except RejectError as exc:
        value, status, reason = None, "reject", exc.reason
    return RunResult(scheme=scheme.name, status=status, value=value,
                     reason=reason, hcost=transcript.element_count(),
                     vcost=meter.peak, p=p)


def run_honest(scheme, inst: GraphInstance, seed: int = 0,
               p: Optional[int] = None) -> RunResult:
    """Prove and verify; ValueError for an input outside the scheme's
    domain or a modulus its count could reach, as for every runner."""
    cfg = checked_field(scheme, inst, p)
    transcript = scheme.prove(inst, cfg.p)
    return _verify(scheme, inst, transcript, cfg.p, seed)


def run_with_transcript(scheme, inst: GraphInstance,
                        transcript: ProofTranscript, seed: int = 0,
                        p: Optional[int] = None) -> RunResult:
    cfg = checked_field(scheme, inst, p)
    return _verify(scheme, inst, transcript, cfg.p, seed)


class NoMutation(ValueError):
    """A policy that applies to the scheme found nothing to mutate in the
    honest transcript of this instance."""


def run_adversarial(scheme, inst: GraphInstance, policy: str,
                    trials: int, seed: int = 0,
                    p: Optional[int] = None,
                    honest: Optional[ProofTranscript] = None) -> TrialStats:
    """Mutate the honest transcript once per trial and verify each copy.

    `honest` is a transcript `scheme.prove` already gave for this instance
    and modulus; without it the scheme proves here.
    """
    if policy not in MUTATIONS:
        raise KeyError(f"unknown mutation policy {policy!r}")
    if policy not in scheme.mutations:
        raise ValueError(f"policy {policy} not applicable to {scheme.name}")
    cfg = checked_field(scheme, inst, p)
    if honest is None:
        honest = scheme.prove(inst, cfg.p)
    mutate = MUTATIONS[policy]
    stats = TrialStats(scheme=scheme.name, policy=policy)
    for i in range(trials):
        arng = make_rng(seed, f"adversary/{scheme.name}/{policy}/{i}")
        mutated = mutate(scheme, inst, honest, cfg.p, arng)
        if mutated is None:
            raise NoMutation(f"policy {policy} produced no mutation for "
                             f"{scheme.name} on this instance")
        res = _verify(scheme, inst, mutated, cfg.p,
                      seed=((seed << 16) ^ (i + 1)))
        stats.trials += 1
        if res.accepted:
            stats.accepted += 1
            if not scheme.output_correct(inst, res.value):
                stats.accepted_wrong += 1
        else:
            stats.rejected += 1
    return stats


def sweep_costs(name: str, inst: GraphInstance, shapes,
                seed: int = 0, p: Optional[int] = None) -> list:
    """Honest runs across (t, s) shapes; returns cost rows for the CSV."""
    rows = []
    for t, s in shapes:
        scheme = get_scheme(name).configure(inst, t=t, s=s)
        res = run_honest(scheme, inst, seed=seed, p=p)
        if not res.accepted:
            raise RuntimeError(f"honest run rejected during sweep: "
                               f"{name} t={t} s={s}: {res.reason}")
        bits = FieldConfig(res.p).bits_per_element
        rows.append({
            "scheme": name, "n": inst.n, "t": t, "s": s,
            "hcost_elems": res.hcost, "vcost_elems": res.vcost,
            "hbits": res.hcost * bits, "vbits": res.vcost * bits,
            "product_bits": res.hcost * bits * res.vcost * bits,
        })
    return rows
