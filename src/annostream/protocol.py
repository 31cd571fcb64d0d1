"""Scheme harness: runners, space accounting, adversarial trials.

A scheme couples a prover (produces a ProofTranscript from the input
stream) with a verifier (single forward pass over the stream, then a
single forward pass over the transcript, small mutable state). The
runner charges the verifier for every registered mutable cell via the
SpaceMeter; immutable precomputed tables (impulse tables at the random
point, power-sum constants) are derived from the coin flips alone and
are not charged. Help cost is the transcript element count.

A verifier runs in two sides. The stream side (`Scheme.stream_side`)
draws every coin, builds its sketches and feeds them the stream's
columns and query lines; it reads no help. The help side, the rest of
`run_verifier`, reads the transcript against that state, copying any
sketch it still fills, and draws no coin. In the annotated-stream model
the stream side's state is a function of the stream and the coins
alone, so `stream_pass` runs it once per instance and coin draw: the
read-only state and the meter as the side left it are kept on the
instance, under the scheme's name and shape, the modulus, the coins'
seed and label and any help read before it (`acyclicity`'s verdict).
The coins are seeded at their first draw, so a kept pass draws none.

Adversarial trials rerun the verifier against mutated transcripts, trial
i with the coins of seed `(seed << 16) ^ (i + 1)` under every policy, so
the trials of one instance share their stream passes. A trial counts
against soundness only when the verifier accepts AND the reported output
is wrong for the instance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .extension import ShapeConfig, check_vectorized_modulus, resolve_shape
from .field import FieldConfig, make_rng
from .oracle import oracle_acyclic
from .stream import GraphInstance, ProofTranscript, RejectError


class SpaceMeter:
    """Peak count of live registered verifier cells; `current` is the
    running total of the live groups."""

    def __init__(self):
        self._cells: dict = {}
        self.current = 0
        self.peak = 0

    def _set(self, name: str, cells: int):
        self.current += cells - self._cells.get(name, 0)
        self._cells[name] = cells
        if self.current > self.peak:
            self.peak = self.current

    def alloc(self, name: str, cells: int):
        if name in self._cells:
            raise ValueError(f"meter group {name!r} already live")
        self._set(name, int(cells))

    def grow(self, name: str, delta: int = 1):
        self._set(name, self._cells.get(name, 0) + int(delta))

    def free(self, name: str):
        self.current -= self._cells.pop(name, 0)

    def snapshot(self) -> tuple:
        """The live groups, total and peak, for `restore`."""
        return tuple(self._cells.items()), self.current, self.peak

    def restore(self, snap: tuple):
        cells, self.current, self.peak = snap
        self._cells = dict(cells)


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

    def stream_side(self, inst: GraphInstance, p: int, rng,
                    meter: SpaceMeter):
        """The verifier's state after its stream pass: every coin drawn
        from rng, every sketch fed from the stream, the meter groups they
        take. It reads no help; `stream_pass` keeps it read-only."""
        raise NotImplementedError

    def run_verifier(self, inst: GraphInstance, reader, p: int, rng,
                     meter: SpaceMeter):
        """Returns the output value; raises RejectError to reject. The
        input is inside the scheme's domain (`check_domain`). It takes its
        stream side from `stream_pass` and draws no coin itself."""
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


# Elements that `cached_build` and `stream_pass` keep on one instance,
# assembled transcripts and stream-side states together: 4 MiB of int64,
# the size of extension._GATHER_BYTES. Past it, a build or a state is
# handed out without being kept.
_KEPT_ELEMS = 1 << 19


def _keep(inst: GraphInstance, key, value, elems: int) -> bool:
    """Keeps value on `inst.prover_cache` under key if its elements fit in
    what is left of the instance's budget."""
    cache = inst.prover_cache
    held = cache.get("kept_elems", 0) + elems
    if held > _KEPT_ELEMS:
        return False
    cache[key], cache["kept_elems"] = value, held
    return True


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
        key = ("build", scheme.name, getattr(scheme, "t", None),
               getattr(scheme, "s", None), _frozen(args), _frozen(kw))
        kept = inst.prover_cache.get(key)
        if kept is None:
            kept = assemble(scheme, inst, *args, **kw)
            if not _keep(inst, key, kept, kept.element_count()):
                return kept
        return kept.copy()
    return build


class StreamState(SimpleNamespace):
    """What a verifier's stream side hands its help side, by name: coins,
    sketches, sums. Every array in it is read-only once `stream_pass`
    hands it out; a help side that fills a sketch further fills a copy."""


def _read_only(x) -> int:
    """Marks every array that x holds (in its tuples, lists and object
    attributes) read-only; returns the elements it holds, each scalar
    counting one."""
    if isinstance(x, np.ndarray):
        x.setflags(write=False)
        return x.size
    if isinstance(x, (list, tuple)):
        items = x
    elif hasattr(x, "__dict__"):
        items = vars(x).values()
    else:
        return 1
    return sum(1 if type(y) is int else _read_only(y) for y in items)


class Coins:
    """The verifier's coins, `make_rng(seed, label)` seeded at the first
    draw, so a stream pass that `stream_pass` finds kept pays no seeding.
    Draws go to that `random.Random`; after `close` a draw raises."""

    def __init__(self, seed: int, label: str):
        self.seed, self.label = seed, label
        self._rng = None
        self._closed = False

    def close(self):
        self._closed = True

    def __getattr__(self, name):
        # reached only for names Coins lacks: the draws of random.Random
        if name.startswith("_"):
            raise AttributeError(name)
        if self._closed:
            raise RuntimeError(f"{self.label}: a coin drawn after the "
                               "stream side")
        if self._rng is None:
            self._rng = make_rng(self.seed, self.label)
        return getattr(self._rng, name)


def stream_pass(scheme, inst: GraphInstance, p: int, rng: Coins,
                meter: SpaceMeter, side=None, branch=None) -> StreamState:
    """`scheme.stream_side` (or `side`, with the same arguments) once per
    instance and coin draw.

    The state is a function of the stream and the coins, so it is kept on
    `inst.prover_cache` with the meter's snapshot under the scheme's name
    and shape, p, the coins' seed and label, and `branch`, the help a
    verifier read before its stream side. A repeat hands out the kept state
    and restores the meter, and the coins stay unseeded. Either way the
    coins are then closed: the help side draws none.
    """
    key = ("stream", scheme.name, getattr(scheme, "t", None),
           getattr(scheme, "s", None), p, rng.seed, rng.label, branch)
    kept = inst.prover_cache.get(key)
    if kept is None:
        state = (side or scheme.stream_side)(inst, p, rng, meter)
        kept = state, meter.snapshot()
        _keep(inst, key, kept, _read_only(state))
    else:
        meter.restore(kept[1])
    rng.close()
    return kept[0]


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
        from .setops import stream_keys  # setops imports this module
        keys = np.sort(stream_keys(inst, "undirected")[0])
        twice = keys[1:][keys[1:] == keys[:-1]]
        if twice.size:
            lo, hi = divmod(int(twice[0]) - 1, inst.n)
            u, v = lo + 1, hi + 1
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
    rng = Coins(seed, f"verifier/{scheme.name}")
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
