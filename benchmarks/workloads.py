"""The three workloads: their inputs, one pass over them, and the checks.

A workload is a list of cases. A case is one stream text, the scheme
that runs on it, and a check built from the benchmark's own edge lists
(see reference.py). One pass runs every case once:

* an honest verdict parses the text anew, configures the scheme, proves,
  dumps the transcript to text, loads it back and verifies the loaded
  copy, which is what `annostream run --out` followed by
  `annostream run --replay` does;
* a forgery case also runs `run_adversarial` once per mutation policy of
  the scheme, on the instance its honest verdict parsed, as
  `annostream attack` does.

Texts are kept between passes and parsed again every time, so no prover
state cached on a parsed instance carries over from one verdict or pass
into the next.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import reference as ref
import streams as st
from annostream import (ProofTranscript, get_scheme, parse_stream,
                        run_adversarial, run_with_transcript)

WORKLOADS = ("longstream", "largegraph", "forgery")

# The one known fault kept in the benchmark: the automatic modulus of the
# weighted shortest-path schemes at W=4 and n=160 exceeds the 2^25 ceiling
# of the vectorised field path, so their provers refuse every time.
MODULUS_CEILING = "too large for vectorized path"

FORGERY_TRIALS = 48


@dataclass
class Case:
    scheme: str
    text: str
    check: Callable
    expect_failure: Optional[str] = None


@dataclass
class PassStats:
    """Counts and call-site timings of one pass."""

    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)
    help_elems: int = 0
    verifier_cells: int = 0
    parse_s: float = 0.0
    parse_tokens: int = 0
    io_s: float = 0.0
    io_elems: int = 0
    prove_s: float = 0.0
    verify_s: float = 0.0
    verify_tokens: int = 0
    attack_s: float = 0.0
    attack_trials: int = 0
    bit_elems: int = 0
    tick_s: list = field(default_factory=list)
    prove_by_scheme: dict = field(default_factory=dict)
    verify_by_scheme: dict = field(default_factory=dict)
    case_s: list = field(default_factory=list)

    def add_to(self, table: dict, scheme: str, dt: float):
        table[scheme] = table.get(scheme, 0.0) + dt


# --- checks -------------------------------------------------------------------


def equals(expected):
    return lambda value: value == expected


def as_tuple(expected):
    return lambda value: tuple(value) == tuple(expected)


def mis_check(n, edges):
    return lambda value: ref.is_maximal_independent(n, edges, list(value))


def order_check(n, arcs):
    return lambda value: ref.is_topological_order(n, arcs, list(value))


# --- case builders ----------------------------------------------------------------


def _turnstile_case(scheme, rng, n, edges, churn, check, **kw):
    return Case(scheme, st.turnstile_text(rng, n, edges, churn=churn, **kw),
                check)


def _edgecount_case(scheme, rng, n, m, churn, rounds, size):
    cross = scheme == "edgecount-cross"
    edges = st.random_edges(rng, n, m)
    lines, sets = st.query_tail(rng, n, rounds, size, cross)
    if cross:
        want = [ref.cross_edges(edges, u, w) for u, w in sets]
    else:
        want = [ref.induced_edges(edges, u) for u, _ in sets]
    return _turnstile_case(scheme, rng, n, edges, churn, as_tuple(want),
                           queries=lines)


def _matching_case(scheme, rng, n, m, churn):
    edges = st.matched_edges(rng, n, m)
    return _turnstile_case(scheme, rng, n, edges, churn,
                           equals(ref.matching_number(n, edges)))


def _mis_case(rng, n, m, churn):
    edges = st.random_edges(rng, n, m)
    return _turnstile_case("mis", rng, n, edges, churn, mis_check(n, edges))


def _components_case(rng, n, groups, extra, churn):
    edges = st.clustered_edges(rng, n, groups, extra)
    return _turnstile_case("components", rng, n, edges, churn,
                           equals(ref.component_count(n, edges)))


def _bfs_case(rng, n, layers, extra, churn):
    edges = st.layered_edges(rng, n, layers, extra)
    return _turnstile_case("sssp-unweighted", rng, n, edges, churn,
                           as_tuple(ref.distances(n, edges, 1)), source=1)


def _weighted_layers(rng, n, layers, extra, W):
    wedges = st.layered_weighted_edges(rng, n, layers, extra, W)
    edges = [(u, v) for (u, v, _) in wedges]
    want = ref.distances(n, edges, 1, [w for (_, _, w) in wedges])
    return edges, wedges, want


def _wturnstile_case(rng, n, layers, extra, W, churn, expect_failure=None):
    edges, wedges, want = _weighted_layers(rng, n, layers, extra, W)
    text = st.turnstile_text(rng, n, edges, churn=churn, weights=wedges,
                             W=W, source=1)
    return Case("sssp-wturnstile", text, as_tuple(want), expect_failure)


def _wvanilla_case(rng, n, layers, extra, W, expect_failure=None):
    _, wedges, want = _weighted_layers(rng, n, layers, extra, W)
    return Case("sssp-wvanilla", st.weighted_text(n, wedges, W, source=1),
                as_tuple(want), expect_failure)


def _triangle_case(scheme, rng, n, m):
    edges = st.random_edges(rng, n, m)
    check = equals(ref.triangles(n, edges))
    if scheme == "tri-sparse":
        return Case(scheme, st.vanilla_text(n, edges), check)
    if scheme == "tri-adj":
        return Case(scheme, st.adjlist_text(n, edges), check)
    return _turnstile_case(scheme, rng, n, edges, 0, check)


def _dag_case(scheme, rng, n, m):
    arcs = st.dag_arcs(rng, n, m)
    check = order_check(n, arcs) if scheme == "toposort" else equals(True)
    return Case(scheme, st.vanilla_text(n, arcs), check)


def _cyclic_case(rng, n, m):
    arcs = st.cyclic_arcs(rng, n, m)
    return Case("acyclicity", st.vanilla_text(n, arcs),
                equals(not ref.has_cycle(n, arcs)))


def _stpath_case(rng, n, layers, extra):
    edges = st.layered_edges(rng, n, layers, extra)
    dist = ref.distances(n, edges, 1)
    want = max(dist)
    target = dist.index(want) + 1
    return Case("stpath", st.vanilla_text(n, edges, source=1, target=target),
                equals(want))


def longstream_cases(seed: int) -> list:
    """Small graphs (n = 40..48) under heavy strict-turnstile churn."""
    def r(label):
        return st.rng_for(seed, "longstream/" + label)
    churn = 14000
    return [
        _edgecount_case("edgecount-induced", r("induced"), 48, 280, churn,
                        4, 6),
        _edgecount_case("edgecount-cross", r("cross"), 48, 280, churn, 3, 6),
        _matching_case("maxmatch-frugal", r("mm-frugal"), 40, 300, churn),
        _matching_case("maxmatch-laconic", r("mm-laconic"), 40, 300, churn),
        _mis_case(r("mis"), 48, 250, churn),
        _components_case(r("components"), 48, 4, 60, churn),
        _bfs_case(r("bfs"), 48, 4, 100, churn),
        _wturnstile_case(r("wturnstile"), 40, 3, 80, 4, churn),
    ]


def largegraph_cases(seed: int) -> list:
    """Short, churn-free streams on n = 96..256 that load the provers."""
    def r(label):
        return st.rng_for(seed, "largegraph/" + label)
    # Inputs of the two known-failing verdicts do not depend on the seed.
    fixed = st.rng_for(0, "largegraph/ceiling")
    return [
        _triangle_case("tri-laconic", r("tri-laconic"), 256, 3200),
        _triangle_case("tri-frugal", r("tri-frugal"), 128, 800),
        _triangle_case("tri-sparse", r("tri-sparse"), 256, 3200),
        _triangle_case("tri-adj", r("tri-adj"), 256, 3200),
        _mis_case(r("mis"), 128, 800, 0),
        _components_case(r("components"), 128, 6, 400, 0),
        _dag_case("toposort", r("toposort"), 192, 1800),
        _dag_case("acyclicity", r("acyclicity-dag"), 128, 1000),
        _cyclic_case(r("acyclicity-cyclic"), 128, 1000),
        _matching_case("maxmatch-frugal", r("mm-frugal"), 96, 500, 0),
        _matching_case("maxmatch-laconic", r("mm-laconic"), 96, 500, 0),
        _stpath_case(r("stpath"), 256, 6, 2400),
        _wturnstile_case(fixed, 160, 5, 800, 4, 0,
                         expect_failure=MODULUS_CEILING),
        _wvanilla_case(fixed, 160, 5, 800, 4,
                       expect_failure=MODULUS_CEILING),
    ]


def forgery_cases(seed: int) -> list:
    """One small instance (n = 12..14) per scheme; every policy applies."""
    def r(label):
        return st.rng_for(seed, "forgery/" + label)
    return [
        _triangle_case("tri-laconic", r("tri-laconic"), 12, 30),
        _triangle_case("tri-frugal", r("tri-frugal"), 12, 30),
        _triangle_case("tri-sparse", r("tri-sparse"), 12, 30),
        _triangle_case("tri-adj", r("tri-adj"), 12, 30),
        _edgecount_case("edgecount-induced", r("induced"), 14, 40, 20, 2, 3),
        _edgecount_case("edgecount-cross", r("cross"), 14, 40, 20, 2, 3),
        _matching_case("maxmatch-frugal", r("mm-frugal"), 12, 26, 10),
        _matching_case("maxmatch-laconic", r("mm-laconic"), 12, 26, 10),
        _mis_case(r("mis"), 12, 26, 10),
        _components_case(r("components"), 14, 3, 6, 10),
        _dag_case("toposort", r("toposort"), 12, 26),
        _dag_case("acyclicity", r("acyclicity-dag"), 12, 26),
        _cyclic_case(r("acyclicity-cyclic"), 12, 26),
        _bfs_case(r("bfs"), 14, 3, 10, 10),
        _stpath_case(r("stpath"), 14, 3, 10),
        _wturnstile_case(r("wturnstile"), 12, 3, 8, 3, 10),
        _wvanilla_case(r("wvanilla"), 12, 3, 8, 4),
    ]


BUILDERS = {
    "longstream": longstream_cases,
    "largegraph": largegraph_cases,
    "forgery": forgery_cases,
}


# --- one pass -------------------------------------------------------------------


def honest_verdict(case: Case, seed: int, ps: PassStats):
    """parse -> configure -> prove -> dump -> load -> verify, timed by phase.

    Returns the parsed instance, the configured scheme and the modulus, or
    None when the verdict failed.
    """
    ps.attempted += 1
    t0 = time.perf_counter()
    inst = parse_stream(case.text)
    t1 = time.perf_counter()
    ps.parse_s += t1 - t0
    ps.parse_tokens += len(inst.tokens)
    try:
        scheme = get_scheme(case.scheme).configure(inst)
        cfg = scheme.field_config(inst, None)
        transcript = scheme.prove(inst, cfg.p)
    except ValueError as exc:
        if case.expect_failure and case.expect_failure in str(exc):
            ps.failed += 1
        else:
            ps.wrong.append(f"{case.scheme}: prover raised {exc}")
        return None
    t2 = time.perf_counter()
    loaded = ProofTranscript.load(transcript.dump())
    t3 = time.perf_counter()
    res = run_with_transcript(scheme, inst, loaded, seed=seed, p=cfg.p)
    t4 = time.perf_counter()
    ps.prove_s += t2 - t1
    ps.add_to(ps.prove_by_scheme, case.scheme, t2 - t1)
    ps.io_s += t3 - t2
    ps.io_elems += loaded.element_count()
    ps.verify_s += t4 - t3
    ps.verify_tokens += len(inst.tokens)
    ps.add_to(ps.verify_by_scheme, case.scheme, t4 - t3)
    ps.help_elems += res.hcost
    ps.verifier_cells += res.vcost
    ps.bit_elems += res.hcost * cfg.bits_per_element
    if not res.accepted:
        ps.wrong.append(f"{case.scheme}: honest transcript rejected: "
                        f"{res.reason}")
    elif not case.check(res.value):
        ps.wrong.append(f"{case.scheme}: output {res.value!r} disagrees "
                        "with the reference")
    return inst, scheme, cfg.p


def attack(case: Case, verdict, seed: int, ps: PassStats):
    """Every mutation policy of the scheme; a wrong accept is a failure."""
    inst, scheme, p = verdict
    for policy in sorted(scheme.mutations):
        t0 = time.perf_counter()
        stats = run_adversarial(scheme, inst, policy, FORGERY_TRIALS,
                                seed=seed, p=p)
        ps.attack_s += time.perf_counter() - t0
        ps.attack_trials += stats.trials
        ps.attempted += stats.trials
        ps.failed += stats.accepted_wrong


def run_pass(workload: str, cases: list, seed: int,
             tick: Optional[Callable] = None) -> PassStats:
    """Every case once; `wall_s` is the sum of the cases' times.

    With `tick`, a host-speed tick runs after every case, outside the
    cases' times, and its readings land in `tick_s`.
    """
    ps = PassStats()
    for case in cases:
        c0 = time.perf_counter()
        verdict = honest_verdict(case, seed, ps)
        if workload == "forgery" and verdict is not None:
            attack(case, verdict, seed, ps)
        ps.case_s.append(time.perf_counter() - c0)
        if tick is not None:
            ps.tick_s.append(tick())
    ps.wall_s = sum(ps.case_s)
    return ps
