"""Seeded graphs and the stream text that carries them.

Everything here is written for the benchmark alone: it shares no code
with `annostream.generators` or `annostream.stream`, so the edge lists
that the reference answers are computed from are never the program's
own reading of a stream. A graph is a vertex count plus an edge list;
the builders fix the properties that set the schemes' help lengths
(edge count, component count, source eccentricity) by construction, so
that the paper's two costs barely move from one seed to the next.
"""

from __future__ import annotations

import random


def rng_for(seed: int, label: str) -> random.Random:
    """Independent, platform-stable generator for one input."""
    return random.Random(f"annostream-bench/{seed}/{label}")


# --- graphs -----------------------------------------------------------------


def random_edges(rng: random.Random, n: int, m: int) -> list:
    """Exactly m distinct undirected edges (u < v) on 1..n."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return sorted(rng.sample(pairs, m))


def matched_edges(rng: random.Random, n: int, m: int) -> list:
    """m edges on an even n: a perfect matching and a spanning tree first.

    The matching number is then n/2, the graph is connected, and the rest
    of the m edges are uniform.
    """
    verts = list(range(1, n + 1))
    rng.shuffle(verts)
    edges = set()
    for i in range(0, n, 2):
        a, b = verts[i], verts[i + 1]
        edges.add((min(a, b), max(a, b)))
    rng.shuffle(verts)
    for i in range(1, n):
        a, b = verts[i], verts[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    while len(edges) < m:
        a, b = rng.sample(verts, 2)
        edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def clustered_edges(rng: random.Random, n: int, groups: int,
                    extra: int) -> list:
    """A graph with exactly `groups` connected components.

    The vertices are dealt into groups; each group gets a random spanning
    tree, then `extra` more edges land inside random groups.
    """
    verts = list(range(1, n + 1))
    rng.shuffle(verts)
    parts = [verts[i::groups] for i in range(groups)]
    edges = set()
    for part in parts:
        for i in range(1, len(part)):
            a, b = part[i], part[rng.randrange(i)]
            edges.add((min(a, b), max(a, b)))
    while extra:
        part = parts[rng.randrange(groups)]
        a, b = rng.sample(part, 2)
        e = (min(a, b), max(a, b))
        if e not in edges:
            edges.add(e)
            extra -= 1
    return sorted(edges)


def _layers(rng: random.Random, n: int, layers: int, extra: int):
    rest = list(range(2, n + 1))
    rng.shuffle(rest)
    level = [[1]] + [rest[i::layers] for i in range(layers)]
    tree = set()
    for k in range(1, layers + 1):
        for v in level[k]:
            u = rng.choice(level[k - 1])
            tree.add((min(u, v), max(u, v)))
    more = set()
    while len(more) < extra:
        k = rng.randrange(1, layers + 1)
        a = rng.choice(level[k])
        b = rng.choice(level[k - rng.randrange(2)])
        e = (min(a, b), max(a, b))
        if a != b and e not in tree:
            more.add(e)
    return sorted(tree), sorted(more)


def layered_edges(rng: random.Random, n: int, layers: int,
                  extra: int) -> list:
    """Connected graph whose vertex 1 has eccentricity exactly `layers`.

    Vertex 1 is layer 0; the others are dealt into layers 1..layers, each
    vertex tied to a random vertex of the layer before. Extra edges join
    vertices of the same or adjacent layers, which keeps every distance
    from vertex 1 equal to the layer index.
    """
    tree, more = _layers(rng, n, layers, extra)
    return sorted(tree + more)


def layered_weighted_edges(rng: random.Random, n: int, layers: int,
                           extra: int, W: int) -> list:
    """The layered graph with weights: 1 on the tree, 1..W elsewhere.

    Every edge costs at least 1 and advances at most one layer, and the
    tree reaches layer k in k unit steps, so weighted distances from
    vertex 1 still equal the layer index.
    """
    tree, more = _layers(rng, n, layers, extra)
    wedges = [(u, v, 1) for (u, v) in tree]
    wedges += [(u, v, rng.randint(1, W)) for (u, v) in more]
    return sorted(wedges)


def dag_arcs(rng: random.Random, n: int, m: int) -> list:
    """m arcs that all point forward along a hidden random order."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    arcs = []
    for (i, j) in random_edges(rng, n, m):
        arcs.append((order[i - 1], order[j - 1]))
    rng.shuffle(arcs)
    return arcs


def cyclic_arcs(rng: random.Random, n: int, m: int) -> list:
    """A DAG's arcs with one reversed, so a directed cycle exists.

    The reversed arc is one whose endpoints are also joined by a forward
    path of length two, which the builder adds if missing.
    """
    order = list(range(1, n + 1))
    rng.shuffle(order)
    idx = sorted(rng.sample(range(n), 3))
    a, b, c = (order[i] for i in idx)
    forced = {(a, b), (b, c)}
    arcs = set(forced)
    for (i, j) in random_edges(rng, n, m):
        u, v = order[i - 1], order[j - 1]
        if len(arcs) < m - 1 and (u, v) != (a, c):
            arcs.add((u, v))
    arcs.add((c, a))
    arcs = sorted(arcs)
    rng.shuffle(arcs)
    return arcs


# --- stream text --------------------------------------------------------------


def header(n: int, model: str, W=None, source=None, target=None) -> str:
    out = f"n={n} model={model}"
    if W is not None:
        out += f" W={W}"
    if source is not None:
        out += f" source={source}"
    if target is not None:
        out += f" target={target}"
    return out


def turnstile_lines(rng: random.Random, n: int, weighted_edges,
                    churn: int) -> list:
    """Strict-turnstile updates whose final multiplicities are the weights.

    Each final edge arrives as one or more positive updates summing to its
    weight. `churn` further pairs, drawn from all vertex pairs, are each
    inserted and deleted once, the deletion always after the insertion, so
    no multiplicity ever goes negative.
    """
    ups = []
    for (u, v, w) in weighted_edges:
        while w:
            step = rng.randint(1, w)
            ups.append([u, v, step])
            w -= step
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    churned = []
    for _ in range(churn):
        u, v = pairs[rng.randrange(len(pairs))]
        if rng.random() < 0.5:
            u, v = v, u
        ins, rem = [u, v, 1], [u, v, -1]
        ups.append(ins)
        ups.append(rem)
        churned.append((ins, rem))
    order = list(range(len(ups)))
    rng.shuffle(order)
    ups = [ups[i] for i in order]
    pos = {id(tok): i for i, tok in enumerate(ups)}
    for ins, rem in churned:
        if pos[id(rem)] < pos[id(ins)]:
            ins[2], rem[2] = -1, 1
    return [f"{u} {v} {d}" for (u, v, d) in ups]


def turnstile_text(rng, n, edges, churn=0, weights=None, W=None,
                   source=None, target=None, queries=()) -> str:
    wedges = weights if weights is not None else [(u, v, 1)
                                                  for (u, v) in edges]
    lines = [header(n, "turnstile", W=W, source=source, target=target)]
    lines += turnstile_lines(rng, n, wedges, churn)
    lines += list(queries)
    return "\n".join(lines) + "\n"


def vanilla_text(n, arcs, source=None, target=None) -> str:
    lines = [header(n, "vanilla", source=source, target=target)]
    lines += [f"{u} {v}" for (u, v) in arcs]
    return "\n".join(lines) + "\n"


def weighted_text(n, wedges, W, source=None) -> str:
    lines = [header(n, "weighted", W=W, source=source)]
    lines += [f"{u} {v} {w}" for (u, v, w) in wedges]
    return "\n".join(lines) + "\n"


def adjlist_text(n, edges) -> str:
    rows = {v: [] for v in range(1, n + 1)}
    for (u, v) in edges:
        rows[u].append(v)
        rows[v].append(u)
    lines = [header(n, "adjlist")]
    lines += [f"{v}: " + " ".join(map(str, sorted(rows[v])))
              for v in range(1, n + 1)]
    return "\n".join(lines) + "\n"


def query_tail(rng: random.Random, n: int, rounds: int, size: int,
               cross: bool):
    """Cumulative query lines and the query sets after each line.

    Induced queries extend one set U; crossing queries extend U and W,
    which stay disjoint as the crossing-count scheme requires.
    """
    verts = list(range(1, n + 1))
    rng.shuffle(verts)
    lines, sets = [], []
    us, ws = [], []
    for k in range(rounds):
        if cross:
            add_u = verts[2 * k * size:(2 * k + 1) * size]
            add_w = verts[(2 * k + 1) * size:(2 * k + 2) * size]
            lines.append("U+W: " + " ".join(map(str, add_u)) + " | "
                         + " ".join(map(str, add_w)))
            us, ws = us + add_u, ws + add_w
        else:
            add_u = verts[k * size:(k + 1) * size]
            lines.append("U: " + " ".join(map(str, add_u)))
            us = us + add_u
        sets.append((frozenset(us), frozenset(ws)))
    return lines, sets
