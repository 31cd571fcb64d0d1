"""Command-line harness.

Four subcommands:

  run     honest prover + verifier on one stream file (or replay a saved
          transcript); prints the output and both cost meters
  attack  adversarial trials per mutation policy, CSV with Wilson bounds
  sweep   cost curves across a grid of sketch shapes, CSV (+ optional SVG)
  gen     deterministic fixture streams

Exit codes are a stable contract: 0 accept, 1 reject, 2 bad
configuration (unknown scheme, malformed file, invalid modulus, bad
flags).  The environment variable ANNOSTREAM_MODULUS overrides the
automatic field modulus; it must parse as a prime.
"""

import argparse
import csv
import io
import math
import os
import sys

from .extension import resolve_shape
from .field import is_prime
from .generators import (adjlist_instance, clique_edges, cycle_edges,
                         dag_instance, gnp_edges, path_edges,
                         turnstile_instance, vanilla_instance,
                         weighted_instance, weighted_turnstile_instance,
                         with_query_set)
from .protocol import (MUTATIONS, NoMutation, TrialStats, checked_field,
                       get_scheme, run_adversarial, run_with_transcript)
from .protocol import sweep_costs as _sweep_costs
from .stream import ParseError, ProofTranscript, parse_stream, serialize_stream

SWEEP_COLUMNS = ["scheme", "n", "t", "s", "hcost_elems", "vcost_elems",
                 "hbits", "vbits", "product_bits"]
ATTACK_COLUMNS = ["scheme", "policy", "trials", "accepted", "accepted_wrong",
                  "rejected", "wrong_rate", "wilson_upper"]


class ConfigError(Exception):
    pass


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _modulus_override():
    raw = os.environ.get("ANNOSTREAM_MODULUS")
    if raw is None:
        return None
    try:
        p = int(raw)
    except ValueError:
        raise ConfigError(f"ANNOSTREAM_MODULUS={raw!r} is not an integer")
    if p < 2 or not is_prime(p):
        raise ConfigError(f"ANNOSTREAM_MODULUS={p} is not prime")
    return p


def _load_instance(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(str(exc))
    try:
        return parse_stream(text)
    except ParseError as exc:
        raise ConfigError(f"{path}: {exc}")


def _configured_scheme(args, inst, t=None, s=None):
    """The scheme named by --scheme, configured on inst with the shape
    (t, s). Its input domain is checked with its field (`checked_field`),
    before anything is proved."""
    try:
        return get_scheme(args.scheme).configure(inst, t=t, s=s)
    except KeyError as exc:
        raise ConfigError(exc.args[0])
    except ValueError as exc:
        raise ConfigError(str(exc))


def _write_text(path, text):
    """Write text to path ("-": stdout); exit 2 if it cannot be written."""
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}")


def _csv_text(columns, rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows([columns, *rows])
    return buf.getvalue()


# --- run ---------------------------------------------------------------


def _print_labels(value, transcript, n):
    prev = next((b.values.tolist() for b in transcript.blocks
                 if b.label == "parent_labels"), None)
    print("output=labels")
    for v in range(1, n + 1):
        d = value[v - 1]
        dstr = "-" if d is None else str(d)
        pstr = "-"
        if prev is not None and d is not None and prev[v - 1]:
            pstr = str(prev[v - 1])
        print(f"{v} {dstr} {pstr}")


def _print_value(scheme, value, transcript, n):
    if scheme.output_kind == "labels":
        _print_labels(value, transcript, n)
    elif value is None:
        print("output=-")
    elif isinstance(value, bool):
        print(f"output={'true' if value else 'false'}")
    elif isinstance(value, (tuple, list)):
        print("output=" + " ".join(str(x) for x in value))
    else:
        print(f"output={value}")


def cmd_run(args) -> int:
    p = _modulus_override()
    inst = _load_instance(args.input)
    scheme = _configured_scheme(args, inst, args.t, args.s)
    try:
        cfg = checked_field(scheme, inst, p)
        if args.replay:
            try:
                with open(args.replay) as fh:
                    transcript = ProofTranscript.load(fh.read())
            except OSError as exc:
                raise ConfigError(str(exc))
            except ParseError as exc:
                raise ConfigError(f"{args.replay}: {exc}")
        else:
            transcript = scheme.prove(inst, cfg.p)
        res = run_with_transcript(scheme, inst, transcript,
                                  seed=args.seed, p=cfg.p)
    except ValueError as exc:
        raise ConfigError(str(exc))
    if args.out and args.out != "-":  # a write that fails prints nothing
        _write_text(args.out, transcript.dump())
    bits = cfg.bits_per_element
    print(f"scheme={scheme.name}")
    print(f"p={cfg.p}")
    if res.accepted:
        _print_value(scheme, res.value, transcript, inst.n)
    else:
        print(f"reject={res.reason}")
    print(f"hcost_elems={res.hcost}")
    print(f"hcost_bits={res.hcost * bits}")
    print(f"vcost_elems={res.vcost}")
    print(f"vcost_bits={res.vcost * bits}")
    if args.out == "-":
        _write_text("-", transcript.dump())
    return 0 if res.accepted else 1


# --- attack ------------------------------------------------------------


def _honest_trials(scheme, inst, honest, trials, seed, p):
    stats = TrialStats(scheme=scheme.name, policy="honest")
    for i in range(trials):
        res = run_with_transcript(scheme, inst, honest,
                                  seed=((seed << 16) ^ (i + 1)), p=p)
        stats.trials += 1
        if res.accepted:
            stats.accepted += 1
        else:
            stats.rejected += 1
    return stats


def cmd_attack(args) -> int:
    if args.trials < 1:
        raise ConfigError("--trials must be at least 1")
    p = _modulus_override()
    inst = _load_instance(args.input)
    scheme = _configured_scheme(args, inst, args.t, args.s)
    policies = args.policy or sorted(scheme.mutations)
    for pol in policies:
        if pol != "honest" and pol not in MUTATIONS:
            raise ConfigError(f"unknown mutation policy {pol!r}; known: "
                              "honest, " + ", ".join(sorted(MUTATIONS)))
        if pol != "honest" and pol not in scheme.mutations:
            raise ConfigError(f"policy {pol!r} does not apply to "
                              f"{scheme.name}")

    # one honest proof per run; every policy mutates its own copies of it.
    # The default list leaves out, and names on stderr, a policy that finds
    # nothing to mutate on this instance; one asked for by name exits 2.
    results = []
    try:
        p = checked_field(scheme, inst, p).p
        honest = scheme.prove(inst, p)
        for pol in policies:
            if pol == "honest":
                results.append(_honest_trials(scheme, inst, honest,
                                              args.trials, args.seed, p))
                continue
            try:
                results.append(run_adversarial(
                    scheme, inst, pol, args.trials, seed=args.seed, p=p,
                    honest=honest))
            except NoMutation as exc:
                if args.policy:
                    raise
                print(f"skipped: {exc}", file=sys.stderr)
    except ValueError as exc:
        raise ConfigError(str(exc))

    _write_text(args.out or "-", _csv_text(ATTACK_COLUMNS, (
        [st.scheme, st.policy, st.trials, st.accepted, st.accepted_wrong,
         st.rejected, f"{st.wrong_rate:.6f}", f"{st.wilson_upper():.6f}"]
        for st in results)))
    return 0


# --- sweep -------------------------------------------------------------


def _parse_grid(raw):
    if raw is None:
        return None
    raw = raw.strip()
    if not raw:
        return []
    try:
        vals = [int(x) for x in raw.split(",")]
    except ValueError:
        raise ConfigError(f"bad grid {raw!r}; expected comma-separated ints")
    if any(v < 1 for v in vals):
        raise ConfigError("grid entries must be positive")
    return vals


def _sweep_shapes(args):
    ts = _parse_grid(args.t_grid)
    ss = _parse_grid(args.s_grid)
    if ts is None and ss is None:
        raise ConfigError("sweep needs --t-grid and/or --s-grid")
    if ts is not None and ss is not None:
        if len(ts) != len(ss):
            raise ConfigError("--t-grid and --s-grid differ in length")
        return list(zip(ts, ss))
    if ts is not None:
        return [(t, None) for t in ts]
    return [(None, s) for s in ss]


def _plot_svg(rows, path):
    """Log-log scatter of help cost (x) against space cost (y), in bits."""
    W, H, M = 480, 360, 48
    pts = [(math.log2(r["hbits"]), math.log2(r["vbits"])) for r in rows]
    xs = [x for x, _ in pts] or [0.0]
    ys = [y for _, y in pts] or [0.0]
    x0, x1 = min(xs) - 0.5, max(xs) + 0.5
    y0, y1 = min(ys) - 0.5, max(ys) + 0.5

    def sx(x):
        return M + (x - x0) / (x1 - x0) * (W - 2 * M)

    def sy(y):
        return H - M - (y - y0) / (y1 - y0) * (H - 2 * M)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" '
             f'height="{H}">',
             f'<rect width="{W}" height="{H}" fill="white"/>',
             f'<line x1="{M}" y1="{H - M}" x2="{W - M}" y2="{H - M}" '
             'stroke="black"/>',
             f'<line x1="{M}" y1="{M}" x2="{M}" y2="{H - M}" '
             'stroke="black"/>',
             f'<text x="{W // 2}" y="{H - 10}" font-size="12" '
             'text-anchor="middle">log2 hcost bits</text>',
             f'<text x="14" y="{H // 2}" font-size="12" '
             f'text-anchor="middle" transform="rotate(-90 14 {H // 2})">'
             'log2 vcost bits</text>']
    for (x, y), r in zip(pts, rows):
        parts.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="4" '
                     'fill="steelblue"/>')
        parts.append(f'<text x="{sx(x) + 6:.1f}" y="{sy(y) - 6:.1f}" '
                     f'font-size="9">t={r["t"]}</text>')
    parts.append("</svg>")
    _write_text(path, "\n".join(parts) + "\n")


def cmd_sweep(args) -> int:
    p = _modulus_override()
    inst = _load_instance(args.input)
    scheme = _configured_scheme(args, inst)
    try:
        checked_field(scheme, inst, p)
        shapes = [resolve_shape(inst.n, t, s)
                  for (t, s) in _sweep_shapes(args)]
        rows = _sweep_costs(args.scheme, inst, shapes, seed=args.seed, p=p)
    except ValueError as exc:
        raise ConfigError(str(exc))
    if args.plot:
        if rows:
            _plot_svg(rows, args.plot)
        else:
            _write_text(args.plot, "")
    _write_text(args.out or "-", _csv_text(
        SWEEP_COLUMNS, ([r[c] for c in SWEEP_COLUMNS] for r in rows)))
    return 0


# --- gen ---------------------------------------------------------------


def _parse_vertices(raw, n):
    try:
        vs = [int(x) for x in raw.split(",")]
    except ValueError:
        raise ConfigError(f"bad vertex list {raw!r}")
    if any(not 1 <= v <= n for v in vs):
        raise ConfigError(f"vertex list {raw!r} out of range 1..{n}")
    return vs


def _generate(args):
    n, seed = args.n, args.seed
    prob = 0.35 if args.prob is None else args.prob
    w = 4 if args.w is None else args.w
    ends = {"source": args.source, "target": args.target}
    turnstile = args.model == "turnstile" or args.churn
    if args.kind == "gnp":
        edges = gnp_edges(n, prob, seed)
        spare = n * (n - 1) // 2 - len(edges)
        if args.churn > spare:
            raise ConfigError(f"--churn {args.churn}: only {spare} vertex "
                              "pairs are not edges")
        if turnstile:
            return turnstile_instance(n, edges, churn=args.churn, seed=seed,
                                      **ends)
        return vanilla_instance(n, edges, **ends)
    if args.kind == "weighted-gnp":
        if turnstile:
            return weighted_turnstile_instance(n, prob, w, seed,
                                               churn=args.churn, **ends)
        return weighted_instance(n, prob, w, seed, **ends)
    if args.kind == "dag":
        return dag_instance(n, prob, seed)
    if args.kind == "adjlist":
        return adjlist_instance(n, gnp_edges(n, prob, seed))
    edges = {"path": path_edges, "cycle": cycle_edges,
             "clique": clique_edges}[args.kind](n)
    return vanilla_instance(n, edges, **ends)


def cmd_gen(args) -> int:
    if args.n < 1:
        raise ConfigError("n must be positive")
    # a flag the kind does not read is refused, not dropped
    kind = args.kind
    unread = {
        "--churn": args.churn and kind not in ("gnp", "weighted-gnp"),
        "--model": args.model is not None and kind == "adjlist",
        "--model turnstile": (args.model == "turnstile"
                              and kind in ("path", "cycle", "clique", "dag")),
        "--w": args.w is not None and kind != "weighted-gnp",
        "--prob": (args.prob is not None
                   and kind in ("path", "cycle", "clique")),
    }
    for flag, given in unread.items():
        if given:
            raise ConfigError(f"gen {kind} takes no {flag}")
    if args.churn < 0:
        raise ConfigError("--churn must be at least 0")
    if args.churn and args.n < 2:
        raise ConfigError("--churn needs at least 2 vertices")
    if args.query_right and not args.query_left:
        raise ConfigError("--query-right needs --query-left")
    inst = _generate(args)
    if args.query_left:
        left = _parse_vertices(args.query_left, inst.n)
        right = (_parse_vertices(args.query_right, inst.n)
                 if args.query_right else [])
        if len(set(left + right)) < len(left + right):
            raise ConfigError("a query set lists a vertex twice")
        inst = with_query_set(inst, left, right)
    # gen writes only what it was asked for: the text must read back
    text = serialize_stream(inst)
    try:
        back = parse_stream(text)
    except ParseError as exc:
        raise ConfigError(f"gen {args.kind} cannot write this: {exc}")
    if back != inst or (back.source, back.target) != (args.source,
                                                      args.target):
        raise ConfigError(f"gen {args.kind} writes no query sets, source= "
                          "or target= here")
    _write_text(args.out or "-", text)
    return 0


# --- parser ------------------------------------------------------------


def _add_common(sp):
    sp.add_argument("--scheme", required=True,
                    help="registered scheme name")
    sp.add_argument("--input", required=True,
                    help="stream file to read")
    sp.add_argument("--t", type=int, default=None,
                    help="grid rows for the sketch shape (default: balanced)")
    sp.add_argument("--s", type=int, default=None,
                    help="grid columns for the sketch shape")
    sp.add_argument("--seed", type=int, default=0,
                    help="verifier coin seed")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="annostream",
        description="annotated-stream graph protocols: run, attack, "
                    "sweep, gen")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("run", help="honest run (or transcript replay)")
    _add_common(sp)
    sp.add_argument("--out", default=None,
                    help="write the proof transcript here")
    sp.add_argument("--replay", default=None,
                    help="verify this saved transcript instead of proving")
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("attack", help="adversarial soundness trials")
    _add_common(sp)
    sp.add_argument("--trials", type=int, default=500)
    sp.add_argument("--policy", action="append", default=None,
                    help="mutation policy (repeatable; default: all that "
                         "apply and find something to mutate; 'honest' "
                         "runs unmutated transcripts)")
    sp.add_argument("--out", default=None, help="CSV path (default stdout)")
    sp.set_defaults(func=cmd_attack)

    sp = sub.add_parser("sweep", help="cost curves over sketch shapes")
    _add_common(sp)
    sp.add_argument("--t-grid", default=None,
                    help="comma-separated t values; s auto-complements")
    sp.add_argument("--s-grid", default=None,
                    help="comma-separated s values")
    sp.add_argument("--out", default=None, help="CSV path (default stdout)")
    sp.add_argument("--plot", default=None,
                    help="also write an SVG log-log scatter here")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("gen", help="deterministic fixture streams")
    sp.add_argument("kind", choices=("gnp", "path", "cycle", "clique", "dag",
                                        "weighted-gnp", "adjlist"))
    sp.add_argument("n", type=int)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--prob", type=float, default=None,
                    help="edge probability for random kinds (default 0.35)")
    sp.add_argument("--w", type=int, default=None,
                    help="max edge weight for weighted-gnp (default 4)")
    sp.add_argument("--churn", type=int, default=0,
                    help="extra insert+delete pairs (turnstile kinds)")
    sp.add_argument("--model", choices=("vanilla", "turnstile"),
                    default=None,
                    help="stream model for gnp / weighted-gnp (default "
                         "vanilla)")
    sp.add_argument("--source", type=int, default=None)
    sp.add_argument("--target", type=int, default=None)
    sp.add_argument("--query-left", default=None,
                    help="append a set query over these vertices "
                         "(comma-separated)")
    sp.add_argument("--query-right", default=None,
                    help="second set for a crossing-count query")
    sp.add_argument("--out", default=None,
                    help="output file (default stdout)")
    sp.set_defaults(func=cmd_gen)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
