"""Command-line contract: exit codes, output lines, CSV schemas."""

import csv
import io
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "annostream.cli"]


def run_cli(*args, env=None):
    import os
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(CLI + list(args), capture_output=True,
                          text=True, env=full_env)


@pytest.fixture(scope="module")
def k5(tmp_path_factory):
    path = tmp_path_factory.mktemp("streams") / "k5.stream"
    r = run_cli("gen", "clique", "5", "--out", str(path))
    assert r.returncode == 0
    return str(path)


def test_run_golden_example(k5):
    r = run_cli("run", "--scheme", "tri-laconic", "--t", "4",
                "--input", k5, "--seed", "7")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert "output=10" in lines
    assert "hcost_elems=7" in lines
    got = {ln.split("=")[0] for ln in lines}
    assert {"scheme", "p", "output", "hcost_elems", "hcost_bits",
            "vcost_elems", "vcost_bits"} <= got


def test_run_writes_transcript_and_replays(k5, tmp_path):
    proof = tmp_path / "k5.proof"
    r = run_cli("run", "--scheme", "tri-laconic", "--t", "4", "--input", k5,
                "--seed", "7", "--out", str(proof))
    assert r.returncode == 0
    assert proof.read_text().startswith("!transcript")
    r2 = run_cli("run", "--scheme", "tri-laconic", "--t", "4", "--input", k5,
                 "--seed", "9", "--replay", str(proof))
    assert r2.returncode == 0 and "output=10" in r2.stdout


def test_run_stpath_prints_an_unreachable_target(tmp_path):
    stream = tmp_path / "cut.stream"
    stream.write_text("n=4 model=vanilla source=1 target=4\n1 2\n2 3\n")
    r = run_cli("run", "--scheme", "stpath", "--input", str(stream))
    assert r.returncode == 0, r.stderr
    assert "output=-" in r.stdout.splitlines()


def test_run_mutated_replay_exits_one(k5, tmp_path):
    proof = tmp_path / "k5.proof"
    run_cli("run", "--scheme", "tri-laconic", "--t", "4", "--input", k5,
            "--out", str(proof))
    lines = proof.read_text().splitlines()
    # corrupt the first coefficient line
    for i, ln in enumerate(lines):
        if ln and not ln.startswith(("!", "@")):
            first, rest = (ln.split(None, 1) + [""])[:2]
            lines[i] = f"{int(first) + 1} {rest}".strip()
            break
    bad = tmp_path / "bad.proof"
    bad.write_text("\n".join(lines) + "\n")
    r = run_cli("run", "--scheme", "tri-laconic", "--t", "4", "--input", k5,
                "--seed", "7", "--replay", str(bad))
    assert r.returncode == 1
    assert "reject=" in r.stdout


def _replay_edited(k5, tmp_path, edit):
    """Replay the honest tri-laconic transcript after `edit(text, p)`."""
    proof = tmp_path / "k5.proof"
    r = run_cli("run", "--scheme", "tri-laconic", "--t", "4", "--input", k5,
                "--out", str(proof))
    p = int(next(ln for ln in r.stdout.splitlines()
                 if ln.startswith("p="))[2:])
    bad = tmp_path / "edited.proof"
    bad.write_text(edit(proof.read_text(), p))
    return run_cli("run", "--scheme", "tri-laconic", "--t", "4", "--input",
                   k5, "--seed", "7", "--replay", str(bad))


def _raise_first_value(text, by):
    lines = text.splitlines()
    i = next(i for i, ln in enumerate(lines)
             if ln and not ln.startswith(("!", "@")))
    first, rest = (lines[i].split(None, 1) + [""])[:2]
    lines[i] = f"{int(first) + by} {rest}".strip()
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("edit", [
    lambda text, p: _raise_first_value(text, 2 ** 70),
    lambda text, p: text.replace(" count=7", ""),
    lambda text, p: text.replace(" shape=7", ""),
], ids=["value_beyond_int64", "header_without_count",
        "coeffs_header_without_shape"])
def test_replay_malformed_transcript_exits_two(k5, tmp_path, edit):
    r = _replay_edited(k5, tmp_path, edit)
    assert r.returncode == 2
    assert r.stderr.startswith("error:") and "Traceback" not in r.stderr


def test_replay_non_canonical_coefficient_exits_one(k5, tmp_path):
    honest = _replay_edited(k5, tmp_path, lambda text, p: text)
    assert honest.returncode == 0 and "output=10" in honest.stdout
    raised = _replay_edited(k5, tmp_path,
                            lambda text, p: _raise_first_value(text, p))
    assert raised.returncode == 1
    assert "reject=block charge_poly: value outside [0, p)" \
        in raised.stdout.splitlines()


def test_replay_of_a_v1_transcript_exits_two(k5, tmp_path):
    # v=1 carried coefficients; read as node values its blocks would be
    # other polynomials, so the reader refuses the version
    r = _replay_edited(k5, tmp_path, lambda text, p: text.replace(
        "!transcript v=2", "!transcript v=1"))
    assert r.returncode == 2
    assert "transcript version 1" in r.stderr and "Traceback" not in r.stderr


def test_run_malformed_file_exits_two(tmp_path):
    bad = tmp_path / "bad.stream"
    bad.write_text("who knows\n1 2\n")
    r = run_cli("run", "--scheme", "tri-laconic", "--input", str(bad))
    assert r.returncode == 2
    assert r.stderr.strip()


def test_run_non_ascii_delta_exits_two(tmp_path):
    # numpy's loadtxt reads U+0903 as 2259; only int() reads stream text
    bad = tmp_path / "bad.stream"
    bad.write_text("n=3 model=turnstile\n1 2 \u0903\nU: 1 2\n",
                   encoding="utf-8")
    r = run_cli("run", "--scheme", "edgecount-induced", "--input", str(bad))
    assert r.returncode == 2
    assert "bad delta" in r.stderr


@pytest.mark.parametrize("header", ["n=3 model=weighted W=x",
                                    "n=3 model=vanilla source=abc",
                                    "n=3 model=vanilla target=1.5"])
def test_run_malformed_header_integer_exits_two(tmp_path, header):
    bad = tmp_path / "bad.stream"
    bad.write_text(header + "\n1 2\n")
    r = run_cli("run", "--scheme", "tri-laconic", "--input", str(bad))
    assert r.returncode == 2
    assert "must be an integer" in r.stderr
    assert "Traceback" not in r.stderr


def test_run_unknown_scheme_exits_two(k5):
    assert run_cli("run", "--scheme", "zork", "--input", k5).returncode == 2


def test_run_missing_file_exits_two():
    r = run_cli("run", "--scheme", "mis", "--input", "no-such-file")
    assert r.returncode == 2


@pytest.mark.parametrize("cmd", [["run"], ["attack", "--trials", "1"]])
@pytest.mark.parametrize("flag", ["--t", "--s"])
def test_zero_grid_side_exits_two(k5, capsys, cmd, flag):
    from annostream import cli
    assert cli.main(cmd + ["--scheme", "mis", "--input", k5, flag, "0"]) == 2
    assert "shape dimensions must be positive" in capsys.readouterr().err


def test_bad_flags_exit_two(k5):
    assert run_cli("run", "--input", k5).returncode == 2
    assert run_cli("frobnicate").returncode == 2


def test_modulus_override(k5):
    ok = run_cli("run", "--scheme", "tri-laconic", "--t", "4", "--input", k5,
                 env={"ANNOSTREAM_MODULUS": "131101"})
    assert ok.returncode == 0
    assert "p=131101" in ok.stdout
    bad = run_cli("run", "--scheme", "tri-laconic", "--input", k5,
                  env={"ANNOSTREAM_MODULUS": "91"})
    assert bad.returncode == 2
    noint = run_cli("run", "--scheme", "tri-laconic", "--input", k5,
                    env={"ANNOSTREAM_MODULUS": "seven"})
    assert noint.returncode == 2


def test_gen_is_byte_deterministic(tmp_path):
    a = run_cli("gen", "weighted-gnp", "14", "--seed", "5", "--prob", "0.4",
                "--w", "6")
    b = run_cli("gen", "weighted-gnp", "14", "--seed", "5", "--prob", "0.4",
                "--w", "6")
    assert a.returncode == 0 and a.stdout == b.stdout
    c = run_cli("gen", "weighted-gnp", "14", "--seed", "6", "--prob", "0.4",
                "--w", "6")
    assert c.stdout != a.stdout


def test_gen_dag_is_acyclic(tmp_path):
    path = tmp_path / "dag.stream"
    assert run_cli("gen", "dag", "16", "--seed", "2", "--out",
                   str(path)).returncode == 0
    r = run_cli("run", "--scheme", "acyclicity", "--input", str(path))
    assert r.returncode == 0
    assert "output=true" in r.stdout


def test_gen_unknown_kind_exits_two():
    assert run_cli("gen", "moebius", "5").returncode == 2


def test_label_output_block(tmp_path):
    path = tmp_path / "w.stream"
    run_cli("gen", "weighted-gnp", "6", "--seed", "3", "--prob", "0.7",
            "--w", "2", "--source", "1", "--out", str(path))
    r = run_cli("run", "--scheme", "sssp-wvanilla", "--input", str(path))
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    i = lines.index("output=labels")
    rows = [ln.split() for ln in lines[i + 1:i + 7]]
    assert [row[0] for row in rows] == ["1", "2", "3", "4", "5", "6"]
    assert rows[0][1] == "0" and rows[0][2] == "-"
    for row in rows[1:]:
        if row[1] != "-":
            assert row[2].isdigit()


def test_attack_csv_schema(k5):
    r = run_cli("attack", "--scheme", "tri-laconic", "--input", k5,
                "--trials", "8", "--seed", "3")
    assert r.returncode == 0
    rows = list(csv.reader(io.StringIO(r.stdout)))
    assert rows[0] == ["scheme", "policy", "trials", "accepted",
                       "accepted_wrong", "rejected", "wrong_rate",
                       "wilson_upper"]
    assert len(rows) == 1 + 3
    for row in rows[1:]:
        assert row[0] == "tri-laconic" and int(row[2]) == 8


def test_attack_honest_policy_accepts_all(k5):
    r = run_cli("attack", "--scheme", "tri-laconic", "--input", k5,
                "--trials", "6", "--policy", "honest")
    rows = list(csv.reader(io.StringIO(r.stdout)))
    assert rows[1][1] == "honest"
    assert int(rows[1][3]) == 6 and int(rows[1][5]) == 0


def test_attack_proves_once(k5, monkeypatch, capsys):
    # every policy and every honest trial reuses one honest transcript
    from annostream import cli
    from annostream.protocol import get_scheme
    cls = get_scheme("tri-laconic")
    calls = []
    real = cls.prove
    monkeypatch.setattr(cls, "prove",
                        lambda self, inst, p: calls.append(p)
                        or real(self, inst, p))
    code = cli.main(["attack", "--scheme", "tri-laconic", "--input", k5,
                     "--trials", "3", "--policy", "honest",
                     "--policy", "coefficient_flip",
                     "--policy", "output_value_lie"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert [r[1] for r in rows[1:]] == ["honest", "coefficient_flip",
                                        "output_value_lie"]
    assert rows[1][3] == "3"
    assert len(calls) == 1


def test_attack_zero_trials_exits_two(k5):
    assert run_cli("attack", "--scheme", "tri-laconic", "--input", k5,
                   "--trials", "0").returncode == 2


def test_attack_inapplicable_policy_exits_two(k5):
    r = run_cli("attack", "--scheme", "tri-laconic", "--input", k5,
                "--policy", "vertex_list_permutation_lie")
    assert r.returncode == 2


# the source is isolated, so neither scheme sends a coefficient block
@pytest.mark.parametrize("scheme,header,empty", [
    ("sssp-unweighted", "n=4 model=vanilla source=1",
     ["coefficient_flip", "output_value_lie"]),
    ("stpath", "n=4 model=vanilla source=1 target=4", ["coefficient_flip"]),
])
def test_attack_default_skips_a_policy_with_nothing_to_mutate(
        tmp_path, scheme, header, empty):
    path = tmp_path / "isolated.stream"
    path.write_text(f"{header}\n2 3\n3 4\n")
    r = run_cli("attack", "--scheme", scheme, "--input", str(path),
                "--trials", "5")
    assert r.returncode == 0, r.stderr
    rows = list(csv.reader(io.StringIO(r.stdout)))
    assert rows[0] == ["scheme", "policy", "trials", "accepted",
                       "accepted_wrong", "rejected", "wrong_rate",
                       "wilson_upper"]
    ran = [row[1] for row in rows[1:]]
    assert ran and not set(ran) & set(empty)
    assert all(row[0] == scheme and row[2] == "5" for row in rows[1:])
    for policy in empty:
        assert f"policy {policy} produced no mutation" in r.stderr
        named = run_cli("attack", "--scheme", scheme, "--input", str(path),
                        "--trials", "5", "--policy", policy)
        assert named.returncode == 2
        assert "produced no mutation" in named.stderr


# acyclic inputs with no room for the output lie's fabricated 3-cycle
@pytest.mark.parametrize("body", ["n=2 model=vanilla\n1 2\n",
                                  "n=2 model=vanilla\n",
                                  "n=1 model=vanilla\n"],
                         ids=["n2-edge", "n2-edgeless", "n1"])
def test_attack_acyclicity_skips_its_output_lie_below_three_vertices(
        tmp_path, body):
    path = tmp_path / "small.stream"
    path.write_text(body)
    r = run_cli("attack", "--scheme", "acyclicity", "--input", str(path),
                "--trials", "5")
    assert r.returncode == 0, r.stderr
    ran = [row[1] for row in csv.reader(io.StringIO(r.stdout))][1:]
    assert ran and "output_value_lie" not in ran
    assert "policy output_value_lie produced no mutation" in r.stderr


def test_sweep_csv_schema_and_empty_grid(k5, tmp_path):
    r = run_cli("sweep", "--scheme", "tri-laconic", "--input", k5,
                "--t-grid", "1,2,4")
    assert r.returncode == 0
    rows = list(csv.reader(io.StringIO(r.stdout)))
    assert rows[0] == ["scheme", "n", "t", "s", "hcost_elems", "vcost_elems",
                       "hbits", "vbits", "product_bits"]
    assert [row[2] for row in rows[1:]] == ["1", "2", "4"]
    for row in rows[1:]:
        assert int(row[4]) == 2 * int(row[2]) - 1  # hcost = 2t-1
        assert row[3] != ""

    empty = run_cli("sweep", "--scheme", "tri-laconic", "--input", k5,
                    "--t-grid", "")
    assert empty.returncode == 0
    assert empty.stdout.splitlines() == [",".join(rows[0])]


def test_sweep_plot_svg(k5, tmp_path):
    svg = tmp_path / "out.svg"
    r = run_cli("sweep", "--scheme", "tri-laconic", "--input", k5,
                "--t-grid", "1,2,4", "--plot", str(svg))
    assert r.returncode == 0
    body = svg.read_text()
    assert body.startswith("<svg") and "circle" in body


def test_gen_query_flags(tmp_path):
    path = tmp_path / "q.stream"
    r = run_cli("gen", "gnp", "8", "--seed", "1", "--prob", "0.5",
                "--query-left", "1,2,3", "--query-right", "4,5",
                "--out", str(path))
    assert r.returncode == 0
    run = run_cli("run", "--scheme", "edgecount-cross", "--input", str(path))
    assert run.returncode == 0
    bad = run_cli("gen", "gnp", "8", "--query-right", "4,5")
    assert bad.returncode == 2


# a deletion leaves edge 1-3 at final multiplicity -1
NEGATIVE = "n=4 model=turnstile\n1 2 1\n2 3 1\n1 3 -1\n3 4 1\n"
# edge 1-2 ends at multiplicity 2
DOUBLED = "n=4 model=turnstile\n1 2 2\n2 3 1\n1 3 1\n3 4 1\n"
# edge 1-2 aggregates to weight 5, above the header's W
HEAVY = "n=4 model=turnstile W=2 source=1\n1 2 5\n2 3 1\n3 4 2\n"


@pytest.mark.parametrize("text,edge,schemes", [
    (NEGATIVE, "edge 1 3", ("tri-laconic", "tri-frugal", "components",
                            "mis")),
    (DOUBLED, "edge 1 2", ("components", "mis", "maxmatch-frugal",
                           "maxmatch-laconic")),
    (HEAVY, "edge 1 2", ("sssp-wturnstile",)),
], ids=["negative", "doubled", "above-w"])
def test_input_outside_scheme_domain_exits_two(tmp_path, capsys, text,
                                               edge, schemes):
    from annostream import cli
    path = tmp_path / "g.stream"
    path.write_text(text)
    for scheme in schemes:
        for cmd in (["run"], ["attack", "--trials", "1"],
                    ["sweep", "--t-grid", "2"]):
            assert cli.main(cmd + ["--scheme", scheme,
                                   "--input", str(path)]) == 2
            assert edge in capsys.readouterr().err


def test_weighted_turnstile_takes_weights_up_to_w(tmp_path, capsys):
    from annostream import cli
    path = tmp_path / "g.stream"
    path.write_text(HEAVY.replace("W=2", "W=5"))
    assert cli.main(["run", "--scheme", "sssp-wturnstile",
                     "--input", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert ["1 0 -", "2 5 -", "3 6 -", "4 8 -"] == [
        line for line in out if line[:1].isdigit()]


def test_triangles_count_a_doubled_edge(tmp_path, capsys):
    from annostream import cli
    path = tmp_path / "g.stream"
    path.write_text(DOUBLED)
    for scheme in ("tri-laconic", "tri-frugal", "tri-sparse"):
        assert cli.main(["run", "--scheme", scheme,
                         "--input", str(path)]) == 0
        assert "output=2" in capsys.readouterr().out.splitlines()


# true counts far past the automatic modulus 1048583: 1.25e20 triangles,
# and 600001 edges, so 1200002 ordered pairs
WRAP = "n=3 model=turnstile\n1 2 5000000\n2 3 5000000\n1 3 5000000\n"
WRAP_QUERY = "n=3 model=turnstile\n1 2 600000\n2 3 1\nU: 1 2\n"


@pytest.mark.parametrize("text,schemes,bound", [
    (WRAP, ("tri-laconic", "tri-frugal", "tri-sparse"), "|A|_F^3/6"),
    (WRAP_QUERY, ("edgecount-induced",), "2 sum c"),
    (WRAP_QUERY.replace("U: 1 2", "U+W: 1 | 2"), ("edgecount-cross",),
     "2 sum c"),
], ids=["triangles", "induced", "cross"])
def test_counts_past_the_modulus_exit_two(tmp_path, capsys, text, schemes,
                                          bound):
    from annostream import cli
    path = tmp_path / "g.stream"
    path.write_text(text)
    for scheme in schemes:
        for cmd in (["run"], ["attack", "--trials", "1"],
                    ["sweep", "--t-grid", "2"]):
            assert cli.main(cmd + ["--scheme", scheme,
                                   "--input", str(path)]) == 2
            err = capsys.readouterr().err
            assert bound in err and "wrap mod p" in err


def test_counts_below_the_modulus_still_run(tmp_path, capsys):
    from annostream import cli
    path = tmp_path / "g.stream"
    path.write_text(WRAP_QUERY.replace("600000", "500000"))
    assert cli.main(["run", "--scheme", "edgecount-induced",
                     "--input", str(path)]) == 0
    assert "output=500000" in capsys.readouterr().out.splitlines()


def test_delta_past_the_stream_bound_exits_two(tmp_path, capsys):
    from annostream import cli
    path = tmp_path / "g.stream"
    path.write_text(f"n=3 model=turnstile\n1 2 {2 ** 62}\n2 3 1\n")
    assert cli.main(["run", "--scheme", "tri-laconic",
                     "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert "2^62" in err and "Traceback" not in err


@pytest.mark.parametrize("p", ["2", "3", "5"])
def test_small_explicit_modulus_is_refused_not_crashed(tmp_path, capsys,
                                                       monkeypatch, p):
    from annostream import SCHEMES, cli
    from annostream.stream import serialize_stream
    from test_transcripts import _cases  # one 9-vertex input per scheme
    monkeypatch.setenv("ANNOSTREAM_MODULUS", p)
    cases = {name: inst for name, inst in _cases().items() if name in SCHEMES}
    assert len(cases) == len(SCHEMES)
    for name, inst in cases.items():
        path = tmp_path / f"{name}.stream"
        path.write_text(serialize_stream(inst))
        for cmd in (["run"], ["attack", "--trials", "2"]):
            assert cli.main(cmd + ["--scheme", name,
                                   "--input", str(path)]) in (0, 2), name
            capsys.readouterr()


# --- every written file goes through one writer ------------------------------


@pytest.mark.parametrize("argv", [
    ["run", "--scheme", "tri-laconic", "--out", "{bad}"],
    ["attack", "--scheme", "tri-laconic", "--trials", "2", "--out", "{bad}"],
    ["sweep", "--scheme", "tri-laconic", "--t-grid", "1,2", "--out",
     "{bad}"],
    ["sweep", "--scheme", "tri-laconic", "--t-grid", "1,2", "--plot",
     "{bad}"],
    ["gen", "gnp", "6", "--out", "{bad}"],
], ids=["run", "attack", "sweep-out", "sweep-plot", "gen"])
def test_an_unwritable_output_exits_two(k5, tmp_path, argv):
    bad = str(tmp_path / "missing" / "out.txt")
    args = [a.replace("{bad}", bad) for a in argv]
    if args[0] != "gen":
        args += ["--input", k5]
    r = run_cli(*args)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: cannot write ") and bad in r.stderr
    assert "Traceback" not in r.stderr
    assert r.stdout == ""


GEN_REFUSALS = [
    (["path", "5", "--source", "9"], "source 9 outside [1, 5]"),
    (["cycle", "5", "--target", "0"], "target 0 outside [1, 5]"),
    (["weighted-gnp", "5", "--query-left", "1,2"],
     "query sets only valid for edge streams"),
    (["adjlist", "5", "--query-left", "1,2"], "gen adjlist writes no"),
    (["adjlist", "5", "--source", "1"], "gen adjlist writes no"),
    (["adjlist", "5", "--target", "2"], "gen adjlist writes no"),
    (["dag", "5", "--source", "1"], "gen dag writes no"),
    (["dag", "5", "--target", "2"], "gen dag writes no"),
    (["cycle", "1"], "self-loop at 1"),
    (["cycle", "2"], "duplicate edge (1, 2)"),
    (["path", "5", "--churn", "2"], "gen path takes no --churn"),
    (["weighted-gnp", "1", "--churn", "2"], "--churn needs at least 2"),
    (["gnp", "1", "--churn", "2"], "--churn needs at least 2"),
    (["gnp", "5", "--churn", "-1"], "--churn must be at least 0"),
    (["gnp", "3", "--prob", "1", "--churn", "1"],
     "only 0 vertex pairs are not edges"),
    (["gnp", "5", "--query-left", "1,2", "--query-right", "2,3"],
     "lists a vertex twice"),
    *[([kind, "5", "--model", "turnstile"],
       f"gen {kind} takes no --model turnstile")
      for kind in ("path", "cycle", "clique", "dag")],
    *[(["adjlist", "5", "--model", model], "gen adjlist takes no --model")
      for model in ("vanilla", "turnstile")],
    *[([kind, "5", "--w", "9"], f"gen {kind} takes no --w")
      for kind in ("gnp", "path", "cycle", "clique", "dag", "adjlist")],
    *[([kind, "5", "--prob", "0.9"], f"gen {kind} takes no --prob")
      for kind in ("path", "cycle", "clique")],
    (["path", "4", "--model", "turnstile", "--w", "9"], "takes no --model"),
    (["adjlist", "4", "--w", "7", "--model", "turnstile"], "takes no --model"),
]


@pytest.mark.parametrize("argv, says", GEN_REFUSALS,
                         ids=["_".join(a) for a, _ in GEN_REFUSALS])
def test_gen_refuses_what_it_cannot_write(tmp_path, argv, says):
    out = tmp_path / "g.stream"
    r = run_cli("gen", *argv, "--out", str(out))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and says in r.stderr
    assert not out.exists() and r.stdout == ""


@pytest.mark.parametrize("kind", ["gnp", "path", "cycle", "clique", "dag",
                                  "weighted-gnp", "adjlist"])
def test_gen_writes_every_kind(kind):
    for n in (1, 3, 7):
        r = run_cli("gen", kind, str(n), "--seed", "2")
        assert r.returncode == (2 if kind == "cycle" and n < 3 else 0)


def test_gen_writes_the_flags_it_reads():
    r = run_cli("gen", "weighted-gnp", "6", "--model", "turnstile", "--seed",
                "2", "--source", "2", "--churn", "3", "--query-left", "1,2")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[0] == "n=6 model=turnstile W=4 source=2"
    assert lines[-1] == "U: 1 2"
