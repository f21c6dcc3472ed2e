import argparse
import hashlib
import importlib.resources as resources
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pathabs import Digraph
from pathabs.cli import build_parser, main
from pathabs.formats import serialize_digraph
from pathabs.random import expected_arcs
from pathabs.semirings import REGISTRY


def _fixture_path(name: str) -> str:
    return str(resources.files("pathabs.data").joinpath(name))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_detour_triangle(tmp_path, capsys):
    graph = tmp_path / "tri.edges"
    graph.write_text("1 2\n2 3\n1 3\n")
    code, out, _ = run_cli(capsys, "detour", "--graph", str(graph), "--vertex", "2")
    assert code == 0
    assert out == "n 3\n1 3\n"


def test_pabstract_fidi(capsys):
    code, out, _ = run_cli(
        capsys,
        "pabstract",
        "--graph",
        _fixture_path("fidi.edges"),
        "--labels",
        _fixture_path("fidi.labels"),
        "--keep-colors",
        "1,2,3,4,6,7,8,9,10,11,12",
    )
    assert code == 0
    arcs = [line for line in out.splitlines() if line and not line.startswith(("n ", "vertices", "#"))]
    assert len(arcs) == 27


def test_rand_stats_reference(capsys):
    code, out, _ = run_cli(
        capsys,
        "rand",
        "stats",
        "--n",
        "28",
        "--p",
        "0.05",
        "--blocks",
        "4,3,2,2,1,2,1,2,2,3,2",
    )
    assert code == 0
    assert "expected_arcs 25.9635" in out
    assert "expected_arcs_literal_iterates 27.1786" in out


def test_naive_bypass_gate(tmp_path, capsys):
    graph = tmp_path / "p.edges"
    graph.write_text("1 2\n2 3\n3 4\n")
    code, _, err = run_cli(capsys, "naive-bypass", "--graph", str(graph), "--vertices", "1,4")
    assert code == 1
    assert "unsafe-naive" in err
    code, out, _ = run_cli(
        capsys, "naive-bypass", "--graph", str(graph), "--vertices", "1,4", "--unsafe-naive"
    )
    assert code == 0
    assert out == "vertices 2 3\n2 3\n3 2\n"


def test_paths_subcommand(tmp_path, capsys):
    graph = tmp_path / "d.edges"
    graph.write_text(
        "1 4\n3 5\n4 7\n5 1\n5 6\n6 8\n7 2\n7 8\n1 7\n3 8\n5 2\n"
    )
    code, out, _ = run_cli(capsys, "paths", "--graph", str(graph), "--from", "3", "--to", "2,8")
    assert code == 0
    assert len(out.strip().splitlines()) == 7
    assert "3 5 1 4 7 2" in out



def test_paths_on_a_long_path(tmp_path, capsys):
    graph = tmp_path / "line.edges"
    graph.write_text("".join(f"{v} {v + 1}\n" for v in range(1, 1500)))
    code, out, _ = run_cli(capsys, "paths", "--graph", str(graph), "--from", "1", "--to", "1500")
    assert code == 0
    assert out == " ".join(str(v) for v in range(1, 1501)) + "\n"


def test_bypass_weighted_matches_detour(tmp_path, capsys):
    graph = tmp_path / "w.edges"
    graph.write_text("1 2 3\n2 3 4\n")
    code, out, _ = run_cli(
        capsys, "bypass", "--graph", str(graph), "--vertex", "2", "--semiring", "counting"
    )
    assert code == 0
    assert out == "vertices 1 3\n1 3 12\n"


def test_detour_refuses_an_order_dependent_weighted_fold(tmp_path, capsys):
    graph = tmp_path / "w.edges"
    graph.write_text("1 3 1\n1 5 2\n2 3 2\n3 1 1\n3 5 1\n4 1 3\n4 3 1\n4 5 2\n5 1 3\n5 2 1\n5 4 2\n")
    code, out, err = run_cli(
        capsys, "detour", "--graph", str(graph), "--vertices", "1,2,3", "--semiring", "counting"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("pathabs: error:") and "{1, 3}" in err


@pytest.mark.parametrize(
    "command", [["bypass", "--vertices", "1,2,3"], ["pabstract", "--partition", "blocks.txt"]]
)
def test_bypass_and_pabstract_refuse_an_order_dependent_weighted_fold(tmp_path, capsys, command):
    graph = tmp_path / "w.edges"
    graph.write_text("1 3 1\n1 5 2\n2 3 2\n3 1 1\n3 5 1\n4 1 3\n4 3 1\n4 5 2\n5 1 3\n5 2 1\n5 4 2\n")
    (tmp_path / "blocks.txt").write_text("4\n5\n")
    command = [str(tmp_path / a) if a.endswith(".txt") else a for a in command]
    code, out, err = run_cli(capsys, *command, "--graph", str(graph), "--semiring", "counting")
    assert code == 1
    assert out == ""
    assert err.startswith("pathabs: error:") and "{1, 3}" in err


def test_bypass_sums_the_walks_round_a_dropped_cycle(tmp_path, capsys):
    graph = tmp_path / "w.edges"
    graph.write_text("n 4\n1 2 1\n2 3 0.5\n3 2 0.5\n3 4 1\n")
    code, out, _ = run_cli(capsys, "bypass", "--graph", str(graph), "--semiring", "real", "--vertices", "2,3")
    assert (code, out) == (0, "vertices 1 4\n1 4 0.6666666666666666\n")  # 0.5 / (1 - 0.5 * 0.5)
    # on counting the same shape has infinitely many walks from 1 to 4
    graph.write_text("n 4\n1 2 1\n2 3 1\n3 2 1\n3 4 1\n")
    code, out, err = run_cli(capsys, "bypass", "--graph", str(graph), "--semiring", "counting", "--vertices", "2,3")
    assert (code, out) == (1, "")
    assert err.startswith("pathabs: error: dropped vertices {2, 3} form a cycle") and "has no value" in err


def test_json_graph_input(tmp_path, capsys):
    good = tmp_path / "g.json"
    good.write_text(
        '{"semiring": "counting", "vertices": [1, 2, 3], "arcs": '
        '[{"from": 1, "to": 2, "value": 3}, {"from": 2, "to": 3, "value": 4}]}'
    )
    code, out, _ = run_cli(
        capsys, "bypass", "--graph", str(good), "--vertex", "2", "--semiring", "counting"
    )
    assert code == 0
    assert out == "vertices 1 3\n1 3 12\n"
    # the file's semiring must match --semiring
    code, _, _ = run_cli(capsys, "bypass", "--graph", str(good), "--vertex", "2")
    assert code == 1
    for value in ('"3"', "-5"):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"semiring": "counting", "vertices": [1, 2], "arcs": '
            f'[{{"from": 1, "to": 2, "value": {value}}}]}}'
        )
        code, _, err = run_cli(
            capsys, "detour", "--graph", str(bad), "--vertex", "1", "--semiring", "counting"
        )
        assert code == 1, err
        assert "bad value" in err or "not a JSON number" in err

def test_contract_subcommand(tmp_path, capsys):
    graph = tmp_path / "d.edges"
    graph.write_text("1 2\n2 3\n")
    blocks = tmp_path / "b.txt"
    blocks.write_text("1 3\n")
    code, out, _ = run_cli(capsys, "contract", "--graph", str(graph), "--blocks", str(blocks))
    assert code == 0
    assert out.splitlines()[1:] == ["1 2", "2 1"]


def test_vabstract_subcommand(tmp_path, capsys):
    graph = tmp_path / "d.edges"
    graph.write_text("1 2\n2 3\n3 4\n")
    labels = tmp_path / "l.txt"
    labels.write_text("1 1\n2 2\n3 1\n4 3\n")
    code, out, _ = run_cli(
        capsys, "vabstract", "--graph", str(graph), "--labels", str(labels), "--keep-colors", "1,2"
    )
    assert code == 0
    assert "1 2" in out and "2 1" in out and "# color 1 1" in out
    code, out, _ = run_cli(
        capsys,
        "vabstract",
        "--graph",
        str(graph),
        "--labels",
        str(labels),
        "--keep-colors",
        "1,2",
        "--output-format",
        "json",
    )
    assert code == 0
    import json

    payload = json.loads(out)
    assert payload["colors"] == {"1": 1, "2": 2}


@pytest.mark.parametrize("command", ["pabstract", "vabstract"])
@pytest.mark.parametrize(
    "labels, keep",
    [
        ("1 1\n2 2\n", "1,2"),  # vertices 3 and 4 unlabelled
        ("1 1\n2 2\n3 1\n4 3\n5 2\n", "2"),  # vertex 5 not in the digraph
        ("1 1\n2 2\n3 1\n4 3\n5 2\n", "1"),
    ],
    ids=["missing", "extra-unkept", "extra-kept"],
)
def test_label_file_must_cover_the_vertex_set(tmp_path, capsys, command, labels, keep):
    graph = tmp_path / "d.edges"
    graph.write_text("1 2\n2 3\n3 4\n")
    label_file = tmp_path / "l.txt"
    label_file.write_text(labels)
    code, out, err = run_cli(
        capsys, command, "--graph", str(graph), "--labels", str(label_file), "--keep-colors", keep
    )
    assert code == 1
    assert out == ""
    assert "coloring length must match a digraph on 1..n" in err


@pytest.mark.parametrize("command", ["pabstract", "vabstract"])
def test_empty_kept_color_set_gives_the_empty_digraph(tmp_path, capsys, command):
    graph = tmp_path / "d.edges"
    graph.write_text("1 2\n2 3\n3 4\n")
    label_file = tmp_path / "l.txt"
    label_file.write_text("1 1\n2 2\n3 1\n4 3\n")
    code, out, err = run_cli(
        capsys, command, "--graph", str(graph), "--labels", str(label_file), "--keep-colors", ""
    )
    assert (code, out, err) == (0, "n 0\n", "")


def test_dtcn_subcommands(tmp_path, capsys):
    contacts = _fixture_path("handoff.csv")
    code, out, _ = run_cli(capsys, "dtcn", "fiber", "--contacts", contacts, "--vertex", "4")
    assert code == 0
    assert out.splitlines() == ["-inf", "1.0", "2.0", "4.0", "inf"]

    code, out, _ = run_cli(capsys, "dtcn", "detour", "--contacts", contacts, "--vertices", "4,5")
    assert code == 0
    assert out == "source,target,time\n1,3,4.0\n"

    part = tmp_path / "pi.txt"
    part.write_text("1 2\n3\n")
    code, out, _ = run_cli(
        capsys, "dtcn", "abstract", "--contacts", contacts, "--partition", str(part)
    )
    assert code == 0
    assert out == "source,target,time\n1,3,4.0\n"

    code, out, _ = run_cli(capsys, "dtcn", "tgraph", "--contacts", contacts)
    assert code == 0
    assert '"vertex_count": 18' in out and '"arc_count": 17' in out


def test_dtcn_detour_warns_on_equal_time_chain(tmp_path, capsys):
    contacts = tmp_path / "c.csv"
    contacts.write_text("source,target,time\n1,2,0.5\n2,3,0.5\n")
    code, out, err = run_cli(capsys, "dtcn", "detour", "--contacts", str(contacts), "--vertices", "2")
    assert code == 0
    assert "equal-time chain" in err
    assert out == "source,target,time\n1,3,0.5\n"


def test_dtcn_sample_deterministic(capsys):
    code, first, _ = run_cli(
        capsys, "dtcn", "sample", "--n", "20", "--p", "0.1", "--seed", "5"
    )
    assert code == 0
    code, second, _ = run_cli(
        capsys, "dtcn", "sample", "--n", "20", "--p", "0.1", "--seed", "5"
    )
    assert first == second
    code, third, _ = run_cli(
        capsys, "dtcn", "sample", "--n", "20", "--p", "0.1", "--seed", "6"
    )
    assert third != first


def test_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("PATHABS_SEED", "5")
    code, via_env, _ = run_cli(
        capsys, "dtcn", "sample", "--n", "20", "--p", "0.1", "--seed", "999"
    )
    assert code == 0
    monkeypatch.delenv("PATHABS_SEED")
    code, direct, _ = run_cli(
        capsys, "dtcn", "sample", "--n", "20", "--p", "0.1", "--seed", "5"
    )
    assert via_env == direct


SEEDED_COMMANDS = {
    "rand-mc": ["rand", "mc", "--n", "10", "--p", "0.1", "--trials", "2"],
    "rand-scc": ["rand", "scc", "--n", "50", "--c", "2", "--trials", "1"],
    "dtcn-sample": ["dtcn", "sample", "--n", "5", "--p", "0.1"],
    "check": ["check"],
}


@pytest.mark.parametrize("via", ["--seed", "PATHABS_SEED"])
@pytest.mark.parametrize("command", SEEDED_COMMANDS)
def test_a_negative_seed_exits_1(capsys, monkeypatch, command, via):
    argv = SEEDED_COMMANDS[command]
    if via == "--seed":
        argv = argv + ["--seed", "-1"]
    else:
        monkeypatch.setenv("PATHABS_SEED", "-1")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert f"{via} must be a nonnegative integer, got -1" in err
    assert "internal error" not in err


def test_rand_mc_deterministic(capsys):
    args = ["rand", "mc", "--n", "30", "--p", "0.1", "--trials", "5", "--drop", "3", "--seed", "2"]
    code, first, err1 = run_cli(capsys, *args)
    assert code == 0
    assert first.startswith("trial,frequency\n")
    code, second, _ = run_cli(capsys, *args)
    assert first == second
    fields = err1.split()
    summary = dict(zip(fields[::2], map(float, fields[1::2])))
    assert list(summary) == ["mean", "stddev", "stderr", "predicted"]
    assert summary["stderr"] == pytest.approx(summary["stddev"] / 5**0.5, rel=1e-12)
    assert summary["predicted"] == pytest.approx(expected_arcs(0.1, 30, [1] * 27) / (27 * 26), rel=1e-12)


def test_rand_mc_partition_file(tmp_path, capsys):
    part = tmp_path / "pi.txt"
    part.write_text("1 2\n3\n4 5\n")
    code, out, _ = run_cli(
        capsys,
        "rand", "mc", "--n", "8", "--p", "0.4", "--trials", "6",
        "--partition", str(part), "--seed", "3",
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 7  # header + 6 trials


def test_paths_truncation_marker(tmp_path, capsys):
    graph = tmp_path / "d.edges"
    graph.write_text("1 2\n2 3\n1 3\n")
    code, out, _ = run_cli(
        capsys, "paths", "--graph", str(graph), "--from", "1", "--to", "3", "--max-count", "1"
    )
    assert code == 0
    assert out.splitlines()[-1] == "# truncated"


def test_rand_renorm_csv(capsys):
    code, out, _ = run_cli(
        capsys, "rand", "renorm", "--n", "50", "--c", "1.03", "--add-log-n", "--n-max", "10"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,n,value"
    assert len(lines) == 12
    assert lines[1].startswith("0,50,")


def test_rand_scc(capsys):
    code, out, _ = run_cli(capsys, "rand", "scc", "--c", "2.0")
    assert code == 0
    assert out.startswith("predicted_fraction 0.63")


def test_rand_scc_pinned(capsys):
    code, out, _ = run_cli(capsys, "rand", "scc", "--n", "2000", "--c", "2", "--trials", "20", "--seed", "5")
    assert code == 0
    assert out == "predicted_fraction 0.6349095705467167\nempirical_fraction 0.6365999999999998\n"


@pytest.mark.parametrize(
    "argv",
    [("--n", "0", "--c", "2.0"), ("--n", "3", "--c", "5")],
    ids=["n-zero", "density-above-one"],
)
def test_rand_scc_rejects_bad_model(capsys, argv):
    code, out, err = run_cli(capsys, "rand", "scc", *argv, "--trials", "2")
    assert code == 1
    assert out == ""
    assert "internal error" not in err


@pytest.mark.parametrize("n, c", [("10", "20"), ("1", "2")])
def test_rand_scc_names_c_when_it_exceeds_n(capsys, n, c):
    code, out, err = run_cli(capsys, "rand", "scc", "--n", n, "--c", c, "--trials", "1")
    assert (code, out) == (1, "")
    assert f"c must lie in [0, n] = [0, {n}]" in err
    # without trials only the prediction is printed, as before
    code, out, _ = run_cli(capsys, "rand", "scc", "--n", n, "--c", c, "--trials", "0")
    assert code == 0
    assert out.startswith("predicted_fraction ") and "\n" not in out.rstrip("\n")


def test_validation_exit_codes(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "detour", "--graph", str(tmp_path / "missing"), "--vertex", "1")
    assert code == 1
    bad = tmp_path / "bad.edges"
    bad.write_text("1 1\n")
    code, _, _ = run_cli(capsys, "detour", "--graph", str(bad), "--vertex", "1")
    assert code == 1
    # unknown flags are validation errors too
    code, _, _ = run_cli(capsys, "detour", "--nope")
    assert code == 1


def test_vertex_ids_beyond_int64_exit_1(tmp_path, capsys):
    graph, contacts, blocks = tmp_path / "g.edges", tmp_path / "c.csv", tmp_path / "pi.txt"
    graph.write_text("vertices 1 18446744073709551617\n")
    contacts.write_text("source,target,time\n1,18446744073709551617,0.5\n")
    blocks.write_text("1\n")
    for argv, where in [
        (("pabstract", "--graph", str(graph), "--partition", str(blocks)), "line 1"),
        (("dtcn", "detour", "--contacts", str(contacts), "--vertices", "1"), "row 2"),
    ]:
        code, _, err = run_cli(capsys, *argv)
        assert code == 1 and f"error: {where}: vertex ids are at most" in err


def test_readers_refuse_a_vertex_range_they_cannot_hold(tmp_path):
    # under a 1 GiB address-space cap a reader that built the range 1..10**10 would fail with a MemoryError
    src, big = str(Path(__file__).resolve().parents[1] / "src"), 10**10
    capped = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
              f"sys.path.insert(0, {src!r}); from pathabs.cli import main; sys.exit(main(sys.argv[1:]))")
    for name, text, argv, where in [
        ("n.edges", f"n {big}\n1 2\n", "bypass --vertex 1 --graph", "line 1"),
        ("top.edges", f"1 2\n2 {big}\n", "bypass --vertex 1 --graph", "line 2"),
        ("top.csv", f"from,to,value\n1,2,1\n{big},1,1\n", "bypass --vertex 1 --graph", "row 3"),
        ("c.csv", f"source,target,time\n1,2,0.5\n1,{big},0.5\n", "dtcn detour --vertices 1 --contacts", "row 3"),
        ("g.labels", f"1 1\n{big} 2\n", f"pabstract --graph {_fixture_path('fidi.edges')} --keep-colors 1 --labels", "line 2"),
    ]:
        (tmp_path / name).write_text(text)
        proc = subprocess.run([sys.executable, "-c", capped, *argv.split(), name],
                              capture_output=True, text=True, cwd=tmp_path, timeout=120)
        expected = f"pathabs: error: {where}: the vertex range 1..{big} is over the limit of 10000000 vertices\n"
        assert (proc.returncode, proc.stderr) == (1, expected), (argv, proc.stderr[:300])


def test_random_commands_refuse_a_vertex_count_past_the_range_limit(tmp_path):
    # the readers' limit holds for --n too, checked before a sampler or a partition of 1..n is built;
    # under a 1 GiB address-space cap building either would fail with a MemoryError
    src, big = str(Path(__file__).resolve().parents[1] / "src"), 10**10
    capped = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
              f"sys.path.insert(0, {src!r}); from pathabs.cli import main; sys.exit(main(sys.argv[1:]))")
    (tmp_path / "p.txt").write_text("1\n2\n")
    for argv in [
        f"rand mc --n {big} --p 1e-12 --trials 1 --drop 0",
        f"rand mc --n {big} --p 1e-12 --trials 1 --partition p.txt",
        f"rand scc --n {big} --c 2 --trials 1",
        f"rand scc --n {big} --c 2",
        f"dtcn sample --n {big} --p 1e-12",
    ]:
        proc = subprocess.run([sys.executable, "-c", capped, *argv.split()],
                              capture_output=True, text=True, cwd=tmp_path, timeout=120)
        expected = f"pathabs: error: --n: the vertex range 1..{big} is over the limit of 10000000 vertices\n"
        assert (proc.returncode, proc.stderr) == (1, expected), (argv, proc.stderr[:300])


def test_an_oversized_csv_cell_exits_1(tmp_path, capsys):
    huge = "9" * 131_073
    contacts, graph = tmp_path / "c.csv", tmp_path / "x.csv"
    contacts.write_text(f"source,target,time\n1,2,0.5\n1,{huge},0.5\n")
    graph.write_text(f"from,to,value\n1,{huge},1\n")
    for argv in [
        ("dtcn", "detour", "--contacts", str(contacts), "--vertices", "1"),
        ("bypass", "--graph", str(graph), "--vertex", "1"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "" and "internal error" not in err
        assert "field larger than field limit (131072)" in err


def test_output_file(tmp_path, capsys):
    graph = tmp_path / "tri.edges"
    graph.write_text("1 2\n2 3\n1 3\n")
    target = tmp_path / "out.edges"
    code, out, _ = run_cli(
        capsys, "bypass", "--graph", str(graph), "--vertex", "2", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == "vertices 1 3\n1 3\n"


def test_vabstract_compact_ids_renumber_the_colors(tmp_path, capsys):
    graph = tmp_path / "d.edges"
    graph.write_text("1 2\n2 3\n3 4\n")
    labels = tmp_path / "l.txt"
    labels.write_text("1 1\n2 2\n3 1\n4 3\n")
    code, out, _ = run_cli(
        capsys, "vabstract", "--graph", str(graph), "--labels", str(labels),
        "--keep-colors", "2,3", "--compact-ids",
    )
    assert code == 0
    assert out == "n 2\n# color 1 2\n# color 2 3\n"


@pytest.mark.parametrize("fmt", ["edgelist", "csv", "json"])
@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_every_output_format_reads_back(tmp_path, capsys, fmt, name):
    semiring = REGISTRY[name]
    value = semiring.parse_value({"boolean": "1", "counting": "3"}.get(name, "1.25"))
    arcs = {arc: value for arc in [(1, 3), (3, 4), (2, 3), (4, 6), (6, 1), (2, 9)]}
    # a merged block, gaps at 5, 7 and 8 (and at 3 after the bypass), isolated top vertex 10
    source = Digraph(frozenset({1, 2, 3, 4, 6, 9, 10}), arcs, semiring, {2: frozenset({2, 5})})
    graph = tmp_path / "in.json"
    graph.write_text(serialize_digraph(source, "json"))
    written = tmp_path / f"g.{fmt}"
    bypass = ["bypass", "--vertex", "3", "--semiring", name, "--output-format", fmt]
    code, expected, err = run_cli(capsys, *bypass, "--graph", str(graph))
    assert code == 0, err
    code, _, err = run_cli(capsys, *bypass, "--graph", str(graph), "--output", str(written))
    assert (code, written.read_text()) == (0, expected), err
    empty = tmp_path / "none.txt"
    empty.write_text("")
    code, out, err = run_cli(
        capsys, "contract", "--graph", str(written), "--blocks", str(empty),
        "--semiring", name, "--output-format", fmt,
    )
    assert (code, out) == (0, expected), err
    assert ('"2": [' in out) == (fmt == "json")


@pytest.mark.parametrize("fmt", ["edgelist", "csv", "json"])
@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_pabstract_output_reads_back(tmp_path, capsys, fmt, name):
    semiring = REGISTRY[name]
    value = semiring.parse_value({"boolean": "1", "counting": "3"}.get(name, "1.25"))
    arcs = {arc: value for arc in [(1, 3), (3, 4), (2, 3), (4, 6), (6, 1), (2, 9), (9, 4)]}
    # a merged block and gaps at 5, 7 and 8; 3 is bypassed and 10 is outside the support
    source = Digraph(frozenset({1, 2, 3, 4, 6, 9, 10}), arcs, semiring, {2: frozenset({2, 5})})
    graph = tmp_path / "in.json"
    graph.write_text(serialize_digraph(source, "json"))
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("1 6\n2 9\n4\n")
    written = tmp_path / f"g.{fmt}"
    code, _, err = run_cli(
        capsys, "pabstract", "--graph", str(graph), "--partition", str(blocks),
        "--semiring", name, "--output-format", fmt, "--output", str(written),
    )
    assert code == 0, err
    empty = tmp_path / "none.txt"
    empty.write_text("")
    code, out, err = run_cli(
        capsys, "contract", "--graph", str(written), "--blocks", str(empty),
        "--semiring", name, "--output-format", fmt,
    )
    assert (code, out) == (0, written.read_text()), err
    # 1 -> 3 -> 4, and 2 -> 3 -> 4 beside 9 -> 4, pass through the bypassed 3
    add, mul = semiring.add, semiring.mul
    merged = {1: frozenset({1, 6}), 2: frozenset({2, 5, 9})}
    arcs = {(1, 4): mul(value, value), (2, 4): add(value, mul(value, value)), (4, 1): value}
    assert out == serialize_digraph(Digraph(frozenset({1, 2, 4}), arcs, semiring, merged), fmt)


@pytest.mark.parametrize(
    "argv",
    [
        ["detour", "--vertex", "2", "--vertices", "3"],
        ["bypass", "--vertex", "2", "--vertices", "3"],
        ["pabstract", "--partition", "p.txt", "--labels", "l.txt", "--keep-colors", "1"],
        ["pabstract", "--partition", "p.txt", "--keep-colors", "1"],
        ["rand", "mc", "--n", "5", "--p", "0.5", "--trials", "1", "--drop", "2", "--partition", "p.txt"],
    ],
    ids=["detour", "bypass", "pabstract", "pabstract-keep-colors", "rand-mc"],
)
def test_conflicting_selectors_exit_1(tmp_path, capsys, argv):
    graph = tmp_path / "tri.edges"
    graph.write_text("1 2\n2 3\n3 4\n")
    (tmp_path / "p.txt").write_text("1\n4\n")
    (tmp_path / "l.txt").write_text("1 1\n2 2\n3 2\n4 1\n")
    argv = [str(tmp_path / a) if a.endswith(".txt") else a for a in argv]
    if argv[0] != "rand":
        argv += ["--graph", str(graph)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert "not allowed with" in err or "pass --partition, or --labels with --keep-colors" in err


_GRAPH_IN = {"--output", "--semiring"}
_GRAPH_IO = _GRAPH_IN | {"--output-format", "--compact-ids"}
COMMON_OPTIONS = {
    "contract": _GRAPH_IO,
    "vabstract": _GRAPH_IO,
    "detour": _GRAPH_IO,
    "bypass": _GRAPH_IO,
    "pabstract": _GRAPH_IO,
    "naive-bypass": _GRAPH_IO,
    "paths": _GRAPH_IN,
    "rand stats": {"--output"},
    "rand mc": {"--output", "--seed"},
    "rand renorm": {"--output"},
    "rand scc": {"--output", "--seed"},
    "dtcn fiber": {"--output"},
    "dtcn tgraph": {"--output"},
    "dtcn detour": {"--output"},
    "dtcn abstract": {"--output"},
    "dtcn sample": {"--output", "--seed"},
    "check": {"--seed"},
}


def _subcommands(parser, prefix=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _subcommands(sub, prefix + (name,))
            return
    yield " ".join(prefix), parser


def test_each_subcommand_takes_only_the_common_options_it_reads():
    common = set().union(*COMMON_OPTIONS.values())
    table = {
        name: {o for action in p._actions for o in action.option_strings} & common
        for name, p in _subcommands(build_parser())
    }
    assert table == COMMON_OPTIONS
    assert sum(map(len, table.values())) == 39  # five on each of 17 subcommands gave 85


def test_unread_options_are_refused(tmp_path, capsys, monkeypatch):
    code, _, err = run_cli(
        capsys, "rand", "renorm", "--n", "50", "--c", "1.03", "--n-max", "10", "--semiring", "x"
    )
    assert code == 1 and "--semiring" in err
    code, _, _ = run_cli(capsys, "check", "--output", str(tmp_path / "f"))
    assert code == 1
    # PATHABS_SEED is read only where a seed is
    monkeypatch.setenv("PATHABS_SEED", "abc")
    graph = tmp_path / "tri.edges"
    graph.write_text("1 2\n2 3\n")
    code, out, _ = run_cli(capsys, "detour", "--graph", str(graph), "--vertex", "2")
    assert (code, out) == (0, "n 3\n1 3\n")
    code, _, err = run_cli(capsys, "rand", "mc", "--n", "5", "--p", "0.5", "--trials", "1")
    assert code == 1 and "PATHABS_SEED" in err


@pytest.mark.parametrize(
    "mode, seed, digest",
    [
        ("uniform", "5", "f5a9bb3ade850e7a4a7cbe4f10c54f1a571f0ab45208b3e75574e580711da0f1"),
        ("uniform", "6", "48e9f9d7f67259ca65883f62dfd871ea568f349e225bebc2872fb9639e3ed3ca"),
        ("poisson", "5", "5e759df9cf9ea4d3dff50719ae63ea2aceaddb0b2cd7b9b8c97354bf6438eeee"),
        ("poisson", "6", "16d0537e1bbaa19469c4026fb4a031f6d70bbbdd5bc166e9c4963df95bf85dc0"),
    ],
)
def test_dtcn_sample_output_is_pinned(capsys, mode, seed, digest):
    # the sampler's draws and the writer's bytes: a change to either shows here
    code, out, _ = run_cli(
        capsys, "dtcn", "sample", "--n", "60", "--p", "0.05", "--mode", mode, "--seed", seed
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "pathabs", "dtcn", "sample", "--n", "10", "--p", "0.3", "--seed", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("source,target,time\n")
