"""Command-line interface: one subcommand per operation family.

Exit status: 0 on success, 1 on any validation problem (bad flags, malformed
files, domain errors), 2 on an internal invariant violation.  Identical
inputs and seed produce byte-identical output.

Each subcommand takes only the options it reads.  Those that read a digraph
take ``--graph`` and ``--semiring``; the file suffix picks the reader
(``.json``, ``.csv``, otherwise edge list), so every ``--output-format`` reads
back.  Those that write a digraph take ``--output-format`` and
``--compact-ids``.  Those that draw random numbers (``rand mc``, ``rand scc``,
``dtcn sample``, ``check``) take ``--seed``, a nonnegative integer, which
the PATHABS_SEED environment variable overrides.  All but ``check`` take ``--output``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import formats, pabstract, temporal, vabstract
from . import random as randdg
from .digraph import DigraphError, contract_blocks, enumerate_paths, vertex_ids
from .partitions import PartialPartition, PartitionError, partition_from_labels
from .semirings import SemiringError, get_semiring
from .temporal import TemporalError


class CliError(ValueError):
    pass


VALIDATION_ERRORS = (
    CliError,
    DigraphError,
    PartitionError,
    SemiringError,
    TemporalError,
    formats.ParseError,
    randdg.RandomModelError,
    OSError,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract reserves 2 for
    # internal invariant violations, so downgrade usage errors to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_graph_input(p: argparse.ArgumentParser):
    p.add_argument("--graph", required=True, help=".json, .csv, or otherwise an edge list")
    p.add_argument("--semiring", default="boolean", help="arc value semiring")


def _add_graph_output(p: argparse.ArgumentParser):
    p.add_argument("--output-format", default="edgelist", choices=["edgelist", "json", "csv"])
    p.add_argument("--compact-ids", action="store_true", help="renumber the vertices 1..k")


def _add_seed(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0, help="a nonnegative integer; overridden by PATHABS_SEED")


def _seed(args) -> int:
    env = os.environ.get("PATHABS_SEED")
    if env is None:
        seed, source = args.seed, "--seed"
    else:
        try:
            seed, source = int(env), "PATHABS_SEED"
        except ValueError:
            raise CliError(f"PATHABS_SEED must be a nonnegative integer, got {env!r}") from None
    if seed < 0:
        raise CliError(f"{source} must be a nonnegative integer, got {seed}")
    return seed


def _emit(text: str, args) -> None:
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_graph(args):
    semiring = get_semiring(args.semiring)
    text, suffix = _read(args.graph), Path(args.graph).suffix
    if suffix == ".csv":
        return formats.parse_digraph_csv(text, semiring)
    if suffix != ".json":
        return formats.parse_digraph(text, semiring)
    d = formats.parse_digraph_json(text)
    if d.semiring.name != semiring.name:
        raise CliError(
            f"{args.graph} holds a {d.semiring.name} digraph; pass --semiring {d.semiring.name}"
        )
    return d


def _emit_graph(d, args) -> None:
    _emit(formats.serialize_digraph(d, args.output_format, args.compact_ids), args)


def _int_list(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t != ""]
    except ValueError:
        raise CliError(f"expected a comma-separated integer list, got {text!r}") from None


def _vertex_args(args) -> list[int]:
    return [args.vertex] if args.vertex is not None else _int_list(args.vertices)


# -- subcommand bodies -------------------------------------------------------


def _cmd_contract(args):
    d = _load_graph(args)
    blocks = formats.parse_partition(_read(args.blocks), n=max(d.vertices, default=0))
    _emit_graph(contract_blocks(d, list(blocks.blocks)), args)


def _cmd_vabstract(args):
    d = _load_graph(args)
    coloring = formats.parse_labels(_read(args.labels))
    cd = vabstract.ColoredDigraph.from_coloring(d, coloring)
    result = vabstract.vertex_abstract(cd, _int_list(args.keep_colors))
    body = formats.serialize_digraph(result.digraph, args.output_format, args.compact_ids)
    # --compact-ids numbers the vertices by rank, so the colors follow suit.
    colors = {
        (rank if args.compact_ids else v): result.colors[v]
        for rank, v in enumerate(sorted(result.colors), start=1)
    }
    if args.output_format == "edgelist":
        body += "".join(f"# color {v} {c}\n" for v, c in colors.items())
    elif args.output_format == "json":
        payload = json.loads(body)
        payload["colors"] = {str(v): c for v, c in colors.items()}
        body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _emit(body, args)


def _cmd_detour(args):
    d = _load_graph(args)
    _emit_graph(pabstract.detour_set(d, _vertex_args(args)), args)


def _cmd_bypass(args):
    d = _load_graph(args)
    _emit_graph(pabstract.bypass_set(d, _vertex_args(args)), args)


def _cmd_pabstract(args):
    d = _load_graph(args)
    if args.partition and args.keep_colors is None:
        pi = formats.parse_partition(_read(args.partition), n=max(d.vertices, default=0))
    elif args.labels and args.keep_colors is not None:
        coloring = formats.parse_labels(_read(args.labels))
        if coloring.n != d.n or vertex_ids(d.vertices) is not None:  # labels must cover exactly 1..n
            raise PartitionError("coloring length must match a digraph on 1..n")
        pi = partition_from_labels(coloring, _int_list(args.keep_colors))
    else:
        raise CliError("pass --partition, or --labels with --keep-colors")
    _emit_graph(pabstract.path_abstract(d, pi), args)


def _cmd_naive_bypass(args):
    if not args.unsafe_naive:
        raise CliError(
            "naive-bypass reproduces a known-wrong construction; "
            "pass --unsafe-naive to run it anyway"
        )
    d = _load_graph(args)
    _emit_graph(pabstract.naive_bypass(d, _int_list(args.vertices)), args)


def _cmd_paths(args):
    d = _load_graph(args)
    result = enumerate_paths(
        d,
        _int_list(args.sources),
        _int_list(args.targets),
        max_len=args.max_len,
        max_count=args.max_count,
    )
    lines = [" ".join(str(v) for v in path) for path in result.paths]
    if result.truncated:
        lines.append("# truncated")
    _emit("\n".join(lines) + "\n" if lines else "", args)


def _cmd_rand_stats(args):
    sizes = _int_list(args.blocks)
    dropped = args.n - sum(sizes)
    # The published reference constants use one fewer survival composition
    # than the dropped-vertex count; stats mirrors them so figures reproduce.
    iterations = max(dropped - 1, 0)
    q = randdg.arc_survival_iterate(args.p, iterations)
    expected = randdg.expected_arcs(args.p, args.n, sizes, survival_iterations=iterations)
    literal = randdg.expected_arcs(args.p, args.n, sizes)
    lines = [
        f"n {args.n}",
        f"p {args.p!r}",
        f"dropped {dropped}",
        f"survival {q!r}",
        f"expected_arcs {expected:.4f}",
        f"expected_arcs_literal_iterates {literal:.4f}",
    ]
    _emit("\n".join(lines) + "\n", args)


def _cmd_rand_mc(args):
    formats.require_range(args.n, "--n")  # before a sampler or a partition of 1..n is built
    if args.partition:
        pi = formats.parse_partition(_read(args.partition), n=args.n)
    else:
        drop = args.drop or 0
        if not 0 <= drop < args.n:
            raise CliError("--drop must lie in [0, n)")
        pi = PartialPartition(args.n, [{v} for v in range(1, args.n - drop + 1)])
    model = randdg.GnpModel(args.n, args.p)
    summary = randdg.monte_carlo_abstraction(model, pi, args.trials, _seed(args))
    rows = ["trial,frequency"]
    rows += [f"{t},{f!r}" for t, f in enumerate(summary.frequencies)]
    _emit("\n".join(rows) + "\n", args)
    m = len(pi.blocks)
    predicted = randdg.expected_arcs(args.p, args.n, [len(b) for b in pi.blocks]) / (m * (m - 1))
    print(
        f"mean {summary.mean!r} stddev {summary.stddev!r} "
        f"stderr {summary.standard_error()!r} predicted {predicted!r}",
        file=sys.stderr,
    )


def _cmd_rand_renorm(args):
    rows = randdg.renormalization_grid(args.n, args.c, args.add_log_n, args.n_max)
    body = "N,n,value\n" + "".join(f"{N},{args.n},{value!r}\n" for N, value in rows)
    _emit(body, args)


def _cmd_rand_scc(args):
    formats.require_range(args.n, "--n")  # before a sampler or a partition of 1..n is built
    lines = [f"predicted_fraction {randdg.giant_scc_fraction(args.c)!r}"]
    if args.trials:
        emp = randdg.largest_scc_fraction_mc(args.n, args.c, args.trials, _seed(args))
        lines.append(f"empirical_fraction {emp!r}")
    _emit("\n".join(lines) + "\n", args)


def _cmd_dtcn_fiber(args):
    d = formats.parse_contacts(_read(args.contacts))
    fiber = temporal.temporal_fiber(d, args.vertex)
    _emit("\n".join(repr(t) for t in fiber) + "\n", args)


def _cmd_dtcn_tgraph(args):
    d = formats.parse_contacts(_read(args.contacts))
    t = temporal.build_temporal_digraph(d)

    def layer(pair):
        v, tau = pair
        return [v, repr(tau)]

    payload = {
        "layers": [layer(p) for p in t.layers],
        "spatial": sorted([layer(a), layer(b)] for a, b in t.spatial_arcs),
        "temporal": sorted([layer(a), layer(b)] for a, b in t.temporal_arcs),
        "vertex_count": t.vertex_count,
        "arc_count": t.arc_count,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args)


def _cmd_dtcn_detour(args):
    d = formats.parse_contacts(_read(args.contacts))
    for a, b in temporal.lint_equal_time_chains(d):
        print(f"warning: equal-time chain {a} -> {b}", file=sys.stderr)
    out = temporal.dtcn_detour(d, _int_list(args.vertices))
    _emit(formats.serialize_contacts(out), args)


def _cmd_dtcn_abstract(args):
    d = formats.parse_contacts(_read(args.contacts))
    pi = formats.parse_partition(_read(args.partition), n=max(d.vertices))
    out = temporal.dtcn_path_abstract(d, pi)
    _emit(formats.serialize_contacts(out), args)


def _cmd_dtcn_sample(args):
    formats.require_range(args.n, "--n")  # before a sampler or a partition of 1..n is built
    out = temporal.sample_dtcn(args.n, args.p, args.mode, _seed(args), args.max_retries)
    _emit(formats.serialize_contacts(out), args)


def _cmd_check(args):
    from .checks import run_checks

    failures = run_checks(seed=_seed(args), out=sys.stdout)
    if failures:
        raise SystemExit(2)


# -- parser wiring ------------------------------------------------------------


def _command(subparsers, name: str, func, help: str, *options):
    """A subcommand that writes to ``--output``, with the option groups it reads."""
    p = subparsers.add_parser(name, help=help)
    p.set_defaults(func=func)
    p.add_argument("--output", default=None, help="output file (default stdout)")
    for add in options:
        add(p)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pathabs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    graph_io = (_add_graph_input, _add_graph_output)

    p = _command(sub, "contract", _cmd_contract, "merge vertex blocks", *graph_io)
    p.add_argument("--blocks", required=True, help="partition file, one block per line")

    p = _command(
        sub, "vabstract", _cmd_vabstract, "keep chosen colors, merge same-colored vertices",
        *graph_io,
    )
    p.add_argument("--labels", required=True)
    p.add_argument("--keep-colors", required=True)

    for name, func, help in (
        ("detour", _cmd_detour, "rewire around vertices, keeping them"),
        ("bypass", _cmd_bypass, "detour then delete"),
    ):
        p = _command(sub, name, func, help, *graph_io)
        one_of = p.add_mutually_exclusive_group(required=True)
        one_of.add_argument("--vertex", type=int)
        one_of.add_argument("--vertices")

    p = _command(
        sub, "pabstract", _cmd_pabstract, "bypass outside a partition, contract its blocks",
        *graph_io,
    )
    one_of = p.add_mutually_exclusive_group()
    one_of.add_argument("--partition")
    one_of.add_argument("--labels")
    p.add_argument("--keep-colors")

    p = _command(
        sub, "naive-bypass", _cmd_naive_bypass, "the known-wrong bypass, for comparison only",
        *graph_io,
    )
    p.add_argument("--vertices", required=True)
    p.add_argument("--unsafe-naive", action="store_true")

    p = _command(sub, "paths", _cmd_paths, "simple paths between vertex sets", _add_graph_input)
    p.add_argument("--from", dest="sources", required=True)
    p.add_argument("--to", dest="targets", required=True)
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--max-count", type=int, default=10**6)

    rand = sub.add_parser("rand", help="random digraph statistics")
    randsub = rand.add_subparsers(dest="rand_command", required=True)

    p = _command(randsub, "stats", _cmd_rand_stats, "closed-form expected arcs of an abstraction")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--blocks", required=True, help="comma-separated block sizes")

    p = _command(randsub, "mc", _cmd_rand_mc, "Monte Carlo abstraction frequencies", _add_seed)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    one_of = p.add_mutually_exclusive_group()
    one_of.add_argument("--drop", type=int, default=None, help="bypass this many vertices")
    one_of.add_argument("--partition", default=None)

    p = _command(randsub, "renorm", _cmd_rand_renorm, "log[(n-N) * iterated survival] grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--add-log-n", action="store_true")
    p.add_argument("--n-max", type=int, required=True)

    p = _command(
        randsub, "scc", _cmd_rand_scc, "giant strong component prediction vs sampling", _add_seed
    )
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--trials", type=int, default=0)

    dt = sub.add_parser("dtcn", help="directed temporal contact networks")
    dtsub = dt.add_subparsers(dest="dtcn_command", required=True)

    p = _command(dtsub, "fiber", _cmd_dtcn_fiber, "contact times at a vertex, with sentinels")
    p.add_argument("--contacts", required=True)
    p.add_argument("--vertex", type=int, required=True)

    p = _command(dtsub, "tgraph", _cmd_dtcn_tgraph, "layered temporal digraph as JSON")
    p.add_argument("--contacts", required=True)

    p = _command(dtsub, "detour", _cmd_dtcn_detour, "bypass vertices inside the layered digraph")
    p.add_argument("--contacts", required=True)
    p.add_argument("--vertices", required=True)

    p = _command(dtsub, "abstract", _cmd_dtcn_abstract, "temporal path abstraction")
    p.add_argument("--contacts", required=True)
    p.add_argument("--partition", required=True)

    p = _command(dtsub, "sample", _cmd_dtcn_sample, "sample a random contact network", _add_seed)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--mode", choices=["uniform", "poisson"], default="uniform")
    p.add_argument("--max-retries", type=int, default=0)

    p = sub.add_parser("check", help="run the property suites headlessly")
    p.set_defaults(func=_cmd_check)
    _add_seed(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except VALIDATION_ERRORS as exc:
        print(f"pathabs: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal invariant violation
        print(f"pathabs: internal error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
