"""Command-line interface: one subcommand per operation family.

Exit status: 0 on success, 1 on any validation problem (bad flags, malformed
files, domain errors), 2 on an internal invariant violation.  Identical
inputs and seed produce byte-identical output.  The PATHABS_SEED environment
variable overrides the configured seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import formats, pabstract, temporal, vabstract
from . import random as randdg
from .digraph import DigraphError, contract_blocks, delete_vertices, enumerate_paths
from .partitions import PartitionError, partition_from_labels
from .semirings import SemiringError, get_semiring
from .temporal import TemporalError


@dataclass
class RunConfig:
    seed: int = 0
    semiring: str = "boolean"
    output_format: str = "edgelist"
    compact_ids: bool = False


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
        raise SystemExit(self._usage_exit(message))

    def _usage_exit(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return 1


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--semiring", default="boolean", help="arc value semiring")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None, help="output file (default stdout)")
    p.add_argument("--output-format", default="edgelist", choices=["edgelist", "json", "csv"])
    p.add_argument("--compact-ids", action="store_true")


def _config(args) -> RunConfig:
    seed = args.seed
    env = os.environ.get("PATHABS_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise CliError(f"PATHABS_SEED must be an integer, got {env!r}") from None
    return RunConfig(
        seed=seed,
        semiring=getattr(args, "semiring", "boolean"),
        output_format=getattr(args, "output_format", "edgelist"),
        compact_ids=getattr(args, "compact_ids", False),
    )


def _emit(text: str, args) -> None:
    output = getattr(args, "output", None)
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_graph(args, config: RunConfig):
    semiring = get_semiring(config.semiring)
    if not args.graph.endswith(".json"):
        return formats.parse_digraph(_read(args.graph), semiring)
    d = formats.parse_digraph_json(_read(args.graph))
    if d.semiring.name != semiring.name:
        raise CliError(
            f"{args.graph} holds a {d.semiring.name} digraph; pass --semiring {d.semiring.name}"
        )
    return d


def _emit_graph(d, args, config: RunConfig) -> None:
    _emit(formats.serialize_digraph(d, config.output_format, config.compact_ids), args)


def _int_list(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t != ""]
    except ValueError:
        raise CliError(f"expected a comma-separated integer list, got {text!r}") from None


def _vertex_args(args) -> list[int]:
    if getattr(args, "vertices", None):
        return _int_list(args.vertices)
    if getattr(args, "vertex", None) is not None:
        return [args.vertex]
    raise CliError("pass --vertex or --vertices")


# -- subcommand bodies -------------------------------------------------------


def _cmd_contract(args):
    config = _config(args)
    d = _load_graph(args, config)
    blocks = formats.parse_partition(_read(args.blocks), n=max(d.vertices, default=0))
    _emit_graph(contract_blocks(d, list(blocks.blocks)), args, config)


def _cmd_vabstract(args):
    config = _config(args)
    d = _load_graph(args, config)
    coloring = formats.parse_labels(_read(args.labels))
    cd = vabstract.ColoredDigraph.from_coloring(d, coloring)
    result = vabstract.vertex_abstract(cd, _int_list(args.keep_colors))
    body = formats.serialize_digraph(result.digraph, config.output_format, config.compact_ids)
    if config.output_format == "edgelist":
        body += "".join(f"# color {v} {result.colors[v]}\n" for v in sorted(result.colors))
    elif config.output_format == "json":
        import json as _json

        payload = _json.loads(body)
        payload["colors"] = {str(v): result.colors[v] for v in sorted(result.colors)}
        body = _json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _emit(body, args)


def _detour_any(d, vs):
    """Boolean detours on boolean input, weighted detours on any other semiring."""
    if d.semiring.name == "boolean":
        return pabstract.detour_set(d, vs)
    from .weighted import weighted_detour_set

    return weighted_detour_set(d, vs)


def _cmd_detour(args):
    config = _config(args)
    d = _load_graph(args, config)
    _emit_graph(_detour_any(d, _vertex_args(args)), args, config)


def _cmd_bypass(args):
    config = _config(args)
    d = _load_graph(args, config)
    vs = _vertex_args(args)
    _emit_graph(delete_vertices(_detour_any(d, vs), vs), args, config)


def _cmd_pabstract(args):
    config = _config(args)
    d = _load_graph(args, config)
    if args.partition:
        pi = formats.parse_partition(_read(args.partition), n=max(d.vertices, default=0))
    elif args.labels and args.keep_colors is not None:
        coloring = formats.parse_labels(_read(args.labels))
        vabstract.ColoredDigraph.from_coloring(d, coloring)  # labels must cover exactly 1..n
        pi = partition_from_labels(coloring, _int_list(args.keep_colors))
    else:
        raise CliError("pass --partition, or --labels with --keep-colors")
    _emit_graph(pabstract.path_abstract(d, pi), args, config)


def _cmd_naive_bypass(args):
    if not args.unsafe_naive:
        raise CliError(
            "naive-bypass reproduces a known-wrong construction; "
            "pass --unsafe-naive to run it anyway"
        )
    config = _config(args)
    d = _load_graph(args, config)
    _emit_graph(pabstract.naive_bypass(d, _int_list(args.vertices)), args, config)


def _cmd_paths(args):
    config = _config(args)
    d = _load_graph(args, config)
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
    _config(args)
    sizes = _int_list(args.blocks)
    dropped = args.dropped
    if dropped is None:
        dropped = args.n - sum(sizes)
    if args.n - sum(sizes) != dropped:
        raise CliError(
            f"--dropped {dropped} disagrees with n minus total block size "
            f"({args.n} - {sum(sizes)})"
        )
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
    config = _config(args)
    from .partitions import PartialPartition

    if args.partition:
        pi = formats.parse_partition(_read(args.partition), n=args.n)
    else:
        drop = args.drop or 0
        if not 0 <= drop < args.n:
            raise CliError("--drop must lie in [0, n)")
        pi = PartialPartition(args.n, [{v} for v in range(1, args.n - drop + 1)])
    model = randdg.GnpModel(args.n, args.p)
    summary = randdg.monte_carlo_abstraction(model, pi, args.trials, config.seed)
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
    _config(args)
    rows = randdg.renormalization_grid(args.n, args.c, args.add_log_n, args.n_max)
    body = "N,n,value\n" + "".join(f"{N},{args.n},{value!r}\n" for N, value in rows)
    _emit(body, args)


def _cmd_rand_scc(args):
    config = _config(args)
    lines = [f"predicted_fraction {randdg.giant_scc_fraction(args.c)!r}"]
    if args.trials:
        emp = randdg.largest_scc_fraction_mc(args.n, args.c, args.trials, config.seed)
        lines.append(f"empirical_fraction {emp!r}")
    _emit("\n".join(lines) + "\n", args)


def _cmd_dtcn_fiber(args):
    _config(args)
    d = formats.parse_contacts(_read(args.contacts))
    fiber = temporal.temporal_fiber(d, args.vertex)
    _emit("\n".join(repr(t) for t in fiber) + "\n", args)


def _cmd_dtcn_tgraph(args):
    _config(args)
    import json as _json

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
    _emit(_json.dumps(payload, indent=2) + "\n", args)


def _cmd_dtcn_detour(args):
    _config(args)
    d = formats.parse_contacts(_read(args.contacts))
    for a, b in temporal.lint_equal_time_chains(d):
        print(f"warning: equal-time chain {a} -> {b}", file=sys.stderr)
    out = temporal.dtcn_detour(d, _int_list(args.vertices))
    _emit(formats.serialize_contacts(out), args)


def _cmd_dtcn_abstract(args):
    _config(args)
    d = formats.parse_contacts(_read(args.contacts))
    pi = formats.parse_partition(_read(args.partition), n=max(d.vertices))
    out = temporal.dtcn_path_abstract(d, pi)
    _emit(formats.serialize_contacts(out), args)


def _cmd_dtcn_sample(args):
    config = _config(args)
    out = temporal.sample_dtcn(args.n, args.p, args.mode, config.seed, args.max_retries)
    _emit(formats.serialize_contacts(out), args)


def _cmd_check(args):
    from .checks import run_checks

    config = _config(args)
    failures = run_checks(seed=config.seed, out=sys.stdout)
    if failures:
        raise SystemExit(2)


# -- parser wiring ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pathabs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("contract", help="merge vertex blocks")
    _add_common(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--blocks", required=True, help="partition file, one block per line")
    p.set_defaults(func=_cmd_contract)

    p = sub.add_parser("vabstract", help="keep chosen colors, merge same-colored vertices")
    _add_common(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--keep-colors", required=True)
    p.set_defaults(func=_cmd_vabstract)

    p = sub.add_parser("detour", help="rewire around vertices, keeping them")
    _add_common(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--vertex", type=int)
    p.add_argument("--vertices")
    p.set_defaults(func=_cmd_detour)

    p = sub.add_parser("bypass", help="detour then delete")
    _add_common(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--vertex", type=int)
    p.add_argument("--vertices")
    p.set_defaults(func=_cmd_bypass)

    p = sub.add_parser("pabstract", help="bypass outside a partition, contract its blocks")
    _add_common(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--partition")
    p.add_argument("--labels")
    p.add_argument("--keep-colors")
    p.set_defaults(func=_cmd_pabstract)

    p = sub.add_parser("naive-bypass", help="the known-wrong bypass, for comparison only")
    _add_common(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--vertices", required=True)
    p.add_argument("--unsafe-naive", action="store_true")
    p.set_defaults(func=_cmd_naive_bypass)

    p = sub.add_parser("paths", help="simple paths between vertex sets")
    _add_common(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--from", dest="sources", required=True)
    p.add_argument("--to", dest="targets", required=True)
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--max-count", type=int, default=10**6)
    p.set_defaults(func=_cmd_paths)

    rand = sub.add_parser("rand", help="random digraph statistics")
    randsub = rand.add_subparsers(dest="rand_command", required=True)

    p = randsub.add_parser("stats", help="closed-form expected arcs of an abstraction")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--blocks", required=True, help="comma-separated block sizes")
    p.add_argument("--dropped", type=int, default=None)
    p.set_defaults(func=_cmd_rand_stats)

    p = randsub.add_parser("mc", help="Monte Carlo abstraction frequencies")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--drop", type=int, default=None, help="bypass this many vertices")
    p.add_argument("--partition", default=None)
    p.set_defaults(func=_cmd_rand_mc)

    p = randsub.add_parser("renorm", help="log[(n-N) * iterated survival] grid")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--add-log-n", action="store_true")
    p.add_argument("--n-max", type=int, required=True)
    p.set_defaults(func=_cmd_rand_renorm)

    p = randsub.add_parser("scc", help="giant strong component prediction vs sampling")
    _add_common(p)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--trials", type=int, default=0)
    p.set_defaults(func=_cmd_rand_scc)

    dt = sub.add_parser("dtcn", help="directed temporal contact networks")
    dtsub = dt.add_subparsers(dest="dtcn_command", required=True)

    p = dtsub.add_parser("fiber", help="contact times at a vertex, with sentinels")
    _add_common(p)
    p.add_argument("--contacts", required=True)
    p.add_argument("--vertex", type=int, required=True)
    p.set_defaults(func=_cmd_dtcn_fiber)

    p = dtsub.add_parser("tgraph", help="layered temporal digraph as JSON")
    _add_common(p)
    p.add_argument("--contacts", required=True)
    p.set_defaults(func=_cmd_dtcn_tgraph)

    p = dtsub.add_parser("detour", help="bypass vertices inside the layered digraph")
    _add_common(p)
    p.add_argument("--contacts", required=True)
    p.add_argument("--vertices", required=True)
    p.set_defaults(func=_cmd_dtcn_detour)

    p = dtsub.add_parser("abstract", help="temporal path abstraction")
    _add_common(p)
    p.add_argument("--contacts", required=True)
    p.add_argument("--partition", required=True)
    p.set_defaults(func=_cmd_dtcn_abstract)

    p = dtsub.add_parser("sample", help="sample a random contact network")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--mode", choices=["uniform", "poisson"], default="uniform")
    p.add_argument("--max-retries", type=int, default=0)
    p.set_defaults(func=_cmd_dtcn_sample)

    p = sub.add_parser("check", help="run the property suites headlessly")
    _add_common(p)
    p.set_defaults(func=_cmd_check)

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
