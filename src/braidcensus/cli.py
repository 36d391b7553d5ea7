"""Command line surface: construct, count, paths, recognize, game,
atypical, verify, formula.

Every subcommand writes exactly one line to standard output: a graph6
code or a JSON document with counts as decimal strings.  Diagnostics go
to the error stream.  Exit codes: 0 success, 2 for any input problem
(unparseable flags, bad graphs, violated preconditions, an input or
checkpoint file that cannot be read or written), 3 when a --expect
assertion fails, 4 when an internal cross-check fails (a bug, reported
instead of a result).

A sweep runs in one process; to sweep in parallel, start one per shard.

Graph input is one --input value: either a literal graph6 code or a
path to a file whose first non-empty line is one.  Subcommands that
also accept --family/--n build the requested family member instead;
exactly one input source must be given.

Sharded sweeps checkpoint in the directory named by
BRAIDCENSUS_CHECKPOINT_DIR, one file per shard; with the variable unset
or empty, no file is written and --merge exits 2.  Finished shard i of K
writes its "shard,max,codes..." line to a temporary file, created before
the sweep so that a bad directory fails at once, and moves it to
sweep_<quantity>_n<n>_s<K>_<i>.txt with os.replace, so a reader sees the
whole line or no file.  A finished shard is replayed, not rescanned, and
--merge combines the K files.  Every line read back must carry its
file's shard index and codes that are canonical on n vertices and score
its max; otherwise verify exits 2.  Files of older layouts are not read.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Each handler imports the engine it runs once its graph input has parsed,
# so a call compiles and loads only the modules on its own path, and a bad
# input none; graphs holds what the parser needs.
from .graphs import (
    FAMILY_TAGS,
    QUANTITIES,
    Graph,
    InputError,
    InternalError,
    parse_graph6,
    to_graph6,
)

CHECKPOINT_DIR_VAR = "BRAIDCENSUS_CHECKPOINT_DIR"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_EXPECT = 3
EXIT_INTERNAL = 4


def _emit(doc: dict) -> None:
    print(json.dumps(doc), flush=True)


# ======================================================================
# input sources
# ======================================================================


def _read_ascii(path: str) -> str:
    """The text of an ASCII file; InputError, naming it, if it is not ASCII."""
    with open(path, encoding="ascii") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path} is not ASCII: byte offset {exc.start}") from None


def _load_graph(text: str) -> Graph:
    """A literal graph6 code, or a file whose first line holds one."""
    if os.path.isfile(text):
        # universal newlines already made every line end in "\n"
        for line in _read_ascii(text).split("\n"):
            line = line.strip()
            if line:
                return parse_graph6(line)
        raise InputError(f"no graph6 code in {text}")
    return parse_graph6(text)


def _graph_argument(args: argparse.Namespace) -> Graph:
    """Resolve the one allowed input source of count/paths."""
    if args.input is not None:
        if args.family is not None or args.n is not None:
            raise InputError("give either --input or --family/--n, not both")
        if args.variant is not None:
            raise InputError("--variant only applies to --family, not --input")
        return _load_graph(args.input)
    if args.family is None or args.n is None:
        raise InputError("need an input source: --input, or --family with --n")
    from .families import build_family

    return build_family(args.family, args.n, args.variant or 0)[0]


def _add_graph_source(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", help="graph6 code or file")
    sub.add_argument("--family", choices=FAMILY_TAGS)
    sub.add_argument("--n", type=int)
    sub.add_argument("--variant", type=int)


# ======================================================================
# subcommands
# ======================================================================


def _cmd_construct(args: argparse.Namespace) -> int:
    from .families import build_family

    g, part = build_family(args.family, args.n, args.variant)
    if args.out == "g6":
        print(to_graph6(g), flush=True)
    else:
        _emit({"n": g.n, "g6": to_graph6(g), **part.to_json_dict()})
    return EXIT_OK


def _cmd_count(args: argparse.Namespace) -> int:
    g = _graph_argument(args)
    from .census import count_induced_cycles

    census = count_induced_cycles(g)
    _emit(census.to_json_dict(n=g.n))
    return EXIT_OK


def _cmd_paths(args: argparse.Namespace) -> int:
    g = _graph_argument(args)
    from .census import count_induced_st_paths

    census = count_induced_st_paths(g, args.x, args.y)
    _emit(census.to_json_dict(x=args.x, y=args.y))
    return EXIT_OK


def _cmd_recognize(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    from .recognition import classify_family_all, discover_cyclic_braid, verify_braid

    part = discover_cyclic_braid(g)
    if part is None:
        doc = {
            "verified": False,
            "family": None,
            "cluster_sizes": None,
            "intra_pattern": None,
            "failure_witness": None,
            "clusters": None,
        }
    else:
        doc = verify_braid(g, part).to_json_dict()
        doc["clusters"] = part.to_json_dict()["clusters"]
    tags = [family.tag for family in classify_family_all(g)]
    doc["families"] = tags
    _emit(doc)
    if args.expect is not None and args.expect not in tags:
        print(f"expected family {args.expect}, found {tags}", file=sys.stderr)
        return EXIT_EXPECT
    return EXIT_OK


def _cmd_game(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    from .game import solve_typical_game

    verdict = solve_typical_game(g, args.v, args.w)
    _emit(verdict.to_json_dict())
    return EXIT_OK


def _cmd_atypical(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    from .game import atypical_set

    report = atypical_set(g, args.v)
    _emit(report.to_json_dict())
    return EXIT_OK


def _checkpoint_path(args: argparse.Namespace, shard: int) -> str | None:
    directory = os.environ.get(CHECKPOINT_DIR_VAR)
    if not directory or args.shards < 2:
        return None
    name = f"sweep_{args.quantity}_n{args.n}_s{args.shards}_{shard}.txt"
    return os.path.join(directory, name)


def _read_checkpoint(path: str, args: argparse.Namespace, shard: int):
    """The result a finished shard left in its file, or None if it left none."""
    from . import sweep

    try:
        text = _read_ascii(path)
    except FileNotFoundError:
        return None
    found, result = sweep.parse_checkpoint_line(args.n, args.quantity, args.shards, text)
    if found != shard:
        raise InputError(f"checkpoint {path} holds the line of shard {found}")
    return result


def _sweep_shard(args: argparse.Namespace, path: str | None):
    """Sweep one shard; with a checkpoint path, its line goes to a
    temporary file, created before the sweep so that a bad directory
    fails at once, then moved into place by os.replace."""
    from . import sweep

    def run():
        return sweep.exhaustive_max(args.n, args.quantity, args.shards, args.shard)

    if path is None:
        return run()
    temp = f"{path}.{os.getpid()}.tmp"
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            result = run()
            fh.write(sweep.checkpoint_line(args.shard, result) + "\n")
        os.replace(temp, path)
    except BaseException:
        os.remove(temp)
        raise
    return result


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import sweep

    # n and the shard are checked before any file is read or written
    sweep.shard_range(args.n, args.shards, 0 if args.merge else args.shard)
    if args.merge:
        if _checkpoint_path(args, 0) is None:
            raise InputError(
                f"--merge needs --shards > 1 and {CHECKPOINT_DIR_VAR} set"
            )
        parts = [_read_checkpoint(_checkpoint_path(args, i), args, i)
                 for i in range(args.shards)]
        missing = [i for i, part in enumerate(parts) if part is None]
        if missing:
            raise InputError(f"checkpoint incomplete, missing shards {missing}")
        result = sweep.merge_sweeps(parts)
    else:
        path = _checkpoint_path(args, args.shard)
        result = None if path is None else _read_checkpoint(path, args, args.shard)
        if result is None:
            result = _sweep_shard(args, path)
    _emit(result.to_json_dict())
    if args.expect is not None and result.max.value != args.expect:
        print(
            f"expected max {args.expect}, swept {result.max.value}",
            file=sys.stderr,
        )
        return EXIT_EXPECT
    return EXIT_OK


# CLI name -> function of formulas.py
_FORMULAS = {
    "f2": "f2",
    "f2o": "f2_odd",
    "f2e": "f2_even",
    "m_lower": "m_lower",
    "short_mass": "short_cycle_mass",
}


def _cmd_formula(args: argparse.Namespace) -> int:
    from . import formulas

    if args.name == "vertex_bound":
        if args.d is None:
            raise InputError("vertex_bound needs --d")
        bound = formulas.vertex_cycle_bound(args.n, args.d)
        _emit({"name": args.name, "n": args.n, "d": args.d,
               "value": repr(bound.value)})
        return EXIT_OK
    if args.d is not None:
        raise InputError(f"--d only applies to vertex_bound, not {args.name}")
    count = getattr(formulas, _FORMULAS[args.name])(args.n)
    _emit({"name": args.name, "n": args.n, "value": str(count.value)})
    return EXIT_OK


# ======================================================================
# parser and entry point
# ======================================================================


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidcensus",
        description="Braid families, induced cycle/path censuses, "
        "recognition, the walk game, and exhaustive small-n sweeps.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("construct", help="build a family member")
    sub.add_argument("--family", required=True, choices=FAMILY_TAGS)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--variant", type=int, default=0)
    sub.add_argument("--out", choices=("g6", "json"), default="g6")
    sub.set_defaults(handler=_cmd_construct)

    sub = subs.add_parser("count", help="induced cycle census of one graph")
    _add_graph_source(sub)
    sub.set_defaults(handler=_cmd_count)

    sub = subs.add_parser("paths", help="induced x-y path census")
    _add_graph_source(sub)
    sub.add_argument("--x", type=int, required=True)
    sub.add_argument("--y", type=int, required=True)
    sub.set_defaults(handler=_cmd_paths)

    sub = subs.add_parser("recognize", help="discover cyclic braid structure")
    sub.add_argument("--input", required=True, help="graph6 code or file")
    sub.add_argument("--expect", choices=("H", "G", "E"))
    sub.set_defaults(handler=_cmd_recognize)

    sub = subs.add_parser("game", help="solve the walk game for one probe")
    sub.add_argument("--input", required=True, help="graph6 code or file")
    sub.add_argument("--v", type=int, required=True)
    sub.add_argument("--w", type=int, required=True)
    sub.set_defaults(handler=_cmd_game)

    sub = subs.add_parser("atypical", help="classify every eligible probe")
    sub.add_argument("--input", required=True, help="graph6 code or file")
    sub.add_argument("--v", type=int, required=True)
    sub.set_defaults(handler=_cmd_atypical)

    sub = subs.add_parser("verify", help="exhaustive sweep of all graphs")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--quantity", required=True, choices=QUANTITIES)
    sub.add_argument("--shards", type=int, default=1)
    sub.add_argument("--shard", type=int, default=0)
    sub.add_argument("--merge", action="store_true")
    sub.add_argument("--expect", type=int)
    sub.set_defaults(handler=_cmd_verify)

    sub = subs.add_parser("formula", help="evaluate a closed form")
    sub.add_argument(
        "--name",
        required=True,
        choices=tuple(_FORMULAS) + ("vertex_bound",),
    )
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--d", type=int)
    sub.set_defaults(handler=_cmd_formula)

    return parser


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # counts are exact: print them in full, however many digits
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (InputError, OSError) as exc:
        # OSError: an --input or checkpoint file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
