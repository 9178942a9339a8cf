"""Command-line front end: JSON in, JSON or SVG out.

Subcommands mirror the library operations one to one.  `_run` reads the
request and decodes its "support" once; the subcommand's handler decodes
the rest.  Besides --input and --output, a subcommand accepts only the
flags `_COMMANDS` lists for it.  Exit codes: 0 on success, 1 on domain
errors (a machine-readable {"error": ...} is still printed), 2 on
malformed input, a usage error or an --output or --svg file that cannot
be written, 3 on any other exception, which is a bug (also reported as
{"error": ...}).  When the reader of stdout closes it early (say
`| head`), the command stops quietly with exit 1.  All randomness is
behind explicit --seed flags, so identical inputs give identical outputs.

A success payload is written by `_json_text`, which gives the bytes of
`json.dumps(payload, indent=2)` for the values payloads hold (dicts with
str keys, lists, tuples, str, int, bool and None) without the pure-Python
encoder that `indent` selects; an error payload is one compact line from
`json.dumps`.  `oracle` is imported only by the --oracle branches and
`svg` only when --svg is given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from json.encoder import encode_basestring_ascii as _quote

from . import compat, jsonio, pencil, plane, stable, trees
from .core import InternalError, TropError
from .jsonio import MalformedInput, expect
from .subdivision import dual_curve, is_maximal, regular_subdivision


def _json_int(digits: str):
    """A JSON integer, or past int()'s digit limit its text, which decoders refuse."""
    try:
        return int(digits)
    except ValueError:
        return digits


def _read_input(args) -> dict:
    try:
        if args.input and args.input != "-":
            with open(args.input) as fh:
                return json.load(fh, parse_int=_json_int)
        return json.load(sys.stdin, parse_int=_json_int)
    except (OSError, ValueError, RecursionError) as e:
        raise MalformedInput(f"cannot read input: {e}") from e


def _save(flag: str, path: str, text: str):
    """Write text and a newline to the file named by `flag`."""
    try:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    except OSError as e:
        raise MalformedInput(f"{flag}: cannot write {path}: {e.strerror}") from e


def _json_text(x, nl="\n") -> str:
    """json.dumps(x, indent=2) for dicts with str keys, lists, tuples,
    str, int, bool and None; any other value raises TypeError.  `nl` is
    the newline and indent that x's own lines start with.  Strings go
    through the C escaper json.dumps uses and ints through int.__repr__,
    so an int past the str digit limit raises the same ValueError; inside
    a dict or a list both are written inline, with no call per value.  A
    container joins its items once and drops them before it brackets the
    text, so it holds at most two copies of that text at a time."""
    t = type(x)
    if t is str:
        return _quote(x)
    if t is int:
        return int.__repr__(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    inner = nl + "  "
    if t is dict:
        ends, items = "{}", []
        for k, v in x.items():
            tv = type(v)
            items.append(
                _quote(k)
                + ": "
                + (_quote(v) if tv is str else int.__repr__(v) if tv is int else _json_text(v, inner))
            )
    elif t is list or t is tuple:
        ends, items = "[]", []
        for v in x:
            tv = type(v)
            items.append(_quote(v) if tv is str else int.__repr__(v) if tv is int else _json_text(v, inner))
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
    if not items:
        return ends
    text = ("," + inner).join(items)
    del items
    return f"{ends[0]}{inner}{text}{nl}{ends[1]}"


def _write(args, payload):
    text = _json_text(payload)
    if args.output and args.output != "-":
        _save("--output", args.output, text)
    else:
        print(text)


def _write_svg(args, draw, what):
    """Draw only when --svg asks for it, with the `svg` function named
    `draw`; drawing converts to floats."""
    if not args.svg:
        return
    from . import svg

    try:
        markup = getattr(svg, draw)(what)
    except OverflowError as e:
        raise TropError(f"coordinates too large to draw: {e}") from e
    _save("--svg", args.svg, markup)


# handler(parsed flags, request object, its decoded support) -> payload


def cmd_curve(args, obj, A):
    curve = dual_curve(A, jsonio.point_from_json(expect(obj, "c"), "c", A.n))
    _write_svg(args, "curve_svg", curve)
    return jsonio.curve_to_json(curve)


def cmd_subdivision(args, obj, A):
    S = regular_subdivision(A, jsonio.point_from_json(expect(obj, "c"), "c", A.n))
    payload = jsonio.subdivision_to_json(S)
    if args.mode is not None:
        payload["maximal"] = is_maximal(S, args.mode)
    return payload


def cmd_check_general(args, obj, A):
    C = jsonio.config_from_json(expect(obj, "configuration", dict), A.n)
    return jsonio.verdict_to_json(stable.is_general(A, C))


def cmd_stable_pencil(args, obj, A):
    C = jsonio.config_from_json(expect(obj, "configuration", dict), A.n)
    verdict, p = stable.solve_minors(A, C)
    L = trees.plucker_to_tree(p)
    if args.oracle:
        from . import oracle

        twin = oracle.perturbed_pencil(A, C, seed=args.seed)
        if twin != L:
            raise TropError("oracle mismatch: perturbed pencil differs")
    payload = jsonio.verdict_to_json(verdict)
    return dict(payload, plucker=jsonio.plucker_to_json(p), line=jsonio.line_to_json(L))


def cmd_fixed_locus(args, obj, A):
    L = jsonio.line_from_json(expect(obj, "line", dict), A.n)
    cells = pencil.fixed_locus(L, A)
    pieces = plane.canonical_pieces([c.geometry for c in cells])
    _write_svg(args, "pieces_svg", pieces)
    return {
        "cells": [jsonio.cell_to_json(c) for c in cells],
        "pieces": [jsonio.geometry_to_json(g) for g in pieces],
    }


def cmd_is_fixed(args, obj, A):
    L = jsonio.line_from_json(expect(obj, "line", dict), A.n)
    P = jsonio.point_from_json(expect(obj, "point"), "point", 3)
    fixed = pencil.is_fixed(L, A, P)
    if args.oracle:
        from . import oracle

        if oracle.sampled_fixed(L, A, P) != fixed:
            raise TropError("oracle mismatch: sampled walk disagrees")
    return {"fixed": fixed}


def cmd_construct_config(args, obj, A):
    L = jsonio.line_from_json(expect(obj, "line", dict), A.n)
    return jsonio.config_to_json(compat.construct_configuration(L, A))


def cmd_enumerate_types(args, obj, A):
    # one TreeTopology alive at a time; the walk refuses n > 10 before
    # compatible_types starts
    types = [jsonio.topology_to_json(T) for T in compat.iter_types(A.n)]
    ids = {k for k, _ in compat.compatible_types(A)}
    for k, row in enumerate(types):
        row["compatible"] = k in ids
    return {"total": len(types), "compatible": len(ids), "types": types}


def cmd_realize_type(args, obj, A):
    T = compat.type_by_id(A.n, expect(obj, "type_id", int))
    if T is None:
        raise TropError("type_id out of range")
    return jsonio.line_to_json(compat.realize_type(A, T, seed=args.seed))


def cmd_compat_check(args, obj, A):
    if "line" in obj:
        T = jsonio.line_from_json(expect(obj, "line", dict), A.n)
    else:
        T = jsonio.topology_from_json(expect(obj, "topology", dict), A.n)
    verdict = compat.is_compatible(T, A)
    return {"compatible": verdict.ok, "witness": list(verdict.witness) if verdict.witness else None}


# The flags a subcommand may read besides --input and --output.
_FLAGS = {
    "--svg": dict(help="also write an SVG drawing here"),
    "--oracle": dict(action="store_true", help="cross-check with the slow reference"),
    "--seed": dict(type=int, default=0, help="seed of the random draws (default 0)"),
    "--mode": dict(choices=("strict", "lenient"), help="add a maximality verdict"),
}

# subcommand -> (handler, the flags of _FLAGS it reads)
_COMMANDS = {
    "curve": (cmd_curve, ("--svg",)),
    "subdivision": (cmd_subdivision, ("--mode",)),
    "check-general": (cmd_check_general, ()),
    "stable-pencil": (cmd_stable_pencil, ("--oracle", "--seed")),
    "fixed-locus": (cmd_fixed_locus, ("--svg",)),
    "is-fixed": (cmd_is_fixed, ("--oracle",)),
    "construct-config": (cmd_construct_config, ()),
    "enumerate-types": (cmd_enumerate_types, ()),
    "realize-type": (cmd_realize_type, ("--seed",)),
    "compat-check": (cmd_compat_check, ()),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process.  Building it costs dozens of times
    more than parsing a command line, and parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="troppencil",
        description="exact computations with linear pencils of min-plus plane curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--input", default="-", help="input JSON file (default stdin)")
        p.add_argument("--output", default="-", help="output JSON file (default stdout)")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _run(args) -> int:
    handler, _ = _COMMANDS[args.command]
    try:
        obj = _read_input(args)
        A = jsonio.support_from_json(expect(obj, "support", dict))
        _write(args, handler(args, obj, A))
        return 0
    except MalformedInput as e:
        code, error = 2, str(e)
    except TropError as e:
        code, error = 1, str(e)
    except InternalError as e:
        code, error = 3, str(e)
    except BrokenPipeError:
        raise
    except Exception as e:  # any other exception is a bug in troppencil
        code, error = 3, f"{type(e).__name__}: {e}"
    print(json.dumps({"error": error}))
    return code


if __name__ == "__main__":
    sys.exit(main())
