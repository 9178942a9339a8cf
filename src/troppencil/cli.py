"""Command-line front end: JSON in, JSON or SVG out.

Subcommands mirror the library operations one to one.  Exit codes: 0 on
success, 1 on domain errors (a machine-readable {"error": ...} is still
printed), 2 on malformed input, 3 on a failed internal invariant check
(a bug; also reported as {"error": ...}).  When the reader of stdout
closes it early (say `| head`), the command stops quietly with exit 1.
All randomness is behind explicit --seed flags, so identical inputs give
identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from . import compat, jsonio, oracle, pencil, plane, stable, svg, trees
from .core import InternalError, TropError
from .jsonio import MalformedInput
from .subdivision import dual_curve, is_maximal, regular_subdivision


def _read_input(args) -> dict:
    try:
        if args.input and args.input != "-":
            with open(args.input) as fh:
                return json.load(fh)
        return json.load(sys.stdin)
    except (OSError, json.JSONDecodeError) as e:
        raise MalformedInput(f"cannot read input: {e}") from e


def _write(args, payload):
    text = json.dumps(payload, indent=2)
    if args.output and args.output != "-":
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_svg(args, draw, what):
    """Draw only when --svg asks for it; drawing converts to floats."""
    if not args.svg:
        return
    try:
        markup = draw(what)
    except OverflowError as e:
        raise TropError(f"coordinates too large to draw: {e}") from e
    with open(args.svg, "w") as fh:
        fh.write(markup + "\n")


def cmd_curve(args):
    obj = _read_input(args)
    A = jsonio.support_from_json(jsonio._expect(obj, "support", dict))
    c = jsonio.point_from_json(jsonio._expect(obj, "c", list))
    curve = dual_curve(A, c)
    _write_svg(args, svg.curve_svg, curve)
    _write(args, jsonio.curve_to_json(curve))


def cmd_subdivision(args):
    obj = _read_input(args)
    A = jsonio.support_from_json(jsonio._expect(obj, "support", dict))
    c = jsonio.point_from_json(jsonio._expect(obj, "c", list))
    S = regular_subdivision(A, c)
    payload = jsonio.subdivision_to_json(S)
    if args.mode is not None:
        payload["maximal"] = is_maximal(S, args.mode)
    _write(args, payload)


def cmd_check_general(args):
    obj = _read_input(args)
    A = jsonio.support_from_json(jsonio._expect(obj, "support", dict))
    C = jsonio.config_from_json(jsonio._expect(obj, "configuration", dict))
    verdict = stable.is_general(A, C)
    _write(
        args,
        {
            "general": verdict.general,
            "singular_pair": list(verdict.singular_pair) if verdict.singular_pair else None,
        },
    )


def cmd_stable_pencil(args):
    obj = _read_input(args)
    A = jsonio.support_from_json(jsonio._expect(obj, "support", dict))
    C = jsonio.config_from_json(jsonio._expect(obj, "configuration", dict))
    verdict, p = stable.solve_minors(A, C)
    L = trees.plucker_to_tree(p)
    if args.oracle:
        twin = oracle.perturbed_pencil(A, C, seed=args.seed)
        if twin != L:
            raise TropError("oracle mismatch: perturbed pencil differs")
    _write(
        args,
        {
            "general": verdict.general,
            "singular_pair": list(verdict.singular_pair) if verdict.singular_pair else None,
            "plucker": jsonio.plucker_to_json(p),
            "line": jsonio.line_to_json(L),
        },
    )


def cmd_fixed_locus(args):
    obj = _read_input(args)
    A = jsonio.support_from_json(jsonio._expect(obj, "support", dict))
    L = jsonio.line_from_json(jsonio._expect(obj, "line", dict))
    cells = pencil.fixed_locus(L, A)
    pieces = plane.canonical_pieces([c.geometry for c in cells])
    _write_svg(args, svg.pieces_svg, pieces)
    _write(
        args,
        {
            "cells": [jsonio.cell_to_json(c) for c in cells],
            "pieces": [jsonio.geometry_to_json(g) for g in pieces],
        },
    )


def cmd_is_fixed(args):
    obj = _read_input(args)
    A = jsonio.support_from_json(jsonio._expect(obj, "support", dict))
    L = jsonio.line_from_json(jsonio._expect(obj, "line", dict))
    P = jsonio._plane_point(jsonio._expect(obj, "point", list), "point")
    fixed = pencil.is_fixed(L, A, P)
    if args.oracle and oracle.sampled_fixed(L, A, P) != fixed:
        raise TropError("oracle mismatch: sampled walk disagrees")
    _write(args, {"fixed": fixed})


def cmd_construct_config(args):
    obj = _read_input(args)
    A = jsonio.support_from_json(jsonio._expect(obj, "support", dict))
    L = jsonio.line_from_json(jsonio._expect(obj, "line", dict))
    C = compat.construct_configuration(L, A)
    _write(args, jsonio.config_to_json(C))


def cmd_enumerate_types(args):
    obj = _read_input(args)
    A = jsonio.support_from_json(jsonio._expect(obj, "support", dict))
    types = compat.enumerate_types(A.n)
    ids = {k for k, _ in compat.compatible_types(A)}
    _write(
        args,
        {
            "total": compat.type_count(A.n),
            "compatible": len(ids),
            "types": [
                dict(jsonio.topology_to_json(T), compatible=k in ids)
                for k, T in enumerate(types)
            ],
        },
    )


def cmd_realize_type(args):
    obj = _read_input(args)
    A = jsonio.support_from_json(jsonio._expect(obj, "support", dict))
    type_id = jsonio._expect(obj, "type_id", int)
    T = compat.type_by_id(A.n, type_id)
    if T is None:
        raise TropError("type_id out of range")
    L = compat.realize_type(A, T, seed=args.seed)
    _write(args, jsonio.line_to_json(L))


def cmd_compat_check(args):
    obj = _read_input(args)
    A = jsonio.support_from_json(jsonio._expect(obj, "support", dict))
    if "line" in obj:
        T = jsonio.line_from_json(obj["line"])
    else:
        T = jsonio.topology_from_json(jsonio._expect(obj, "topology", dict))
    verdict = compat.is_compatible(T, A)
    _write(
        args,
        {
            "compatible": verdict.ok,
            "witness": list(verdict.witness) if verdict.witness else None,
        },
    )


_COMMANDS = {
    "curve": cmd_curve,
    "subdivision": cmd_subdivision,
    "check-general": cmd_check_general,
    "stable-pencil": cmd_stable_pencil,
    "fixed-locus": cmd_fixed_locus,
    "is-fixed": cmd_is_fixed,
    "construct-config": cmd_construct_config,
    "enumerate-types": cmd_enumerate_types,
    "realize-type": cmd_realize_type,
    "compat-check": cmd_compat_check,
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
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--input", default="-", help="input JSON file (default stdin)")
        p.add_argument("--output", default="-", help="output JSON file (default stdout)")
        p.add_argument("--svg", default=None, help="also write an SVG drawing here")
        p.add_argument("--oracle", action="store_true", help="cross-check with the slow reference")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--mode", choices=("strict", "lenient"), default=None)
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
    try:
        _COMMANDS[args.command](args)
        return 0
    except MalformedInput as e:
        code, error = 2, e
    except (TropError, ValueError) as e:
        code, error = 1, e
    except InternalError as e:
        code, error = 3, e
    print(json.dumps({"error": str(error)}))
    return code


if __name__ == "__main__":
    sys.exit(main())
