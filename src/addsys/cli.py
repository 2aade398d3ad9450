"""Command-line front door.

Every operation is exposed as a subcommand with canonical JSON output
(sorted keys, no whitespace) so repeated runs are byte-identical.  Exit
codes: 0 success, 1 verification failed (a report document is still
printed), 2 usage or input error, 3 resource cap exceeded.  Each
subcommand is one row of ``_COMMANDS``, whose handler returns what the
command prints: a JSON document, a ``VerificationReport`` (exit 1 when
it failed) or CSV text.  Only ``main`` writes stdout and picks the exit
code.  Handlers call public names through their modules, at call time,
so a wrapper set on a module (a tracer's) sees each call.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import islice
from typing import Any, Sequence

from . import cuboid as cuboid_mod
from . import sds as sds_mod
from . import squares as squares_mod
from . import sumsystem as sumsys_mod
from .core import (
    DEFAULT_CAP,
    CapExceededError,
    InputError,
    Int64OverflowError,
    InternalContradictionError,
    VerificationFailedError,
    VerificationReport,
    _require_cap,
)
from .factorisation import (
    JointOrderedFactorisation, _DECIMAL, _require_enumerable, count_jofs, enumerate_jofs, parse_jof
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _load_json(path: str) -> Any:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers bad UTF-8 and integer literals over int's digit limit
        raise InputError(f"invalid JSON in {path!r}: {exc}") from None


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(_DECIMAL.fullmatch(piece)[0]) for piece in text.split(","))
    except (TypeError, ValueError):  # not a decimal, or past int()'s digit limit
        raise InputError(f"malformed dims {text!r}, expected comma-separated integers") from None
    return _require_enumerable(dims)


def _parse_signs(text: str) -> list[tuple[int, ...]]:
    """The sign vectors v and w of ``--signs 'v;w'``."""
    halves = text.split(";")
    if len(halves) != 2:
        raise InputError("--signs must be two sign strings joined by ';'")
    for label, half in zip("vw", halves):
        if not set(half) <= {"+", "-"}:
            raise InputError(f"{label} must use only '+' and '-', got {half!r}")
    return [tuple(1 if c == "+" else -1 for c in half) for half in halves]


def _factorisation_doc(jof: JointOrderedFactorisation) -> dict:
    return {"dims": list(jof.dims), "jof": jof.as_text()}


def _square_sds(args: argparse.Namespace, squares: str | None = None) -> sds_mod.SdsSystem:
    """The 2-part system of ``--sds``, non-inclusive when ``squares`` names them."""
    system = sds_mod.from_json_doc(_load_json(args.sds))
    if squares and system.flavour != sds_mod.NON_INCLUSIVE:
        raise InputError(f"{squares} need a non-inclusive system")
    if len(system.parts) != 2:
        raise InputError(f"square construction needs a 2-part system, got {len(system.parts)}")
    return system


def _jof_enumerate(args: argparse.Namespace) -> dict:
    dims = _parse_dims(args.dims)
    if args.count_only:
        _require_cap(math.prod(dims), "sums per factorisation", args.max_product)
        return {"count": count_jofs(dims)}
    total = count_jofs(dims)
    if args.limit is not None:
        if args.limit < 0:
            raise InputError(f"--limit must be >= 0, got {args.limit}")
        total = min(total, args.limit)
    _require_cap(total, "listed factorisations", args.max_product)
    jofs = [jof.as_text() for jof in islice(enumerate_jofs(dims), total)]
    return {"dims": list(dims), "jofs": jofs}


def _sumsys_from_jof(args: argparse.Namespace) -> dict:
    jof = parse_jof(args.jof)
    _require_cap(math.prod(jof.dims), "sums", args.max_product)
    return sumsys_mod.to_json_doc(sumsys_mod.build_sum_system(jof))


def _sumsys_verify(args: argparse.Namespace) -> VerificationReport:
    ss = sumsys_mod.from_json_doc(_load_json(args.source))
    return sumsys_mod.verify_sum_system(ss, cap=args.max_product)


def _sumsys_decompose(args: argparse.Namespace) -> dict:
    ss = sumsys_mod.from_json_doc(_load_json(args.source))
    return _factorisation_doc(sumsys_mod.decompose_sum_system(ss, cap=args.max_product))


def _sds_from_sumsys(args: argparse.Namespace) -> dict:
    ss = sumsys_mod.from_json_doc(_load_json(args.source))
    inclusive = sds_mod.infer_flavour(ss) == sds_mod.INCLUSIVE
    to_sds = sds_mod.sumsys_to_sds_inclusive if inclusive else sds_mod.sumsys_to_sds_noninclusive
    return sds_mod.to_json_doc(to_sds(ss, cap=args.max_product))


def _sds_to_sumsys(args: argparse.Namespace) -> dict:
    system = sds_mod.from_json_doc(_load_json(args.source))
    inclusive = system.flavour == sds_mod.INCLUSIVE
    to_ss = sds_mod.sds_to_sumsys_inclusive if inclusive else sds_mod.sds_to_sumsys_noninclusive
    return sumsys_mod.to_json_doc(to_ss(system, cap=args.max_product))


def _sds_verify(args: argparse.Namespace) -> VerificationReport:
    system = sds_mod.from_json_doc(_load_json(args.source))
    return sds_mod.verify_sds(system, cap=args.max_product)


def _cuboid_build(args: argparse.Namespace) -> dict | str:
    M = cuboid_mod.build_cuboid(parse_jof(args.jof), cap=args.max_product)
    return cuboid_mod.to_csv(M) if args.format == "csv" else cuboid_mod.to_json_doc(M)


def _cuboid_verify(args: argparse.Namespace) -> VerificationReport:
    M = cuboid_mod.from_json_doc(_load_json(args.source), cap=args.max_product)
    return cuboid_mod.verify_reversible(M)


def _cuboid_decompose(args: argparse.Namespace) -> dict:
    M = cuboid_mod.from_json_doc(_load_json(args.source), cap=args.max_product)
    return _factorisation_doc(cuboid_mod.decompose_cuboid(M))


def _square_reversible(args: argparse.Namespace) -> dict:
    system = _square_sds(args)
    odd = system.flavour == sds_mod.INCLUSIVE
    build = squares_mod.reversible_square_odd if odd else squares_mod.reversible_square_even
    return squares_mod.to_json_doc(build(*system.parts, cap=args.max_product))


def _square_magic(args: argparse.Namespace) -> dict:
    a, b = _square_sds(args, "magic squares").parts
    v, w = (None, None) if args.signs is None else _parse_signs(args.signs)
    square = squares_mod.associated_magic_square(a, b, v, w, cap=args.max_product)
    return squares_mod.to_json_doc(square)


def _square_mostperfect(args: argparse.Namespace) -> dict:
    a, b = _square_sds(args, "most perfect squares").parts
    return squares_mod.to_json_doc(squares_mod.most_perfect_square(a, b, cap=args.max_product))


def _square_verify(args: argparse.Namespace) -> VerificationReport:
    square = squares_mod.from_json_doc(_load_json(args.source), cap=args.max_product)
    kind = "most-perfect" if args.kind == "mostperfect" else args.kind
    return squares_mod.verify_square(square, kind)


#: group -> (group help, {command -> (handler, arguments after --max-product)}).
_COMMANDS = {
    "jof": ("joint ordered factorisations", {
        "enumerate": (_jof_enumerate, [
            ("--dims", dict(required=True, help="comma-separated sizes, e.g. 15,8,6")),
            ("--count-only", dict(action="store_true")),
            ("--limit", dict(type=int, default=None)),
        ]),
    }),
    "sumsys": ("sum systems", {
        "from-jof": (_sumsys_from_jof, [
            ("jof", dict(help="factorisation text, e.g. 1:5,2:2,1:3")),
        ]),
        "verify": (_sumsys_verify, [("source", dict(help="JSON file or - for stdin"))]),
        "decompose": (_sumsys_decompose, [("source", dict(help="JSON file or - for stdin"))]),
    }),
    "sds": ("sum-and-distance systems", {
        "from-sumsys": (_sds_from_sumsys, [("source", dict(help="sum-system JSON file or -"))]),
        "to-sumsys": (_sds_to_sumsys, [("source", dict(help="sum-and-distance JSON file or -"))]),
        "verify": (_sds_verify, [("source", dict(help="sum-and-distance JSON file or -"))]),
    }),
    "cuboid": ("reversible cuboids", {
        "build": (_cuboid_build, [
            ("--jof", dict(required=True, help="factorisation text")),
            ("--format", dict(choices=["json", "csv"], default="json")),
        ]),
        "verify": (_cuboid_verify, [("source", dict(help="cuboid JSON file or -"))]),
        "decompose": (_cuboid_decompose, [("source", dict(help="cuboid JSON file or -"))]),
    }),
    "square": ("derived square matrices", {
        "reversible": (_square_reversible, [
            ("--sds", dict(required=True, help="2-part system JSON file or -")),
        ]),
        "magic": (_square_magic, [
            ("--sds", dict(required=True, help="2-part non-inclusive JSON file or -")),
            ("--signs", dict(default=None, help="two sign strings, e.g. '+-;+-'")),
        ]),
        "mostperfect": (_square_mostperfect, [
            ("--sds", dict(required=True, help="2-part non-inclusive JSON file or -")),
        ]),
        "verify": (_square_verify, [
            ("--kind", dict(required=True, choices=[*squares_mod.KINDS, "mostperfect"])),
            ("source", dict(help="square JSON file or -")),
        ]),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="addsys",
        description="Build, verify, convert and decompose additive systems of integers.",
    )
    cap_help = "cap on the sums, entries, factorisations or cells counted (default %(default)s)"
    top = parser.add_subparsers(dest="group", required=True)
    for group, (group_help, commands) in _COMMANDS.items():
        sub = top.add_parser(group, help=group_help).add_subparsers(dest="command", required=True)
        for command, (handler, arguments) in commands.items():
            subparser = sub.add_parser(command)
            subparser.add_argument("--max-product", type=int, default=DEFAULT_CAP, help=cap_help)
            for name, options in arguments:
                subparser.add_argument(name, **options)
            subparser.set_defaults(handler=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return EXIT_OK if not exc.code else EXIT_INPUT
    try:
        result = args.handler(args)
    except VerificationFailedError as exc:
        result = exc.report
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (InputError, Int64OverflowError, InternalContradictionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if isinstance(result, VerificationReport):
        print(canonical_json(result.to_json_doc()))
        return EXIT_OK if result.passed else EXIT_VERIFICATION
    if isinstance(result, str):
        sys.stdout.write(result)
    else:
        print(canonical_json(result))
    return EXIT_OK


def entry() -> None:
    sys.exit(main())
