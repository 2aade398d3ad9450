"""Command-line front door.

Every operation is exposed as a subcommand with canonical JSON output
(sorted keys, no whitespace) so repeated runs are byte-identical.  Exit
codes: 0 success, 1 verification failed (a report document is still
printed), 2 usage or input error, 3 resource cap exceeded.
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
from .factorisation import _require_enumerable, count_jofs, enumerate_jofs, parse_jof

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_json(path: str) -> Any:
    text = _read_source(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path!r}: {exc}") from None


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise InputError(f"malformed dims {text!r}, expected comma-separated integers") from None
    return _require_enumerable(dims)


def _parse_signs(text: str, label: str) -> tuple[int, ...]:
    mapping = {"+": 1, "-": -1}
    try:
        return tuple(mapping[c] for c in text)
    except KeyError:
        raise InputError(f"{label} must use only '+' and '-', got {text!r}") from None


def _emit_report(report: VerificationReport) -> int:
    print(canonical_json(report.to_json_doc()))
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def _cmd_jof_enumerate(args: argparse.Namespace) -> int:
    dims = _parse_dims(args.dims)
    if args.count_only:
        _require_cap(math.prod(dims), "sums per factorisation", args.max_product)
        print(canonical_json({"count": count_jofs(dims)}))
        return EXIT_OK
    total = count_jofs(dims)
    if args.limit is not None:
        if args.limit < 0:
            raise InputError(f"--limit must be >= 0, got {args.limit}")
        total = min(total, args.limit)
    _require_cap(total, "listed factorisations", args.max_product)
    jofs = [jof.as_text() for jof in islice(enumerate_jofs(dims), total)]
    print(canonical_json({"dims": list(dims), "jofs": jofs}))
    return EXIT_OK


def _cmd_sumsys_from_jof(args: argparse.Namespace) -> int:
    jof = parse_jof(args.jof)
    _require_cap(math.prod(jof.dims), "sums", args.max_product)
    ss = sumsys_mod.build_sum_system(jof)
    print(canonical_json(sumsys_mod.to_json_doc(ss)))
    return EXIT_OK


def _cmd_sumsys_verify(args: argparse.Namespace) -> int:
    ss = sumsys_mod.from_json_doc(_load_json(args.source))
    return _emit_report(sumsys_mod.verify_sum_system(ss, cap=args.max_product))


def _cmd_sumsys_decompose(args: argparse.Namespace) -> int:
    ss = sumsys_mod.from_json_doc(_load_json(args.source))
    jof = sumsys_mod.decompose_sum_system(ss, cap=args.max_product)
    print(canonical_json({"dims": list(jof.dims), "jof": jof.as_text()}))
    return EXIT_OK


def _cmd_sds_from_sumsys(args: argparse.Namespace) -> int:
    ss = sumsys_mod.from_json_doc(_load_json(args.source))
    flavour = args.flavour or sds_mod.infer_flavour(ss)
    if flavour == sds_mod.NON_INCLUSIVE:
        system = sds_mod.sumsys_to_sds_noninclusive(ss, cap=args.max_product)
    else:
        system = sds_mod.sumsys_to_sds_inclusive(ss, cap=args.max_product)
    print(canonical_json(sds_mod.to_json_doc(system)))
    return EXIT_OK


def _cmd_sds_to_sumsys(args: argparse.Namespace) -> int:
    system = sds_mod.from_json_doc(_load_json(args.source))
    if system.flavour == sds_mod.NON_INCLUSIVE:
        ss = sds_mod.sds_to_sumsys_noninclusive(system, cap=args.max_product)
    else:
        ss = sds_mod.sds_to_sumsys_inclusive(system, cap=args.max_product)
    print(canonical_json(sumsys_mod.to_json_doc(ss)))
    return EXIT_OK


def _cmd_sds_verify(args: argparse.Namespace) -> int:
    system = sds_mod.from_json_doc(_load_json(args.source))
    return _emit_report(sds_mod.verify_sds(system, cap=args.max_product))


def _cmd_cuboid_build(args: argparse.Namespace) -> int:
    M = cuboid_mod.build_cuboid(parse_jof(args.jof), cap=args.max_product)
    if args.format == "csv":
        sys.stdout.write(cuboid_mod.to_csv(M))
    else:
        print(canonical_json(cuboid_mod.to_json_doc(M)))
    return EXIT_OK


def _cmd_cuboid_verify(args: argparse.Namespace) -> int:
    M = cuboid_mod.from_json_doc(_load_json(args.source), cap=args.max_product)
    return _emit_report(cuboid_mod.verify_reversible(M))


def _cmd_cuboid_decompose(args: argparse.Namespace) -> int:
    M = cuboid_mod.from_json_doc(_load_json(args.source), cap=args.max_product)
    jof = cuboid_mod.decompose_cuboid(M)
    print(canonical_json({"dims": list(jof.dims), "jof": jof.as_text()}))
    return EXIT_OK


def _two_parts(system: sds_mod.SdsSystem) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if len(system.parts) != 2:
        raise InputError(f"square construction needs a 2-part system, got {len(system.parts)}")
    return system.parts[0], system.parts[1]


def _cmd_square_reversible(args: argparse.Namespace) -> int:
    system = sds_mod.from_json_doc(_load_json(args.sds))
    a, b = _two_parts(system)
    if system.flavour == sds_mod.NON_INCLUSIVE:
        square = squares_mod.reversible_square_even(a, b, cap=args.max_product)
    else:
        square = squares_mod.reversible_square_odd(a, b, cap=args.max_product)
    print(canonical_json(squares_mod.to_json_doc(square)))
    return EXIT_OK


def _cmd_square_magic(args: argparse.Namespace) -> int:
    system = sds_mod.from_json_doc(_load_json(args.sds))
    if system.flavour != sds_mod.NON_INCLUSIVE:
        raise InputError("magic squares need a non-inclusive system")
    a, b = _two_parts(system)
    v = w = None
    if args.signs is not None:
        try:
            v_text, w_text = args.signs.split(";")
        except ValueError:
            raise InputError("--signs must be two sign strings joined by ';'") from None
        v = _parse_signs(v_text, "v")
        w = _parse_signs(w_text, "w")
    square = squares_mod.associated_magic_square(a, b, v, w, cap=args.max_product)
    print(canonical_json(squares_mod.to_json_doc(square)))
    return EXIT_OK


def _cmd_square_mostperfect(args: argparse.Namespace) -> int:
    system = sds_mod.from_json_doc(_load_json(args.sds))
    if system.flavour != sds_mod.NON_INCLUSIVE:
        raise InputError("most perfect squares need a non-inclusive system")
    a, b = _two_parts(system)
    square = squares_mod.most_perfect_square(a, b, cap=args.max_product)
    print(canonical_json(squares_mod.to_json_doc(square)))
    return EXIT_OK


def _cmd_square_verify(args: argparse.Namespace) -> int:
    square = squares_mod.from_json_doc(_load_json(args.source), cap=args.max_product)
    kind = "most-perfect" if args.kind == "mostperfect" else args.kind
    return _emit_report(squares_mod.verify_square(square, kind))


def build_parser() -> argparse.ArgumentParser:
    cap_parent = argparse.ArgumentParser(add_help=False)
    cap_parent.add_argument(
        "--max-product",
        type=int,
        default=DEFAULT_CAP,
        help="cap on the sums, entries, factorisations or cells counted (default %(default)s)",
    )
    parser = argparse.ArgumentParser(
        prog="addsys",
        description="Build, verify, convert and decompose additive systems of integers.",
    )
    top = parser.add_subparsers(dest="group", required=True)

    jof = top.add_parser("jof", help="joint ordered factorisations").add_subparsers(
        dest="command", required=True
    )
    enumerate_p = jof.add_parser("enumerate", parents=[cap_parent])
    enumerate_p.add_argument("--dims", required=True, help="comma-separated sizes, e.g. 15,8,6")
    enumerate_p.add_argument("--count-only", action="store_true")
    enumerate_p.add_argument("--limit", type=int, default=None)
    enumerate_p.set_defaults(handler=_cmd_jof_enumerate)

    sumsys = top.add_parser("sumsys", help="sum systems").add_subparsers(
        dest="command", required=True
    )
    from_jof = sumsys.add_parser("from-jof", parents=[cap_parent])
    from_jof.add_argument("jof", help="factorisation text, e.g. 1:5,2:2,1:3")
    from_jof.set_defaults(handler=_cmd_sumsys_from_jof)
    verify = sumsys.add_parser("verify", parents=[cap_parent])
    verify.add_argument("source", help="JSON file or - for stdin")
    verify.set_defaults(handler=_cmd_sumsys_verify)
    decompose = sumsys.add_parser("decompose", parents=[cap_parent])
    decompose.add_argument("source", help="JSON file or - for stdin")
    decompose.set_defaults(handler=_cmd_sumsys_decompose)

    sds = top.add_parser("sds", help="sum-and-distance systems").add_subparsers(
        dest="command", required=True
    )
    from_sumsys = sds.add_parser("from-sumsys", parents=[cap_parent])
    from_sumsys.add_argument("source", help="sum-system JSON file or -")
    from_sumsys.add_argument(
        "--flavour", choices=list(sds_mod.FLAVOURS), default=None,
        help="override the parity-inferred flavour",
    )
    from_sumsys.set_defaults(handler=_cmd_sds_from_sumsys)
    to_sumsys = sds.add_parser("to-sumsys", parents=[cap_parent])
    to_sumsys.add_argument("source", help="sum-and-distance JSON file or -")
    to_sumsys.set_defaults(handler=_cmd_sds_to_sumsys)
    sds_verify = sds.add_parser("verify", parents=[cap_parent])
    sds_verify.add_argument("source", help="sum-and-distance JSON file or -")
    sds_verify.set_defaults(handler=_cmd_sds_verify)

    cuboid = top.add_parser("cuboid", help="reversible cuboids").add_subparsers(
        dest="command", required=True
    )
    build = cuboid.add_parser("build", parents=[cap_parent])
    build.add_argument("--jof", required=True, help="factorisation text")
    build.add_argument("--format", choices=["json", "csv"], default="json")
    build.set_defaults(handler=_cmd_cuboid_build)
    cverify = cuboid.add_parser("verify", parents=[cap_parent])
    cverify.add_argument("source", help="cuboid JSON file or -")
    cverify.set_defaults(handler=_cmd_cuboid_verify)
    cdecompose = cuboid.add_parser("decompose", parents=[cap_parent])
    cdecompose.add_argument("source", help="cuboid JSON file or -")
    cdecompose.set_defaults(handler=_cmd_cuboid_decompose)

    square = top.add_parser("square", help="derived square matrices").add_subparsers(
        dest="command", required=True
    )
    reversible = square.add_parser("reversible", parents=[cap_parent])
    reversible.add_argument("--sds", required=True, help="2-part system JSON file or -")
    reversible.set_defaults(handler=_cmd_square_reversible)
    magic = square.add_parser("magic", parents=[cap_parent])
    magic.add_argument("--sds", required=True, help="2-part non-inclusive JSON file or -")
    magic.add_argument("--signs", default=None, help="two sign strings, e.g. '+-;+-'")
    magic.set_defaults(handler=_cmd_square_magic)
    mostperfect = square.add_parser("mostperfect", parents=[cap_parent])
    mostperfect.add_argument("--sds", required=True, help="2-part non-inclusive JSON file or -")
    mostperfect.set_defaults(handler=_cmd_square_mostperfect)
    sverify = square.add_parser("verify", parents=[cap_parent])
    sverify.add_argument(
        "--kind", required=True,
        choices=["reversible", "associated", "most-perfect", "mostperfect"],
    )
    sverify.add_argument("source", help="square JSON file or -")
    sverify.set_defaults(handler=_cmd_square_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return EXIT_OK if not exc.code else EXIT_INPUT
    try:
        return args.handler(args)
    except VerificationFailedError as exc:
        print(canonical_json(exc.report.to_json_doc()))
        return EXIT_VERIFICATION
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (InputError, Int64OverflowError, InternalContradictionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
