"""Traced stand-in for ``python -m addsys``: same arguments, stdout and exit code.

Usage: python3 perfbench/cli_child.py SPANS_OUT ARG...

Wraps, from outside, the library functions the CLI handlers call, plus
``json.loads`` and the SumSystem/SdsSystem validators, so that each call
gets a span; then runs ``addsys.cli.main`` and writes the spans to
SPANS_OUT as one JSON list.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

from spans import Tracer

WRAPPED = {
    "cli": ("canonical_json", "count_jofs", "parse_jof"),
    "sumsystem": (
        "build_sum_system", "verify_sum_system", "decompose_sum_system",
        "to_json_doc", "from_json_doc",
    ),
    "cuboid": (
        "build_cuboid", "verify_reversible", "decompose_cuboid",
        "to_json_doc", "from_json_doc", "to_csv",
    ),
    "sds": (
        "infer_flavour", "sumsys_to_sds_noninclusive", "sumsys_to_sds_inclusive",
        "sds_to_sumsys_noninclusive", "sds_to_sumsys_inclusive", "verify_sds",
        "to_json_doc", "from_json_doc",
    ),
    "squares": (
        "reversible_square_even", "reversible_square_odd", "associated_magic_square",
        "most_perfect_square", "verify_square", "to_json_doc", "from_json_doc",
    ),
}


def wrap(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)
    return traced


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    sid, parent = tracer.open()
    start = time.perf_counter_ns()
    cli = importlib.import_module("addsys.cli")
    tracer.close(sid, parent, "cli.import", start)
    for short, names in WRAPPED.items():
        module = importlib.import_module(f"addsys.{short}")
        for name in names:
            setattr(module, name, wrap(tracer, f"{short}.{name}", getattr(module, name)))
    json.loads = wrap(tracer, "json.loads", json.loads)
    for cls, module in (("SumSystem", "addsys.core"), ("SdsSystem", "addsys.sds")):
        target = getattr(importlib.import_module(module), cls)
        target.__post_init__ = wrap(tracer, f"core.{cls}", target.__post_init__)
    try:
        return tracer.call("cli.main", cli.main, argv)
    finally:
        sys.stdout.flush()
        with open(spans_out, "w", encoding="utf-8") as out:
            json.dump(tracer.spans, out)


if __name__ == "__main__":
    sys.exit(main())
