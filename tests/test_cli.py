import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from addsys import sds as sds_mod, squares as squares_mod
from addsys.cli import _COMMANDS, main
from conftest import (
    E1A_PARTS,
    E2_SDS_PARTS,
    JOF_TEXT_E1A,
    JOF_TEXT_E2,
    src_env,
)

#: Every (group, command) pair in the CLI's command table.
TABLE_COMMANDS = {(group, command) for group, (_, table) in _COMMANDS.items() for command in table}


def run_cli(capsys, *argv, stdin=None):
    if stdin is not None:
        import io

        old = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            code = main(list(argv))
        finally:
            sys.stdin = old
    else:
        code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestJof:
    def test_count_only(self, capsys):
        code, out, _ = run_cli(capsys, "jof", "enumerate", "--dims", "2,2", "--count-only")
        assert code == 0
        assert out == '{"count":2}\n'

    def test_enumerate_with_limit(self, capsys):
        code, out, _ = run_cli(capsys, "jof", "enumerate", "--dims", "4,2", "--limit", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["jofs"] == ["1:2,2:2,1:2", "1:4,2:2"]

    def test_max_product_caps_listing(self, capsys):
        # dims (4, 2) have 3 factorisations; --count-only caps the dims product
        argv = ["jof", "enumerate", "--dims", "4,2", "--max-product", "2"]
        assert run_cli(capsys, *argv)[0] == 3
        assert run_cli(capsys, *argv, "--limit", "2")[0] == 0
        assert run_cli(capsys, *argv, "--count-only")[0] == 3
        assert run_cli(capsys, "jof", "enumerate", "--dims", "4,2", "--count-only",
                       "--max-product", "8")[0] == 0

    def test_negative_limit(self, capsys):
        code, out, err = run_cli(capsys, "jof", "enumerate", "--dims", "4,2", "--limit", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: --limit must be >= 0, got -1\n"

    def test_bad_dims(self, capsys):
        code, _, err = run_cli(capsys, "jof", "enumerate", "--dims", "2,x")
        assert code == 2
        assert err == "error: malformed dims '2,x', expected comma-separated integers\n"


class TestSumsys:
    def test_from_jof_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "sumsys", "from-jof", JOF_TEXT_E1A)
        assert code == 0
        doc = json.loads(out)
        assert doc["parts"] == [list(p) for p in E1A_PARTS]
        assert doc["dims"] == [15, 8, 6]

    def test_from_jof_cap(self, capsys):
        code, out, err = run_cli(capsys, "sumsys", "from-jof", "1:100000,2:10000")
        assert code == 3
        assert out == ""
        assert "cap" in err
        assert run_cli(capsys, "sumsys", "from-jof", "1:4,2:2", "--max-product", "7")[0] == 3
        assert run_cli(capsys, "sumsys", "from-jof", "1:4,2:2", "--max-product", "8")[0] == 0

    @pytest.mark.parametrize("command", [["sumsys", "from-jof"], ["cuboid", "build", "--jof"]])
    def test_huge_direction_is_a_short_input_error(self, capsys, command):
        for cap in ([], ["--max-product", "1"]):
            code, out, err = run_cli(capsys, *command, "10000000:2", *cap)
            assert (code, out) == (2, "")
            assert len(err) < 200

    def test_verify_pass_and_fail(self, capsys, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"dims": [2, 2], "parts": [[0, 1], [0, 2]]}))
        code, out, _ = run_cli(capsys, "sumsys", "verify", str(good))
        assert code == 0
        assert json.loads(out) == {"passed": True}

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dims": [2, 2], "parts": [[0, 1], [0, 1]]}))
        code, out, _ = run_cli(capsys, "sumsys", "verify", str(bad))
        assert code == 1
        doc = json.loads(out)
        assert doc["passed"] is False
        assert doc["violated_invariant"] == "target-mismatch"

    def test_verify_from_stdin(self, capsys):
        payload = json.dumps({"dims": [2, 2], "parts": [[0, 1], [0, 2]]})
        code, out, _ = run_cli(capsys, "sumsys", "verify", "-", stdin=payload)
        assert code == 0

    def test_pipe_from_jof_to_decompose(self, capsys):
        code, out, _ = run_cli(capsys, "sumsys", "from-jof", JOF_TEXT_E1A)
        assert code == 0
        code, out, _ = run_cli(capsys, "sumsys", "decompose", "-", stdin=out)
        assert code == 0
        assert json.loads(out) == {"dims": [15, 8, 6], "jof": JOF_TEXT_E1A}

    def test_malformed_json_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "sumsys", "verify", "-", stdin="{nope")
        assert code == 2
        assert err == (
            "error: invalid JSON in '-': Expecting property name enclosed in double quotes:"
            " line 1 column 2 (char 1)\n"
        )

    def test_decompose_rejects_invalid_system_with_report(self, capsys):
        payload = json.dumps({"dims": [2, 2], "parts": [[0, 1], [0, 1]]})
        code, out, _ = run_cli(capsys, "sumsys", "decompose", "-", stdin=payload)
        assert code == 1
        assert json.loads(out)["passed"] is False


class TestSds:
    def test_from_sumsys_infers_noninclusive(self, capsys):
        code, out, _ = run_cli(capsys, "sumsys", "from-jof", JOF_TEXT_E2)
        code, out, _ = run_cli(capsys, "sds", "from-sumsys", "-", stdin=out)
        assert code == 0
        doc = json.loads(out)
        assert doc["flavour"] == "non-inclusive"
        assert doc["parts"] == [list(p) for p in E2_SDS_PARTS]

    def test_round_trip_through_to_sumsys(self, capsys):
        _, built, _ = run_cli(capsys, "sumsys", "from-jof", JOF_TEXT_E2)
        _, sds_doc, _ = run_cli(capsys, "sds", "from-sumsys", "-", stdin=built)
        code, back, _ = run_cli(capsys, "sds", "to-sumsys", "-", stdin=sds_doc)
        assert code == 0
        assert back == built

    def test_verify(self, capsys):
        payload = json.dumps({"flavour": "non-inclusive", "parts": [[7, 9], [2, 6]]})
        code, out, _ = run_cli(capsys, "sds", "verify", "-", stdin=payload)
        assert code == 0
        payload = json.dumps({"flavour": "inclusive", "parts": [[7, 9], [2, 6]]})
        code, out, _ = run_cli(capsys, "sds", "verify", "-", stdin=payload)
        assert code == 1

    def test_verify_e4_size_reject(self, capsys, e4_sds_reject):
        payload = json.dumps({"flavour": e4_sds_reject.flavour, "parts": e4_sds_reject.parts})
        code, out, _ = run_cli(capsys, "sds", "verify", "-", stdin=payload)
        assert code == 1
        assert out == '{"passed":false,"violated_invariant":"target-mismatch","witness":-3386881}\n'

    def test_mixed_parity_is_input_error(self, capsys):
        payload = json.dumps({"dims": [2, 3], "parts": [[0, 1], [0, 2, 4]]})
        code, _, err = run_cli(capsys, "sds", "from-sumsys", "-", stdin=payload)
        assert code == 2
        assert "mixed" in err


class TestCuboid:
    def test_build_verify_decompose_chain(self, capsys):
        code, built, _ = run_cli(capsys, "cuboid", "build", "--jof", "1:4,2:4")
        assert code == 0
        doc = json.loads(built)
        assert doc == {"dims": [4, 4], "entries": list(range(16))}
        code, out, _ = run_cli(capsys, "cuboid", "verify", "-", stdin=built)
        assert code == 0
        code, out, _ = run_cli(capsys, "cuboid", "decompose", "-", stdin=built)
        assert code == 0
        assert json.loads(out) == {"dims": [4, 4], "jof": "1:4,2:4"}

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "cuboid", "build", "--jof", "1:2,2:2", "--format", "csv")
        assert code == 0
        assert out == "0,1\n2,3\n"

    def test_verify_failure_exit(self, capsys):
        payload = json.dumps({"dims": [2, 2], "entries": [0, 1, 3, 2]})
        code, out, _ = run_cli(capsys, "cuboid", "verify", "-", stdin=payload)
        assert code == 1
        assert json.loads(out)["violated_invariant"] == "monotonicity"

    def test_bool_dims_rejected(self, capsys):
        payload = json.dumps({"dims": [True, 4], "entries": [0, 1, 2, 3]})
        for command in ("verify", "decompose"):
            code, out, err = run_cli(capsys, "cuboid", command, "-", stdin=payload)
            assert code == 2
            assert out == ""
            assert "'dims' must be a list of integers" in err

    def test_cap_exit(self, capsys):
        code, _, err = run_cli(
            capsys, "cuboid", "build", "--jof", "1:100000,2:10000"
        )
        assert code == 3
        assert "cap" in err

    def test_max_product_lowers_cap(self, capsys):
        payload = json.dumps({"dims": [4, 4], "parts": [[0, 1, 2, 3], [0, 4, 8, 12]]})
        code, _, err = run_cli(
            capsys, "sumsys", "verify", "--max-product", "8", "-", stdin=payload
        )
        assert code == 3


class TestSquare:
    def test_reversible_even_from_sds(self, capsys):
        payload = json.dumps({"flavour": "non-inclusive", "parts": [[7, 9], [2, 6]]})
        code, out, _ = run_cli(capsys, "square", "reversible", "--sds", "-", stdin=payload)
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 4
        assert doc["entries"][0] == [16, 15, 8, 7]
        code, out, _ = run_cli(
            capsys, "square", "verify", "--kind", "reversible", "-", stdin=out
        )
        assert code == 0

    def test_reversible_odd_from_inclusive(self, capsys):
        payload = json.dumps({"flavour": "inclusive", "parts": [[1], [3]]})
        code, out, _ = run_cli(capsys, "square", "reversible", "--sds", "-", stdin=payload)
        assert code == 0
        assert json.loads(out)["entries"] == [[9, 8, 7], [6, 5, 4], [3, 2, 1]]

    def test_magic_with_signs(self, capsys):
        payload = json.dumps({"flavour": "non-inclusive", "parts": [[7, 9], [2, 6]]})
        code, out, _ = run_cli(
            capsys, "square", "magic", "--sds", "-", "--signs", "+-;+-", stdin=payload
        )
        assert code == 0
        assert json.loads(out)["entries"][0] == [16, 9, 2, 7]

    def test_mostperfect_and_cross_verify(self, capsys):
        payload = json.dumps({"flavour": "non-inclusive", "parts": [[7, 9], [2, 6]]})
        code, out, _ = run_cli(capsys, "square", "mostperfect", "--sds", "-", stdin=payload)
        assert code == 0
        code, verdict, _ = run_cli(
            capsys, "square", "verify", "--kind", "mostperfect", "-", stdin=out
        )
        assert code == 0
        assert json.loads(verdict)["note"] == "toroidal-2x2-blocks"

    @pytest.mark.parametrize("command", ["reversible", "magic", "mostperfect"])
    def test_max_product_caps_the_pair_check(self, capsys, command):
        payload = json.dumps({"flavour": "non-inclusive", "parts": [[7, 9], [2, 6]]})
        code, out, err = run_cli(
            capsys, "square", command, "--max-product", "3", "--sds", "-", stdin=payload
        )
        assert code == 3
        assert out == ""
        assert "cap is 3" in err

    def test_magic_rejects_inclusive(self, capsys):
        payload = json.dumps({"flavour": "inclusive", "parts": [[1], [3]]})
        code, _, err = run_cli(capsys, "square", "magic", "--sds", "-", stdin=payload)
        assert code == 2
        assert err == "error: magic squares need a non-inclusive system\n"
        code, _, err = run_cli(capsys, "square", "mostperfect", "--sds", "-", stdin=payload)
        assert code == 2
        assert err == "error: most perfect squares need a non-inclusive system\n"

    def test_bad_signs(self, capsys):
        payload = json.dumps({"flavour": "non-inclusive", "parts": [[7, 9], [2, 6]]})
        for signs, message in [
            ("+x;+-", "v must use only '+' and '-', got '+x'"),
            ("+-;x-", "w must use only '+' and '-', got 'x-'"),
            ("+-", "--signs must be two sign strings joined by ';'"),
            ("+-;-+;", "--signs must be two sign strings joined by ';'"),
        ]:
            code, _, err = run_cli(
                capsys, "square", "magic", "--sds", "-", "--signs", signs, stdin=payload
            )
            assert code == 2
            assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["reversible", "magic", "mostperfect"])
    @pytest.mark.parametrize("flavour", ["non-inclusive", "inclusive"])
    def test_needs_two_parts(self, capsys, command, flavour):
        payload = json.dumps({"flavour": flavour, "parts": [[1], [1], [1]]})
        code, out, err = run_cli(capsys, "square", command, "--sds", "-", stdin=payload)
        assert (code, out) == (2, "")
        if flavour == "inclusive" and command != "reversible":
            squares = "magic squares" if command == "magic" else "most perfect squares"
            assert err == f"error: {squares} need a non-inclusive system\n"
        else:
            assert err == "error: square construction needs a 2-part system, got 3\n"

    @pytest.mark.parametrize("payload", ['{"n":true,"entries":[[1]]}', '{"n":1.0,"entries":[[1]]}'])
    def test_verify_rejects_a_non_integer_side(self, capsys, payload):
        code, out, err = run_cli(
            capsys, "square", "verify", "--kind", "reversible", "-", stdin=payload
        )
        assert code == 2
        assert out == ""
        assert "'n' must be an integer" in err

    @pytest.mark.parametrize("entry", [2**62, 2**63 - 1, -(2**62) - 1, -(2**63)])
    def test_verify_reports_on_every_int64_entry(self, capsys, entry):
        # Entries are held as given, so all of int64 reaches the report.
        code, out, err = run_cli(
            capsys, "square", "verify", "--kind", "reversible", "-",
            stdin=f'{{"n":1,"entries":[[{entry}]]}}',
        )
        assert (code, err) == (1, "")
        assert out == f'{{"passed":false,"violated_invariant":"entry-set","witness":{entry}}}\n'


HELP_TEXT = json.loads(Path(__file__).with_name("cli_help.json").read_text(encoding="utf-8"))


class TestContract:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "nope")[0] == 2

    def test_help_of_every_parser_level_is_unchanged(self, capsys, monkeypatch):
        # cli_help.json holds the --help text of each level at 80 columns,
        # captured from the CLI before its commands moved into one table
        # (the `sds from-sumsys` entry since its --flavour option went).
        monkeypatch.setenv("COLUMNS", "80")
        assert set(HELP_TEXT) == {"", *_COMMANDS, *map(" ".join, TABLE_COMMANDS)}
        for level, text in HELP_TEXT.items():
            assert run_cli(capsys, *level.split(), "--help") == (0, text, "")

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "sumsys", "verify", "/does/not/exist.json")
        assert code == 2

    def test_byte_identical_repeat_runs(self, capsys):
        first = run_cli(capsys, "sumsys", "from-jof", JOF_TEXT_E1A)
        second = run_cli(capsys, "sumsys", "from-jof", JOF_TEXT_E1A)
        assert first == second

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "addsys", "jof", "enumerate", "--dims", "2,2", "--count-only"],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout == '{"count":2}\n'


SUMSYS_DOC = '{"dims":[2,2],"parts":[[0,1],[0,2]]}'
SDS_DOC = '{"flavour":"non-inclusive","parts":[[7,9],[2,6]]}'
CUBOID_DOC = '{"dims":[2,2],"entries":[0,1,2,3]}'

#: Every subcommand form on a small valid input (argv, stdin).
CAPPED_FORMS = {
    "jof enumerate": (["jof", "enumerate", "--dims", "2,2"], None),
    "jof enumerate --count-only": (["jof", "enumerate", "--dims", "2,2", "--count-only"], None),
    "sumsys from-jof": (["sumsys", "from-jof", "1:2,2:2"], None),
    "sumsys verify": (["sumsys", "verify", "-"], SUMSYS_DOC),
    "sumsys decompose": (["sumsys", "decompose", "-"], SUMSYS_DOC),
    "sds from-sumsys": (["sds", "from-sumsys", "-"], SUMSYS_DOC),
    "sds to-sumsys": (["sds", "to-sumsys", "-"], SDS_DOC),
    "sds verify": (["sds", "verify", "-"], SDS_DOC),
    "cuboid build": (["cuboid", "build", "--jof", "1:2,2:2"], None),
    "cuboid verify": (["cuboid", "verify", "-"], CUBOID_DOC),
    "cuboid decompose": (["cuboid", "decompose", "-"], CUBOID_DOC),
    "square reversible": (["square", "reversible", "--sds", "-"], SDS_DOC),
    "square magic": (["square", "magic", "--sds", "-"], SDS_DOC),
    "square mostperfect": (["square", "mostperfect", "--sds", "-"], SDS_DOC),
    "square verify reversible": (
        ["square", "verify", "--kind", "reversible", "-"], '{"n":2,"entries":[[1,2],[3,4]]}',
    ),
    "square verify associated": (
        ["square", "verify", "--kind", "associated", "-"],
        '{"n":3,"entries":[[2,7,6],[9,5,1],[4,3,8]]}',
    ),
}


@pytest.mark.parametrize("argv, stdin", CAPPED_FORMS.values(), ids=list(CAPPED_FORMS))
def test_max_product_applies_to_every_subcommand(capsys, argv, stdin):
    assert run_cli(capsys, *argv, stdin=stdin)[0] == 0
    code, out, err = run_cli(capsys, *argv, "--max-product", "1", stdin=stdin)
    assert code == 3
    assert out == ""
    assert "cap is 1" in err


def test_capped_forms_cover_every_subcommand():
    assert {tuple(argv[:2]) for argv, _ in CAPPED_FORMS.values()} == TABLE_COMMANDS


ODD_SUMSYS_DOC = '{"dims":[3],"parts":[[0,1,2]]}'
INCLUSIVE_DOC = '{"flavour":"inclusive","parts":[[1],[3]]}'

#: Commands whose work is one public map or builder: (argv, stdin, module, name).
PUBLIC_CALLS = {
    "sds from-sumsys even": (
        ["sds", "from-sumsys", "-"], SUMSYS_DOC, sds_mod, "sumsys_to_sds_noninclusive",
    ),
    "sds from-sumsys odd": (
        ["sds", "from-sumsys", "-"], ODD_SUMSYS_DOC, sds_mod, "sumsys_to_sds_inclusive",
    ),
    "sds to-sumsys non-inclusive": (
        ["sds", "to-sumsys", "-"], SDS_DOC, sds_mod, "sds_to_sumsys_noninclusive",
    ),
    "sds to-sumsys inclusive": (
        ["sds", "to-sumsys", "-"], INCLUSIVE_DOC, sds_mod, "sds_to_sumsys_inclusive",
    ),
    "square reversible even": (
        ["square", "reversible", "--sds", "-"], SDS_DOC, squares_mod, "reversible_square_even",
    ),
    "square reversible odd": (
        ["square", "reversible", "--sds", "-"], INCLUSIVE_DOC, squares_mod, "reversible_square_odd",
    ),
}


@pytest.mark.parametrize(
    "argv, stdin, module, name", PUBLIC_CALLS.values(), ids=list(PUBLIC_CALLS)
)
def test_commands_call_the_public_name(capsys, monkeypatch, argv, stdin, module, name):
    # A wrapper set on the module, as a tracer installs one, must see the call.
    expected = run_cli(capsys, *argv, stdin=stdin)
    calls = []
    public = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or public(*a, **k))
    assert run_cli(capsys, *argv, stdin=stdin) == expected
    assert expected[0] == 0
    assert len(calls) == 1


#: Every command that reads a JSON document, without its source argument.
DOCUMENT_COMMANDS = [
    ["sumsys", "verify"],
    ["sumsys", "decompose"],
    ["sds", "from-sumsys"],
    ["sds", "to-sumsys"],
    ["sds", "verify"],
    ["cuboid", "verify"],
    ["cuboid", "decompose"],
    ["square", "reversible", "--sds"],
    ["square", "magic", "--sds"],
    ["square", "mostperfect", "--sds"],
    *(["square", "verify", "--kind", kind] for kind in ("reversible", "associated", "most-perfect")),
]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
small_ints = st.booleans() | st.integers(-1, 6)


def lists_of(n: int):
    """A run 0 .. n - 1, n small integers or booleans, or any JSON value."""
    return st.just(list(range(n))) | st.lists(small_ints, min_size=n, max_size=n) | json_values


@st.composite
def documents(draw):
    """Any JSON value, or an object holding the keys the commands read."""
    if draw(st.booleans()):
        return draw(json_values)
    dims = draw(st.lists(small_ints, max_size=3))
    side = draw(st.integers(0, 4))
    doc = {
        "dims": dims,
        "entries": draw(
            lists_of(max(math.prod(dims), 0))
            | st.lists(lists_of(side), min_size=side, max_size=side)
        ),
        "parts": [draw(lists_of(max(n, 0))) for n in dims],
        "flavour": draw(st.sampled_from(["inclusive", "non-inclusive"]) | json_values),
        "n": draw(small_ints | json_values),
    }
    for key in draw(st.sets(st.sampled_from(sorted(doc)))):
        del doc[key]
    return doc


class TestRobustness:
    @pytest.mark.parametrize("via_stdin", [False, True], ids=["file", "stdin"])
    @pytest.mark.parametrize("payload", [b"\xff\xfe{}", b"[" * 100_000, b"1" * 5_000],
                             ids=["not-utf-8", "nested-too-deep", "over-long-integer"])
    @pytest.mark.parametrize("command", DOCUMENT_COMMANDS, ids=" ".join)
    def test_unreadable_document_is_an_input_error(
        self, capsys, tmp_path, command, payload, via_stdin
    ):
        source = tmp_path / "doc.json"
        source.write_bytes(payload)
        path = "-" if via_stdin else str(source)
        with mock.patch.object(sys, "stdin", io.TextIOWrapper(io.BytesIO(payload), "utf-8")):
            code, out, err = run_cli(capsys, *command, path)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: invalid JSON in {path!r}: ")

    @given(st.sampled_from(DOCUMENT_COMMANDS), documents())
    @settings(max_examples=500, deadline=None)
    def test_any_document_gets_a_documented_exit(self, command, doc):
        out = io.StringIO()
        with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(doc))), \
                redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main([*command, "-"])
        assert code in (0, 1, 2, 3)
        if code == 0:
            dims = json.loads(out.getvalue()).get("dims", [])
            assert all(type(n) is int for n in dims)
