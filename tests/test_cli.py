import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import inject_strip_sign_defect, partition_strategy, ref_positivity
from plethy import _mn_pure, cli, lie_family
from plethy.cli import MAX_SCHUR_DEGREE, main
from plethy.partitions import partitions_of
from plethy.series import SeriesContext
from plethy.symfunc import p

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(args, stdin_text=None, capsys=None):
    """Invoke the entry point in-process and capture stdout."""
    old_stdin = sys.stdin
    try:
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        code = main(args)
    finally:
        sys.stdin = old_stdin
    out, err = capsys.readouterr()
    return code, out, err


def test_compute_p_basis(capsys):
    code, out, _ = run_cli(["compute", "ell", "4", "4"], capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "basis": "p",
        "terms": [
            {"partition": [4], "coeff": "1/2"},
            {"partition": [2, 2], "coeff": "1/4"},
            {"partition": [1, 1, 1, 1], "coeff": "1/4"},
        ],
    }


def test_compute_schur_basis(capsys):
    code, out, _ = run_cli(["compute", "delta", "4", "--basis", "s"], capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["basis"] == "s"
    assert payload["degree"] == 4
    terms = {tuple(t["partition"]): int(t["coeff"]) for t in payload["terms"]}
    assert terms == {(4,): 1, (3, 1): 1, (2, 2): 1, (2, 1, 1): 1}


def test_compute_usage_errors(capsys):
    code, _, err = run_cli(["compute", "ell", "4"], capsys=capsys)
    assert code == 2 and "extra parameter" in err
    code, _, err = run_cli(["compute", "ell", "4", "9"], capsys=capsys)
    assert code == 2 and "error" in err
    with pytest.raises(SystemExit) as exc:
        run_cli(["compute", "nosuch", "4"], capsys=capsys)
    assert exc.value.code == 2
    # a negative degree is an error for every object, not an empty function
    for obj, n in (("delta", "-1"), ("sigma", "-2"), ("tau", "-1")):
        code, out, err = run_cli(["compute", obj, n], capsys=capsys)
        assert code == 2 and out == "" and f"{obj} needs n >= 0" in err
    # u and beta name their own range, not that of the piece they sum
    for obj, n, k in (("u", "0", "0"), ("beta", "3", "7")):
        code, out, err = run_cli(["compute", obj, n, k], capsys=capsys)
        assert code == 2 and out == "" and f"{obj} needs 0 <= k <= n-1" in err
    # a family names itself, not the helper that builds it
    for obj, n in (("lie", "0"), ("conj", "0"), ("lie2", "-3")):
        code, out, err = run_cli(["compute", obj, n], capsys=capsys)
        assert (code, out, err) == (2, "", f"error: {obj} needs n >= 1\n")


def test_compute_schur_basis_refuses_a_degree_past_the_bound(monkeypatch, capsys):
    # refused before any character work: the (1^n) column alone has p(n) entries
    def no_expansion(f):
        raise AssertionError("to_schur called past the degree bound")

    monkeypatch.setattr(cli, "to_schur", no_expansion)
    n = str(MAX_SCHUR_DEGREE + 1)
    code, out, err = run_cli(["compute", "lie", n, "--basis", "s"], capsys=capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(MAX_SCHUR_DEGREE) in err
    # the p basis has no such bound
    code, out, _ = run_cli(["compute", "lie", n], capsys=capsys)
    assert code == 0 and json.loads(out)["basis"] == "p"


def test_schur_command_round_trip(capsys):
    code, out, _ = run_cli(["compute", "lie2", "6"], capsys=capsys)
    assert code == 0
    code, out2, _ = run_cli(["schur"], stdin_text=out, capsys=capsys)
    assert code == 0
    payload = json.loads(out2)
    terms = {tuple(t["partition"]): int(t["coeff"]) for t in payload["terms"]}
    assert terms[(3, 2, 1)] == 3
    code, _, err = run_cli(["schur"], stdin_text="{\"basis\": \"x\"}", capsys=capsys)
    assert code == 2
    # inhomogeneous and non-virtual inputs are usage errors with a diagnostic
    mixed = json.dumps(
        {
            "basis": "p",
            "terms": [
                {"partition": [1], "coeff": "1"},
                {"partition": [2], "coeff": "1"},
            ],
        }
    )
    code, _, err = run_cli(["schur"], stdin_text=mixed, capsys=capsys)
    assert code == 2 and "homogeneous" in err
    half = json.dumps({"basis": "p", "terms": [{"partition": [2], "coeff": "1/3"}]})
    code, _, err = run_cli(["schur"], stdin_text=half, capsys=capsys)
    assert code == 2 and "not a virtual character" in err


@pytest.mark.parametrize(
    "payload",
    [
        '{"basis": "p", "terms": [{"partition": 5, "coeff": "1"}]}',
        "[1]",
        '{"basis": "p", "terms": [{"partition": [1], "coeff": 2.0}]}',
        '{"basis": "p", "terms": [{"partition": [1], "coeff": "1/0"}]}',
        '{"basis": "p", "terms": [{"coeff": "1"}]}',
        "{not json",
        "[" * 100000 + "]" * 100000,
        '{"basis": "p", "terms": [{"partition": [1], "coeff": "1e5000"}]}',
        '{"basis": "p", "terms": [{"partition": [1], "coeff": "1e10000000"}]}',
    ],
    ids=[
        "partition-not-a-list",
        "top-level-list",
        "float-coeff",
        "zero-denominator",
        "no-partition",
        "bad-json",
        "deep-nesting",
        "coeff-too-long-to-print",
        "coeff-exponent-past-digit-limit",
    ],
)
def test_schur_command_malformed_payloads_exit_2(payload, capsys):
    start = time.perf_counter()
    code, out, err = run_cli(["schur"], stdin_text=payload, capsys=capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("bad input: ")


@pytest.mark.parametrize(
    "term",
    [{"partition": [0] * 300_000, "coeff": 1}, {"partition": [1], "coeff": "1" * 4000 + "x"}],
    ids=["300000-part-partition", "4000-digit-bad-coeff"],
)
def test_bad_input_message_is_bounded(term, capsys):
    payload = json.dumps({"basis": "p", "terms": [term]})
    code, out, err = run_cli(["schur"], stdin_text=payload, capsys=capsys)
    assert code == 2 and out == ""
    assert err.startswith("bad input: ") and len(err.encode()) < 1024


_KEYS = st.sampled_from(["basis", "terms", "partition", "coeff"]) | st.text(max_size=5)
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 9)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["p", "s", "1/2", "-3", "1/0", "x"])
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=12,
)


@st.composite
def near_p_payload(draw):
    """A p-basis payload of degree <= 8, with a few fields possibly broken."""
    n = draw(st.integers(0, 8))
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        term = {
            "partition": list(draw(st.sampled_from(partitions_of(n)) | partition_strategy(8))),
            "coeff": draw(st.integers(-4, 4) | st.sampled_from(["1", "-1/2", "3/4", "1e5000"])),
        }
        broken = draw(st.sampled_from([None, None, None, "partition", "coeff", "drop", "extra"]))
        if broken in ("partition", "coeff"):
            term[broken] = draw(_JSON)
        elif broken == "drop":
            del term[draw(st.sampled_from(["partition", "coeff"]))]
        elif broken == "extra":
            term[draw(st.text(max_size=3))] = draw(_JSON)
        terms.append(term if draw(st.integers(0, 9)) else draw(_JSON))
    payload = {"basis": draw(st.sampled_from(["p", "p", "p", "s"])), "terms": terms}
    if not draw(st.integers(0, 4)):
        payload = draw(st.sampled_from([[payload], {"payload": payload}, terms]))
    return payload


@settings(max_examples=150, deadline=None)
@given(payload=_JSON | near_p_payload(), cut=st.sampled_from([0, 0, 0, 1, 2, 3]))
def test_schur_exit_code_contract_fuzz(payload, cut):
    # every stdin is either expanded (0) or refused as bad input (2)
    raw = json.dumps(payload)
    if cut:
        raw = raw[: len(raw) * cut // 4]
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    try:
        sys.stdin = io.StringIO(raw)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["schur"])
    finally:
        sys.stdin = old_stdin
    assert code in (0, 2), (raw, code)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("bad input: ")
    else:
        assert json.loads(out.getvalue())["basis"] == "s"


def test_schur_command_refuses_a_degree_past_the_bound(capsys):
    # one short term of huge degree is refused before any character work
    big = json.dumps({"basis": "p", "terms": [{"partition": [1_000_000], "coeff": 1}]})
    start = time.perf_counter()
    code, out, err = run_cli(["schur"], stdin_text=big, capsys=capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("bad input: ") and str(MAX_SCHUR_DEGREE) in err
    # p_200 = sum over the 200 hooks (200 - i, 1^i) of (-1)^i s
    hook = json.dumps({"basis": "p", "terms": [{"partition": [200], "coeff": 1}]})
    code, out, _ = run_cli(["schur"], stdin_text=hook, capsys=capsys)
    assert code == 0
    terms = {tuple(t["partition"]): int(t["coeff"]) for t in json.loads(out)["terms"]}
    assert terms == {(200 - i,) + (1,) * i: (-1) ** i for i in range(200)}


def test_schur_command_unreadable_file_exits_2(tmp_path, capsys):
    for path in (tmp_path / "missing.json", tmp_path):
        code, out, err = run_cli(["schur", "--in", str(path)], capsys=capsys)
        assert code == 2 and out == ""
        assert err.startswith("bad input: ")


@pytest.mark.parametrize("cap", range(1, 7))
def test_verify_all_low_caps_exit_0(cap, capsys):
    # entries whose min_cap is above the cap are skipped, not failed
    code, out, err = run_cli(["verify", "--all", "--cap", str(cap)], capsys=capsys)
    assert code == 0 and err == ""
    assert "FAIL" not in out
    skipped = {1: 58, 2: 3, 3: 1}.get(cap, 0)
    summary = f"{58 - skipped}/58 identities passed"
    if skipped:
        summary += f", {skipped} skipped below their min cap"
    assert out.splitlines()[-1] == summary


def test_cap_below_min_cap_reports_skip(capsys):
    code, out, _ = run_cli(["verify", "--id", "IND-CONF", "--cap", "2", "--json"], capsys=capsys)
    assert code == 0
    assert json.loads(out)["status"] == "skip"
    for which in ("upos", "whitehouse"):
        code, out, _ = run_cli(["conjecture", which, "--max-n", "1", "--json"], capsys=capsys)
        assert code == 0 and json.loads(out)["status"] == "skip"


def test_cap_below_1_is_a_usage_error():
    for args in (
        ["verify", "--all", "--cap", "0"],
        ["verify", "--id", "THRALL", "--cap", "-3"],
        ["conjecture", "upos", "--max-n", "0"],
    ):
        result = subprocess.run(
            [sys.executable, "-m", "plethy.cli", *args], capture_output=True, text=True
        )
        assert result.returncode == 2, args
        assert result.stdout == "" and "error: argument" in result.stderr
        assert "Traceback" not in result.stderr


def test_verify_single_and_exit_codes(capsys):
    code, out, _ = run_cli(["verify", "--id", "THRALL", "--cap", "6"], capsys=capsys)
    assert code == 0
    assert "PASS" in out and "THRALL" in out
    code, out, err = run_cli(["verify", "--id", "NOPE", "--cap", "6"], capsys=capsys)
    assert (code, out, err) == (2, "", "error: unknown identity id 'NOPE'\n")  # quoted once
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--jobs", "2"], capsys=capsys)
    assert exc.value.code == 2


def _contract_argv():
    """Each compute object over small and out-of-range n and extra arguments
    in both bases, and the caps and table numbers of the other commands,
    bad ones included."""
    for name, (nargs, _) in cli._OBJECTS.items():
        extras = [[str(k)] for k in range(-2, 9)] if nargs else [[]]
        for n in range(-2, 7):
            for extra in extras:
                for basis in ("p", "s"):
                    yield ["compute", name, str(n), *extra, "--basis", basis]
    for value in ("0", "-1", "1", "2", "3", "x"):
        yield ["verify", "--cap", value]
        for which in ("whitehouse", "upos"):
            yield ["conjecture", which, "--max-n", value]
    for value in ("0", "1", "4", "5", "x"):
        yield ["tables", "--which", value]
    yield ["verify", "--id", "NOPE"]


def test_exit_code_contract_over_generated_argv():
    # every call exits 0, 1 or 2, argparse's exits included, and none
    # lets an exception out or prints a traceback
    violations = []
    for argv in _contract_argv():
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
        if code not in (0, 1, 2) or "Traceback" in err.getvalue():
            violations.append((argv, code))
    assert not violations, violations


def test_identity_that_raises_is_a_failure(monkeypatch, capsys):
    # a defect below an identity is reported as its failure, not a traceback
    inject_strip_sign_defect(monkeypatch)
    code, out, _ = run_cli(["verify", "--id", "BETA-POS", "--cap", "10", "--json"], capsys=capsys)
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "fail" and "first_fail_degree" not in report
    assert any("NotVirtualCharacter" in note for note in report["detail"])


@pytest.mark.parametrize("entry", ["U-POS", "BETA-POS"])
def test_batched_positivity_scan_reports_like_one_at_a_time(monkeypatch, capsys, entry):
    from plethy import registry

    calls = []

    def one_at_a_time(fs):
        """The positivity scan without batching: each function expanded
        alone, in order, and only when the scan asks for it."""
        calls.append(fs)
        for f in fs:
            yield ref_positivity(f)

    # both entries scan their rows through the registry's one positivity loop
    inject_strip_sign_defect(monkeypatch)
    args = ["verify", "--id", entry, "--cap", "10", "--json"]
    batched = run_cli(args, capsys=capsys)[:2]
    monkeypatch.setattr(registry, "is_schur_positive_many", one_at_a_time)
    assert run_cli(args, capsys=capsys)[:2] == batched
    assert len(calls) > 0  # the stand-in ran, so the equality above compares two scans
    assert batched[0] == 1 and "NotVirtualCharacter" in batched[1]


def test_verify_json_mode(capsys):
    code, out, _ = run_cli(
        ["verify", "--id", "WHITEHOUSE", "--cap", "9", "--json"], capsys=capsys
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines() if line.strip()]
    assert len(lines) == 1
    assert lines[0]["id"] == "WHITEHOUSE"
    assert lines[0]["status"] == "pass"
    assert any("n=8: not positive" in note for note in lines[0]["detail"])


def test_tables_golden(capsys):
    for which in (1, 2, 3, 4):
        code, out, _ = run_cli(["tables", "--which", str(which)], capsys=capsys)
        assert code == 0
        assert out == (GOLDEN / f"table{which}.txt").read_text(), which


def test_tables_all_and_json(capsys):
    code, out, _ = run_cli(["tables"], capsys=capsys)
    assert code == 0
    assert out.count("Table ") == 4
    code, out, _ = run_cli(["tables", "--which", "3", "--json"], capsys=capsys)
    data = json.loads(out)
    assert data["n"] == 6 and len(data["rows"]) == 5


def test_byte_stability(capsys):
    code1, out1, _ = run_cli(["tables", "--which", "2"], capsys=capsys)
    code2, out2, _ = run_cli(["tables", "--which", "2"], capsys=capsys)
    assert out1 == out2
    ids = ["THRALL", "EXT-REG", "SYM-LIE2"]
    _, serial, _ = run_cli(["verify", "--id", "THRALL", "--cap", "5", "--json"], capsys=capsys)
    _, serial2, _ = run_cli(["verify", "--id", "THRALL", "--cap", "5", "--json"], capsys=capsys)
    assert serial == serial2


def test_verify_json_golden(capsys):
    # pins the verify JSON lines byte for byte, not just run-to-run stability
    code, out, _ = run_cli(["verify", "--all", "--cap", "8", "--json"], capsys=capsys)
    assert code == 0
    assert out == (GOLDEN / "verify-cap8.jsonl").read_text()


def test_verify_json_golden_cap12(capsys):
    # the bytes the benchmark's verify-cap12 workload checks
    code, out, _ = run_cli(["verify", "--all", "--cap", "12", "--json"], capsys=capsys)
    assert code == 0
    assert out == (GOLDEN / "verify-cap12.jsonl").read_text()


def test_verify_json_golden_cap14(capsys):
    # cap 14 reaches degrees the cap-12 golden does not, where bracket_sum
    # and plethystic_inverse share their memos across more degrees
    code, out, _ = run_cli(["verify", "--all", "--cap", "14", "--json"], capsys=capsys)
    assert code == 0
    assert out == (GOLDEN / "verify-cap14.jsonl").read_text()


def test_verify_json_golden_cap16(capsys):
    # at cap 16 the packed width of the outer powers reaches 49 to 54 bits
    code, out, _ = run_cli(["verify", "--all", "--cap", "16", "--json"], capsys=capsys)
    assert code == 0
    assert out == (GOLDEN / "verify-cap16.jsonl").read_text()


def test_verify_json_golden_low_caps(capsys):
    # pins every entry's min_cap skip and its lowest degrees at caps 1, 2 and 3
    out = ""
    for cap in ("1", "2", "3"):
        code, text, _ = run_cli(["verify", "--all", "--cap", cap, "--json"], capsys=capsys)
        assert code == 0
        out += text
    assert out == (GOLDEN / "verify-cap1-3.jsonl").read_text()


@pytest.mark.parametrize("family", ["lie", "lie2", "conj"])
def test_verify_failure_golden(monkeypatch, capsys, family):
    # pins every failing report, notes included, when the family has one
    # extra term p_1^5 at degree 5
    real = getattr(lie_family, family)
    monkeypatch.setattr(lie_family, family, lambda n: real(n) + p((1,) * n) if n == 5 else real(n))
    code, out, _ = run_cli(["verify", "--all", "--cap", "8", "--json"], capsys=capsys)
    assert code == 1
    assert out == (GOLDEN / f"verify-cap8-{family}-extra-term.jsonl").read_text()


def test_positivity_failure_golden(monkeypatch, capsys):
    # every u and beta row negated: each scan reports its first negative shape
    def negated(real):
        return lambda self, n: [-f for f in real(self, n)]

    for row in ("u_row", "beta_row"):
        monkeypatch.setattr(SeriesContext, row, negated(getattr(SeriesContext, row)))
    out = ""
    for entry in ("U-POS", "BETA-POS"):
        code, text, _ = run_cli(["verify", "--id", entry, "--cap", "8", "--json"], capsys=capsys)
        assert code == 1
        out += text
    assert out == (GOLDEN / "positivity-rows-negated-cap8.jsonl").read_text()


def test_upos_json_golden_16(capsys):
    # the bytes the benchmark's upos-16 workload checks
    code, out, _ = run_cli(["conjecture", "upos", "--max-n", "16", "--json"], capsys=capsys)
    assert code == 0
    assert out == (GOLDEN / "conjecture-upos-16.jsonl").read_text()


def test_upos_json_golden_20(capsys):
    # past the benchmark's range: the rows of n = 17..20 too
    code, out, _ = run_cli(["conjecture", "upos", "--max-n", "20", "--json"], capsys=capsys)
    assert code == 0
    assert out == (GOLDEN / "conjecture-upos-20.jsonl").read_text()


def test_whitehouse_json_golden_32(capsys):
    # the bytes the benchmark's whitehouse-32 workload checks, witness tie-break included
    code, out, _ = run_cli(["conjecture", "whitehouse", "--max-n", "32", "--json"], capsys=capsys)
    assert code == 0
    assert out == (GOLDEN / "conjecture-whitehouse-32.jsonl").read_text()


def test_whitehouse_json_golden_40(capsys):
    # past the benchmark's range: pins the witnesses of n = 33..40 too
    code, out, _ = run_cli(["conjecture", "whitehouse", "--max-n", "40", "--json"], capsys=capsys)
    assert code == 0
    assert out == (GOLDEN / "conjecture-whitehouse-40.jsonl").read_text()


@pytest.mark.parametrize(
    "args",
    [
        ["tables", "--json"],
        ["compute", "lie2", "8", "--basis", "s"],
        ["compute", "whitney", "6", "2", "--basis", "s"],
        ["compute", "u", "6", "2", "--basis", "s"],
        ["compute", "beta", "6", "2", "--basis", "s"],
        ["compute", "delta", "6", "--basis", "s"],
        ["compute", "sigma", "6", "--basis", "s"],
        ["compute", "ell", "6", "3", "--basis", "s"],
        ["compute", "u", "14", "6", "--basis", "s"],  # dense: expanded by the trie walk
    ],
    ids=" ".join,
)
def test_output_golden(args, capsys):
    # pins the Schur-basis outputs byte for byte
    name = "tables.json" if args[0] == "tables" else "-".join(args[:-2]) + "-s.json"
    code, out, _ = run_cli(args, capsys=capsys)
    assert code == 0
    assert out == (GOLDEN / name).read_text()


def test_runs_without_numpy(capsys):
    # None in sys.modules makes every import of numpy fail
    script = (
        "import sys; sys.modules['numpy'] = None\n"
        "from plethy.cli import main\n"
        "sys.exit(main(sys.argv[1:]))"
    )
    for args in (
        ["verify", "--id", "U-CLOSED", "--cap", "8"],  # the registry's one user of s()
        ["compute", "lie2", "6", "--basis", "s"],
    ):
        result = subprocess.run(
            [sys.executable, "-c", script, *args], capture_output=True, text=True
        )
        code, out, _ = run_cli(args, capsys=capsys)
        assert result.returncode == code == 0, result.stderr
        assert result.stdout == out


def test_conjecture_commands(capsys):
    code, out, _ = run_cli(["conjecture", "whitehouse", "--max-n", "10"], capsys=capsys)
    assert code == 0
    assert "n=4: not positive" in out and "n=8: not positive" in out
    code, out, _ = run_cli(["conjecture", "upos", "--max-n", "8"], capsys=capsys)
    assert code == 0
    assert "PASS" in out


def test_startup_imports_nothing_from_the_dataclasses_chain():
    # dataclasses pulls in inspect, ast, dis and tokenize, about 8 ms of every
    # call; modules the host's site already loaded do not count
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import plethy.cli\n"
        "heavy = {'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'}\n"
        "print(sorted(heavy & (set(sys.modules) - before)))"
    )
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


# the registry's ids in registry order: the theorem tier, then the two scans
REGISTRY_IDS = (
    "THRALL CADOGAN SOLOMON EXT-REG PLINV-E SYM-LIE2 ALT-E-LIE2 ALT-H-LIE ALT-H-LIE-PROD "
    "EXT-LIE EXT-CONJ ALT-CONJ ACYC-LIE ACYC-LIE2 TOTALCOH-LIE TOTALCOH-LIE2 EQUIV-PBW-SYM "
    "EQUIV-PBW-CADOGAN EQUIV-PBW-ALTEXT EQUIV-PBW-ALTEXT-GE2 EQUIV-PBW-COCHAIN "
    "EQUIV-PBW-FILT-A EQUIV-PBW-FILT-B EQUIV-PBW-HODGE EQUIV-LIE2-EXT EQUIV-LIE2-PLINV "
    "EQUIV-LIE2-GE2 EQUIV-LIE2-COCHAIN EQUIV-LIE2-FILT-A EQUIV-LIE2-FILT-B EQUIV-LIE2-HODGE "
    "SU1-LOG META-PRODUCTS-MOBIUS META-PRODUCTS-TOTIENT META-PRODUCTS-TWOADIC METAGE2-LIE "
    "METAGE2-LIE2 HE-UNIT HODGE-FILT LEHRER EVENODD HL-REG IND-CONF LEHRER-LIE2 EVENODD-LIE2 "
    "HL-LIE2 IND-LIE2 CONJ-FROM-LIE CONJ-FROM-LIE2 LIE2-FROM-LIE SIGMA-REC TAU-REC "
    "RESTRICT-REC-LIE RESTRICT-REC-LIE2 U-CLOSED BETA-POS U-POS WHITEHOUSE"
).split()


def test_scans_do_not_load_the_theorem_tier():
    # conjecture runs only U-POS or WHITEHOUSE, so it never compiles the 56
    # theorem entries; verify loads them
    script = (
        "import contextlib, io, json, sys\n"
        "from plethy.cli import main\n"
        "from plethy.registry import registry_ids\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['conjecture', 'upos', '--max-n', '4']),\n"
        "             main(['conjecture', 'whitehouse', '--max-n', '4'])]\n"
        "    after_scans = 'plethy.theorems' in sys.modules\n"
        "    codes.append(main(['verify', '--id', 'THRALL', '--cap', '4']))\n"
        "print(json.dumps([codes, after_scans, 'plethy.theorems' in sys.modules, registry_ids()]))"
    )
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    codes, after_scans, after_verify, ids = json.loads(result.stdout)
    assert codes == [0, 0, 0]
    assert not after_scans
    assert after_verify
    assert ids == REGISTRY_IDS


def test_benchmark_entry_points_run():
    # the benchmark's child process probes the import (reading
    # schur.kernel_name) and runs one CLI call; a name it needs that goes
    # missing would fail every benchmark run, so both are run here
    root = pathlib.Path(__file__).resolve().parent.parent
    child = [sys.executable, str(root / "perfbench" / "child.py")]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    probe = subprocess.run(child + ["import"], capture_output=True, text=True, env=env)
    assert probe.returncode == 0, probe.stderr
    info = json.loads(probe.stdout)
    assert info["kernel"] == _mn_pure.KERNEL_NAME
    assert pathlib.Path(info["plethy_file"]).resolve().is_relative_to(root / "src")
    argv = ["call", "--", "conjecture", "whitehouse", "--max-n", "6", "--json"]
    call = subprocess.run(child + argv, capture_output=True, text=True, env=env)
    assert call.returncode == 0, call.stderr
    assert json.loads(call.stdout)["status"] == "pass"


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "plethy.cli", "compute", "lie", "3"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["basis"] == "p"
