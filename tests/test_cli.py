import json

import pytest

from chainisom import cli
from chainisom.cli import main

from test_closed_forms import DP_BY_FIX, DP_ORDERS, ODP_BY_HEIGHT, ODP_ORDERS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestEnumerate:
    def test_dp_two_lines(self, capsys):
        code, out = run(capsys, "enumerate", "--n", "2", "--family", "dp")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 7
        assert lines[0] == "( / )"
        assert lines[-1] == "(1 2 / 2 1)"

    def test_height_filter(self, capsys):
        code, out = run(capsys, "enumerate", "--n", "3", "--family", "odp",
                        "--height", "2")
        assert code == 0
        assert len(out.splitlines()) == 5

    def test_chain_of_size_zero(self, capsys):
        code, out = run(capsys, "enumerate", "--n", "0", "--family", "odp")
        assert code == 0
        assert out == "( / )\n"

    def test_jsonl(self, capsys):
        code, out = run(capsys, "enumerate", "--n", "2", "--family", "odp",
                        "--format", "jsonl")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[0] == {"n": 2, "map": []}
        assert rows[-1] == {"n": 2, "map": [[1, 1], [2, 2]]}

    def test_cap_violation_exits_2(self, capsys):
        code, _ = run(capsys, "enumerate", "--n", "21", "--family", "dp")
        assert code == 2
        code, _ = run(capsys, "enumerate", "--n", "5", "--family", "dp",
                      "--cap", "3")
        assert code == 2

    def test_height_out_of_range_exits_2(self, capsys):
        code, out = run(capsys, "enumerate", "--n", "3", "--family", "odp",
                        "--height", "99")
        assert code == 2
        assert out == ""

    def test_usage_error_exits_2(self, capsys):
        assert run(capsys, "enumerate", "--n", "2", "--family", "xy")[0] == 2
        assert run(capsys, "enumerate")[0] == 2
        assert run(capsys, "nonsense")[0] == 2


class TestTable:
    def test_text_matches_reference_triangle(self, capsys):
        code, out = run(capsys, "table", "--family", "odp", "--by", "height",
                        "--max-n", "7")
        assert code == 0
        rows = out.splitlines()[1:]
        for n, row in enumerate(ODP_BY_HEIGHT):
            cells = [int(v) for v in rows[n].split()]
            assert cells == [n] + row + [ODP_ORDERS[n]]

    def test_csv_header_and_rows(self, capsys):
        code, out = run(capsys, "table", "--family", "dp", "--by", "fix",
                        "--max-n", "7", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,k0,k1,k2,k3,k4,k5,k6,k7,sum"
        assert lines[1] == "0,1,,,,,,,,1"
        assert lines[-1] == "7," + ",".join(map(str, DP_BY_FIX[7])) + ",686"

    def test_json_rows(self, capsys):
        code, out = run(capsys, "table", "--family", "dp", "--by", "fix",
                        "--max-n", "7", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["family"] == "dp" and payload["statistic"] == "fix"
        for n, row in enumerate(payload["rows"]):
            assert row["counts"] == DP_BY_FIX[n]
            assert row["sum"] == DP_ORDERS[n]

    def test_empirical_agrees_with_formulas(self, capsys):
        for family in ("dp", "odp"):
            for by in ("height", "fix"):
                base = run(capsys, "table", "--family", family, "--by", by,
                           "--max-n", "7", "--format", "csv")
                empirical = run(capsys, "table", "--family", family, "--by", by,
                                "--max-n", "7", "--format", "csv", "--empirical")
                assert base == empirical

    def test_caps(self, capsys):
        assert run(capsys, "table", "--family", "dp", "--by", "fix",
                   "--max-n", "61")[0] == 2
        assert run(capsys, "table", "--family", "dp", "--by", "fix",
                   "--max-n", "21", "--empirical")[0] == 2


class TestVerify:
    def test_formulas_pass(self, capsys):
        code, out = run(capsys, "verify", "--check", "formulas",
                        "--n-range", "0..6")
        assert code == 0
        assert out.splitlines()[-1] == "PASS"
        assert "formulas: 28/28 instances passed" in out

    def test_eunitary_prints_witness(self, capsys):
        code, out = run(capsys, "verify", "--check", "eunitary",
                        "--n-range", "3..4")
        assert code == 0
        assert "family=dp witness=" in out
        assert "FAIL" not in out

    def test_categorical(self, capsys):
        code, out = run(capsys, "verify", "--check", "categorical",
                        "--n-range", "3..4")
        assert code == 0
        assert "semigroup=rees" in out

    def test_json_report_schema(self, capsys):
        code, out = run(capsys, "verify", "--check", "sum-identity",
                        "--n-range", "2..5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"check", "instances", "pass"}
        assert payload["pass"] is True
        assert payload["instances"][0] == {"params": {"n": 2}, "pass": True}

    def test_single_point_range(self, capsys):
        code, out = run(capsys, "verify", "--check", "recurrence",
                        "--n-range", "7")
        assert code == 0

    def test_unknown_check_exits_2(self, capsys):
        assert run(capsys, "verify", "--check", "entropy",
                   "--n-range", "1..2")[0] == 2

    def test_bad_range_exits_2(self, capsys):
        assert run(capsys, "verify", "--check", "formulas",
                   "--n-range", "5..1")[0] == 2
        assert run(capsys, "verify", "--check", "formulas",
                   "--n-range", "x..y")[0] == 2

    def test_cap_violation_exits_2(self, capsys):
        assert run(capsys, "verify", "--check", "oracle-equivalence",
                   "--n-range", "9..9")[0] == 2

    def test_violation_exits_1(self, capsys):
        # exit code 1 is reserved for genuine property violations; none of
        # the shipped checks fail, so splice in one that does
        cli.CHECKS["always-fails"] = lambda lo, hi: [
            {"params": {"n": lo}, "pass": False, "witness": {"note": "forced"}}
        ]
        try:
            code, out = run(capsys, "verify", "--check", "always-fails",
                            "--n-range", "1..1")
        finally:
            del cli.CHECKS["always-fails"]
        assert code == 1
        lines = out.splitlines()
        assert lines[0].startswith("FAIL n=1 witness=")
        assert lines[-1] == "FAIL"


class TestGreens:
    def test_d_class_counts(self, capsys):
        code, out = run(capsys, "greens", "--n", "4", "--family", "odp",
                        "--classes", "d")
        assert code == 0
        assert out.splitlines()[0].endswith(": 9")
        code, out = run(capsys, "greens", "--n", "4", "--family", "dp",
                        "--classes", "d")
        assert out.splitlines()[0].endswith(": 8")

    def test_r_classes_listing(self, capsys):
        code, out = run(capsys, "greens", "--n", "2", "--family", "odp",
                        "--classes", "r")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].endswith(": 4")
        assert lines[1] == "[0] size 1: ( / )"
        assert lines[2] == "[1] size 2: (1 / 1) (1 / 2)"

    def test_json(self, capsys):
        code, out = run(capsys, "greens", "--n", "2", "--family", "dp",
                        "--classes", "h", "--format", "json")
        payload = json.loads(out)
        assert payload["relation"] == "H"
        assert len(payload["classes"]) == 6
        assert payload["classes"][-1] == [
            {"n": 2, "map": [[1, 1], [2, 2]]},
            {"n": 2, "map": [[1, 2], [2, 1]]},
        ]


class TestStructure:
    def test_dp3_summary(self, capsys):
        code, out = run(capsys, "structure", "--n", "3", "--family", "dp")
        assert code == 0
        assert "order: 22" in out
        assert "idempotents: 8" in out
        assert "inverse: true" in out
        assert "0-E-unitary: false  witness: (2 / 2), (1 3 2 / 3 2)" not in out
        assert "0-E-unitary: false" in out
        assert "categorical: false" in out

    def test_rees_block(self, capsys):
        code, out = run(capsys, "structure", "--n", "4", "--family", "odp",
                        "--rees-p", "2")
        assert code == 0
        assert "Q(4,2)" in out
        blocks = out.strip().split("\n\n")
        assert len(blocks) == 2
        assert "0-E-unitary: true" in blocks[1]
        assert "categorical: true" in blocks[1]
        assert "categorical: false" in blocks[0]

    def test_json(self, capsys):
        code, out = run(capsys, "structure", "--n", "3", "--family", "odp",
                        "--format", "json")
        payload = json.loads(out)
        entry = payload["structures"][0]
        assert entry["order"] == 16
        assert entry["inverse"] is True
        assert entry["zero_e_unitary"]["holds"] is True
        assert entry["categorical"]["holds"] is False
        assert entry["categorical"]["witness"]["kind"] == "not_categorical"


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("enumerate", "--n", "4", "--family", "dp"),
            ("table", "--family", "odp", "--by", "fix", "--max-n", "9"),
            ("verify", "--check", "greens", "--n-range", "0..3"),
            ("greens", "--n", "3", "--family", "dp", "--classes", "d"),
            ("structure", "--n", "3", "--family", "dp", "--rees-p", "1"),
        ],
    )
    def test_identical_invocations_identical_bytes(self, capsys, argv):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
