import contextlib
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import chainisom
from chainisom import ChainIsomError, DomainError, checks, cli, closed_forms, isometry_families
from chainisom.chain_maps import (
    PartialInjection,
    _trusted,
    compose,
    from_json,
    is_order_preserving,
    to_json,
)
from chainisom.cli import COMMANDS, _build_parser, _compact, main
from chainisom.greens_structure import RELATIONS, replay_witness
from chainisom.isometry_families import Family, enumerate_fast, enumerate_oracle

import helpers
from helpers import (
    count_by_reference,
    criterion_partition_reference,
    first_product_outside_all_pairs,
    is_order_reversing,
    table,
)
from test_closed_forms import DP_BY_FIX, DP_BY_HEIGHT, DP_ORDERS, ODP_BY_HEIGHT, ODP_ORDERS


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

    def test_lines_match_element_renderings(self, capsys):
        # the lines are rendered per domain from the enumeration walk, not
        # through the element values, json.dumps or print
        for n in range(11):
            for fam in (Family.DP, Family.ODP):
                els = list(enumerate_fast(n, fam))
                for h in [None, *range(n + 1)]:
                    want = [a for a in els if h is None or a.height == h]
                    argv = ["enumerate", "--n", str(n), "--family", fam.value]
                    if h is not None:
                        argv += ["--height", str(h)]
                    _, out = run(capsys, *argv, "--format", "jsonl")
                    assert out.splitlines() == [_compact(to_json(a)) for a in want]
                    _, out = run(capsys, *argv)
                    assert out.splitlines() == [str(a) for a in want]

    def test_builds_no_element(self, capsys, monkeypatch):
        want = {fmt: run(capsys, "enumerate", "--n", "8", "--family", "dp",
                         "--format", fmt) for fmt in ("text", "jsonl")}

        def refuse(*args):
            raise AssertionError("enumerate built an element")

        monkeypatch.setattr(isometry_families, "_trusted", refuse)
        monkeypatch.setattr(PartialInjection, "__init__", refuse)
        for fmt, (code, out) in want.items():
            assert code == 0 and out.count("\n") == 1435
            assert run(capsys, "enumerate", "--n", "8", "--family", "dp",
                       "--format", fmt) == (code, out)

    def test_jsonl_cells_are_made_only_for_the_points_met(self):
        # at heights 0, n - 1 and n the walk meets at most 4n of the
        # (n + 1)^2 cells; a table of them all took about 11 MB at n = 400
        def peak(*flags, n="400"):
            argv = ["enumerate", "--n", n, "--family", "dp", "--cap", n, *flags]
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                tracemalloc.start()
                try:
                    assert main(argv) == 0
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        for height in ("0", "399", "400"):
            text = peak("--height", height)
            jsonl = peak("--height", height, "--format", "jsonl")
            assert jsonl <= text + 2_000_000, (height, text, jsonl)
        # the one line of height 0 on a long chain needs no per-point table
        # in either format
        for fmt in ("text", "jsonl"):
            used = peak("--height", "0", "--format", fmt, n=str(10**6))
            assert used < 1_000_000, (fmt, used)

    def test_cap_violation_exits_2(self, capsys):
        # a refused request writes nothing: it is checked before the first line
        for flags in (("--n", "21"), ("--n", "5", "--cap", "3")):
            for fam in ("dp", "odp"):
                for fmt in ("text", "jsonl"):
                    assert run(capsys, "enumerate", *flags, "--family", fam,
                               "--format", fmt) == (2, "")

    def test_height_out_of_range_exits_2(self, capsys):
        for height in ("99", "4", "-1"):
            for fmt in ("text", "jsonl"):
                assert run(capsys, "enumerate", "--n", "3", "--family", "odp",
                           "--height", height, "--format", fmt) == (2, "")

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
        assert run(capsys, "table", "--family", "dp", "--by", "fix",
                   "--max-n", "-1")[0] == 2
        assert run(capsys, "table", "--family", "dp", "--by", "fix",
                   "--max-n", "-1", "--empirical")[0] == 2

    @pytest.mark.parametrize("argv", [
        ["table", "--family", "dp", "--by", "height", "--max-n", "-1"],
        ["table", "--family", "dp", "--by", "height", "--max-n", "-1", "--empirical"],
        ["enumerate", "--n", "-1", "--family", "dp"],
        ["greens", "--n", "-1", "--family", "dp", "--classes", "d"],
        ["structure", "--n", "-1", "--family", "dp"],
    ])
    def test_negative_chain_size_reads_the_same_on_every_route(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: chain size must be a non-negative int, got -1\n"


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
        assert run(capsys, "verify", "--check", "formulas",
                   "--n-range", "3..4..9")[0] == 2
        # ranges below the check's first instance verify nothing
        late = {
            name: c.smallest_n for name, c in checks.CHECKS.items() if c.smallest_n
        }
        assert late == {
            "recurrence": 3, "phi-bijection": 3, "sum-identity": 2, "rees": 1
        }
        for check, smallest in late.items():
            n_range = f"0..{smallest - 1}"
            assert main(["verify", "--check", check, "--n-range", n_range]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"needs n >= {smallest}" in captured.err

    def test_smallest_n_has_an_instance(self):
        # each record's smallest_n is a size the check runs on, and passes
        for name, check in checks.CHECKS.items():
            n = check.smallest_n
            instances = checks.run_check(name, n, n)
            assert instances, name
            assert all(inst["pass"] for inst in instances), name

    def test_run_check_rejects_what_the_cli_cannot_send(self):
        # the CLI's range parser refuses these first; run_check must refuse
        # them too, not pass vacuously or raise a bare Python error
        for name, lo, hi, error in (
            ("closure", 3, 1, ChainIsomError),
            ("rees", 5, 3, ChainIsomError),
            ("nope", 0, 1, DomainError),
            (["closure"], 0, 1, DomainError),
            ("sum-identity", 2.5, 3, DomainError),
        ):
            with pytest.raises(error):
                checks.run_check(name, lo, hi)

    def test_cap_violation_exits_2(self, capsys):
        assert run(capsys, "verify", "--check", "oracle-equivalence",
                   "--n-range", "9..9")[0] == 2

    def test_violation_exits_1(self, capsys):
        # exit code 1 is reserved for genuine property violations; none of
        # the shipped checks fail, so splice in one that does
        def always_fails(n):
            yield {"n": n}, False, {"note": "forced"}

        checks.CHECKS["always-fails"] = checks.Check(always_fails, 0)
        try:
            code, out = run(capsys, "verify", "--check", "always-fails",
                            "--n-range", "1..1")
        finally:
            del checks.CHECKS["always-fails"]
        assert code == 1
        lines = out.splitlines()
        assert lines[0].startswith("FAIL n=1 witness=")
        assert lines[-1] == "FAIL"


def _dropped(els):
    del els[len(els) // 2]


def _duplicated(els):
    els.insert(3, els[3])


def _pairs_reversed(els):
    # an unvalidated value, as enumerate_fast builds them, that no
    # validated constructor could produce
    i = next(i for i, a in enumerate(els) if a.height >= 2)
    els[i] = _trusted(els[i].n, els[i].pairs[::-1])


def _last_dropped(els):
    del els[-1]


class TestOracleEquivalenceCatchesFastRouteFaults:
    """oracle-equivalence is the safety net for the unvalidated fast route:
    a fast stream with one element dropped, duplicated or non-canonical
    must fail it, through ``run_check`` and through the CLI, with a witness
    that replays."""

    @pytest.fixture(params=[_dropped, _duplicated, _pairs_reversed, _last_dropped])
    def corrupted(self, request, monkeypatch):
        real = checks.enumerate_fast

        def fake(n, family, **kwargs):
            els = list(real(n, family, **kwargs))
            request.param(els)
            return iter(els)

        monkeypatch.setattr(checks, "enumerate_fast", fake)

    def test_run_check_fails(self, corrupted):
        instances = checks.run_check("oracle-equivalence", 4, 4)
        assert [inst["pass"] for inst in instances] == [False, False]

    def test_verify_exits_1(self, corrupted, capsys):
        code, out = run(capsys, "verify", "--check", "oracle-equivalence",
                        "--n-range", "4..4")
        assert code == 1
        assert out.splitlines()[-1] == "FAIL"

    def test_witness_replays(self, corrupted):
        # the streams agree before the witness index and differ at it, each
        # side showing its element there, or null past its end
        def at(els, i):
            return to_json(els[i]) if i < len(els) else None

        for inst in checks.run_check("oracle-equivalence", 4, 4):
            fam = Family(inst["params"]["family"])
            fast = list(checks.enumerate_fast(4, fam))
            oracle = list(enumerate_oracle(4, fam))
            assert list(enumerate_fast(4, fam)) == oracle
            witness = inst["witness"]
            i = witness["index"]
            assert fast[:i] == oracle[:i]
            assert witness["fast"] == at(fast, i)
            assert witness["oracle"] == at(oracle, i)
            assert witness["fast"] != witness["oracle"]


class TestClosureCatchesANonMember:
    """closure must fail a family with a product outside it, even when that
    product arises from several pairs, with a witness pair whose product
    replays."""

    # (2 / 3) on the 4-chain: an isometry, and the product of many dp pairs
    PRODUCT = ((2, 3),)

    @pytest.fixture
    def rejecting(self, monkeypatch):
        real = checks.is_member

        def fake(a, family):
            if family is Family.DP and a.pairs == self.PRODUCT:
                return False
            return real(a, family)

        monkeypatch.setattr(checks, "is_member", fake)
        monkeypatch.setattr(helpers, "is_member", fake)

    def test_witness_replays_to_the_rejected_product(self, rejecting):
        els = list(enumerate_fast(4, Family.DP))
        giving = [(a, b) for a in els for b in els
                  if compose(a, b).pairs == self.PRODUCT]
        assert len(giving) > 1
        dp, odp = checks.run_check("closure", 4, 4)
        assert dp["params"] == {"n": 4, "family": "dp"}
        assert not dp["pass"]
        assert odp["pass"]
        a, b = from_json(dp["witness"]["a"]), from_json(dp["witness"]["b"])
        assert (a, b) in giving
        assert compose(a, b).pairs == self.PRODUCT
        # the all-pairs reference fails too, at the first pair in row-major order
        assert first_product_outside_all_pairs(els, Family.DP) == giving[0]

    def test_verify_exits_1(self, rejecting, capsys):
        code, out = run(capsys, "verify", "--check", "closure", "--n-range", "4..4")
        assert code == 1
        assert out.splitlines()[-1] == "FAIL"

    def test_one_membership_test_per_distinct_product(self, monkeypatch):
        # is_member reads only a product's pairs, so closure asks it once
        # per distinct product; a closed family's products are its k
        # elements (a = a * a^-1 * a), while compose runs k * |A| times for
        # a generating set A, the one Light's test finds on the table
        calls = {"compose": 0, "is_member": 0}

        def counting(name, real):
            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        monkeypatch.setattr(checks, "compose", counting("compose", checks.compose))
        monkeypatch.setattr(checks, "is_member", counting("is_member", checks.is_member))
        assert all(inst["pass"] for inst in checks.run_check("closure", 4, 4))
        tables = [table(4, fam) for fam in Family]
        composes = sum(len(tab) * len(tab.generators()) for tab in tables)
        assert composes == 405  # all k^2 pairs would be 4,925
        assert calls == {"compose": composes, "is_member": sum(map(len, tables))}


class TestClosureCatchesAMissingProduct:
    """closure must fail a family stream with one element dropped, with a
    witness pair whose product is that element.  The all-pairs membership
    scan passes the same stream: every product is still a member."""

    @pytest.fixture
    def dropped(self, monkeypatch):
        real = checks.enumerate_fast
        gone = {}

        def fake(n, family, **kwargs):
            els = list(real(n, family, **kwargs))
            gone[family] = els.pop(len(els) // 2)
            return iter(els)

        monkeypatch.setattr(checks, "enumerate_fast", fake)
        return gone

    def test_witness_product_is_the_dropped_element(self, dropped):
        instances = checks.run_check("closure", 4, 4)
        assert [inst["pass"] for inst in instances] == [False, False]
        for inst in instances:
            a, b = from_json(inst["witness"]["a"]), from_json(inst["witness"]["b"])
            assert compose(a, b) == dropped[Family(inst["params"]["family"])]

    def test_all_pairs_reference_passes(self, dropped):
        for fam in Family:
            els = list(checks.enumerate_fast(4, fam))
            assert dropped[fam] not in els
            assert first_product_outside_all_pairs(els, fam) is None


class TestClosureAgreesWithAllPairs:
    def test_same_verdict_up_to_7(self):
        for n in range(8):
            for fam in Family:
                els = list(enumerate_fast(n, fam))
                assert checks._first_product_outside(els, fam) is None
                assert first_product_outside_all_pairs(els, fam) is None

    def test_passes_up_to_11(self):
        assert all(inst["pass"] for inst in checks.run_check("closure", 0, 11))


def _first_fail_witness(out):
    line = next(line for line in out.splitlines() if line.startswith("FAIL "))
    return json.loads(line.split(" witness=", 1)[1])


class TestFormulasCatchesAWrongBranch:
    """formulas must fail when one branch of a closed form is off by one,
    with the empirical and formula rows as its witness, differing exactly
    at the entry that branch gives."""

    @pytest.fixture
    def off_by_one(self, monkeypatch):
        real = closed_forms.CLOSED_FORMS["fix"]

        def fake(family, n, m):
            # dp's m = 1 branch of f_fix, one too high
            return real(family, n, m) + (family is Family.DP and m == 1)

        monkeypatch.setitem(closed_forms.CLOSED_FORMS, "fix", fake)

    def test_verify_exits_1_with_witness(self, off_by_one, capsys):
        code, out = run(capsys, "verify", "--check", "formulas", "--n-range", "3..3")
        assert code == 1
        assert out.splitlines()[-1] == "FAIL"
        assert "FAIL n=3 family=dp statistic=fix witness=" in out
        assert out.count("FAIL n=") == 1
        witness = _first_fail_witness(out)
        assert set(witness) == {"empirical", "formula"}
        empirical, formula = witness["empirical"], witness["formula"]
        assert empirical == count_by_reference("fix", 3, Family.DP)
        assert [m for m in range(4) if empirical[m] != formula[m]] == [1]
        assert formula[1] == empirical[1] + 1


class TestRecurrenceCatchesAWrongTerm:
    """recurrence must fail when one closed-form count is off by one, with
    n, p and the three terms as its witness.  dp's height count is odp's
    doubled at p >= 2, so an odp term one too high puts dp's two too high,
    and both families fail."""

    @pytest.fixture
    def off_by_one(self, monkeypatch):
        real = closed_forms.f_height_odp

        def fake(n, p):
            # F(5; 3) for odp, one too high
            return real(n, p) + ((n, p) == (5, 3))

        monkeypatch.setattr(closed_forms, "f_height_odp", fake)

    def test_verify_exits_1_with_witness(self, off_by_one, capsys):
        code, out = run(capsys, "verify", "--check", "recurrence", "--n-range", "5..5")
        assert code == 1
        assert out.splitlines()[-1] == "FAIL"
        fails = [line for line in out.splitlines() if line.startswith("FAIL n=")]
        assert [line.split(" witness=")[0] for line in fails] == [
            "FAIL n=5 family=dp", "FAIL n=5 family=odp",
        ]
        # dp: 42 = 2 * 21 against 28 + 12; odp: 21 against 14 + 6
        f = closed_forms.f_height
        for line, fam, golden, off in zip(
            fails, (Family.DP, Family.ODP), (DP_BY_HEIGHT, ODP_BY_HEIGHT), (2, 1)
        ):
            witness = json.loads(line.split(" witness=", 1)[1])
            assert (witness["n"], witness["p"]) == (5, 3)
            whole, left, right = (witness[k] for k in ("F(n;p)", "F(n-1;p-1)", "F(n-1;p)"))
            assert (whole, left, right) == (f(fam, 5, 3), f(fam, 4, 2), f(fam, 4, 3))
            assert whole == golden[5][3] + off
            assert whole == left + right + off


class TestRecurrenceReadsTheClosedFormsMap:
    """recurrence must read the height count from CLOSED_FORMS, as formulas
    does, so a replaced entry reaches both checks."""

    @pytest.fixture
    def patched(self, monkeypatch):
        real = closed_forms.CLOSED_FORMS["height"]

        def fake(family, n, p):
            # F(5; 4) for dp, one too high
            return real(family, n, p) + ((family, n, p) == (Family.DP, 5, 4))

        monkeypatch.setitem(closed_forms.CLOSED_FORMS, "height", fake)
        return fake

    def test_verify_exits_1_with_the_patched_terms(self, patched, capsys):
        code, out = run(capsys, "verify", "--check", "recurrence", "--n-range", "5..5")
        assert code == 1
        assert out.count("FAIL n=") == 1
        assert "FAIL n=5 family=dp witness=" in out
        witness = _first_fail_witness(out)
        assert (witness["n"], witness["p"]) == (5, 4)
        terms = [witness[k] for k in ("F(n;p)", "F(n-1;p-1)", "F(n-1;p)")]
        assert terms == [patched(Family.DP, 5, 4), patched(Family.DP, 4, 3),
                         patched(Family.DP, 4, 4)]
        assert terms[0] == terms[1] + terms[2] + 1


class TestSumIdentityCatchesAWrongTerm:
    """sum-identity must fail when one term of its sum is off, with n and
    both sides as its witness."""

    @pytest.fixture
    def off(self, monkeypatch):
        real = closed_forms.comb

        def fake(n, p):
            # C(5, 3) one too high: the p = 3 term (2n-p+1)/(p+1) * C(n, p)
            # becomes 8 * 11 / 4 = 22, two above 20
            return real(n, p) + ((n, p) == (5, 3))

        monkeypatch.setattr(closed_forms, "comb", fake)

    def test_verify_exits_1_with_witness(self, off, capsys):
        code, out = run(capsys, "verify", "--check", "sum-identity", "--n-range", "4..6")
        assert code == 1
        assert out.splitlines()[-1] == "FAIL"
        assert out.count("FAIL n=") == 1
        witness = _first_fail_witness(out)
        n = 5
        lhs = sum((2 * n - p + 1) * closed_forms.comb(n, p) // (p + 1)
                  for p in range(2, n + 1))
        assert witness == {"n": n, "lhs": lhs, "rhs": 3 * 2**n - n * n - 2 * n - 3}
        assert witness["lhs"] == witness["rhs"] + 2


class TestSumIdentityReadsTheClosedFormsMap:
    """sum-identity must sum the height count read from CLOSED_FORMS, as
    formulas and recurrence read it, so a replaced entry reaches all three
    checks."""

    @pytest.fixture
    def patched(self, monkeypatch):
        real = closed_forms.CLOSED_FORMS["height"]

        def fake(family, n, p):
            # F(5; 3) for odp, one too high
            return real(family, n, p) + ((family, n, p) == (Family.ODP, 5, 3))

        monkeypatch.setitem(closed_forms.CLOSED_FORMS, "height", fake)

    def test_verify_exits_1_with_the_patched_sum(self, patched, capsys):
        code, out = run(capsys, "verify", "--check", "sum-identity", "--n-range", "5..5")
        assert code == 1
        assert out.splitlines()[-1] == "FAIL"
        assert out.count("FAIL n=") == 1
        witness = _first_fail_witness(out)
        rhs = 3 * 2**5 - 25 - 10 - 3
        assert witness == {"n": 5, "lhs": sum(ODP_BY_HEIGHT[5][2:]) + 1, "rhs": rhs}
        assert witness["lhs"] == witness["rhs"] + 1


class TestFormulaTableRefusesAMissedOrder:
    """A formula row that does not sum to the family order is refused, in
    the library and through ``table``, before anything is printed."""

    @pytest.fixture
    def off_by_one(self, monkeypatch):
        real = closed_forms.CLOSED_FORMS["fix"]

        def fake(family, n, m):
            # F(3; 1) for dp, one too high
            return real(family, n, m) + ((family, n, m) == (Family.DP, 3, 1))

        monkeypatch.setitem(closed_forms.CLOSED_FORMS, "fix", fake)

    def test_library_names_the_row(self, off_by_one):
        message = "^row 3 does not sum to its declared order$"
        with pytest.raises(DomainError, match=message):
            closed_forms.formula_count_table("fix", Family.DP, 3)
        rows = closed_forms.formula_count_table("fix", Family.DP, 2)
        assert [list(r) for r in rows] == DP_BY_FIX[:3]

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_table_exits_2_with_nothing_on_stdout(self, off_by_one, capsys, fmt):
        assert main(["table", "--family", "dp", "--by", "fix", "--max-n", "3",
                     "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: row 3 does not sum to its declared order\n"


class TestClosedFormChecksAreCapped:
    """recurrence and sum-identity refuse the first n above the closed-form
    cap, before anything is printed, however long the range."""

    @pytest.mark.parametrize("check, n_range", [
        ("recurrence", "0..3000"),
        ("sum-identity", "0..100000000"),
    ])
    def test_refused_with_exit_2(self, capsys, check, n_range):
        assert main(["verify", "--check", check, "--n-range", n_range]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: check {check!r} is capped at n=60, got 61\n"


class TestPhiBijectionCatchesACollision:
    """phi-bijection must fail when two inputs share an image, with the
    report as its witness."""

    N, P = 4, 3

    @pytest.fixture
    def colliding(self, monkeypatch):
        real = closed_forms.phi_bijection
        first, second = list(enumerate_fast(self.N - 1, Family.ODP, height=self.P - 1))[:2]

        def fake(a, n):
            return real(first if a == second else a, n)

        monkeypatch.setattr(closed_forms, "phi_bijection", fake)
        return first, second

    def test_report_says_not_injective(self, colliding):
        first, second = colliding
        assert closed_forms.phi_bijection(first, self.N) == closed_forms.phi_bijection(
            second, self.N)
        report = closed_forms.phi_bijection_report(self.N, self.P)
        assert report["injective"] is False
        assert report["image_exact"] is False  # one touching element is missed

    def test_verify_exits_1_with_report(self, colliding, capsys):
        code, out = run(capsys, "verify", "--check", "phi-bijection",
                        "--n-range", f"{self.N}..{self.N}")
        assert code == 1
        assert out.splitlines()[-1] == "FAIL"
        assert out.splitlines()[0].startswith(f"FAIL n={self.N} p={self.P} witness=")
        assert _first_fail_witness(out) == closed_forms.phi_bijection_report(self.N, self.P)


def _fix_trichotomy_holds(a):
    return sum(x == y for x, y in a.pairs) in (0, 1, a.height)


def _dichotomy_holds(a):
    return is_order_preserving(a) or is_order_reversing(a)


class TestWalkChecksCatchABadMap:
    """fix-trichotomy and dichotomy read their maps off the enumeration
    walk; one map on the walk that breaks the property must fail the check,
    with that map as the witness, and the witness rebuilt through the
    validating constructor must break the property too."""

    N = 4
    # each map lies on the domain (1, 2, 3): two fixed points of three, and
    # an image that rises and then falls
    CASES = {
        "fix-trichotomy": ((1, 2, 4), _fix_trichotomy_holds),
        "dichotomy": ((1, 3, 2), _dichotomy_holds),
    }

    @pytest.fixture(params=sorted(CASES))
    def injected(self, request, monkeypatch):
        bad, holds = self.CASES[request.param]
        real = isometry_families._images

        def fake(n, family, dom):
            images = real(n, family, dom)
            if n == self.N and dom == (1, 2, 3):
                images.append(bad)
            return images

        monkeypatch.setattr(isometry_families, "_images", fake)
        return request.param, PartialInjection(self.N, zip((1, 2, 3), bad)), holds

    def test_verify_exits_1_naming_the_injected_map(self, injected, capsys):
        check, bad, holds = injected
        code, out = run(capsys, "verify", "--check", check, "--n-range", "3..5")
        assert code == 1
        lines = out.splitlines()
        assert lines[:3] == [
            "ok n=3 family=dp",
            f"FAIL n=4 family=dp witness={_compact({'element': to_json(bad)})}",
            "ok n=5 family=dp",
        ]
        assert lines[-1] == "FAIL"
        witness = _first_fail_witness(out)
        assert witness == {"element": to_json(bad)}
        assert not holds(from_json(witness["element"]))


class TestInverseLawsCatchesAWrongInverse:
    """inverse-laws must fail when ``inverse`` returns a wrong transpose for
    one map, in each family holding that map, with the map as the witness."""

    # a translation by 1, so a member of both families
    TARGET = PartialInjection(3, [(1, 2), (2, 3)])

    @pytest.fixture
    def wrong(self, monkeypatch):
        real = checks.inverse

        def fake(a):
            # the map itself, not its transpose
            return a if a == self.TARGET else real(a)

        monkeypatch.setattr(checks, "inverse", fake)

    def test_verify_exits_1_naming_the_map(self, wrong, capsys):
        code, out = run(capsys, "verify", "--check", "inverse-laws", "--n-range", "2..3")
        assert code == 1
        witness = _compact({"element": to_json(self.TARGET)})
        assert out.splitlines() == [
            "ok n=2 family=dp",
            "ok n=2 family=odp",
            f"FAIL n=3 family=dp witness={witness}",
            f"FAIL n=3 family=odp witness={witness}",
            "inverse-laws: 2/4 instances passed",
            "FAIL",
        ]
        a = from_json(_first_fail_witness(out)["element"])
        b = checks.inverse(a)
        assert compose(compose(a, b), a) != a


def _parse_output(capsys, parser, argv):
    with pytest.raises(SystemExit) as exit_info:
        parser.parse_args(argv)
    captured = capsys.readouterr()
    return exit_info.value.code, captured.out, captured.err


class TestParser:
    """main builds only the subparser of the command it is given; what a
    user sees of the parser must not change with that."""

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_one_subparser_helps_and_refuses_as_all_do(self, capsys, name):
        for argv in ([name, "--help"], [name]):
            whole = _parse_output(capsys, _build_parser(), argv)
            alone = _parse_output(capsys, _build_parser(name), argv)
            assert whole == alone
        assert whole[0] == 2 and "required" in whole[2]

    def test_holds_one_subparser(self):
        parser = _build_parser("table")
        assert parser.format_usage() == "usage: chainisom [-h] {table} ...\n"
        assert _build_parser().format_usage() == (
            "usage: chainisom [-h] {enumerate,table,verify,greens,structure} ...\n"
        )

    def test_main_builds_the_named_subparser_only(self, capsys, monkeypatch):
        built = []

        def recording(only=None):
            built.append(only)
            return _build_parser(only)

        monkeypatch.setattr(cli, "_build_parser", recording)
        code, _ = run(capsys, "table", "--family", "odp", "--by", "height", "--max-n", "2")
        assert (code, built) == (0, ["table"])
        built.clear()
        run(capsys, "--help")
        assert built == [None]

    @pytest.mark.parametrize("argv", [["--help"], ["frobnicate"], []])
    def test_help_and_unknown_command_list_every_command(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == _parse_output(
            capsys, _build_parser(), argv)
        assert "{enumerate,table,verify,greens,structure}" in captured.out + captured.err

    def test_unrecognized_argument_error_lists_every_command(self, capsys):
        argv = ["table", "--family", "odp", "--by", "height", "--max-n", "2", "extra"]
        code = main(argv)
        err = capsys.readouterr().err
        assert (code, "", err) == _parse_output(capsys, _build_parser(), argv)
        assert err.startswith(
            "usage: chainisom [-h] {enumerate,table,verify,greens,structure} ...\n")
        assert err.endswith("error: unrecognized arguments: extra\n")


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

    def test_json_is_written_as_json_dumps_writes_it(self, capsys):
        # the classes are written one at a time, in the bytes of one
        # json.dumps of the whole payload
        for n in range(7):
            for fam in (Family.DP, Family.ODP):
                els = helpers.elements(n, fam)
                for rel in RELATIONS:
                    partition = criterion_partition_reference(els, fam, rel)
                    payload = {
                        "n": n,
                        "family": fam.value,
                        "relation": rel,
                        "classes": [[to_json(els[i]) for i in block] for block in partition],
                    }
                    code, out = run(capsys, "greens", "--n", str(n), "--family",
                                    fam.value, "--classes", rel.lower(), "--format", "json")
                    assert (code, out) == (0, json.dumps(payload, indent=2) + "\n")

    def test_text_matches_element_renderings(self, capsys):
        for n in range(8):
            for fam in (Family.DP, Family.ODP):
                els = helpers.elements(n, fam)
                for rel in RELATIONS:
                    partition = criterion_partition_reference(els, fam, rel)
                    want = [f"{rel}-classes of {fam.value} on the {n}-chain: {len(partition)}"]
                    want += [
                        f"[{k}] size {len(block)}: " + " ".join(str(els[i]) for i in block)
                        for k, block in enumerate(partition)
                    ]
                    code, out = run(capsys, "greens", "--n", str(n), "--family",
                                    fam.value, "--classes", rel.lower())
                    assert (code, out.splitlines()) == (0, want)

    def test_builds_no_element(self, capsys, monkeypatch):
        def greens(fam, rel, fmt):
            return run(capsys, "greens", "--n", "7", "--family", fam,
                       "--classes", rel, "--format", fmt)

        cases = [(fam, rel, fmt) for fam in ("dp", "odp") for rel in "rlhd"
                 for fmt in ("text", "json")]
        want = {case: greens(*case) for case in cases}

        def refuse(*args):
            raise AssertionError("greens built an element")

        monkeypatch.setattr(isometry_families, "_trusted", refuse)
        monkeypatch.setattr(PartialInjection, "__init__", refuse)
        for case in cases:
            assert want[case][0] == 0 and greens(*case) == want[case]

    def test_holds_one_class_at_a_time(self):
        # the peak under tracemalloc was 6.8 MB when every element was built
        # and one partition made of them all; output goes to a sink
        argv = ["greens", "--n", "12", "--family", "odp", "--classes", "h"]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            main(argv)  # loads what a first run loads, untraced
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 6_825_134 // 4, peak

    def test_refused_request_writes_nothing(self, capsys):
        for flags in (("--n", "21"), ("--n", "5", "--cap", "3"), ("--n", "-1")):
            for fmt in ("text", "json"):
                assert run(capsys, "greens", *flags, "--family", "dp",
                           "--classes", "h", "--format", fmt) == (2, "")

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
        assert "0-E-unitary: false  witness: (2 / 2), (1 2 / 3 2)" in out
        assert "categorical: false  witness: (1 / 1), (1 2 / 1 2), (2 / 1)" in out

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

    @pytest.mark.parametrize("p", ["0", "9"])
    def test_bad_rees_p_is_refused_before_the_table(self, capsys, monkeypatch, p):
        # dp n = 8 has 1,435 elements; a bad p must not cost their table
        def refuse(elements):
            raise AssertionError("build_table called")

        monkeypatch.setattr(cli, "build_table", refuse)
        code = main(["structure", "--n", "8", "--family", "dp", "--rees-p", p])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: need int 1 <= p <= n, got p={p}, n=8\n"

    def test_bad_n_is_reported_before_a_bad_rees_p(self, capsys):
        code = main(["structure", "--n", "-1", "--family", "dp", "--rees-p", "0"])
        assert code == 2
        assert capsys.readouterr().err == "error: chain size must be a non-negative int, got -1\n"

    def test_no_cap_flag(self, capsys):
        # structure always builds a table, and the table cap refuses dp from
        # n = 9, so an enumeration cap could only make a run refuse
        code, _ = run(capsys, "structure", "--n", "3", "--family", "dp",
                      "--cap", "30")
        assert code == 2


class TestPrintedWitnessesReplay:
    """A table witness replays as printed: on the table it was printed for,
    and on no other, such as the table for n + 1."""

    @staticmethod
    def replays_only_on_its_table(n, family, witness):
        assert replay_witness(table(n, family), witness)
        with pytest.raises(DomainError):
            replay_witness(table(n + 1, family), witness)

    @pytest.mark.parametrize(
        "check, lo, hi, params",
        [
            ("eunitary", 3, 5, {"family": "dp"}),
            ("categorical", 2, 4, {"semigroup": "odp"}),
        ],
    )
    def test_verify(self, capsys, check, lo, hi, params):
        code, out = run(capsys, "verify", "--check", check,
                        "--n-range", f"{lo}..{hi}", "--format", "json")
        assert code == 0
        printed = {
            inst["params"]["n"]: inst["witness"]
            for inst in json.loads(out)["instances"]
            if inst["params"] == {"n": inst["params"]["n"], **params}
        }
        assert sorted(printed) == list(range(lo, hi + 1))
        family = Family(next(iter(params.values())))
        for n, witness in printed.items():
            self.replays_only_on_its_table(n, family, witness)

    def test_structure(self, capsys):
        code, out = run(capsys, "structure", "--n", "4", "--family", "dp",
                        "--format", "json")
        assert code == 0
        entry = json.loads(out)["structures"][0]
        for prop in ("zero_e_unitary", "categorical"):
            assert entry[prop]["holds"] is False
            self.replays_only_on_its_table(4, Family.DP, entry[prop]["witness"])


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


# Runs in a fresh `python -I` interpreter, the way every command-line
# invocation starts: prints the modules that importing the CLI loads, then
# those loaded once a text-format request has been served as well.  Site
# hooks of some installs import typing at start-up, so the probe forgets the
# modules under test first; a re-import then shows in the difference.
STARTUP_PROBE = """
import io, sys
sys.path.insert(0, sys.argv[1])
for name in ("dataclasses", "inspect", "typing", "json"):
    sys.modules.pop(name, None)
before = set(sys.modules)
from chainisom.cli import main
print(" ".join(sorted(set(sys.modules) - before)))
sys.stdout = io.StringIO()
code = main(["table", "--family", "odp", "--by", "height", "--max-n", "0"])
sys.stdout = sys.__stdout__
print(" ".join(sorted(set(sys.modules) - before)))
print(code)
"""


def test_startup_loads_no_heavy_stdlib_module():
    # dataclasses alone pulls in inspect, ast, dis and tokenize, and was about
    # half of the CLI's start-up; json is needed only for JSON output
    src = Path(chainisom.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-I", "-c", STARTUP_PROBE, str(src)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    on_import, after_request, code = done.stdout.splitlines()
    assert code == "0"
    on_import = set(on_import.split())
    assert "chainisom.cli" in on_import
    assert not on_import & {"dataclasses", "inspect", "typing", "json"}
    assert "json" not in after_request.split()


# stdout sha256 and exit code of fixed invocations; any byte of output
# that changes fails here.  The verify and structure entries were recorded
# before the verification checks moved into ``chainisom.checks``, the
# enumerate, empirical table and greens entries before enumeration and
# ``enumerate`` output stopped re-validating each element, and the closure
# 4..6 entries before closure moved from all pairs to a generating set.
# The eunitary and categorical ranges include instances that carry
# witnesses.
GOLDEN = [
    ("verify --check closure --n-range 0..3 --format text", 0, "46f7f59610622b2252e6721997bd435dbbba4dbf8d9803ed187a420fa8487fb7"),
    ("verify --check closure --n-range 0..3 --format json", 0, "c7ef671d91c5dc30af10c648f3703314d38358c7cffcf92120f29076852a3347"),
    ("verify --check closure --n-range 4..6 --format text", 0, "83be07173657e4c738bc8b0d7332c7354d02efbe8f9ec1d8e9d8dc4781d357c9"),
    ("verify --check closure --n-range 4..6 --format json", 0, "18ef1bdbeb274e8d676ecb4f70e6fed3f69e6781598709f745a54afd09188573"),
    ("verify --check fix-trichotomy --n-range 0..5 --format text", 0, "685fcca455878860cb8066473c2a433802617db678083a0f162dd7d05d64ef37"),
    ("verify --check fix-trichotomy --n-range 0..5 --format json", 0, "29bbe1bae880d92387ceb9d106606e82c39db62b180798b6065152f9318eda6d"),
    ("verify --check dichotomy --n-range 0..5 --format text", 0, "99d7ec8c94f3f3f61aeaae4568a90892b28b4b03f97f6812cd10725e84646c94"),
    ("verify --check dichotomy --n-range 0..5 --format json", 0, "077fd2e67b6b4c9c8e7e5fa5bd82682248db06c76eb5c433b595c2f3c2802a59"),
    ("verify --check oracle-equivalence --n-range 0..4 --format text", 0, "a13987326613d0ecc94d4e6011a66387febae5ee7d353c721a374793b722afb9"),
    ("verify --check oracle-equivalence --n-range 0..4 --format json", 0, "fdab1d6e57696f3f6cfe5b4c126fda8d9bc5c473437fdd711b2dfab50d426df2"),
    ("verify --check formulas --n-range 0..5 --format text", 0, "57571330204ca8fe10b4a8cd9c63aaa207f5c84e6d937fcfd3852480b33947fb"),
    ("verify --check formulas --n-range 0..5 --format json", 0, "15fa8cd28666fa5827c60c2f8af7e473a00254681b4b7eec61f1fa44befcdcc2"),
    ("verify --check recurrence --n-range 0..6 --format text", 0, "5c0afa70f5959a104c01a03c467ad246fdfbbb0cc5223dfe98ffa480b36d8dac"),
    ("verify --check recurrence --n-range 0..6 --format json", 0, "ea7b46775e0ec9e2a6fb605d71cd500f550cec29bbc8f22ab3c4f4740e03f7fc"),
    ("verify --check sum-identity --n-range 0..8 --format text", 0, "5543e5484f5a73d4a60c9f88f244a170dcc15078c1b2b707f82ea770b4c23ac7"),
    ("verify --check sum-identity --n-range 0..8 --format json", 0, "8a8b90197a2b445056c1f13a6a1467e7e70df18459e5e65fa6b40e63b1e420a9"),
    ("verify --check phi-bijection --n-range 0..6 --format text", 0, "93373b66a2d66e9d756dac97c030766055bca45257118fefa13f0877d6cc5419"),
    ("verify --check phi-bijection --n-range 0..6 --format json", 0, "7854e6507a03e66153a028059f29c8d08560f39c574b3bb3014499a5093d7e1a"),
    ("verify --check greens --n-range 0..3 --format text", 0, "26f059bcc2187c41fd94314c21b58be4f8791f12a40a8ac6efead6c3e310b0bc"),
    ("verify --check greens --n-range 0..3 --format json", 0, "b3b6fee2f72111617bc3df17ea86e598c810eb3f9602c9244ad71c530d7adde4"),
    ("verify --check eunitary --n-range 0..5 --format text", 0, "57592eebb9c874141d5e2578be6a44839c1268cad4396bfea87a51f593575139"),
    ("verify --check eunitary --n-range 0..5 --format json", 0, "36d627ad0cc5724b20e42050191cc43e5761445d6ed15c14ceecc15c0f51111f"),
    ("verify --check categorical --n-range 0..4 --format text", 0, "ec3e87af729fb5ed13302ccd7926c0db17b78a42f5190daccd2563aa798ac863"),
    ("verify --check categorical --n-range 0..4 --format json", 0, "778d7a9fd13a45e3872a25312fb47a53c5a69d3995f297a187ed21f330b9e03f"),
    ("verify --check rees --n-range 0..4 --format text", 0, "cee9f95cf722b17338b5924ae4c29e3a0952049e5dc2744bb23b8d17c188de9f"),
    ("verify --check rees --n-range 0..4 --format json", 0, "ded9b0698d5b4eb5df40aaf2af872868449c9a9e83b12219ef84092d102b0df5"),
    ("verify --check inverse-laws --n-range 0..4 --format text", 0, "75b81361fe8f2fec233971e999eaebc317813e9bcd1d5da2075e0e253e3bd698"),
    ("verify --check inverse-laws --n-range 0..4 --format json", 0, "b930a67cf22db291b6766f98d0652d4ef12a652921fcfe0a0c0ab1e1b0837fe4"),
    ("structure --n 3 --family dp --rees-p 2 --format text", 0, "ee1d294f9cc7ecdc24d1da3b06e9a112e84184c5473cf9f04b8fca5a118c3ac3"),
    ("structure --n 4 --family odp --rees-p 4 --format text", 0, "fc524ed5152700ce5911219d3c21d80392e62051d30a0849cfcb95377ee3f9e7"),
    ("structure --n 3 --family dp --rees-p 2 --format json", 0, "4950b9df6ded3c25b2a424628f3668356be57c4b49c99ce0d72b57270d45cbfc"),
    ("structure --n 4 --family odp --rees-p 4 --format json", 0, "c0430f05928d2e5fa39bd653fa879abb5fc2b5e4059c0ded90c375550de47f75"),
    ("enumerate --n 5 --family dp --format text", 0, "1031c15b267e2b029501c8a462c21eae53d349d1e8a737ec75fee894ac0f8332"),
    ("enumerate --n 5 --family dp --height 3 --format text", 0, "3412e4d57b4981dbc513f96b9e0ddac72acb6c76433362059a46ee7406fe6d9e"),
    ("enumerate --n 5 --family dp --format jsonl", 0, "aa384f854e19700c90dd60d48061d57546acc82ef088c7856e55480078ce5409"),
    ("enumerate --n 5 --family dp --height 3 --format jsonl", 0, "9dfa92bc48f67da70281b51ea24c849fad92e9980d68f9b576b1cf4304c8d2a9"),
    ("enumerate --n 5 --family odp --format text", 0, "a848fbb2d41ebf0b5508077b0920a205dd837ab151a962d56540217c99d6243e"),
    ("enumerate --n 5 --family odp --height 3 --format text", 0, "74474f804cc7c04ab1e4eac9e6563e35af27e9fc605877894d125ac908a2e924"),
    ("enumerate --n 5 --family odp --format jsonl", 0, "5fa0a9f7c625ddc78f092d9192694f54265c4958178286637e9db003c89ea1ed"),
    ("enumerate --n 5 --family odp --height 3 --format jsonl", 0, "c5ede4237679fb8bf7db05f465e1e7f68c2fb2336d065a2282b0d95bab0b221b"),
    ("table --family dp --by height --max-n 7 --empirical", 0, "73875071cbc54b908beeb9ae32d6777deb69988c2b196af2c6d6ab4ccf62adc0"),
    ("table --family dp --by fix --max-n 7 --empirical", 0, "f01c8dffd8865e6c17fb74d32dc2036d507bfbe4809bb01b8f00028389be5f5a"),
    ("table --family odp --by height --max-n 7 --empirical", 0, "1c2d209c527d53c3ad994256f0781738f1507c23f8eda4df4b4af3a7d1f18f0c"),
    ("table --family odp --by fix --max-n 7 --empirical", 0, "a65c7a634730ec15a043821d346c2329530c1e49c96e54704ddb3885456d5198"),
    ("greens --n 4 --family dp --classes d --format text", 0, "828b0ae2aa7badf338de25baff772b71cf456bfcf9205412200df2a692965777"),
    ("greens --n 4 --family dp --classes d --format json", 0, "230c6c92913471caaa843135ec0b89c85c8600eab51ca1a95725b461ca4f4edf"),
    ("greens --n 4 --family odp --classes d --format text", 0, "20304fc931ff0681979c1607e081cb2c727f59248f9ba675f45e8ee90171ab9d"),
    ("greens --n 4 --family odp --classes d --format json", 0, "21bbce0590993ee6129523729307cef14b396673f126b0bccc6f6ccbb9ee843a"),
    ("verify --check formulas --n-range 5..1", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("verify --check oracle-equivalence --n-range 9..9", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_output(capsys, argv, code, digest):
    got_code, out = run(capsys, *argv.split())
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
