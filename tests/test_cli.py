import hashlib
import json

import pytest

from chainisom import checks
from chainisom.chain_maps import _trusted, to_json
from chainisom.cli import _compact, main
from chainisom.isometry_families import Family, enumerate_fast, enumerate_oracle

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

    def test_lines_match_element_renderings(self, capsys):
        # the lines are written directly, not through json.dumps or print
        for n in range(8):
            for fam in (Family.DP, Family.ODP):
                els = list(enumerate_fast(n, fam))
                _, out = run(capsys, "enumerate", "--n", str(n), "--family",
                             fam.value, "--format", "jsonl")
                assert out.splitlines() == [_compact(to_json(a)) for a in els]
                _, out = run(capsys, "enumerate", "--n", str(n), "--family",
                             fam.value)
                assert out.splitlines() == [str(a) for a in els]

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
        assert run(capsys, "table", "--family", "dp", "--by", "fix",
                   "--max-n", "-1")[0] == 2
        assert run(capsys, "table", "--family", "dp", "--by", "fix",
                   "--max-n", "-1", "--empirical")[0] == 2


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
        for check, n_range, smallest in (
            ("recurrence", "0..2", 3),
            ("phi-bijection", "0..2", 3),
            ("sum-identity", "0..1", 2),
            ("rees", "0..0", 1),
        ):
            assert main(["verify", "--check", check, "--n-range", n_range]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"needs n >= {smallest}" in captured.err

    def test_cap_violation_exits_2(self, capsys):
        assert run(capsys, "verify", "--check", "oracle-equivalence",
                   "--n-range", "9..9")[0] == 2

    def test_violation_exits_1(self, capsys):
        # exit code 1 is reserved for genuine property violations; none of
        # the shipped checks fail, so splice in one that does
        def always_fails(lo, hi):
            yield {"n": lo}, False, {"note": "forced"}

        checks.CHECKS["always-fails"] = always_fails
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


# stdout sha256 and exit code of fixed invocations; any byte of output
# that changes fails here.  The verify and structure entries were recorded
# before the verification checks moved into ``chainisom.checks``, the
# enumerate, empirical table and greens entries before enumeration and
# ``enumerate`` output stopped re-validating each element.  The eunitary
# and categorical ranges include instances that carry witnesses.
GOLDEN = [
    ("verify --check closure --n-range 0..3 --format text", 0, "46f7f59610622b2252e6721997bd435dbbba4dbf8d9803ed187a420fa8487fb7"),
    ("verify --check closure --n-range 0..3 --format json", 0, "c7ef671d91c5dc30af10c648f3703314d38358c7cffcf92120f29076852a3347"),
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
