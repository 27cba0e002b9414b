import json

import pytest

from whitehead import cli
from whitehead.cli import main
from whitehead.errors import TheoremViolation
from whitehead.lengthfn import WordSet
from whitehead.search import OrbitCertificate, verify_certificate


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


@pytest.fixture
def files(tmp_path):
    return {
        "abb": write(tmp_path, "abb.json", {"rank": 2, "words": ["abb"]}),
        "a": write(tmp_path, "a.json", {"rank": 2, "words": ["a"]}),
        "comm": write(
            tmp_path, "comm.json",
            {"rank": 2, "words": [{"kind": "cyclic", "w": "abAB"}]},
        ),
        "sq": write(tmp_path, "sq.json", {"rank": 2, "words": ["~aabb"]}),
        "sqb": write(tmp_path, "sqb.json", {"rank": 2, "words": ["~abaB"]}),
        "aa": write(tmp_path, "aa.json", {"rank": 2, "words": ["aa"]}),
        "xid": write(tmp_path, "xid.json", {"rank": 2, "images": ["a", "b"]}),
        "yab": write(tmp_path, "yab.json", {"rank": 2, "images": ["ab", "b"]}),
        "bad": write(tmp_path, "bad.json", {"rank": 2, "images": ["aa", "b"]}),
    }


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestMinimize:
    def test_json_report(self, files, capsys):
        code, out, _ = run(capsys, ["minimize", "-r", "2", files["abb"], "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["h_min"] == 1
        assert payload["minimal"] == ["b"]
        assert payload["basis"] == ["ab", "abb"]
        assert len(payload["path"]) == 2

    def test_text_report(self, files, capsys):
        code, out, _ = run(capsys, ["minimize", "-r", "2", files["abb"]])
        assert code == 0
        assert "h_min: 1" in out


class TestEquiv:
    def test_inequivalent_pair_exits_zero(self, files, capsys):
        code, out, _ = run(
            capsys, ["equiv", "-r", "2", files["comm"], files["sq"], "--json"]
        )
        assert code == 0
        assert json.loads(out) == {"equivalent": False}

    def test_certificate_embedded_and_verifiable(self, files, capsys):
        code, out, _ = run(
            capsys, ["equiv", "-r", "2", files["abb"], files["a"], "--json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["equivalent"] is True
        cert = OrbitCertificate.from_json_dict(2, payload["certificate"])
        assert verify_certificate(
            cert, WordSet.parse(2, ["abb"]), WordSet.parse(2, ["a"])
        )


class TestTranslator:
    def test_frozen_vertices(self, files, capsys):
        code, out, _ = run(
            capsys,
            ["translator", "-r", "2", "-x", files["xid"], "-y", files["yab"], "--json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "is_translator": True,
            "size": 6,
            "vertices": ["", "b", "A", "B", "ab", "BA"],
        }

    def test_text_identity_spelled_one(self, files, capsys):
        code, out, _ = run(
            capsys, ["translator", "-r", "2", "-x", files["xid"], "-y", files["yab"]]
        )
        assert code == 0
        assert "vertices: 1 b A B ab BA" in out


class TestDistance:
    def test_frozen_report(self, files, capsys):
        code, out, _ = run(
            capsys,
            ["distance", "-r", "2", "-x", files["xid"], "-y", files["yab"], "--json"],
        )
        assert code == 0
        assert json.loads(out) == {"d": 1, "witness": ["", "b", "ab"]}

    def test_byte_identical_reruns(self, files, capsys):
        argv = ["distance", "-r", "2", "-x", files["xid"], "-y", files["yab"], "--json"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_budget_exit(self, files, capsys):
        code, _, err = run(
            capsys,
            ["distance", "-r", "2", "-x", files["xid"], "-y", files["yab"],
             "--max-states", "2"],
        )
        assert code == 3
        assert err == (
            "error: distance enumeration exceeded 2 candidate sets (phase: distance)\n"
        )

    def test_level_set_budget_exit(self, files, capsys):
        code, out, err = run(
            capsys,
            ["equiv", "-r", "2", files["sq"], files["sqb"], "--max-states", "1"],
        )
        assert code == 3
        assert out == ""
        assert err == "error: level-set search exceeded 1 states (phase: level_set)\n"


class TestPeakReduce:
    def test_step_report(self, files, capsys):
        code, out, _ = run(
            capsys,
            ["peak-reduce", "-r", "2", "-x", files["xid"], "-y", files["yab"],
             files["comm"], "--json"],
        )
        assert code == 0
        assert json.loads(out) == {
            "kind": "step",
            "y_dag": "b",
            "Yprime": ["a", "b"],
            "Vprime": ["", "a", "b"],
            "case": 1,
        }

    def test_equal_report(self, files, capsys):
        code, out, _ = run(
            capsys,
            ["peak-reduce", "-r", "2", "-x", files["xid"], "-y", files["xid"],
             files["comm"], "--json"],
        )
        assert code == 0
        assert json.loads(out) == {"kind": "equal", "perm": {"targets": ["a", "b"]}}

    def test_precondition_exit(self, files, capsys):
        code, _, err = run(
            capsys,
            ["peak-reduce", "-r", "2", "-x", files["xid"], "-y", files["yab"],
             files["aa"]],
        )
        assert code == 4
        assert "local minimum" in err


class TestGerstenDot:
    def test_dot_output(self, files, capsys):
        code, out, _ = run(
            capsys, ["gersten-dot", "-r", "2", "-x", files["xid"], "-y", files["yab"]]
        )
        assert code == 0
        assert out.startswith("digraph gersten {")
        assert '"ab" -> "b"' in out or '"b" -> "ab"' in out


class TestBadInput:
    def test_missing_file(self, files, capsys):
        code, _, err = run(capsys, ["minimize", "-r", "2", "/nowhere/x.json"])
        assert code == 2 and "error" in err

    def test_bad_letter(self, tmp_path, capsys):
        path = write(tmp_path, "w.json", {"rank": 2, "words": ["ab9"]})
        code, _, err = run(capsys, ["minimize", "-r", "2", path])
        assert code == 2

    def test_non_basis_images(self, files, capsys):
        code, _, err = run(
            capsys, ["distance", "-r", "2", "-x", files["bad"], "-y", files["yab"]]
        )
        assert code == 2

    def test_rank_flag_mismatch(self, files, capsys):
        code, _, err = run(capsys, ["minimize", "-r", "3", files["abb"]])
        assert code == 2
        assert "rank" in err

    @pytest.mark.parametrize("argv", [
        ["distance", "-x", "xid", "-y", "yab", "--max-states", "-1"],
        ["distance", "-x", "xid", "-y", "yab", "--max-size", "-3"],
        ["equiv", "comm", "sq", "--max-states", "-5"],
    ])
    def test_negative_budget(self, files, capsys, argv):
        argv = [files.get(a, a) for a in argv] + ["-r", "2"]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "must be nonnegative" in err

    def test_seed_flag_rejected(self, files, capsys):
        # every command is deterministic, so there is no --seed to pass
        with pytest.raises(SystemExit) as exc:
            main(["minimize", "-r", "2", files["abb"], "--json", "--seed", "5"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "--seed" in out.err


class TestInternalInvariant:
    def test_theorem_violation_exits_5(self, files, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise TheoremViolation("certificate failed verification")

        monkeypatch.setattr(cli, "orbit_equivalent", broken)
        code, out, err = run(capsys, ["equiv", "-r", "2", files["abb"], files["a"]])
        assert code == 5
        assert out == ""
        assert err == "error: internal invariant failed: certificate failed verification\n"
