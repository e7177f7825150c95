"""CLI dispatch: JSON output, exit codes, and flag plumbing."""

import json

import pytest

from pointless.cli import _field_for, build_parser, main

GOOD_FIXTURE = """
[good]
table = "demo"
p = 5
kind = "hyperelliptic_odd"
f = [2, 0, 0, 0, 3, 0, 0, 0, 2]
claimed_genus = 3
claimed_pointless = true
"""

BAD_FIXTURE = GOOD_FIXTURE.replace("[2, 0, 0, 0, 3, 0, 0, 0, 2]",
                                   "[1, 0, 0, 0, 0, 0, 0, 0, 1]")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestBounds:
    def test_serre_genus4(self, capsys):
        code, out = run(capsys, "bounds", "--genus", "4", "--bound", "serre")
        assert code == 0 and out.strip() == "59"

    def test_weil_genus3(self, capsys):
        code, out = run(capsys, "bounds", "--genus", "3", "--bound", "weil")
        assert code == 0 and out.strip() == "32"


class TestZeta:
    def test_f25_curve(self, capsys):
        code, out = run(capsys, "zeta", "--q", "25", "--genus", "3",
                        "--counts", "0,540,15360")
        j = json.loads(out)
        assert code == 0 and j["valid"]
        # h = (x - 10)^2 (x - 6) = x^3 - 26x^2 + 220x - 600
        assert j["real_weil"] == [-600, 220, -26, 1]


class TestVerify:
    def test_shipped_fixtures_pass(self, capsys):
        code, out = run(capsys, "verify", "--id", "klein4-genus3-q5")
        j = json.loads(out)
        assert code == 0 and j["summary"]["failed"] == 0

    def test_failing_fixture_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.toml"
        path.write_text(BAD_FIXTURE)  # y^2 = x^8 + 1 over F_5 has points
        code, out = run(capsys, "verify", "--fixtures", str(path))
        j = json.loads(out)
        assert code == 1 and j["entries"][0]["verdict"] == "fail"

    def test_unknown_id_exits_2(self, capsys):
        assert main(["verify", "--id", "no-such-entry"]) == 2

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.toml"
        path.write_text("key = before section\n")
        assert main(["verify", "--fixtures", str(path)]) == 2


class TestCount:
    def test_single_entry(self, capsys):
        code, out = run(capsys, "count", "--id", "klein4-genus3-q3")
        j = json.loads(out)
        assert code == 0 and j["entries"][0]["counts"] == [0]


class TestSearch:
    def test_first_find_json(self, capsys):
        code, out = run(capsys, "search", "klein4_hyper_odd",
                        "--q", "5", "--mode", "first")
        j = json.loads(out)
        assert code == 0 and j["family"] == "klein4_hyper_odd"
        assert len(j["survivors"]) == 1

    def test_expect_survivors_mismatch(self, capsys):
        code, _ = run(capsys, "search", "klein4_hyper_odd", "--q", "5",
                      "--mode", "first", "--expect-survivors", "3")
        assert code == 1

    def test_budget_exceeded_exits_2(self, capsys):
        # a domain error surfaced through the CLI's error path
        code = main(["search", "diagonal_quartic", "--q", "13",
                     "--mode", "census", "--budget", "10"])
        assert code == 2

    def test_checkpoint_for_an_engine_without_resume_exits_2(
            self, tmp_path, capsys):
        path = tmp_path / "ck.json"
        code = main(["search", "quartic_char2", "--q", "2",
                     "--checkpoint", str(path)])
        assert code == 2 and not path.exists()
        assert "takes no checkpoint" in capsys.readouterr().err

    def test_n_for_an_engine_without_a_twist_exits_2(self, capsys):
        code = main(["search", "fiberproduct", "--q", "3", "--n", "2"])
        assert code == 2
        assert "takes no n" in capsys.readouterr().err


class TestDensity:
    def test_s3_natural_action(self, capsys):
        code, out = run(capsys, "density", "--degree", "3",
                        "--gens", "(1 2 3),(1 2)")
        j = json.loads(out)
        assert code == 0 and j["delta"] == "2/3"


class TestMonteCarlo:
    def test_deterministic(self, capsys):
        args = ("montecarlo", "--family", "klein4_hyper_odd", "--q", "5",
                "--samples", "50", "--seed", "7")
        _, a = run(capsys, *args)
        _, b = run(capsys, *args)
        assert a == b and json.loads(a)["samples"] == 50


class TestPlumbing:
    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--genus", "4"])  # missing --bound
        assert exc.value.code == 2

    def test_help_covers_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        out = capsys.readouterr().out
        for cmd in ("verify", "count", "zeta", "bounds", "search",
                    "density", "montecarlo"):
            assert cmd in out

    def test_field_for_prime_power(self):
        F = _field_for(9)
        assert F.q == 9 and F.n == 2

    def test_field_for_non_prime_power(self):
        with pytest.raises(ValueError):
            _field_for(12)

    def test_field_for_prime_rejects_def_poly(self):
        with pytest.raises(ValueError):
            _field_for(7, [3, 1])

    def test_search_prime_def_poly_exits_2(self, capsys):
        code = main(["search", "diagonal_quartic", "--q", "7",
                     "--def-poly", "3,1", "--expect-survivors", "1"])
        assert code == 2
        assert "defining polynomial" in capsys.readouterr().err
