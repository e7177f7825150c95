"""CLI dispatch: JSON output, exit codes, and flag plumbing."""

import json

import pytest

from pointless.cli import _field_for, build_parser, main
from pointless.field import MAX_FIELD_ORDER
from pointless.search import ENGINE_FAMILIES

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

    @pytest.mark.parametrize("genus, bound", [
        ("1", "serre"), ("0", "serre"), ("0", "weil")])
    def test_no_prime_power_prints_json_null(self, capsys, genus, bound):
        code, out = run(capsys, "bounds", "--genus", genus, "--bound", bound)
        assert code == 0 and out == "null\n"
        assert json.loads(out) is None

    def test_negative_genus_exits_2(self, capsys):
        code = main(["bounds", "--genus", "-1", "--bound", "weil"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "genus must be at least 0" in captured.err


class TestZeta:
    def test_f25_curve(self, capsys):
        code, out = run(capsys, "zeta", "--q", "25", "--genus", "3",
                        "--counts", "0,540,15360")
        j = json.loads(out)
        assert code == 0 and j["valid"]
        # h = (x - 10)^2 (x - 6) = x^3 - 26x^2 + 220x - 600
        assert j["real_weil"] == [-600, 220, -26, 1]

    def test_nonreal_roots_invalid(self, capsys):
        # h = x^3 - x^2 + x - 1 = (x - 1)(x^2 + 1) has the roots +/- i
        code, out = run(capsys, "zeta", "--q", "5", "--genus", "3",
                        "--counts", "5,57,140")
        j = json.loads(out)
        assert code == 0 and j["real_weil"] == [-1, 1, -1, 1]
        assert j["valid"] is False

    @pytest.mark.parametrize("q", ["6", "1"])
    def test_q_not_a_prime_power_exits_2(self, capsys, q):
        code = main(["zeta", "--q", q, "--genus", "1", "--counts", "3"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not a prime power" in captured.err

    @pytest.mark.parametrize("depth", ["0", "-2"])
    def test_depth_below_1_exits_2(self, capsys, depth):
        # 0 is a depth, not "no depth": it is refused, not read as 2g
        code = main(["zeta", "--q", "5", "--genus", "1", "--counts", "3",
                     "--depth", depth])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--depth must be at least 1" in captured.err

    def test_negative_genus_exits_2(self, capsys):
        code = main(["zeta", "--q", "5", "--genus", "-1", "--counts", ""])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "genus must be at least 0" in captured.err

    def test_depth_1_predicts_n1_only(self, capsys):
        code, out = run(capsys, "zeta", "--q", "5", "--genus", "1",
                        "--counts", "3", "--depth", "1")
        assert code == 0 and json.loads(out)["predicted_counts"] == {"1": 3}


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

    def test_depth_past_the_cap_exits_2(self, capsys, refuse_tables):
        # N_5 at q = 17 is over F_(17^5), 1,419,857 elements, past
        # MAX_FIELD_ORDER: the count refuses it before its tables are built,
        # and no partial report is printed
        refuse_tables(past=MAX_FIELD_ORDER)
        code = main(["verify", "--id", "klein4-genus3-q17", "--depth", "5"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "MAX_FIELD_ORDER" in captured.err

    def test_fiber_product_depth_5_passes(self, capsys, refuse_tables):
        # the fiber product counts N_5 at q = 49 from its quotients' N_1
        # and N_2, so no table past F_(49^2) is built, though 49^5 is past
        # MAX_FIELD_ORDER
        refuse_tables(past=49 ** 2)
        code, out = run(capsys, "verify", "--id", "fiber-genus4-q49",
                        "--depth", "5")
        row, = json.loads(out)["entries"]
        assert code == 0 and row["verdict"] == "pass"
        assert row["counts"] == [0, 2166, 117078, 5768358, 282540960]


class TestCount:
    def test_single_entry(self, capsys):
        code, out = run(capsys, "count", "--id", "klein4-genus3-q3")
        j = json.loads(out)
        assert code == 0 and j["entries"][0]["counts"] == [0]

    def test_depth_past_the_cap_exits_2(self, capsys, refuse_tables):
        # N_5 at q = 17 is over F_(17^5), past MAX_FIELD_ORDER: count(5)
        # refuses it before its tables are built, and no partial JSON is
        # printed
        refuse_tables(past=MAX_FIELD_ORDER)
        code = main(["count", "--id", "klein4-genus3-q17", "--depth", "5"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "MAX_FIELD_ORDER" in captured.err

    @pytest.mark.parametrize("command", ["count", "verify"])
    def test_depth_below_1_exits_2(self, capsys, command):
        code = main([command, "--id", "klein4-genus3-q3", "--depth", "0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--depth must be at least 1" in captured.err


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

    @pytest.mark.parametrize("family", ENGINE_FAMILIES)
    def test_checkpoint_is_an_unknown_option(self, family, tmp_path, capsys):
        # no engine resumes: every run is whole, so argparse refuses the
        # option (exit 2) before any engine starts or any file is written
        path = tmp_path / "ck.json"
        with pytest.raises(SystemExit) as exc:
            main(["search", family, "--q", "2", "--checkpoint", str(path)])
        assert exc.value.code == 2 and not path.exists()
        assert "unrecognized arguments: --checkpoint" in \
            capsys.readouterr().err

    def test_field_past_the_cap_exits_2(self, capsys, refuse_tables):
        # 1048583 is the first prime past 2^20 = MAX_FIELD_ORDER
        refuse_tables()
        code = main(["search", "klein4_hyper_odd", "--q", "1048583"])
        assert code == 2
        assert "MAX_FIELD_ORDER" in capsys.readouterr().err

    def test_n_is_an_element_index(self, capsys):
        # index 5 of F_9 lies outside F_3, where an int n once reduced mod p
        code, out = run(capsys, "search", "klein4_hyper_odd", "--q", "9",
                        "--n", "5")
        assert code == 0 and json.loads(out)["parameters"]["n"] == 5

    def test_n_past_the_field_exits_2(self, capsys):
        code = main(["search", "klein4_hyper_odd", "--q", "9", "--n", "9"])
        assert code == 2
        assert "outside 0..8" in capsys.readouterr().err

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

    def test_gens_split_outside_cycles(self, capsys):
        # a comma inside a cycle separates points, not generators
        outs = [run(capsys, "density", "--degree", "3", "--gens", gens)
                for gens in ("(1 2 3),(1 2)", "(1,2,3),(1,2)")]
        assert [code for code, _ in outs] == [0, 0]
        assert outs[0][1] == outs[1][1]
        assert json.loads(outs[1][1])["delta"] == "2/3"

    def test_degree_0_exits_2(self, capsys):
        code = main(["density", "--degree", "0", "--gens", "()"])
        assert code == 2
        assert "degree must be at least 1" in capsys.readouterr().err


class TestMonteCarlo:
    def test_deterministic(self, capsys):
        args = ("montecarlo", "--family", "klein4_hyper_odd", "--q", "5",
                "--samples", "50", "--seed", "7")
        _, a = run(capsys, *args)
        _, b = run(capsys, *args)
        assert a == b and json.loads(a)["samples"] == 50

    def test_negative_samples_exits_2(self, capsys):
        code = main(["montecarlo", "--family", "klein4_hyper_odd", "--q", "5",
                     "--samples", "-3"])
        assert code == 2
        assert "samples must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("family, q", [("klein4_hyper_odd", "4"),
                                           ("diagonal_quartic", "8")])
    def test_even_q_exits_2_without_samples(self, capsys, family, q):
        # refused at set-up: no report of an odd-q heuristic at q even
        code = main(["montecarlo", "--family", family, "--q", q,
                     "--samples", "0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "char" in captured.err


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
