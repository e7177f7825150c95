"""Fixture parsing, validation, round-trip, and the verification pipeline."""

import glob
import os
import subprocess
import sys
import zipfile

import pytest

from pointless import harness
from pointless.errors import ParseError, ValidationError
from pointless.field import FiniteField
from pointless.harness import (
    FixtureEntry,
    load_fixture_text,
    load_fixtures,
    parse_fixture_text,
    serialize,
    verify,
    _constant,
)

GOOD = """
# comment
[first]
table = "demo"
p = 5
kind = "hyperelliptic_odd"
f = [2, 0, 0, 0, 3, 0, 0, 0, 2]
claimed_genus = 3
claimed_pointless = true
"""


def entry_text(**overrides):
    kv = {
        "table": '"demo"',
        "p": "5",
        "kind": '"hyperelliptic_odd"',
        "f": "[2, 0, 0, 0, 3, 0, 0, 0, 2]",
        "claimed_genus": "3",
        "claimed_pointless": "true",
    }
    kv.update(overrides)
    lines = ["[e]"] + [f"{k} = {v}" for k, v in kv.items() if v is not None]
    return "\n".join(lines)


class TestParsing:
    def test_basic_section(self):
        sections = parse_fixture_text(GOOD)
        assert len(sections) == 1
        name, kv, line_no = sections[0]
        assert name == "first"
        assert kv["p"] == 5 and kv["claimed_pointless"] is True
        assert kv["f"][0] == 2

    def test_nested_lists(self):
        (_, kv, _), = parse_fixture_text('[x]\nv = [[1, 2], 3, "a^2"]')
        assert kv["v"] == [[1, 2], 3, "a^2"]

    def test_duplicate_section_position(self):
        with pytest.raises(ParseError) as exc:
            parse_fixture_text("[x]\np = 1\n[x]\n")
        assert exc.value.line == 3 and exc.value.column == 1

    def test_key_outside_section(self):
        with pytest.raises(ParseError) as exc:
            parse_fixture_text("p = 1\n")
        assert exc.value.line == 1

    def test_duplicate_key(self):
        with pytest.raises(ParseError) as exc:
            parse_fixture_text("[x]\np = 1\np = 2\n")
        assert exc.value.line == 3

    def test_bad_value(self):
        with pytest.raises(ParseError):
            parse_fixture_text("[x]\np = 3.5\n")

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            parse_fixture_text('[x]\ns = "oops\n')

    def test_unbalanced_brackets(self):
        with pytest.raises(ParseError):
            parse_fixture_text("[x]\nv = [[1, 2]\n")

    def test_missing_equals(self):
        with pytest.raises(ParseError):
            parse_fixture_text("[x]\njust words\n")


class TestValidation:
    def test_good_entry(self):
        (e,) = load_fixture_text(GOOD)
        assert isinstance(e, FixtureEntry)
        assert e.field().q == 5 and e.curve().genus == 3

    def test_curve_is_built_once(self):
        # validation builds each curve and keeps it; verify and count reuse it
        for e in load_fixtures():
            built = e._curve
            assert built is not None
            assert e.curve() is built and e.curve() is e.curve()

    def test_missing_required_key(self):
        with pytest.raises(ValidationError) as exc:
            load_fixture_text(entry_text(claimed_genus=None))
        assert exc.value.entry_id == "e"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError):
            load_fixture_text(entry_text(extra="1"))

    def test_wrong_kind_key_rejected(self):
        # "num" belongs to artin_schreier, not hyperelliptic_odd
        with pytest.raises(ValidationError):
            load_fixture_text(entry_text(num="[1]"))

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            load_fixture_text(entry_text(kind='"what"'))

    def test_extension_needs_modulus(self):
        with pytest.raises(ValidationError):
            load_fixture_text(entry_text(n="2"))

    def test_prime_field_forbids_modulus(self):
        with pytest.raises(ValidationError):
            load_fixture_text(entry_text(modulus="[1, 1, 1]"))

    def test_reducible_modulus(self):
        # x^2 - 1 is reducible over F_5
        with pytest.raises(ValidationError):
            load_fixture_text(entry_text(n="2", modulus="[-1, 0, 1]"))

    def test_power_string_over_prime_field(self):
        with pytest.raises(ValidationError):
            load_fixture_text(entry_text(f='[2, 0, 0, 0, "a^1", 0, 0, 0, 2]'))

    @pytest.mark.parametrize("overrides, message", [
        ({"claimed_trigonal": "true"}, "on fiber products only"),
        ({"kind": '"fiber_product"', "f": "[2, -1, 0, 1]",
          "g": "[0, -2, 0, 2]", "claimed_genus": "4",
          "claimed_trigonal": "1"}, "claimed_trigonal must be"),
        ({"claimed_genus": '"3"'}, "claimed_genus must be"),
        ({"claimed_genus": "true"}, "claimed_genus must be"),
        ({"claimed_pointless": "0"}, "claimed_pointless must be"),
        ({"claimed_counts": '"abc"'}, "claimed_counts must be"),
        ({"claimed_counts": '[0, "x"]'}, "claimed_counts must be"),
        ({"claimed_counts": "[0, false]"}, "claimed_counts must be"),
        ({"n": "0"}, "n at least 1"),
        ({"n": "2", "modulus": "5"}, "modulus must be"),
        ({"kind": '"plane_quartic"', "f": None, "terms": "5"},
         "terms must be a list"),
        ({"table": "5"}, "table must be a string"),
        ({"note": "[1]"}, "note must be a string"),
    ])
    def test_fixture_values_are_type_checked(self, overrides, message):
        # each is refused at load, naming the entry, instead of crashing
        # or being misread when verify replays it
        with pytest.raises(ValidationError) as exc:
            load_fixture_text(entry_text(**overrides))
        assert exc.value.entry_id == "e" and message in str(exc.value)

    def test_first_faulty_key_in_table_order_is_named(self):
        # the key table puts table before claimed_genus, and both before
        # note
        text = entry_text(note="[1]", claimed_genus='"3"')
        with pytest.raises(ValidationError, match="claimed_genus must be"):
            load_fixture_text(text)
        with pytest.raises(ValidationError, match="table must be"):
            load_fixture_text(entry_text(table="5", note="[1]",
                                         claimed_genus='"3"'))
        # a kind's own keys are checked in sorted order
        text = entry_text(kind='"fiber_product"', f=None, claimed_genus="4")
        with pytest.raises(ValidationError, match="missing key 'f'"):
            load_fixture_text(text)

    def test_bad_quartic_term(self):
        text = entry_text(kind='"plane_quartic"', f=None,
                          terms="[[4, 0, 0, 1], [3, 2, 0, 1]]")
        with pytest.raises(ValidationError):
            load_fixture_text(text)  # exponents sum to 5


class TestConstants:
    F32 = FiniteField(2, 5, [1, 0, 1, 0, 0, 1])

    def test_power_string_reduces(self):
        # a has multiplicative order 31, so a^30 must be the inverse of a
        v = _constant(self.F32, "a^30", "t")
        assert self.F32.from_index(v) * self.F32.element("a") == self.F32.one

    def test_negative_power_string(self):
        F9 = FiniteField(3, 2, [-1, -1, 1])
        assert _constant(F9, "-a^3", "t") == F9.index(-(F9.element("a") ** 3))

    def test_coefficient_vector(self):
        a = self.F32.element("a")
        assert _constant(self.F32, [1, 0, 1], "t") == \
            self.F32.index(self.F32.one + a * a)

    def test_vector_too_long(self):
        with pytest.raises(ValidationError):
            _constant(self.F32, [0, 0, 0, 0, 0, 1], "t")

    @staticmethod
    def _element_index(F, v):
        """The index FiniteField.element gives the constant v."""
        if isinstance(v, str) and v.startswith("-"):
            return F.index(-F.element(v[1:]))
        return F.index(F.element(v))

    def test_corpus_constants_equal_element_indices(self):
        seen = 0
        for e in load_fixtures():
            F = e.field()
            for key, values in e.payload.items():
                if key == "terms":
                    values = [term[3] for term in values]
                for v in values:
                    assert _constant(F, v, e.id) == \
                        self._element_index(F, v), (e.id, key, v)
                    seen += 1
        assert seen > 500

    def test_power_strings_equal_element_indices(self):
        fields = {e.field() for e in load_fixtures() if e.n > 1}
        assert len(fields) == 8
        for F in fields:
            for k in range(-3, 2 * F.q + 1):
                for v in (f"a^{k}", f"-a^{k}"):
                    assert _constant(F, v, "t") == \
                        self._element_index(F, v), (F, v)


class TestShippedFile:
    def test_total_entries(self):
        entries = load_fixtures()
        # all published table rows plus the in-proof curves
        assert len(entries) == 65

    def test_default_load_equals_load_by_path(self):
        path = os.path.join(os.path.dirname(harness.__file__), "data",
                            "tables.toml")
        assert serialize(load_fixtures()) == serialize(load_fixtures(path))

    def test_default_load_from_a_zipped_package(self, tmp_path):
        # the shipped tables are package data, so an install that keeps
        # the package in a zip archive still reads them
        root = os.path.dirname(os.path.dirname(harness.__file__))
        archive = tmp_path / "pointless.zip"
        with zipfile.ZipFile(archive, "w") as zf:
            for name in glob.glob(os.path.join(root, "pointless", "*.py")) + \
                    glob.glob(os.path.join(root, "pointless", "data", "*.toml")):
                zf.write(name, os.path.relpath(name, root))
        out = subprocess.run(
            [sys.executable, "-c",
             "from pointless.harness import load_fixtures;"
             "print(len(load_fixtures()))"],
            env={**os.environ, "PYTHONPATH": str(archive)},
            capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["65"]

    def test_all_five_kinds_present(self):
        kinds = {e.kind for e in load_fixtures()}
        assert kinds == {"hyperelliptic_odd", "artin_schreier",
                         "plane_quartic", "fiber_product", "as_tower"}

    def test_round_trip_idempotent(self):
        entries = load_fixtures()
        text = serialize(entries)
        again = load_fixture_text(text)
        assert serialize(again) == text
        assert [e.id for e in again] == [e.id for e in entries]

    def test_serialize_writes_keys_in_fixed_order(self):
        # the common keys in this order, with the kind's own keys,
        # sorted, right after kind
        common = ["table", "p", "n", "modulus", "kind", "claimed_genus",
                  "claimed_pointless", "claimed_counts", "claimed_trigonal",
                  "note"]
        for e in load_fixtures():
            (_, kv, _), = parse_fixture_text(serialize([e]))
            order = common[:5] + sorted(e.payload) + common[5:]
            assert list(kv) == [k for k in order if k in kv], e.id

    def test_provenance_uses_captions_not_numbers(self):
        for e in load_fixtures():
            assert not any(ch.isdigit() and e.table.startswith(f"Table {ch}")
                           for ch in "123456")


class TestVerify:
    def test_full_file_passes(self):
        report = verify(load_fixtures(), K=1)
        assert report.failed == 0 and report.exit_status == 0
        j = report.to_json()
        assert j["summary"]["total"] == 65
        assert all(e["counts"][0] == 0 for e in j["entries"])

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            verify([], K=0)

    def test_pointed_curve_claimed_pointless_fails(self):
        # y^2 = x^3 + 2x^2 + 1 over F_27 has 20 rational points
        text = """
[bad]
table = "demo"
p = 3
n = 3
modulus = [1, -1, 0, 1]
kind = "hyperelliptic_odd"
f = [1, 0, 2, 1]
claimed_genus = 1
claimed_pointless = true
"""
        report = verify(load_fixture_text(text), K=1)
        (row,) = report.entries
        assert row["verdict"] == "fail" and row["counts"] == [20]
        assert report.exit_status == 1

    def test_wrong_claimed_count_fails(self):
        text = GOOD.replace("claimed_pointless = true",
                            "claimed_pointless = true\n"
                            "claimed_counts = [0, 999]")
        report = verify(load_fixture_text(text), K=2)
        (row,) = report.entries
        assert row["verdict"] == "fail"
        assert any("N2" in f for f in row["failures"])

    @pytest.mark.parametrize("text, failure", [
        (entry_text(claimed_genus="4"), "genus 3 != claimed 4"),
        # x^4 + y^4 is singular at (0:0:1), which is a rational point
        (entry_text(kind='"plane_quartic"', f=None,
                    terms="[[4, 0, 0, 1], [0, 4, 0, 1]]",
                    claimed_pointless="false"), "quartic is singular"),
        (entry_text(claimed_pointless="false"),
         "claimed not pointless but N1 = 0"),
        # the curve of trigonal-genus4-q3, which is trigonal
        (entry_text(p="3", kind='"fiber_product"', f="[-1, -1, 0, 1]",
                    g="[-1, 1, 0, -1]", claimed_genus="4",
                    claimed_trigonal="false"), "trigonal = True != claimed"),
    ], ids=["genus", "singular", "not_pointless", "trigonal"])
    def test_each_failure_row(self, text, failure):
        report = verify(load_fixture_text(text), K=1)
        (row,) = report.entries
        assert row["verdict"] == "fail" and row["failures"] == [failure]
        assert report.exit_status == 1

    def test_deep_count_claims(self):
        wanted = {"klein4-genus3-q25": [0, 540]}
        entries = [e for e in load_fixtures() if e.id in wanted]
        report = verify(entries, K=2)
        (row,) = report.entries
        assert row["verdict"] == "pass" and row["counts"] == [0, 540]

    def test_order_independence(self):
        entries = load_fixtures()[:6]
        fwd = verify(entries, K=1).to_json()["entries"]
        rev = verify(list(reversed(entries)), K=1).to_json()["entries"]
        strip = lambda rows: sorted(
            tuple((k, tuple(v) if isinstance(v, list) else v)
                  for k, v in r.items() if k != "seconds")
            for r in rows)
        assert strip(fwd) == strip(rev)
