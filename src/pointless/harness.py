"""Fixture data handling and the verification pipeline.

Fixtures live in a strict TOML-like sectioned text file (grammar in
docs/fixtures.md).  Each section describes one curve over an explicitly
presented finite field; `verify` reconstructs every curve and replays the
claims (genus, pointlessness, extension counts, trigonality) exactly.
"""

import time
from copy import copy
from dataclasses import dataclass, field as dc_field
from importlib import resources

from . import __version__
from .curves import (
    ArtinSchreierCurve,
    ASTower,
    FiberProductGenus4,
    HyperellipticOdd,
    PlaneQuartic,
)
from .errors import ExtensionTooLarge, ParseError, PointlessError, ValidationError
from .field import FiniteField, _kernel

# each kind's own keys, sorted: the order they are checked and written in
_KIND_KEYS = {
    "hyperelliptic_odd": ("f",),
    "artin_schreier": ("den", "num"),
    "plane_quartic": ("terms",),
    "fiber_product": ("f", "g"),
    "as_tower": ("f1_den", "f1_num", "second_a", "second_b", "second_d"),
}
KINDS = tuple(_KIND_KEYS)


def _is_int(v):
    """An int that is not a bool (the grammar's true and false)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_int_list(v):
    return isinstance(v, list) and all(map(_is_int, v))


def _is_bool(v):
    return isinstance(v, bool)


def _is_str(v):
    return isinstance(v, str)


_REQUIRED = object()

# The common keys, in the order serialize writes them (the kind's own keys
# follow kind): the test a value must pass, the refusal of one that fails
# it, formatted with the key and the value, and the value a section that
# omits the key gets, or _REQUIRED.
_COMMON = {
    "table": (_is_str, "{} must be a string", _REQUIRED),
    "p": (_is_int, "{} must be an integer", _REQUIRED),
    "n": (lambda v: _is_int(v) and v >= 1,
          "{} must be an integer, n at least 1", 1),
    "modulus": (_is_int_list, "{} must be a list of integers", []),
    "kind": (lambda v: v in KINDS, "unknown kind {1!r}", _REQUIRED),
    "claimed_genus": (_is_int, "{} must be an integer", _REQUIRED),
    "claimed_pointless": (_is_bool, "{} must be true or false", _REQUIRED),
    "claimed_counts": (_is_int_list, "{} must be a list of integers", []),
    "claimed_trigonal": (_is_bool, "{} must be true or false", None),
    "note": (_is_str, "{} must be a string", ""),
}


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _tokenize_value(text, line_no, col0):
    """Parse a single value: int, bool, quoted string, or bracketed list."""
    text = text.strip()
    if not text:
        raise ParseError("empty value", line_no, col0)
    if text == "true":
        return True
    if text == "false":
        return False
    if text.startswith('"'):
        if not text.endswith('"') or len(text) < 2:
            raise ParseError("unterminated string", line_no, col0)
        return text[1:-1]
    if text.startswith("["):
        return _parse_list(text, line_no, col0)
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"bad value {text!r}", line_no, col0)


def _parse_list(text, line_no, col0):
    """Bracketed list with nesting; elements are values."""
    if not text.endswith("]"):
        raise ParseError("unterminated list", line_no, col0)
    out = []
    depth = 0
    item = ""
    for ch in text[1:-1]:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced brackets", line_no, col0)
        if ch == "," and depth == 0:
            out.append(_tokenize_value(item, line_no, col0))
            item = ""
        else:
            item += ch
    if depth != 0:
        raise ParseError("unbalanced brackets", line_no, col0)
    if item.strip():
        out.append(_tokenize_value(item, line_no, col0))
    return out


def parse_fixture_text(text):
    """Raw sections: list of (id, {key: value}, line_no)."""
    sections = []
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        col = raw.index(stripped[0]) + 1
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError("unterminated section header", line_no, col)
            name = stripped[1:-1].strip()
            if not name:
                raise ParseError("empty section name", line_no, col)
            if any(name == s[0] for s in sections):
                raise ParseError(f"duplicate section {name!r}", line_no, col)
            current = (name, {}, line_no)
            sections.append(current)
            continue
        if current is None:
            raise ParseError("key outside of a section", line_no, col)
        if "=" not in stripped:
            raise ParseError("expected 'key = value'", line_no, col)
        key, _, val = stripped.partition("=")
        key = key.strip()
        if not key.isidentifier():
            raise ParseError(f"bad key {key!r}", line_no, col)
        if key in current[1]:
            raise ParseError(f"duplicate key {key!r}", line_no, col)
        current[1][key] = _tokenize_value(val, line_no,
                                          raw.index("=") + 2)
    return sections


# ---------------------------------------------------------------------------
# entries
# ---------------------------------------------------------------------------

@dataclass
class FixtureEntry:
    id: str
    table: str
    p: int
    n: int
    modulus: list            # defining polynomial as ints, [] for prime
    kind: str
    payload: dict            # kind-specific raw values
    claimed_genus: int
    claimed_pointless: bool
    claimed_counts: list
    claimed_trigonal: bool   # None when the section makes no claim
    note: str
    _curve: object = dc_field(default=None, init=False, repr=False,
                              compare=False)

    def field(self):
        if self.n == 1:
            return FiniteField(self.p)
        return FiniteField(self.p, self.n, self.modulus)

    def curve(self):
        """The curve model, built on first use (at validation) and kept."""
        if self._curve is None:
            self._curve = _build_curve(self)
        return self._curve


def _constant(F, v, entry_id):
    """The base-field index of a field constant: an int c (index c mod p),
    a coefficient vector (index sum (c_i mod p) p^i), or an 'a' / 'a^k'
    string (the generator a has index p, so a^k is exp[k log p]), each
    negated by a leading '-'."""
    if isinstance(v, bool):
        raise ValidationError("boolean is not a field constant", entry_id)
    neg = isinstance(v, str) and v.startswith("-")
    spec = v[1:] if neg else v
    p, kern = F.p, _kernel(F)
    if isinstance(v, str):
        if spec != "a" and not spec.startswith("a^"):
            raise ValidationError(f"bad constant string {v!r}", entry_id)
        if F.n == 1:
            raise ValidationError("power string over a prime field", entry_id)
        try:
            k = 1 if spec == "a" else int(spec[2:])
        except ValueError:
            raise ValidationError(f"bad power string {v!r}", entry_id)
        idx = kern.exp[k * kern.log[p] % kern.n1]
    elif isinstance(v, list):
        if not all(isinstance(c, int) for c in v):
            raise ValidationError("coefficient vector must hold ints",
                                  entry_id)
        if len(v) > F.n:
            raise ValidationError("coefficient vector longer than the degree",
                                  entry_id)
        idx = sum(c % p * p ** i for i, c in enumerate(v))
    elif isinstance(v, int):
        idx = v % p
    else:
        raise ValidationError(f"bad field constant {v!r}", entry_id)
    return kern.neg(idx) if neg else idx


def _poly(F, values, entry_id):
    """The base-field index list of a polynomial's constants."""
    if not isinstance(values, list):
        raise ValidationError("polynomial must be a list", entry_id)
    return [_constant(F, v, entry_id) for v in values]


def _build_curve(entry):
    F = entry.field()
    k = entry.kind
    if k == "plane_quartic":
        if not isinstance(entry.payload["terms"], list):
            raise ValidationError("terms must be a list", entry.id)
        coeffs = {}
        for term in entry.payload["terms"]:
            if (not isinstance(term, list) or len(term) != 4
                    or not all(isinstance(e, int) for e in term[:3])):
                raise ValidationError(f"bad quartic term {term!r}", entry.id)
            i, j, m = term[:3]
            if i < 0 or j < 0 or m < 0 or i + j + m != 4:
                raise ValidationError(f"bad quartic exponents {term!r}",
                                      entry.id)
            if (i, j, m) in coeffs:
                raise ValidationError(f"repeated monomial {term!r}", entry.id)
            coeffs[(i, j, m)] = _constant(F, term[3], entry.id)
        return PlaneQuartic(F, coeffs)
    # every other payload value is a polynomial
    pl = {key: _poly(F, v, entry.id) for key, v in sorted(entry.payload.items())}
    if k == "hyperelliptic_odd":
        return HyperellipticOdd(F, pl["f"])
    if k == "artin_schreier":
        return ArtinSchreierCurve(F, (pl["num"], pl["den"]))
    if k == "fiber_product":
        return FiberProductGenus4(F, pl["f"], pl["g"])
    if k == "as_tower":
        return ASTower(F, (pl["f1_num"], pl["f1_den"]), pl["second_a"],
                       pl["second_b"], pl["second_d"],
                       claimed_genus=entry.claimed_genus)
    raise ValidationError(f"unknown kind {k!r}", entry.id)  # pragma: no cover


def _validate_section(name, kv):
    values = {}
    for key, (test, refusal, default) in _COMMON.items():
        if key in kv and not test(kv[key]):
            raise ValidationError(refusal.format(key, kv[key]), name)
        if key not in kv and default is _REQUIRED:
            raise ValidationError(f"missing key {key!r}", name)
        values[key] = kv[key] if key in kv else copy(default)
    kind = values["kind"]
    for key in kv:
        if key not in _COMMON and key not in _KIND_KEYS[kind]:
            raise ValidationError(f"unknown key {key!r}", name)
    for req in _KIND_KEYS[kind]:
        if req not in kv:
            raise ValidationError(f"missing key {req!r}", name)
    if "claimed_trigonal" in kv and kind != "fiber_product":
        raise ValidationError("claimed_trigonal is checked on fiber products "
                              "only", name)
    if values["n"] > 1 and not values["modulus"]:
        raise ValidationError("extension fields need a modulus", name)
    if values["n"] == 1 and values["modulus"]:
        raise ValidationError("prime fields take no modulus", name)
    entry = FixtureEntry(id=name,
                         payload={k: kv[k] for k in _KIND_KEYS[kind]},
                         **values)
    # constants must reduce in the entry's own presentation; a reducible
    # modulus or malformed constant fails here, not at verification time
    try:
        entry.curve()
    except (ValidationError, ParseError):
        raise
    except PointlessError as exc:
        raise ValidationError(str(exc), name)
    return entry


def load_fixtures(path=None):
    """The entries of the fixture file at `path`; by default the shipped
    tables, read as package data so that a zipped install serves them too."""
    if path is None:
        text = (resources.files(__package__).joinpath("data")
                .joinpath("tables.toml").read_text())
    else:
        with open(path) as fh:
            text = fh.read()
    return load_fixture_text(text)


def load_fixture_text(text):
    return [_validate_section(name, kv)
            for name, kv, _ in parse_fixture_text(text)]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _format_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return f'"{v}"'
    if isinstance(v, list):
        return "[" + ", ".join(_format_value(e) for e in v) + "]"
    raise ValueError(f"unserializable value {v!r}")  # pragma: no cover


def serialize(entries):
    chunks = []
    for e in entries:
        lines = [f"[{e.id}]"]
        for key, (_, _, default) in _COMMON.items():
            if getattr(e, key) != default:
                lines.append(f"{key} = {_format_value(getattr(e, key))}")
            if key == "kind":
                lines += [f"{k} = {_format_value(e.payload[k])}"
                          for k in sorted(e.payload)]
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    entries: list
    version: str
    extension_depth: int

    @property
    def passed(self):
        return sum(1 for e in self.entries if e["verdict"] == "pass")

    @property
    def failed(self):
        return len(self.entries) - self.passed

    @property
    def exit_status(self):
        return 0 if self.failed == 0 else 1

    def to_json(self):
        return {
            "version": self.version,
            "extension_depth": self.extension_depth,
            "summary": {"total": len(self.entries), "passed": self.passed,
                        "failed": self.failed},
            "entries": self.entries,
        }


def _verify_entry(entry, K):
    t0 = time.time()
    failures = []
    counts = []
    genus = None
    try:
        curve = entry.curve()
        genus = curve.genus
        if genus is not None and genus != entry.claimed_genus:
            failures.append(
                f"genus {genus} != claimed {entry.claimed_genus}")
        if entry.kind == "plane_quartic" and not curve.is_smooth():
            failures.append("quartic is singular")
        counts = [curve.count(i) for i in range(1, K + 1)]
        if entry.claimed_pointless and counts[0] != 0:
            failures.append(f"claimed pointless but N1 = {counts[0]}")
        if not entry.claimed_pointless and counts[0] == 0:
            failures.append("claimed not pointless but N1 = 0")
        for i, expected in enumerate(entry.claimed_counts[:len(counts)]):
            if counts[i] != expected:
                failures.append(
                    f"N{i + 1} = {counts[i]} != claimed {expected}")
        if entry.claimed_trigonal is not None:
            props = curve.properties()
            if props["trigonal"] != entry.claimed_trigonal:
                failures.append(
                    f"trigonal = {props['trigonal']} != claimed")
    except ExtensionTooLarge:
        raise
    except PointlessError as exc:
        failures.append(f"construction failed: {exc}")
    return {
        "id": entry.id,
        "kind": entry.kind,
        "q": entry.p ** entry.n,
        "genus": genus,
        "counts": counts,
        "verdict": "pass" if not failures else "fail",
        "failures": failures,
        "seconds": round(time.time() - t0, 3),
    }


def verify(entries, K=1):
    """Replay every entry's claims; failures are report rows, not errors.
    The one exception is a K whose counts need a field past
    MAX_FIELD_ORDER: that count's ExtensionTooLarge is raised, as a usage
    error, and no report is made."""
    if K < 1:
        raise ValueError("extension depth K must be >= 1")
    results = [_verify_entry(e, K) for e in entries]
    return VerificationReport(entries=results, version=__version__,
                              extension_depth=K)
