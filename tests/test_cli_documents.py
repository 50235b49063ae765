"""The command-line contract on generated ``--constraints`` documents.

``verify pm|ghz|bell-ghz --constraints FILE --out OUT`` runs in process on
two kinds of document.  A well-formed one, drawn by
``test_constraints.line_systems`` and written by
``constraint_documents.document``, is honoured in full: exit 0 or 1 as its
checks pass, one word row per line with the line's terms and sign, an
enumeration whose counts are the brute-force oracle's, and word verdicts
equal to the dense matrix oracle's.  A malformed one (a value of the wrong
type, an unknown or repeated key, a bad observable label, deep nesting,
bytes that are not UTF-8, text cut short) is refused with exit 2 and a usage
error, and leaves no ``OUT``.  No run shows a traceback.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from constraint_documents import document
from contextuality_lab.cli import main
from contextuality_lab.constraints import builtin_constraints
from quantum_oracle import dense_verify_operator_identities
from test_constraints import _factor_set, brute_force_count, line_systems

#: target -> prefix of its check ids.
TARGETS = {"pm": "pm", "ghz": "ghz", "bell-ghz": "bellghz"}

#: JSON values of every type, for the wrong-type defects.
ANY_VALUE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(-1, 1), max_size=2),
    st.dictionaries(st.sampled_from(["terms", "required", "name"]), st.integers(-1, 1), max_size=2),
)

#: place of a wrong-type value -> whether a value is wrong there.
WRONG_AT = {
    "name": lambda v: not isinstance(v, str),
    "lines": lambda v: not isinstance(v, list),
    "line": lambda v: not isinstance(v, dict),
    "terms": lambda v: not isinstance(v, list) or v == [],
    "term": lambda v: not isinstance(v, str),
    "required": lambda v: type(v) is not int or v not in (1, -1),
}

#: Factors no label may hold: out-of-range subsystems, unknown axes, the
#: parts in the wrong order or case, an empty factor, non-ASCII look-alikes.
BAD_FACTORS = ("x0", "x4", "w1", "X1", "1x", "xy", "x", "x12", "", "x1 y2", "ｘ1", "x¹")

#: Byte runs that are never UTF-8.
NOT_UTF8 = (b"\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80")


def encode(doc) -> bytes:
    return json.dumps(doc).encode("utf-8")


def with_repeated_key(obj: dict, key: str, value) -> str:
    """``obj`` as JSON text with ``key`` written once more, first."""
    return "{" + f"{json.dumps(key)}: {json.dumps(value)}, " + json.dumps(obj)[1:]


@st.composite
def malformed_documents(draw) -> bytes:
    """A well-formed document with one defect that must get it refused."""
    doc = document(draw(line_systems()))
    lines = doc["lines"]
    k = draw(st.integers(0, len(lines) - 1))
    line = lines[k]
    defect = draw(st.sampled_from(
        ["wrong-type", "unknown-key", "repeated-key", "bad-label", "deep", "not-utf8", "cut"]
    ))
    if defect == "wrong-type":
        place = draw(st.sampled_from(sorted(WRONG_AT)))
        value = draw(ANY_VALUE.filter(WRONG_AT[place]))
        if place in ("name", "lines"):
            doc[place] = value
        elif place == "line":
            lines[k] = value
        elif place == "term":
            line["terms"][draw(st.integers(0, len(line["terms"]) - 1))] = value
        else:
            line[place] = value
        return encode(doc)
    if defect == "unknown-key":
        target = draw(st.sampled_from((doc, line)))
        key = draw(st.text(max_size=6).filter(lambda key: key not in target))
        target[key] = draw(ANY_VALUE)
        return encode(doc)
    if defect == "repeated-key":
        value = draw(ANY_VALUE)
        if draw(st.booleans()):
            return with_repeated_key(doc, draw(st.sampled_from(sorted(doc))), value).encode()
        texts = [json.dumps(other) for other in lines]
        texts[k] = with_repeated_key(line, draw(st.sampled_from(sorted(line))), value)
        return f'{{"name": {json.dumps(doc["name"])}, "lines": [{", ".join(texts)}]}}'.encode()
    if defect == "bad-label":
        terms = line["terms"]
        t = draw(st.integers(0, len(terms) - 1))
        first = terms[t].split("*")[0].strip()
        other_axis = {"x": "y", "y": "z", "z": "x"}[first[0]]
        terms[t] = draw(st.sampled_from((
            f"{terms[t]}*{other_axis}{first[1]}",  # a subsystem named twice
            f"{terms[t]}*{draw(st.sampled_from(BAD_FACTORS))}",
            draw(st.sampled_from(BAD_FACTORS)),
        )))
        return encode(doc)
    if defect == "deep":
        depth = draw(st.sampled_from((2, 40, 100_000)))
        nest = draw(st.sampled_from((("[", "]"), ('{"a": ', "}"))))
        inner = "1" if nest[1] == "}" else ""
        place = draw(st.sampled_from(("name", "lines")))
        doc[place] = "DEEP"
        text = json.dumps(doc).replace('"DEEP"', nest[0] * depth + inner + nest[1] * depth)
        return text.encode()
    data = encode(doc)
    cut = draw(st.integers(0, len(data) - 1))
    if defect == "not-utf8":
        return data[:cut] + draw(st.sampled_from(NOT_UTF8)) + data[cut:]
    return data[:cut]


#: Nested past the decoder's recursion limit, in ``lines`` and in ``name``.
DEEP_LIST = b'{"name": "deep", "lines": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"
DEEP_OBJECT = b'{"name": ' + b'{"a": ' * 100_000 + b"1" + b"}" * 100_000 + b', "lines": []}'


def run(argv):
    """(exit code, stdout, stderr) of ``cli.main`` in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=120, deadline=None)
@example("pm", (encode(document(builtin_constraints("pm"))), builtin_constraints("pm")))
@example("pm", (DEEP_LIST, None))
@example("ghz", (DEEP_OBJECT, None))
@example("bell-ghz", (b'{"name": "x", "lines": [{"terms": ["x1*y1"], "required": 1}]}', None))
@example("pm", (b'{"name": "x", "lines": [{"terms": ["x1"], "required": 1, "required": 1}]}', None))
@example("ghz", (b'{"name": "x", "lines": [{"terms": ["x1"], "required": true}]}', None))
@example("ghz", ('{"name": "x", "lines": [{"terms": ["x1"], "required": 1}]}'.encode("utf-16"), None))
@given(
    st.sampled_from(sorted(TARGETS)),
    st.one_of(
        line_systems().map(lambda cs: (encode(document(cs)), cs)),
        malformed_documents().map(lambda data: (data, None)),
    ),
)
def test_a_document_is_honoured_in_full_or_refused(target, case):
    data, cs = case
    with tempfile.TemporaryDirectory() as tmp:
        doc, out = Path(tmp) / "doc.json", Path(tmp) / "report.json"
        doc.write_bytes(data)
        code, stdout, stderr = run(["verify", target, "--constraints", str(doc), "--out", str(out)])
        assert code in (0, 1, 2)
        assert "Traceback" not in stdout + stderr
        if cs is None:
            assert code == 2 and stdout == "" and not out.exists()
            assert stderr.startswith("usage: contextuality-lab verify ")
            assert "verify: error: cannot load constraint set: " in stderr
            return
        assert code != 2 and stdout == stderr == ""
        report = json.loads(out.read_text(encoding="utf-8"))
    checks = {check["id"]: check for check in report["checks"]}
    prefix = TARGETS[target]
    lines = json.loads(data)["lines"]
    assert code == (0 if report["all_pass"] else 1)
    assert report["all_pass"] == all(check["status"] == "pass" for check in checks.values())
    words = [checks[i] for i in checks if i.startswith(f"{prefix}.word.")]
    if target == "bell-ghz":
        assert words == []
    else:
        assert [w["id"] for w in words] == [f"{prefix}.word.{k}" for k in range(1, len(lines) + 1)]
        assert [w["witness"] for w in words] == lines
        held = dense_verify_operator_identities(cs)
        assert [w["status"] == "pass" for w in words] == list(held)
    observables = {_factor_set(t) for line in cs.lines for t in line.terms}
    satisfying = brute_force_count(cs)
    enumeration = checks[f"{prefix}.enumeration"]
    assert enumeration["witness"]["assignments"] == 2 ** len(observables)
    assert enumeration["witness"]["satisfying"] == satisfying
    assert enumeration["status"] == ("pass" if satisfying == 0 else "fail")
