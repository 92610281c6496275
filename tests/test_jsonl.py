"""JSONL inputs are decoded once per file, with the outcome of reading each
line on its own.

Each reference below reads a file line by line, as eligo did before: the
notes and gold loaders, ``read_results``, and the resume read of
``calls.jsonl`` that repairs a torn final line.  The reader must return the
same records with the same line numbers, or raise the same error, and
leave the same bytes on disk.  Each test line is both a result record and a
call record, so one file feeds every reader.
"""

import json
import logging
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eligo.corpus import _jsonl_records, jsonl_values
from eligo.errors import SchemaError
from eligo.runner import ResultRecord, _read_resume_state, read_results

UNREADABLE = (ValueError, KeyError, TypeError, OverflowError)


class Constant(Exception):
    """NaN, Infinity or -Infinity, which JSON does not have."""


def refuse_constant(name):
    raise Constant(name)


def strings(value):
    """Every string in a JSON value, its object keys included."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from strings(item)
    elif isinstance(value, list):
        for item in value:
            yield from strings(item)


def per_line_value(path, line_no, line):
    """One line's JSON value, or the SchemaError every reader gives for it."""
    try:
        value = json.loads(line.decode("utf-8"), parse_constant=refuse_constant)
    except Constant as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc} is not a JSON number",
                          line=line_no) from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text at byte {exc.start}",
                          line=line_no) from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc.msg}", line=line_no) from exc
    except ValueError as exc:
        raise SchemaError(f"{path}: invalid JSON: integer longer than "
                          f"{sys.get_int_max_str_digits()} digits", line=line_no) from exc
    except RecursionError as exc:
        raise SchemaError(f"{path}: invalid JSON: nested too deeply", line=line_no) from exc
    if any("\ud800" <= char <= "\udfff" for text in strings(value) for char in text):
        raise SchemaError(f"{path}: invalid JSON: unpaired surrogate escape", line=line_no)
    return value


def per_line_result(path, line_no, line):
    """One ``results.jsonl`` line's record."""
    value = per_line_value(path, line_no, line)
    try:
        return ResultRecord.from_dict(value)
    except UNREADABLE as exc:
        raise SchemaError(f"{path}: unreadable result record", line=line_no) from exc


def per_line_call(path, line_no, line):
    """One ``calls.jsonl`` line's key, and its reply with its seconds."""
    value = per_line_value(path, line_no, line)
    try:
        key, tag, reply = value["key"], value["tag"], value["reply"]
        elapsed_s = value.get("elapsed_s", 0.0)
        if type(elapsed_s) is int:
            elapsed_s = float(elapsed_s)  # OverflowError past the largest float
        if not (type(key) is type(tag) is type(reply) is str and type(elapsed_s) is float
                and 0.0 <= elapsed_s < math.inf):
            raise ValueError("not a call record")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: unreadable call record", line=line_no) from exc
    return key, (reply, elapsed_s)


def per_line_records(path):
    """Each non-blank line's object, read line by line."""
    records = []
    with open(path, "rb") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            value = per_line_value(path, line_no, line)
            if not isinstance(value, dict):
                raise SchemaError(f"{path}: expected a JSON object", line=line_no)
            records.append((line_no, value))
    return records


def per_line_results(path):
    """``read_results``, line by line."""
    with open(path, "rb") as handle:
        return [per_line_result(path, line_no, line)
                for line_no, line in enumerate(handle, start=1) if line.strip()]


def per_line_resume(path):
    """The resume read, line by line: a final line that does not parse is
    truncated away, a missing final newline is added, and a key read twice
    is an error."""
    raw = path.read_bytes()
    with open(path, "rb") as handle:
        lines = [(line_no, line) for line_no, line in enumerate(handle, start=1)
                 if line.strip()]
    replies = {}
    for line_no, line in lines:
        try:
            key, reply = per_line_call(path, line_no, line)
        except SchemaError:
            if line_no != lines[-1][0]:
                raise
            path.write_bytes(raw[:raw.rindex(line)])
            return replies
        if key in replies:
            raise SchemaError(f"{path}: call key {key!r} appears twice")
        replies[key] = reply
    if raw and not raw.endswith(b"\n"):
        path.write_bytes(raw + b"\n")
    return replies


def resume_state(path):
    """``_read_resume_state``, each reply with its seconds."""
    return {key: (reply, reply.elapsed_s) for key, reply in _read_resume_state(path).items()}


def outcome(read, path):
    """What reading ``path`` gives: its value, or the error's type and text."""
    try:
        return ("value", read(path))
    except Exception as exc:  # the kind and text of any error must match too
        return ("error", type(exc), str(exc))


def assert_same_outcome(data: bytes, tmp_path):
    """Every reader of ``data`` agrees with its line-by-line reference."""
    path = tmp_path / "input.jsonl"
    for read, reference in ((_jsonl_records, per_line_records),
                            (read_results, per_line_results)):
        path.write_bytes(data)
        assert outcome(lambda p: list(read(p)), path) == outcome(reference, path)
    path.write_bytes(data)
    expected = outcome(per_line_resume, path)
    expected_bytes = path.read_bytes()
    path.write_bytes(data)
    assert outcome(resume_state, path) == expected
    assert path.read_bytes() == expected_bytes


def result_line(rationale="r") -> str:
    """A result record that is also a call record, keyed by its rationale."""
    record = {"note_id": "n1", "question_id": "q1", "pathway": "B", "value": "YES",
              "rationale": rationale, "evidence": [], "provenance": "p",
              "parse_fallback": False, "elapsed_s": 0.5,
              "key": f"k{rationale}", "tag": "n1|q1|judge|r1", "reply": "\"Yes\"."}
    return json.dumps(record, ensure_ascii=False)


GOOD = result_line().encode()
DEEP = b"[" * 100_000 + b"]" * 100_000  # past the decoder's recursion limit
LONG = b"1" * 5_000  # past the interpreter's 4,300-digit integer limit
ODD = result_line("漢 é").encode()  # unescaped, as results are written
# A rationale of half a surrogate pair, and one of an emoji, which json.dumps
# escapes as a whole pair.
LONE = GOOD.replace(b'"r"', b'"\\ud800"')
EMOJI = GOOD.replace(b'"r"', json.dumps("\U0001f600").encode())

def first_line_read_alone(data: bytes) -> int | None:
    """The first line jsonl_values hands to its per-line decoder, if any."""
    handed = []
    list(jsonl_values(data, lambda line_no, line: handed.append(line_no)))
    return handed[0] if handed else None


CASES = {
    # name: (file bytes, the first line read on its own)
    "clean": (GOOD + b"\n" + ODD + b"\n", None),
    "no final newline": (GOOD + b"\n" + ODD, None),
    "blank lines": (b"\n" + GOOD + b"\n \t\n\x0b\n\x0c\r\n\n" + ODD + b"\n\n", None),
    "nbsp line": (GOOD + b"\n\xc2\xa0\n" + ODD + b"\n", 2),
    "nbsp after a record": (GOOD + b"\xc2\xa0\n", 1),
    "vertical tab after a record": (GOOD + b"\x0b\n", 1),
    "crlf": (GOOD + b"\r\n" + ODD + b"\r\n", None),
    "leading whitespace": (GOOD + b"\n  " + GOOD + b"\n\t" + ODD + b"\n", 2),
    "trailing whitespace": (GOOD + b" \t \n" + ODD + b"\r \n", None),
    "u2028 in a string": (result_line("a\u2028b\u2029c\x85d").encode() + b"\n", None),
    "record over two lines": (GOOD[:20] + b"\n" + GOOD[20:] + b"\n", 1),
    "trailing data": (GOOD + b"\n" + GOOD + b" {}\n" + ODD + b"\n", 2),
    "two records on one line": (GOOD + GOOD + b"\n", 1),
    "not an object": (GOOD + b"\n[1, 2]\n", None),
    "not a record": (GOOD + b'\n{"note_id": "n1"}\n', None),
    "non-utf-8 byte on line 2": (GOOD + b"\n" + ODD[:30] + b"\xff" + ODD[30:] + b"\n"
                                 + GOOD + b"\n", 1),
    "torn mid-character": (GOOD + b"\n" + ODD[:ODD.index("漢".encode()) + 1], 1),
    "torn mid-record": (GOOD + b"\n" + ODD[:40] + b"\n", 2),
    "bom": (b"\xef\xbb\xbf" + GOOD + b"\n", 1),
    "nested too deeply": (GOOD + b"\n" + DEEP + b"\n" + GOOD + b"\n", 2),
    "nested too deeply on the last line": (GOOD + b"\n" + DEEP + b"\n", 2),
    "integer too long": (GOOD + b"\n" + LONG + b"\n" + GOOD + b"\n", 2),
    "integer too long on the last line": (GOOD + b"\n" + LONG + b"\n", 2),
    "NaN": (GOOD + b"\n" + GOOD.replace(b"0.5", b"NaN") + b"\n" + GOOD + b"\n", 2),
    "-Infinity on the last line": (GOOD + b"\n" + GOOD.replace(b"0.5", b"-Infinity"), 2),
    "a number past the largest float": (GOOD.replace(b"0.5", b"1e400") + b"\n", None),
    # From the first line with a surrogate escape on, each line is read alone.
    "lone surrogate": (GOOD + b"\n" + LONE + b"\n" + GOOD + b"\n", 2),
    "lone low surrogate in a key": (GOOD + b"\n" + b'{"\\udc00": 1}\n', 2),
    "surrogate pair": (GOOD + b"\n" + EMOJI + b"\n" + GOOD + b"\n", 2),
    "escaped backslash before u": (GOOD + b"\n" + LONE.replace(b"\\u", b"\\\\u")
                                   + b"\n", 2),
    "empty": (b"", None),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_reader_matches_line_by_line_reading(tmp_path, name):
    data, read_alone_from = CASES[name]
    assert first_line_read_alone(data) == read_alone_from
    assert_same_outcome(data, tmp_path)


def test_torn_final_line_cut_mid_character_is_truncated_on_resume(tmp_path, caplog):
    path = tmp_path / "calls.jsonl"
    path.write_bytes(GOOD + b"\n" + ODD[:ODD.index("漢".encode()) + 1])
    with caplog.at_level(logging.WARNING):
        replies = resume_state(path)
    assert replies == {"kr": ('"Yes".', 0.5)}
    assert path.read_bytes() == GOOD + b"\n"
    assert "truncating torn final line" in caplog.text


# Pieces of lines: records, text JSON escapes or leaves as it is, whitespace
# of both kinds, bytes that are not UTF-8, and debris.
LINE_PIECES = st.one_of(
    st.sampled_from([GOOD, ODD, b"{}", b"[]", b"1", b"null", b'"s"', b" ", b"\t", b"\r",
                     b"\x0b", b"\x0c", b"\xc2\xa0", b"\xe2\x80\xa8", b"\xff", b"\xe6\xbc",
                     b"{", b"}", b",", b'"', b"\\", b"\xef\xbb\xbf", b"1e400", b"NaN",
                     b"-Infinity", b"\\u", b"\\ud800", b"\\udc00", b"\\ud83d\\ude00"]),
    st.builds(lambda text, ascii_only: json.dumps({"k": text}, ensure_ascii=ascii_only)
              .encode(), st.text(max_size=6), st.booleans()),
    st.builds(result_line, st.text(max_size=6)).map(str.encode),
)
LINES = st.lists(st.lists(LINE_PIECES, max_size=3).map(b"".join), max_size=6)


@given(lines=LINES, end=st.sampled_from([b"", b"\n", b"\r\n"]),
       torn=st.one_of(st.just(0), st.integers(1, 12)))
@settings(max_examples=300, deadline=None)
def test_reader_matches_line_by_line_reading_on_any_bytes(tmp_path_factory, lines, end,
                                                          torn):
    data = b"\n".join(lines) + end
    # A crash may tear bytes off the end, mid-character or mid-record.
    data = data[:max(0, len(data) - torn)]
    assert_same_outcome(data, tmp_path_factory.mktemp("jsonl"))
