"""JSONL inputs are decoded once per file, with the outcome of reading each
line on its own.

Each reference below reads a file line by line, as eligo did before: the
notes and gold loaders, ``read_results``, and the resume read that repairs
a torn final line.  The reader must return the same records with the same
line numbers, or raise the same error, and leave the same bytes on disk.
"""

import json
import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eligo.corpus import _jsonl_records, jsonl_values
from eligo.errors import SchemaError
from eligo.runner import ResultRecord, _read_resume_state, read_results

UNREADABLE = (ValueError, KeyError, TypeError, OverflowError)


def per_line_records(path):
    """Each non-blank line's object, read line by line."""
    records = []
    with open(path, "rb") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                value = json.loads(line.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise SchemaError(f"{path}: not UTF-8 text at byte {exc.start}",
                                  line=line_no) from exc
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}: invalid JSON: {exc.msg}", line=line_no) from exc
            if not isinstance(value, dict):
                raise SchemaError(f"{path}: expected a JSON object", line=line_no)
            records.append((line_no, value))
    return records


def per_line_results(path):
    """``read_results``, line by line."""
    records = []
    with open(path, "rb") as handle:
        for line_no, line in enumerate(handle, start=1):
            if line.strip():
                try:
                    records.append(ResultRecord.from_dict(json.loads(line.decode("utf-8"))))
                except UNREADABLE as exc:
                    raise SchemaError(f"{path}: unreadable result record",
                                      line=line_no) from exc
    return records


def per_line_resume(path):
    """The resume read, line by line: a final line that does not parse is
    truncated away, and a missing final newline is added."""
    raw = path.read_bytes()
    lines = [(line_no, line) for line_no, line in enumerate(raw.split(b"\n"), start=1)
             if line.strip()]
    records = []
    for line_no, line in lines:
        try:
            records.append(ResultRecord.from_dict(json.loads(line.decode("utf-8"))))
        except UNREADABLE as exc:
            if line_no != lines[-1][0]:
                raise SchemaError(f"{path}: unreadable result record",
                                  line=line_no) from exc
            path.write_bytes(raw[:raw.rindex(line)])
            return records
    if raw and not raw.endswith(b"\n"):
        path.write_bytes(raw + b"\n")
    return records


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
    assert outcome(_read_resume_state, path) == expected
    assert path.read_bytes() == expected_bytes


def result_line(rationale="r") -> str:
    record = {"note_id": "n1", "question_id": "q1", "pathway": "B", "value": "YES",
              "rationale": rationale, "evidence": [], "provenance": "p",
              "parse_fallback": False, "elapsed_s": 0.5}
    return json.dumps(record, ensure_ascii=False)


GOOD = result_line().encode()
ODD = result_line("漢 é").encode()  # unescaped, as results are written

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
    "empty": (b"", None),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_reader_matches_line_by_line_reading(tmp_path, name):
    data, read_alone_from = CASES[name]
    assert first_line_read_alone(data) == read_alone_from
    assert_same_outcome(data, tmp_path)


def test_torn_final_line_cut_mid_character_is_truncated_on_resume(tmp_path, caplog):
    path = tmp_path / "results.jsonl"
    path.write_bytes(GOOD + b"\n" + ODD[:ODD.index("漢".encode()) + 1])
    with caplog.at_level(logging.WARNING):
        records = _read_resume_state(path)
    assert records == [ResultRecord.from_dict(json.loads(GOOD))]
    assert path.read_bytes() == GOOD + b"\n"
    assert "truncating torn final line" in caplog.text


# Pieces of lines: records, text JSON escapes or leaves as it is, whitespace
# of both kinds, bytes that are not UTF-8, and debris.
LINE_PIECES = st.one_of(
    st.sampled_from([GOOD, ODD, b"{}", b"[]", b"1", b"null", b'"s"', b" ", b"\t", b"\r",
                     b"\x0b", b"\x0c", b"\xc2\xa0", b"\xe2\x80\xa8", b"\xff", b"\xe6\xbc",
                     b"{", b"}", b",", b'"', b"\\", b"\xef\xbb\xbf", b"1e400", b"NaN"]),
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
