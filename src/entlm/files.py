"""Reading and writing data files.  Every reader hands its own parse function
to `read_lines`, `read_json_lines` or `read_json`.  A KeyError, IndexError,
TypeError, AttributeError or ValueError (JSONDecodeError, UnicodeDecodeError
and the `validate()` errors among them) raised while a file is decoded or
parsed becomes ContractError("<path>:<line>: ...").  JSON is read by `loads`,
which also refuses a string that no UTF-8 file can hold.  Every JSON-lines
file is written by `write_json_lines` and every JSON document (a report, a
manifest) by `write_json`; each refuses such a string before it opens the file.
"""

import json
import re

from .errors import ContractError, EntlmError

PARSE_ERRORS = (KeyError, IndexError, TypeError, AttributeError, ValueError)
# a JSON escape of a UTF-16 surrogate, which is a character only as half of a pair
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def loads(text):
    """json.loads(text), refusing a lone surrogate escape, which UTF-8 cannot encode."""
    value = json.loads(text)
    if _SURROGATE_ESCAPE.search(text):
        try:
            json.dumps(value, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            raise ContractError("a string holds a lone surrogate escape (\\ud800-\\udfff outside a pair)") from None
    return value


def _located(path, lineno, e):
    detail = e if isinstance(e, EntlmError) else f"{type(e).__name__}: {e}"
    if isinstance(e, json.JSONDecodeError):  # its own line number counts within the text parsed
        detail = f"JSONDecodeError: {e.msg} at column {e.colno}"
    return ContractError(f"{path}:{lineno}: {detail}")


def read_lines(path, parse, paragraphs=False):
    """[parse(line) for each non-blank line of a UTF-8 file], line endings
    removed; with `paragraphs`, one such list per run between blank lines."""
    groups = [[]]
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, 1):
            try:
                line = raw.decode("utf-8").rstrip("\r\n")
                if line.strip():
                    groups[-1].append(parse(line))
                elif paragraphs and groups[-1]:
                    groups.append([])
            except PARSE_ERRORS as e:
                raise _located(path, lineno, e) from None
    return [g for g in groups if g] if paragraphs else groups[0]


def read_json_lines(path, parse):
    """[parse(record) for each non-blank line], each line one JSON value."""
    return read_lines(path, lambda line: parse(loads(line.strip())))


def _write_text(path, text):
    """Write `text` as UTF-8, encoded before the file is opened, so a string UTF-8
    cannot encode (a surrogate) raises ContractError("<path>:<line>: ...") and writes nothing."""
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as e:
        lineno = text.count("\n", 0, e.start) + 1
        raise ContractError(f"{path}:{lineno}: a string holds the surrogate {text[e.start]!r}, "
                            "which UTF-8 cannot encode") from None
    with open(path, "wb") as f:
        f.write(data)


def write_json_lines(path, rows):
    """One line of `json.dumps(row, ensure_ascii=False)` per row, through `_write_text`."""
    _write_text(path, "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows))


def write_json(path, payload):
    """One JSON document, indented with sorted keys, through `_write_text`: the file `read_json` reads."""
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n")


def read_json(path, parse, lines=False):
    """parse(document) for a UTF-8 file of one JSON document; an error that
    `parse` raises names line 1.  With `lines`, a file that does not parse as
    one JSON document goes to `read_json_lines` instead."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        document = loads(raw.decode("utf-8"))
    except ValueError as e:
        if lines and isinstance(e, json.JSONDecodeError):
            return read_json_lines(path, parse)
        # a JSONDecodeError knows its line, a UnicodeDecodeError its byte offset; a lone surrogate names line 1
        lineno = getattr(e, "lineno", None) or raw.count(b"\n", 0, getattr(e, "start", 0)) + 1
        raise _located(path, lineno, e) from None
    try:
        return parse(document)
    except PARSE_ERRORS as e:
        raise _located(path, 1, e) from None
