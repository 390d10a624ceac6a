"""Reading input files: every reader hands its own parse function to
`read_lines`, `read_json_lines` or `read_json`.  A KeyError, IndexError,
TypeError, AttributeError or ValueError (JSONDecodeError, UnicodeDecodeError
and the `validate()` errors among them) raised while a file is decoded or
parsed becomes ContractError("<path>:<line>: ...").
"""

import json

from .errors import ContractError, EntlmError

PARSE_ERRORS = (KeyError, IndexError, TypeError, AttributeError, ValueError)


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
    return read_lines(path, lambda line: parse(json.loads(line.strip())))


def read_json(path, parse, lines=False):
    """parse(document) for a UTF-8 file of one JSON document; an error that
    `parse` raises names line 1.  With `lines`, a file that is not one JSON
    document goes to `read_json_lines` instead."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        document = json.loads(raw.decode("utf-8"))
    except ValueError as e:
        if lines:
            return read_json_lines(path, parse)
        # a JSONDecodeError knows its line, a UnicodeDecodeError its byte offset
        lineno = getattr(e, "lineno", None) or raw.count(b"\n", 0, getattr(e, "start", 0)) + 1
        raise _located(path, lineno, e) from None
    try:
        return parse(document)
    except PARSE_ERRORS as e:
        raise _located(path, 1, e) from None
