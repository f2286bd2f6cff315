"""The one reader and the one writer of JSON Lines files.

Every JSONL input (NLI bank, tagged page, dataset split, gold and
prediction files, templates.jsonl) goes through :class:`JsonlReader`,
and every JSONL output through :func:`line_writer`, as records
(:func:`jsonl_writer`) or as lines filled into a record's
:func:`line_skeleton` with string bodies that :func:`string_body` escaped
once per text, so line numbering, blank lines, fault wording,
field types (:func:`str_field` and the checks beside it) and text
encoding are decided here once. The one JSON file
read otherwise is a split's manifest sidecar: it is written as one JSONL
line and ``dataset_io.read_manifest`` reads it whole with ``json.load``.
"""

from __future__ import annotations

import json
import logging
import os
import re
from contextlib import contextmanager
from dataclasses import KW_ONLY, dataclass, field
from json.encoder import c_make_encoder, encode_basestring
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InvariantError, ToolkitError

logger = logging.getLogger(__name__)

# A JSON escape of a UTF-16 surrogate. Only lines that hold one are
# checked for a lone surrogate, which no UTF-8 output can encode. Testing
# for a backslash first keeps the slower scan off most clean lines.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")

# The characters json.dumps escapes in a string when ensure_ascii is false.
_NEEDS_ESCAPE = re.compile(r'[\x00-\x1f"\\]')

# The C encoder that JSONEncoder(ensure_ascii=False).encode makes on every call, made once with
# the arguments its iterencode passes. A call returns the text as a list or a tuple of one string.
# The markers dict finds circular records; a refused record leaves entries in it, so encode_line
# empties it then.
_markers: dict = {}
_encoder = c_make_encoder(_markers, json.JSONEncoder().default, encode_basestring, None, ": ", ", ", False, False, True)

# json.loads's scanner: ``(value, end)`` of the JSON value at an index of a string.
_scan_once = json.JSONDecoder().scan_once


def _decode(line: str):
    """``json.loads(line)``, value or exception; an object followed by nothing but the newline
    is taken from the scanner alone, without ``json.loads``'s BOM and whitespace checks."""
    if line[:1] == "{":
        try:
            value, end = _scan_once(line, 0)
            if line[end:] in ("", "\n"):
                return value
        except Exception:
            pass
    return json.loads(line)


def undecodable(source, exc: UnicodeDecodeError) -> InvariantError:
    """The error for input that is not UTF-8 text."""
    return InvariantError(f"{source}: not UTF-8 text ({exc})")


@dataclass
class JsonlReader:
    """The records of one JSONL stream, read under one fault policy.

    Lines are numbered from 1 and blank lines are ignored. Every other
    line must hold a JSON object, with no lone surrogate escape (such as
    ``"\\ud800"``) in its strings, which ``parse`` turns into the record
    that is yielded; ``parse`` rejects an object by raising
    ``ValueError`` or a :class:`ToolkitError`. Each fault is reported as
    ``source:line: reason``. The ``strict`` policy raises
    :class:`InvariantError`; the tolerant one logs
    ``source:line: reason, skipping``, counts the line in ``skipped``
    and goes on. With ``partial_tail``, a last non-blank line without a
    newline is a partially written record: it is reported as such and not
    parsed.
    Undecodable input raises :class:`InvariantError` naming the source
    under either policy.

    ``lines`` keep their newlines (an open text file will do); ``source``
    names them in reports, a path or ``<stdin>``.
    """

    lines: Iterable[str]
    source: object
    parse: Callable[[dict], object]
    _: KW_ONLY
    strict: bool = False
    partial_tail: bool = False
    skipped: int = field(default=0, init=False)

    def __iter__(self) -> Iterator:
        try:
            for line_no, line in enumerate(self.lines, start=1):
                if not line or line.isspace():
                    continue
                if self.partial_tail and not line.endswith("\n"):
                    self._fault(line_no, "partial trailing line")
                    return
                try:
                    raw = _decode(line)
                except (ValueError, RecursionError) as exc:  # bad syntax, too deep a nesting or too long an integer
                    self._fault(line_no, f"invalid JSON ({exc})")
                    continue
                if not isinstance(raw, dict):
                    self._fault(line_no, "not a JSON object")
                    continue
                if "\\" in line and _SURROGATE_ESCAPE.search(line):
                    try:
                        encode_line(raw).encode("utf-8")
                    except UnicodeEncodeError:
                        self._fault(line_no, "lone surrogate escape in a string")
                        continue
                try:
                    record = self.parse(raw)
                except (ValueError, ToolkitError) as exc:
                    self._fault(line_no, str(exc))
                    continue
                yield record
        except UnicodeDecodeError as exc:
            raise undecodable(self.source, exc) from None

    def _fault(self, line_no: int, reason: str) -> None:
        if self.strict:
            raise InvariantError(f"{self.source}:{line_no}: {reason}")
        logger.warning("%s:%d: %s, skipping", self.source, line_no, reason)
        self.skipped += 1


# Each field check returns the value as is or raises ValueError; a bool is not an integer.
def str_field(value, name: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} is not a string: {value!r}")
    return value


def int_field(value, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} is not an integer: {value!r}")
    return value


def str_list_field(value, name: str) -> list[str]:
    if not isinstance(value, list):
        raise ValueError(f"{name} is not a list: {value!r}")
    for item in value:
        if not isinstance(item, str):
            raise ValueError(f"{name} item is not a string: {item!r}")
    return value


def require_fields(raw: dict, keys) -> None:
    """Raise ``ValueError`` naming every one of ``keys`` that ``raw`` lacks."""
    missing = [key for key in keys if key not in raw]
    if missing:
        raise ValueError(f"missing fields: {', '.join(missing)}")


def optional_field(raw: dict, check, key: str, fallback: str | None = None):
    """``raw[key]``, or ``raw[fallback]`` when ``raw`` lacks ``key``, passed through ``check``
    under the key it was read from; None when ``raw`` holds neither or the value is null."""
    if key not in raw:
        if fallback not in raw:
            return None
        key = fallback
    value = raw[key]
    return None if value is None else check(value, key)


def _refuse_to_overwrite(path, sources, what: str) -> None:
    """Raise :class:`InvariantError` when ``path``, if given, names one of the ``sources`` files."""
    if path and os.path.exists(path):
        for source in sources:
            if os.path.samefile(path, source):
                raise InvariantError(f"{what} would overwrite the input file {source!r}")


def encode_line(record: dict) -> str:
    """The line, newline included, that :func:`jsonl_writer` writes for ``record``.

    It is ``json.dumps(record, ensure_ascii=False)`` and a newline: non-ASCII text is
    written as is, not as ``\\u`` escapes.
    """
    try:
        return "".join(_encoder(record, 0)) + "\n"
    except BaseException:
        _markers.clear()
        raise


def string_body(text: str) -> str:
    """``text`` as ``json.dumps`` writes it inside a string's quotes (``encode_basestring`` is
    its encoder of strings when ``ensure_ascii`` is false); ``text`` itself, the same object,
    when it needs no escape."""
    return encode_basestring(text)[1:-1] if _NEEDS_ESCAPE.search(text) else text


def line_skeleton(probe: Callable[[int, list[str]], dict], count: int) -> Callable[[int, Sequence[str]], str]:
    """``fill(number, bodies)``: the line :func:`encode_line` makes of the record
    ``probe(number, texts)`` for ``count`` texts whose :func:`string_body` is at their position
    in ``bodies``.

    ``probe`` is called once, with holes: a number no 64-bit seed or group number equals, and
    ``count`` texts that none of the others, nor the number, is part of. A hole may be a part of
    a string (as in ``f"R{number}"`` or ``"Ck: " + text``). The probe's line is cut at the holes
    in order: the number first, then each text hole's string body, inside its quotes, so the rest
    of that string stays in the line's pieces. A fill copies the pieces, with an empty part left
    at each hole, slices the number and the bodies in and joins them; a caller escapes the bodies
    once per text, not once per line.
    Raises :class:`InvariantError` unless each hole occurs exactly once in the probe's line, after
    the holes before it. ``fill`` raises it unless ``bodies`` holds ``count`` bodies.
    """
    number_hole, text_holes = 2**64, [f"\ue000{{{i}}}" for i in range(count)]
    line = encode_line(probe(number_hole, text_holes))
    parts, rest = [], line
    for hole in (str(number_hole), *text_holes):
        if line.count(hole) != 1:
            raise InvariantError(f"hole {hole!r} occurs {line.count(hole)} times in the record's line, expected once")
        piece, found, rest = rest.partition(hole)
        if not found:
            raise InvariantError("two holes overlap, or are out of order, in the record's line")
        parts += piece, ""
    parts.append(rest)

    def fill(number: int, bodies: Sequence[str]) -> str:
        filled = parts.copy()
        filled[1] = str(number)
        try:
            filled[3::2] = bodies
        except ValueError:
            raise InvariantError(f"expected {count} bodies, one per text hole, got {len(bodies)}") from None
        return "".join(filled)

    return fill


@contextmanager
def line_writer(path) -> Iterator[Callable[[str], object]]:
    """Yield ``write(line)``, which writes lines made by :func:`encode_line` or
    :func:`line_skeleton` to ``path`` as UTF-8. A fault inside the block leaves the
    lines written before it."""
    with open(path, "w", encoding="utf-8") as handle:
        yield handle.write


@contextmanager
def jsonl_writer(path) -> Iterator[Callable[[dict], object]]:
    """Yield ``write(record)``, which writes :func:`encode_line` of each record with
    :func:`line_writer`. With ``path`` None, ``write`` discards, encoding nothing, and no
    file is made."""
    if path is None:
        yield lambda record: None
        return
    with line_writer(path) as write:
        yield lambda record: write(encode_line(record))

