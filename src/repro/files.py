"""The file layer: how a ``repro-*`` document is opened, checked and saved.

Every reader and writer in the package goes through here.  A document
is a JSON object whose ``format`` names it and whose ``version`` is an
integer from 1 to the reader's newest (absent reads as 1).  A missing
or unreadable file, bytes that are not UTF-8, text that is not JSON
and a malformed document are all a :class:`SerializationError` naming
the path, which the CLI prints as an ``error:`` line.  Writers create
missing parent directories.

Imports only the standard library and :mod:`repro.errors`: the engine
and the online layer use it, and any module under :mod:`repro.io`
would drag chart export, the wire parser and the shard formats into
their import.
"""

from __future__ import annotations

import json
import os
from collections.abc import Mapping
from typing import Any, Callable, TypeVar

from .errors import SerializationError

__all__ = ["check_envelope", "typed", "read_text", "read_json",
           "write_text", "write_json"]

T = TypeVar("T")


def check_envelope(doc: Any, fmt: str, newest: int) -> None:
    """Refuse all but a ``fmt`` JSON object of a version this reads.

    ``version`` must be an integer from 1 to ``newest``; absent reads
    as 1, and ``true`` is not an integer.
    """
    if not isinstance(doc, Mapping) or doc.get("format") != fmt:
        found = doc.get("format") if isinstance(doc, Mapping) \
            else type(doc).__name__
        raise SerializationError(
            f"expected a {fmt!r} document, found {found!r:.60}")
    version = typed(doc.get("version", 1), int, f"{fmt} version")
    if version < 1:
        raise SerializationError(f"{fmt} version {version} is below 1")
    if version > newest:
        raise SerializationError(
            f"{fmt} version {version} is newer than this reader's {newest}")


def typed(value: Any, types, what: str) -> Any:
    """``value`` if it has one of the JSON ``types``, else an error.

    ``true`` is not a number here.
    """
    types = types if isinstance(types, tuple) else (types,)
    if isinstance(value, types) \
            and (bool in types or not isinstance(value, bool)):
        return value
    names = " or ".join(kind.__name__ for kind in types)
    raise SerializationError(
        f"{what} must be {names}, found {value!r:.60}")


def read_text(path: str, parse: "Callable[[str], T]") -> T:
    """``parse`` applied to the UTF-8 text of ``path``.

    An ``OSError``, bytes that are not UTF-8 and a
    :class:`SerializationError` from ``parse`` all become a
    :class:`SerializationError` naming the path.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SerializationError(f"cannot read {path}: {exc}") from exc
    try:
        return parse(text)
    except SerializationError as exc:
        raise SerializationError(f"{path}: {exc}") from exc


def read_json(path: str, parse: "Callable[[Any], T]") -> T:
    """``parse`` applied to the JSON document in ``path``.

    Text that is not JSON is an error naming the path, as in
    :func:`read_text`.
    """
    return read_text(path, lambda text: parse(_decode(text)))


def _decode(text: str) -> Any:
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SerializationError(f"not valid JSON: {exc}") from exc


def write_text(path: str, text: str) -> str:
    """Write ``text`` to ``path`` (parent directories created)."""
    try:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise SerializationError(f"cannot write {path}: {exc}") from exc
    return path


def write_json(path: str, doc: Any) -> str:
    """Write ``doc`` to ``path`` as indented JSON and a newline."""
    return write_text(path, json.dumps(doc, indent=2) + "\n")
