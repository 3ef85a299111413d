#!/usr/bin/env python3
"""Generate docs/api.md from the package's public surface.

Walks every ``repro`` subpackage, collects the names each ``__all__``
exports, and writes a one-line-per-symbol index (first docstring line).
Constants — which have no docstring of their own — are summarized from
the ``#:`` comment block (or PEP-224 string literal) at their
definition site, wherever in the package that is.  Run after changing
the public API:

    python tools/gen_api_doc.py

The generated file is committed so the docs are readable without
running anything; this script (and the CI drift check re-running it)
keeps it honest.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "src"))

PACKAGES = [
    "repro",
    "repro.core",
    "repro.scheduling",
    "repro.power",
    "repro.gantt",
    "repro.mission",
    "repro.execution",
    "repro.workloads",
    "repro.io",
    "repro.analysis",
    "repro.engine",
    "repro.engine.backends",
    "repro.obs",
    "repro.serving",
    "repro.online",
    "repro.errors",
    "repro.files",
]

HEADER = """# API index

One line per public symbol, generated by ``tools/gen_api_doc.py``.
The module docstrings and ``docs/model.md`` / ``docs/algorithms.md``
carry the real documentation; this is the map.
"""


def first_line(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    line = doc.splitlines()[0].strip() if doc else ""
    return line


def _module_constant_docs(source: str) -> "dict[str, str]":
    """Constant summaries from one module's source text.

    Recognizes the two documentation conventions for assignments:
    a ``#:`` comment block on the lines directly above, and a PEP-224
    string literal on the line directly below.
    """
    docs: "dict[str, str]" = {}
    tree = ast.parse(source)
    lines = source.splitlines()
    body = tree.body
    for position, node in enumerate(body):
        if isinstance(node, ast.Assign):
            names = [t.id for t in node.targets
                     if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        summary = ""
        if position + 1 < len(body):
            trailer = body[position + 1]
            if isinstance(trailer, ast.Expr) \
                    and isinstance(trailer.value, ast.Constant) \
                    and isinstance(trailer.value.value, str):
                text = trailer.value.value.strip()
                summary = text.splitlines()[0].strip() if text else ""
        if not summary:
            block: "list[str]" = []
            row = node.lineno - 2  # the line above, 0-indexed
            while row >= 0 and lines[row].strip().startswith("#:"):
                block.insert(0, lines[row].strip()[2:].strip())
                row -= 1
            summary = " ".join(block)
        for name in names:
            if summary:
                docs.setdefault(name, summary)
    return docs


def constant_summaries(package_root: str) -> "dict[str, str]":
    """name -> summary for every documented module-level assignment
    under ``package_root``, first definition wins."""
    docs: "dict[str, str]" = {}
    for dirpath, dirnames, filenames in os.walk(package_root):
        dirnames.sort()
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            for name, summary in _module_constant_docs(source).items():
                docs.setdefault(name, summary)
    return docs


def describe(module, constants: "dict[str, str]") -> "list[str]":
    lines = []
    exported = getattr(module, "__all__", None)
    if exported is None:
        return lines
    for name in sorted(exported):
        obj = getattr(module, name, None)
        if obj is None:
            continue
        kind = ("class" if inspect.isclass(obj)
                else "function" if callable(obj)
                else "constant")
        if kind != "constant":
            summary = first_line(obj)
        else:
            summary = constants.get(name, "")
        summary = summary.replace("|", "\\|")
        lines.append(f"| `{name}` | {kind} | {summary} |")
    return lines


def main() -> None:
    constants = constant_summaries(
        os.path.join(os.path.dirname(__file__), os.pardir, "src",
                     "repro"))
    out = [HEADER]
    for package in PACKAGES:
        module = importlib.import_module(package)
        out.append(f"\n## `{package}`\n")
        doc = first_line(module)
        if doc:
            out.append(doc + "\n")
        rows = describe(module, constants)
        if rows:
            out.append("| symbol | kind | summary |")
            out.append("|---|---|---|")
            out.extend(rows)
        else:
            out.append("(no `__all__`; see module source)")
    path = os.path.join(os.path.dirname(__file__), os.pardir, "docs",
                        "api.md")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(out) + "\n")
    print(f"wrote {os.path.abspath(path)}")


if __name__ == "__main__":
    main()
