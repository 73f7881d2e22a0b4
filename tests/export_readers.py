"""Readers of the files `wasmcpg.export` writes, as the tools that load them
would read them, written apart from the renderers so that a quoting or
escaping mistake the renderers share with `export_reference.py` still
shows: each reader undoes only what its format defines and fails on what
the format does not allow."""

from __future__ import annotations

import csv
import os
import re

_FACT_ESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}


def _fact_text(cell: str) -> str:
    """A `.facts` cell with `\\`, `\t`, `\n` and `\r` undone."""
    return re.sub(r"\\(.)", lambda m: _FACT_ESCAPES[m[1]], cell, flags=re.S)


def read_facts(directory: str) -> dict[str, list[tuple[str, ...]]]:
    """Predicate -> its facts, from each `<predicate>.facts` file of
    `directory`: a line ends at LF, CR or CR LF, as for any text reader,
    and its cells are split on tab and unescaped."""
    facts = {}
    for name in sorted(os.listdir(directory)):
        predicate, ext = os.path.splitext(name)
        assert ext == ".facts", name
        with open(os.path.join(directory, name), encoding="utf-8") as fh:   # universal newlines
            text = fh.read()
        assert text == "" or text.endswith("\n"), (name, text[-20:])
        facts[predicate] = [tuple(map(_fact_text, line.split("\t")))
                            for line in text.split("\n")[:-1]]
    return facts


def read_csv(path: str) -> list[list[str]]:
    """The rows of a CSV file, header first, through the `csv` module; each
    row must be as wide as the header."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh, strict=True))
    assert rows and all(len(row) == len(rows[0]) for row in rows), rows
    return rows


_DOT_HEAD, _DOT_TAIL = "digraph cpg {\n  node [shape=box, fontsize=10];\n", "}\n"
_QUOTED = r'"((?:[^"\\]|\\.)*)"'   # a DOT string: `\"` and `\\` inside, LF and CR raw
_DOT_STATEMENT = re.compile(
    rf'  n(\d+) (?:\[label={_QUOTED}\]|-> n(\d+) \[color=(\w+)(?:, label={_QUOTED})?\]);\n', re.S)


def _dot_text(quoted: str) -> str:
    return re.sub(r"\\(.)", r"\1", quoted, flags=re.S)


def read_dot(path: str) -> tuple[list[tuple[int, str]], list[tuple[int, int, str, str | None]]]:
    """The `(id, label)` of each node statement and the `(src, dst, color,
    label or None)` of each edge statement of a DOT file, in file order.
    A quoted label may span lines; the file is read without newline
    translation, so a CR in a label stays one."""
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    assert text.startswith(_DOT_HEAD) and text.endswith(_DOT_TAIL), text[:80]
    nodes, edges, at, end = [], [], len(_DOT_HEAD), len(text) - len(_DOT_TAIL)
    while at < end:
        statement = _DOT_STATEMENT.match(text, at, end)
        assert statement, f"no DOT statement at {text[at:at + 80]!r}"
        src, node_label, dst, color, edge_label = statement.groups()
        if dst is None:
            nodes.append((int(src), _dot_text(node_label)))
        else:
            edges.append((int(src), int(dst), color,
                          None if edge_label is None else _dot_text(edge_label)))
        at = statement.end()
    return nodes, edges
