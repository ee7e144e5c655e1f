"""The line-by-line reader of graph input files, used as the oracle of the
bulk reader in ``classlink.graph``.

:func:`load_graph_by_lines` iterates each file's lines through ``open`` and
splits every feature row into Python cells, interning each id as it is met;
``classlink.graph.load_graph`` must give the same graph arrays, or raise the
same exception class with the same message, on every input this reader
decodes.
"""

from __future__ import annotations

from collections.abc import Iterator
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from classlink.errors import DimensionError, ParseError
from classlink.graph import Graph, build_graph


def _strip_comment(line: str) -> str:
    hash_pos = line.find("#")
    if hash_pos >= 0:
        line = line[:hash_pos]
    return line.strip()


def load_graph_by_lines(
    edge_path: str | Path,
    feature_path: str | Path | None = None,
    label_path: str | Path | None = None,
) -> Graph:
    """:func:`classlink.graph.load_graph`, one line and one cell at a time.

    Edge file: one ``u v`` pair per line, whitespace separated; ``#`` starts a
    comment; blank lines are ignored.  Feature CSV: ``node_id,f1,f2,...`` with
    a fixed number of finite real-valued columns.  Label CSV: ``node_id,label``.
    Labels are re-mapped to contiguous dense ids in first-seen order; nodes
    missing from the label file get ``-1``; nodes missing from the feature
    file get zero rows.
    """
    index: dict[str, int] = {}

    def intern(token: str) -> int:
        if token not in index:
            index[token] = len(index)
        return index[token]

    # Feature and label files are interned before edges; see the module docstring
    # of classlink.graph.
    # Feature rows are kept as the columns and values of their stored entries.
    feature_cols: list[np.ndarray] = []
    feature_vals: list[np.ndarray] = []
    feature_lines: list[int] = []
    n_feature_cols: int | None = None
    if feature_path is not None:
        for lineno, raw in enumerate(_read_lines(feature_path), start=1):
            line = raw.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) < 2:
                raise ParseError(
                    f"{feature_path}:{lineno}: expected node id plus at least "
                    f"one feature column, got {len(cells)} cell(s)"
                )
            if n_feature_cols is None:
                n_feature_cols = len(cells) - 1
            elif len(cells) - 1 != n_feature_cols:
                raise DimensionError(
                    f"{feature_path}:{lineno}: row has {len(cells) - 1} feature "
                    f"columns, expected {n_feature_cols}"
                )
            node = intern(cells[0].strip())
            if node < len(feature_cols):  # feature rows get ids 0, 1, ... in order
                raise ParseError(
                    f"{feature_path}:{lineno}: duplicate feature row for node "
                    f"'{cells[0].strip()}'"
                )
            values = cells[1:]
            # a "0" cell is +0.0, which is never stored, so only the rest is parsed
            cols = [j for j, c in enumerate(values) if c != "0"]
            try:
                vals = np.array([float(values[j]) for j in cols], dtype=np.float64)
            except ValueError as exc:
                raise ParseError(
                    f"{feature_path}:{lineno}: non-numeric feature value ({exc})"
                ) from exc
            stored = vals.view(np.int64) != 0
            feature_cols.append(np.array(cols, dtype=np.int64)[stored])
            feature_vals.append(vals[stored])
            feature_lines.append(lineno)

    label_rows: dict[int, int] = {}
    class_index: dict[str, int] = {}
    if label_path is not None:
        for lineno, raw in enumerate(_read_lines(label_path), start=1):
            line = raw.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != 2:
                raise ParseError(
                    f"{label_path}:{lineno}: expected 'node_id,label', got "
                    f"{len(cells)} cell(s)"
                )
            node = intern(cells[0].strip())
            if node in label_rows:
                raise ParseError(
                    f"{label_path}:{lineno}: duplicate label row for node "
                    f"'{cells[0].strip()}'"
                )
            cls = cells[1].strip()
            if cls not in class_index:
                class_index[cls] = len(class_index)
            label_rows[node] = class_index[cls]

    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(_read_lines(edge_path), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(
                f"{edge_path}:{lineno}: expected two node ids per line, got "
                f"{len(tokens)} token(s): {line!r}"
            )
        edges.append((intern(tokens[0]), intern(tokens[1])))

    n_nodes = len(index)
    if n_nodes == 0:
        raise ParseError(f"{edge_path}: no nodes found in any input file")

    features = None
    if feature_path is not None:
        # rows 0 .. len(feature_cols) - 1 in order, columns ascending: a
        # canonical CSR; nodes without a feature row get empty rows
        sizes = np.zeros(n_nodes, dtype=np.int64)
        sizes[: len(feature_cols)] = [c.size for c in feature_cols]
        indptr = np.concatenate([[0], np.cumsum(sizes)])
        values = np.concatenate([np.zeros(0), *feature_vals])
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            row = int(np.searchsorted(indptr, bad[0], side="right")) - 1
            raise ParseError(
                f"{feature_path}:{feature_lines[row]}: non-finite feature "
                f"value {values[bad[0]]}"
            )
        features = sp.csr_matrix(
            (values, np.concatenate([np.zeros(0, dtype=np.int64), *feature_cols]), indptr),
            shape=(n_nodes, n_feature_cols or 0),
        )

    labels = None
    class_ids: tuple[str, ...] = ()
    if label_path is not None:
        labels = np.full(n_nodes, -1, dtype=np.int64)
        for node, cls in label_rows.items():
            labels[node] = cls
        class_ids = tuple(class_index)

    node_ids = tuple(index)
    return build_graph(
        n_nodes,
        np.array(edges, dtype=np.int64).reshape(-1, 2),
        features=features,
        labels=labels,
        node_ids=node_ids,
        class_ids=class_ids,
    )


def _read_lines(path: str | Path) -> Iterator[str]:
    """The lines of a text file, read one at a time."""
    try:
        with open(path) as fh:
            yield from fh
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
