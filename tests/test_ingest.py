"""The bulk file reader of ``classlink.graph`` against the line-by-line oracle.

``load_graph`` must give the graph arrays of ``graph_oracles.load_graph_by_lines``
on every input, or raise the same exception class with the same message:
the first offending line wins, and each line runs its checks in order.
"""

from __future__ import annotations

import numpy as np
import pytest

from classlink import graph as graph_module
from classlink.errors import ClasslinkError, ParseError
from classlink.graph import Graph, load_graph

from graph_oracles import load_graph_by_lines

# Feature block sizes, in characters, that put block ends inside and between
# lines of the small files below.
SMALL_BLOCKS = (1, 2, 7, 40)

LINE_ENDS = ("\n", "\r\n", "\r")
# str.strip and str.split remove these, but a file is never cut into lines
# at them (str.splitlines would cut at the last four).
PADDING = ("", "", "", " ", "\t", " \t ", "\x0c", "\xa0", "\x1c", "\x85", " ")
IDS = ("a", "b", "c", "n1", "10", "01", "é", "节点", "Ωmega", "p q")
EDGE_ONLY_IDS = ("z", "z2", "ß", "10.0")
GOOD_CELLS = (
    "0", "0", "0", "0", "0", "1", "1", "2.5", "-0", "-0.0", "0.0", "00", "1e3",
    "1_0", " 7 ", "\t-3", "0 ", " 0", "+0", "-1E-2", "٣",
)
BAD_CELLS = ("", "x", "nan", "inf", "-inf", "1e999", "1__0", "0x10", "NaN", "0,5")
CLASSES = ("x", "y", "17", "ü", " x ")


def outcome(load, *paths):
    """``("graph", g)`` or ``("error", exception class, message)``."""
    try:
        return ("graph", load(*paths))
    except ClasslinkError as exc:
        return ("error", type(exc), str(exc))


def assert_same_graph(got: Graph, want: Graph) -> None:
    assert got.node_ids == want.node_ids
    assert got.class_ids == want.class_ids
    if want.labels is None:
        assert got.labels is None
    else:
        assert got.labels.dtype == want.labels.dtype
        assert got.labels.tobytes() == want.labels.tobytes()
    for name in ("adj", "features"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape, name
        for part in ("indptr", "indices", "data"):
            x, y = getattr(a, part), getattr(b, part)
            assert x.dtype == y.dtype, (name, part)
            assert x.tobytes() == y.tobytes(), (name, part)


def assert_same_as_oracle(*paths) -> tuple:
    got, want = outcome(load_graph, *paths), outcome(load_graph_by_lines, *paths)
    if want[0] == "graph" and got[0] == "graph":
        assert_same_graph(got[1], want[1])
    else:
        assert got == want
    return want


def write(path, lines: list[str], rng: np.random.Generator | None = None) -> str:
    """Write ``lines`` with random line ends (``\\n`` when ``rng`` is None),
    the last one sometimes left off, and return the path."""
    if rng is None:
        text = "".join(line + "\n" for line in lines)
    else:
        ends = [LINE_ENDS[i] for i in rng.integers(0, len(LINE_ENDS), len(lines))]
        if lines and rng.random() < 0.3:
            ends[-1] = ""
        text = "".join(line + end for line, end in zip(lines, ends))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def pick(rng: np.random.Generator, pool):
    return pool[int(rng.integers(len(pool)))]


def pad(rng: np.random.Generator, text: str) -> str:
    return pick(rng, PADDING) + text + pick(rng, PADDING)


def random_features(rng: np.random.Generator, ids: list[str]) -> list[str]:
    width = int(rng.integers(1, 6))
    lines = []
    for node in ids:
        if rng.random() < 0.15:
            lines.append(pick(rng, ("", " ", "\t", "\x85")))  # blank lines
        n_cells = width
        roll = rng.random()
        if roll < 0.03:
            n_cells = width + pick(rng, (-1, 1))  # ragged
        elif roll < 0.05:
            lines.append(pad(rng, node))  # no comma
            continue
        elif roll < 0.09:
            node = ids[0]  # duplicate row
        cells = [
            pick(rng, BAD_CELLS) if rng.random() < 0.02 else pick(rng, GOOD_CELLS)
            for _ in range(max(n_cells, 0))
        ]
        lines.append(pad(rng, ",".join([pad(rng, node), *cells])))
    return lines


def random_labels(rng: np.random.Generator, ids: list[str]) -> list[str]:
    lines = []
    for node in ids:
        if rng.random() < 0.1:
            lines.append(pick(rng, ("", "  ", " ")))
        roll = rng.random()
        if roll < 0.03:
            lines.append(pad(rng, f"{node},{pick(rng, CLASSES)},{pick(rng, CLASSES)}"))
        elif roll < 0.05:
            lines.append(pad(rng, node))
        else:
            if roll < 0.1:
                node = ids[0]
            lines.append(pad(rng, f"{pad(rng, node)},{pick(rng, CLASSES)}"))
    return lines


def random_edges_file(rng: np.random.Generator, ids: list[str]) -> list[str]:
    nodes = [i for i in (*ids, *EDGE_ONLY_IDS) if " " not in i]
    lines = []
    for _ in range(int(rng.integers(0, 12))):
        roll = rng.random()
        if roll < 0.1:
            lines.append(pick(rng, ("", "# comment", "  # u v", "#", "\t")))
            continue
        tokens = [pick(rng, nodes) for _ in range(2)]
        if roll < 0.115:
            tokens = tokens[:1]
        elif roll < 0.13:
            tokens.append(pick(rng, nodes))
        line = pick(rng, (" ", "\t", "  ", "\xa0", " \x0b")).join(tokens)
        if rng.random() < 0.15:
            line += pick(rng, (" # trailing", "#x y z", "# é"))
        lines.append(pad(rng, line))
    return lines


def random_case(rng: np.random.Generator, tmp_path) -> tuple:
    ids = [pick(rng, IDS) for _ in range(int(rng.integers(0, 8)))]
    ids = list(dict.fromkeys(ids))
    paths = [write(tmp_path / "edges.txt", random_edges_file(rng, ids), rng)]
    feature_ids = ids[: int(rng.integers(0, len(ids) + 1))]
    label_ids = [i for i in ids if rng.random() < 0.6]
    if rng.random() < 0.8:
        paths.append(write(tmp_path / "features.csv", random_features(rng, feature_ids), rng))
    else:
        paths.append(None)
    if rng.random() < 0.7:
        paths.append(write(tmp_path / "labels.csv", random_labels(rng, label_ids), rng))
    return tuple(paths)


class TestAgainstTheLineOracle:
    def test_seeded_files_give_the_oracle_graph_or_error(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(1901)
        kinds = {"graph": 0, "error": 0}
        for _ in range(400):
            paths = random_case(rng, tmp_path)
            monkeypatch.setattr(graph_module, "_FEATURE_BLOCK", 1 << 16)
            kinds[assert_same_as_oracle(*paths)[0]] += 1
            monkeypatch.setattr(graph_module, "_FEATURE_BLOCK", pick(rng, SMALL_BLOCKS))
            assert_same_as_oracle(*paths)
        # both outcomes are exercised often
        assert min(kinds.values()) > 60, kinds

    @pytest.mark.parametrize("block", [*SMALL_BLOCKS, 1 << 16])
    def test_block_boundaries_change_nothing(self, tmp_path, monkeypatch, block):
        rng = np.random.default_rng(1902)
        cells = [["1.5" if x else "0" for x in row] for row in rng.random((30, 9)) < 0.3]
        cells[3][4], cells[7][0], cells[11][8] = "-0", "1e3", "-0.0"
        lines = [f"n{i}," + ",".join(row) for i, row in enumerate(cells)]
        lines[5:5] = ["", "   "]
        feats = write(tmp_path / "features.csv", lines, rng)
        edges = write(tmp_path / "edges.txt", [f"n{i} n{i + 1}" for i in range(29)])
        want = load_graph_by_lines(edges, feats)
        monkeypatch.setattr(graph_module, "_FEATURE_BLOCK", block)
        assert_same_graph(load_graph(edges, feats), want)


class TestCases:
    """Named inputs, each compared with the oracle."""

    @pytest.mark.parametrize("end", LINE_ENDS)
    def test_line_ends_whitespace_and_comments(self, tmp_path, end):
        feats = tmp_path / "features.csv"
        feats.write_bytes(
            f"  a ,1,0\t{end}{end}\tb,0,2 {end} \x0c {end}é,-0,0.0".encode()
        )
        labels = tmp_path / "labels.csv"
        labels.write_bytes(f"a, red {end}\t节点 ,blue{end}{end}".encode())
        edges = tmp_path / "edges.txt"
        edges.write_bytes(
            f"# header{end}a\tb{end}{end} b  é # c d{end}节点 z {end}".encode()
        )
        kind, g = assert_same_as_oracle(edges, feats, labels)
        assert kind == "graph"
        assert g.node_ids == ("a", "b", "é", "节点", "z")

    def test_special_cells(self, tmp_path):
        cells = ["-0", "-0.0", "0.0", "00", "1e3", "1_0", "0", " 0", "+0", "٣"]
        feats = write(tmp_path / "features.csv", ["a," + ",".join(cells)])
        edges = write(tmp_path / "edges.txt", ["a b"])
        kind, g = assert_same_as_oracle(edges, feats)
        assert kind == "graph"
        row = g.features.toarray()[0]
        assert row.tolist() == [-0.0, -0.0, 0, 0, 1000, 10, 0, 0, 0, 3]
        # -0 and -0.0 are stored, every +0.0 is not
        assert g.features.indices.tolist() == [0, 1, 4, 5, 9]

    @pytest.mark.parametrize(
        "features, labels, edges",
        [
            (["a,1,2", "b,3"], None, ["a b"]),  # ragged row
            (["a,1", "b"], None, ["a b"]),  # no comma
            (["a,1", "b,2", " a ,3"], None, ["a b"]),  # duplicate feature row
            (["a,1", "b,oops"], None, ["a b"]),  # non-numeric cell
            (["a,1,"], None, ["a b"]),  # empty cell
            (["a,nan,1"], None, ["a b"]),  # non-finite cell
            (["a,inf"], None, ["a b c"]),  # the edge error comes before the non-finite check
            (["a,x,1", "b,1"], None, ["a b"]),  # the non-numeric cell wins over the ragged row
            (["a,1", "b,2,3", "c,x"], None, ["a b"]),  # the ragged row wins over the later cell
            (None, ["a,x", "b,y", "a,y"], ["a b"]),  # duplicate label row
            (None, ["a,x", "b,y,z"], ["a b"]),  # 3-cell label row
            (None, ["a,x", "b"], ["a b"]),  # 1-cell label row
            (None, ["a,x", "a,y", "b,y,z"], ["a b"]),  # the duplicate wins
            (None, ["a,x,y", "a,y"], ["a b"]),  # the cell count wins
            (["a,1"], ["a,x,y"], ["a"]),  # the label error comes before the edge error
            (None, None, ["a b", "c"]),  # one token
            (None, None, ["a b", "c d e # f"]),  # three tokens
            (None, None, ["# only a comment", ""]),  # no nodes
        ],
    )
    def test_errors(self, tmp_path, features, labels, edges):
        paths = [write(tmp_path / "edges.txt", edges)]
        paths.append(None if features is None else write(tmp_path / "features.csv", features))
        paths.append(None if labels is None else write(tmp_path / "labels.csv", labels))
        assert assert_same_as_oracle(*paths)[0] == "error"

    def test_a_file_that_is_not_utf8_names_itself(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_bytes(b"a b\n\xff c\n")
        with pytest.raises(ParseError, match=r"cannot read .*edges\.txt: 'utf-8' codec"):
            load_graph(edges)
        feats = tmp_path / "features.csv"
        feats.write_bytes(b"a,1\n\xfe,2\n")
        with pytest.raises(ParseError, match=r"cannot read .*features\.csv"):
            load_graph(tmp_path / "missing.txt", feats)
