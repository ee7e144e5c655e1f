"""The shared artifact path: atomic writes, the envelope line and the raw
array bytes after it, and a ``ParseError`` for every malformed payload of
every artifact kind and every fault of the layout."""

from __future__ import annotations

import base64
import json
import os
import tracemalloc

import numpy as np
import pytest

from classlink import artifacts, cli
from classlink.backbone import (
    TrainConfig,
    TrainedModel,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from classlink.clustering import load_labeling_json, save_labeling_json, kmeans
from classlink.config import RunConfig
from classlink.errors import ParseError
from classlink.evaluation import draw_per_edge_pools, load_pools_json, save_pools_json
from classlink.graph import (
    _SPLIT_ARRAYS,
    EdgeSplit,
    build_graph,
    load_graph_json,
    load_split_json,
    save_graph_json,
    save_split_json,
    split_edges,
)
from classlink.priors import count_class_links, load_prior_json, save_prior_json

from conftest import random_edges, read_envelope, scipy_csr, write_envelope

KINDS = ("graph", "split", "prior", "labeling", "checkpoint", "manifest", "pools")


def small_graph(labels=True) -> object:
    rng = np.random.default_rng(31)
    feats = (rng.random((12, 5)) < 0.3) * rng.integers(1, 4, size=(12, 5))
    feats = feats.astype(np.float64)
    feats[0, 0], feats[1, 1], feats[2, 2] = -0.0, np.nan, 0.1
    return build_graph(
        12,
        random_edges(rng, 12, 0.4),
        features=feats,
        labels=rng.integers(0, 3, size=12) if labels else None,
    )


def load_manifest(path):
    return cli._load_manifest(RunConfig(out=str(path.parent)))


def save(kind: str, tmp_path):
    """Write one valid artifact of ``kind``; returns its path and its loader."""
    g = small_graph()
    path = tmp_path / f"{kind}.json"
    if kind == "graph":
        save_graph_json(g, path)
        return path, load_graph_json
    if kind == "split":
        save_split_json(split_edges(g, (0.6, 0.2, 0.2), seed=1, negatives=5), path)
        return path, load_split_json
    if kind == "pools":
        save_pools_json(draw_per_edge_pools(g, 4, 3, seed=5), path)
        return path, lambda p: load_pools_json(p, 4, 3, g.n_nodes)
    prior = count_class_links(g.undirected_edges(), g.labels, 3)
    if kind == "prior":
        save_prior_json(prior, path, seed=2, label_source="true")
        return path, load_prior_json
    if kind == "labeling":
        save_labeling_json(kmeans(scipy_csr(g, "feature")[2:], 3, seed=1), path)
        return path, load_labeling_json
    if kind == "checkpoint":
        params = init_params(5, TrainConfig(dim=3, hidden=2, seed=4), use_priors=True)
        model = TrainedModel(params, "ncnc", completion=params.copy())
        save_checkpoint(model, path, config_digest="d")
        return path, load_checkpoint
    path = tmp_path / cli.MANIFEST_NAME
    cli._record_stage(RunConfig(out=str(tmp_path)), "ingest", n_nodes=12)
    return path, load_manifest


def rewrite(path, change):
    write_envelope(path, change(read_envelope(path)))


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------


class TestRoundTrip:
    @pytest.mark.parametrize(
        "arr",
        [
            np.array([[1, -2], [3, 2**62]]),
            np.array([0.1, -0.0, np.nan, np.inf, 5e-324]),
            np.zeros((0, 2), dtype=np.int64),
            np.array([True, False]),
            np.array(2.5),
        ],
    )
    def test_blob_is_bit_exact(self, tmp_path, arr):
        path = tmp_path / "a.json"
        artifacts.write(path, "test", {}, {"a": arr})
        dtype = artifacts.FLOAT if arr.dtype.kind == "f" else artifacts.INT
        back = artifacts.read(path, "test", arrays={"a": (dtype, (None,) * arr.ndim)})["a"]
        expected = arr.astype(back.dtype)
        assert back.shape == arr.shape and back.tobytes() == expected.tobytes()
        assert back.flags.writeable

    def test_graph_features_keep_every_bit(self, tmp_path):
        for g in (small_graph(), small_graph(labels=False), build_graph(3, np.array([[0, 1]]))):
            save_graph_json(g, tmp_path / "g.json")
            back = load_graph_json(tmp_path / "g.json")
            assert back.n_features == g.n_features
            for name in ("feature", "adj"):
                for part in ("indptr", "indices", "data"):
                    got = getattr(back, f"{name}_{part}")
                    assert got.tobytes() == getattr(g, f"{name}_{part}").tobytes()
            assert (back.labels is None) == (g.labels is None)
            assert back.class_ids == g.class_ids and back.node_ids == g.node_ids

    def test_features_are_stored_sparse(self, tmp_path):
        g = small_graph()
        save_graph_json(g, tmp_path / "g.json")
        payload = read_envelope(tmp_path / "g.json")
        stored = np.count_nonzero(g.feature_data) + 1  # -0.0 is stored, 0.0 is not
        assert payload["features_data"].shape == (stored,)
        assert payload["version"] == artifacts.ARTIFACT_VERSION == 3

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_kind_loads_back(self, tmp_path, kind):
        path, load = save(kind, tmp_path)
        load(path)


# ---------------------------------------------------------------------------
# Malformed payloads
# ---------------------------------------------------------------------------

MISSING = {
    "graph": "edges",
    "split": "test_negatives",
    "prior": "joint_counts",
    "labeling": "labels",
    "checkpoint": "params",
    "manifest": "stages",
    "pools": "pools",
}


def float_blob(p, name):
    return {**p, name: np.zeros(p[name].shape)}


WRONG_DTYPE = {
    "graph": lambda p: float_blob(p, "edges"),
    "split": lambda p: float_blob(p, "train_edges"),
    "prior": lambda p: float_blob(p, "joint_counts"),
    "labeling": lambda p: float_blob(p, "labels"),
    "checkpoint": lambda p: {
        **p, "params": {**p["params"], "w1": np.zeros((5, 3), int)}
    },
    "manifest": lambda p: {**p, "stages": [p["stages"]]},
    "pools": lambda p: float_blob(p, "pools"),
}

WRONG_SHAPE = {
    "graph": lambda p: {**p, "edges": np.zeros((4, 3), dtype=int)},
    "split": lambda p: {**p, "valid_edges": np.zeros(4, dtype=int)},
    "prior": lambda p: {**p, "joint_counts": np.zeros(9, dtype=int)},
    "labeling": lambda p: {**p, "labels": np.zeros((5, 2), dtype=int)},
    "checkpoint": lambda p: {**p, "params": {**p["params"], "bh": np.zeros((2, 1))}},
    "manifest": lambda p: {**p, "stages": {"ingest": {"digest": "d"}}},
    "pools": lambda p: {**p, "pools": np.zeros((4, 2, 2), dtype=int)},
}


def edit_feature_row(p, edit):
    """``p`` with the first two column indices of its first feature row that
    stores two entries or more replaced by ``edit`` of them."""
    indptr, cols = p["features_indptr"], p["features_indices"].copy()
    lo = int(indptr[np.flatnonzero(np.diff(indptr) >= 2)[0]])
    cols[lo : lo + 2] = edit(cols[lo : lo + 2].copy())
    return {**p, "features_indices": cols}


class TestMalformedPayload:
    @pytest.mark.parametrize("kind", KINDS)
    def test_missing_field(self, tmp_path, kind):
        path, load = save(kind, tmp_path)
        rewrite(path, lambda p: {k: v for k, v in p.items() if k != MISSING[kind]})
        with pytest.raises(ParseError, match=MISSING[kind]):
            load(path)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("payload", [[1, 2], "text", 3, None])
    def test_non_object_payload(self, tmp_path, kind, payload):
        path, load = save(kind, tmp_path)
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match=f"not a {kind} artifact"):
            load(path)

    @pytest.mark.parametrize("kind", KINDS)
    def test_wrong_dtype(self, tmp_path, kind):
        path, load = save(kind, tmp_path)
        rewrite(path, WRONG_DTYPE[kind])
        with pytest.raises(ParseError, match="has dtype|must be dict"):
            load(path)

    @pytest.mark.parametrize("kind", KINDS)
    def test_wrong_shape(self, tmp_path, kind):
        path, load = save(kind, tmp_path)
        rewrite(path, WRONG_SHAPE[kind])
        with pytest.raises(ParseError, match="has shape|missing field"):
            load(path)

    @pytest.mark.parametrize("kind", KINDS)
    def test_old_version_says_to_rebuild(self, tmp_path, kind):
        path, load = save(kind, tmp_path)
        rewrite(path, lambda p: {**p, "version": 1})
        with pytest.raises(ParseError, match="rebuild the run directory") as err:
            load(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("kind", KINDS)
    def test_wrong_kind_and_invalid_json(self, tmp_path, kind):
        path, load = save(kind, tmp_path)
        rewrite(path, lambda p: {**p, "kind": "other"})
        with pytest.raises(ParseError, match="kind 'other'"):
            load(path)
        path.write_text('{"kind": ')
        with pytest.raises(ParseError, match="invalid JSON"):
            load(path)

    @pytest.mark.parametrize(
        "n_classes, counts",
        [(2, np.zeros((1, 2), int)), (3, np.eye(2, dtype=int)), (0, np.zeros((0, 0), int))],
    )
    def test_prior_classes_disagree_with_counts(self, tmp_path, n_classes, counts):
        path, _ = save("prior", tmp_path)
        rewrite(
            path, lambda p: {**p, "n_classes": n_classes, "joint_counts": counts}
        )
        with pytest.raises(ParseError, match="joint_counts"):
            load_prior_json(path)

    @pytest.mark.parametrize(
        "blob",
        [
            {"dtype": "<i8", "shape": [2, 2], "offset": 0},  # the first array's bytes
            {"dtype": "<i8", "shape": [1, 2], "offset": "0"},
            {"dtype": "<i8", "shape": [-1, 2], "offset": 0},
            {"dtype": "<i8", "shape": "1x2", "offset": 0},
            {"dtype": "<i8", "shape": [0, 2]},
            [[0, 1]],
        ],
    )
    def test_malformed_blob(self, tmp_path, blob):
        path, _ = save("split", tmp_path)
        rewrite(path, lambda p: {**p, "train_edges": blob})
        with pytest.raises(ParseError, match="train_edges"):
            load_split_json(path)

    @pytest.mark.parametrize(
        "counts",
        [np.array([[2, -5], [-5, 4]]), np.array([[2, 1], [3, 4]])],
        ids=["negative", "asymmetric"],
    )
    def test_prior_counts_must_be_symmetric_and_non_negative(self, tmp_path, counts):
        path, _ = save("prior", tmp_path)
        rewrite(path, lambda p: {**p, "n_classes": 2, "joint_counts": counts})
        with pytest.raises(ParseError, match="symmetric and non-negative"):
            load_prior_json(path)

    def test_split_node_out_of_range(self, tmp_path):
        path, _ = save("split", tmp_path)
        rewrite(path, lambda p: {**p, "n_nodes": 3})
        with pytest.raises(ParseError, match=r"outside \[0, 3\)"):
            load_split_json(path)

    @pytest.mark.parametrize("node", [-1, 12])
    def test_pools_node_out_of_range(self, tmp_path, node):
        path, load = save("pools", tmp_path)
        pools = np.zeros((4, 3, 2), dtype=int)
        pools[2, 1, 0] = node
        rewrite(path, lambda p: {**p, "pools": pools})
        with pytest.raises(ParseError, match=r"pools.json: pools has a node id outside \[0, 12\)"):
            load(path)

    @pytest.mark.parametrize(
        "change",
        [
            lambda p: {**p, "n_features": 2},
            lambda p: {**p, "n_nodes": 11},
            lambda p: {**p, "features_indptr": np.zeros(13, dtype=int)},
            lambda p: {**p, "edges": np.array([[0, 12]])},
            lambda p: {**p, "node_ids": ["a"]},
            lambda p: edit_feature_row(p, lambda cols: cols[::-1]),
            lambda p: edit_feature_row(p, lambda cols: cols[:1].repeat(2)),
            lambda p: {**p, "labels": np.full(p["n_nodes"], -3)},
            lambda p: {**p, "class_ids": ["a"]},
        ],
        ids=[
            "narrow-features", "fewer-nodes", "indptr-short", "edge-out-of-range", "node-ids",
            "unsorted-columns", "duplicate-columns", "label-below-minus-one", "label-past-class-ids",
        ],
    )
    def test_graph_arrays_disagree(self, tmp_path, change):
        path, _ = save("graph", tmp_path)
        rewrite(path, change)
        with pytest.raises(ParseError, match=str(path)):
            load_graph_json(path)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"dim": "3"}, "'dim' must be int"),
            ({"dim": 4}, "w1, w2, wh do not fit dim=4"),
            ({"use_priors": False}, "wh do not fit"),
            ({"wo": np.zeros(3)}, "wo do not fit"),
            (
                {"use_priors": False, "wh": np.zeros((6, 2))},
                "use_priors must be on exactly when",
            ),
        ],
    )
    def test_checkpoint_params_are_checked(self, tmp_path, change, message):
        path, _ = save("checkpoint", tmp_path)
        rewrite(path, lambda p: {**p, "completion": {**p["completion"], **change}})
        with pytest.raises(ParseError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("mode, use_priors", [("backbone_only", True), ("ncn", False)])
    def test_checkpoint_use_priors_follows_the_mode(self, tmp_path, mode, use_priors):
        """``use_priors`` is on exactly when the mode is not backbone_only; the
        weights are resized to fit, so only the mode rule can catch it."""
        path = tmp_path / "checkpoint.json"
        params = init_params(5, TrainConfig(dim=3, hidden=2, seed=4), use_priors)
        save_checkpoint(TrainedModel(params, mode), path)
        with pytest.raises(ParseError, match="use_priors must be on exactly when"):
            load_checkpoint(path)


# ---------------------------------------------------------------------------
# Atomic writes
# ---------------------------------------------------------------------------


class TestAtomicWrite:
    def previous(self, tmp_path):
        path = tmp_path / "sub" / "artifact.json"
        artifacts.write(path, "test", {"n": 1}, {"a": np.arange(3)})
        return path, path.read_bytes()

    def test_failed_replace_keeps_the_old_file(self, tmp_path, monkeypatch):
        path, before = self.previous(tmp_path)

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(artifacts.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            artifacts.write(path, "test", {"n": 2}, {"a": np.arange(5)})
        assert path.read_bytes() == before
        assert os.listdir(path.parent) == [path.name]

    def test_failure_while_writing_keeps_the_old_file(self, tmp_path):
        path, before = self.previous(tmp_path)
        with pytest.raises(UnicodeEncodeError):
            artifacts.write_text(path, "x" * 100_000 + "\ud800")  # not encodable
        assert path.read_bytes() == before
        assert os.listdir(path.parent) == [path.name]

    def test_failed_serialisation_keeps_the_old_file(self, tmp_path):
        path, before = self.previous(tmp_path)
        with pytest.raises(TypeError):
            artifacts.write(path, "test", {"n": object()})
        assert path.read_bytes() == before
        assert os.listdir(path.parent) == [path.name]

    def test_creates_the_directory_and_replaces(self, tmp_path):
        path, _ = self.previous(tmp_path)
        artifacts.write_text(path, "new\n")
        assert path.read_text() == "new\n"
        assert os.listdir(path.parent) == [path.name]


class TestWriter:
    def test_text_is_json_dumps_of_the_encoded_payload(self, tmp_path):
        fields = {
            "z": {"w": np.arange(6).reshape(2, 3), "deep": {"x": np.array([0.5, -0.0])}},
            "a": [1, 2.5, None, "\u00e9\"\\"],
            "empty": {},
            "numbered": {1: "one", 2: "two"},
            "none": None,
        }
        artifacts.write(tmp_path / "a.json", "test", fields, {"b": np.array([True]), "c": None})
        # the envelope lists b, z.deep.x, z.w, and their bytes follow in that order
        encoded = {
            **fields,
            "z": {
                "w": {"dtype": "<i8", "shape": [2, 3], "offset": 24},
                "deep": {"x": {"dtype": "<f8", "shape": [2], "offset": 8}},
            },
        }
        blob = {"dtype": "<i8", "shape": [1], "offset": 0}
        payload = {"kind": "test", "version": 3, **encoded, "b": blob, "c": None}
        raw = b"".join(
            np.asarray(arr, dtype).tobytes()
            for arr, dtype in ((1, "<i8"), (fields["z"]["deep"]["x"], "<f8"), (fields["z"]["w"], "<i8"))
        )
        expected = (json.dumps(payload, sort_keys=True) + "\n").encode() + raw
        assert (tmp_path / "a.json").read_bytes() == expected

    def test_peak_memory_stays_under_the_file_size(self, tmp_path):
        arr = np.random.default_rng(0).random(1_000_000)
        path = tmp_path / "a.json"
        tracemalloc.start()
        try:
            artifacts.write(path, "test", {}, {"a": arr})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.0 * path.stat().st_size


# ---------------------------------------------------------------------------
# The layout: the envelope line, then the arrays' bytes
# ---------------------------------------------------------------------------


def split_parts(tmp_path):
    """A valid ``split.json``: its path, its envelope and its array bytes."""
    path, _ = save("split", tmp_path)
    head, _, body = path.read_bytes().partition(b"\n")
    return path, json.loads(head), body


def put(path, head, body: bytes) -> None:
    path.write_bytes(json.dumps(head, sort_keys=True).encode() + b"\n" + body)


def as_version_2(obj):
    """A version-2 envelope of ``obj``: each array a base64 ``data`` blob."""
    if isinstance(obj, np.ndarray):
        data = base64.b64encode(obj.tobytes()).decode("ascii")
        return {"dtype": obj.dtype.str, "shape": list(obj.shape), "data": data}
    if isinstance(obj, dict):
        return {key: as_version_2(value) for key, value in obj.items()}
    return obj


class TestLayout:
    def fails(self, path, match):
        with pytest.raises(ParseError, match=match) as err:
            load_split_json(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_bytes_cut_short(self, tmp_path):
        path, head, body = split_parts(tmp_path)
        put(path, head, body[:-5])
        self.fails(path, r"array 'valid_negatives' ends at byte \d+ .* past the file's end")

    def test_trailing_bytes(self, tmp_path):
        path, head, body = split_parts(tmp_path)
        put(path, head, body + b"\0")
        self.fails(path, "1 trailing bytes after the arrays")

    def test_trailing_bytes_after_an_array_free_envelope(self, tmp_path):
        path = tmp_path / cli.MANIFEST_NAME
        cli._record_stage(RunConfig(out=str(tmp_path)), "ingest", n_nodes=12)
        path.write_bytes(path.read_bytes() + b"{}")
        with pytest.raises(ParseError, match="2 trailing bytes") as err:
            load_manifest(path)
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("after", ["test_edges", "train_edges"])  # first, and one inside
    def test_gap_between_blobs(self, tmp_path, after):
        path, head, body = split_parts(tmp_path)
        start = head[after]["offset"]
        for name in _SPLIT_ARRAYS:
            if head[name]["offset"] >= start:
                head[name]["offset"] += 8
        put(path, head, body[:start] + bytes(8) + body[start:])
        self.fails(path, f"a gap of 8 bytes before array '{after}'")

    def test_overlap_between_blobs(self, tmp_path):
        path, head, body = split_parts(tmp_path)
        head["train_edges"]["offset"] -= 8
        put(path, head, body)
        self.fails(path, "array 'train_edges' overlaps array 'test_negatives' by 8 bytes")

    @pytest.mark.parametrize("rows", [1, 2**40])  # the second fails before any allocation
    def test_blob_extent_passes_the_end(self, tmp_path, rows):
        path, head, body = split_parts(tmp_path)
        head["valid_negatives"]["shape"][0] += rows
        put(path, head, body)
        self.fails(path, "array 'valid_negatives' ends at byte .* past the file's end")

    @pytest.mark.parametrize(
        "first_line", [b"[1, 2]", b'"split"', b"3", b"null", b"\x01\xff\x00binary"]
    )
    def test_first_line_not_a_json_object(self, tmp_path, first_line):
        path, _, body = split_parts(tmp_path)
        path.write_bytes(first_line + b"\n" + body)
        self.fails(path, "not a split artifact|invalid JSON")

    @pytest.mark.parametrize("kind", KINDS)
    def test_version_2_file_says_to_rebuild(self, tmp_path, kind):
        path, load = save(kind, tmp_path)
        v2 = {**as_version_2(read_envelope(path)), "version": 2}
        path.write_text(json.dumps(v2, sort_keys=True) + "\n")
        with pytest.raises(ParseError, match="version 2, .*rebuild the run directory") as err:
            load(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_arrays_are_aligned_and_own_their_memory(self, tmp_path):
        """No array is a view of the file's bytes, which follow an envelope
        line of any length."""
        path, _ = save("graph", tmp_path)
        edges = artifacts.read(path, "graph", arrays={"edges": (artifacts.INT, (None, 2))})["edges"]
        assert edges.flags.aligned and edges.flags.owndata and edges.flags.writeable


class TestReader:
    def test_peak_memory_stays_near_the_array_bytes(self, tmp_path):
        """Reading ``split.json`` holds each array once: no text, no decoded
        copy of the file's bytes."""
        rng = np.random.default_rng(0)
        parts = {name: rng.integers(0, 10_000, size=(40_000, 2)) for name in _SPLIT_ARRAYS}
        path = tmp_path / "split.json"
        save_split_json(EdgeSplit(n_nodes=10_000, seed=1, **parts), path)
        nbytes = sum(arr.nbytes for arr in parts.values())
        tracemalloc.start()
        try:
            artifacts.read(
                path,
                "split",
                fields={"n_nodes": int, "seed": int},
                arrays={name: (artifacts.INT, (None, 2)) for name in _SPLIT_ARRAYS},
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * nbytes, f"peak {peak / nbytes:.2f} times the array bytes"
