"""The shared artifact path: atomic writes, the v2 envelope, blob arrays,
and a ``ParseError`` for every malformed payload of every artifact kind."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from classlink import artifacts, cli
from classlink.artifacts import encode_array
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
from classlink.graph import (
    build_graph,
    load_graph_json,
    load_split_json,
    save_graph_json,
    save_split_json,
    split_edges,
)
from classlink.priors import count_class_links, load_prior_json, save_prior_json

from conftest import random_edges

KINDS = ("graph", "split", "prior", "labeling", "checkpoint", "manifest")


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
    prior = count_class_links(g.undirected_edges(), g.labels, 3)
    if kind == "prior":
        save_prior_json(prior, path, seed=2, label_source="true")
        return path, load_prior_json
    if kind == "labeling":
        save_labeling_json(kmeans(g.features[2:], 3, seed=1), path)
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
    path.write_text(json.dumps(change(json.loads(path.read_text()))))


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
            assert back.features.shape == g.features.shape
            for name in ("features", "adj"):
                for part in ("indptr", "indices", "data"):
                    got = getattr(getattr(back, name), part)
                    assert got.tobytes() == getattr(getattr(g, name), part).tobytes()
            assert (back.labels is None) == (g.labels is None)
            assert back.class_ids == g.class_ids and back.node_ids == g.node_ids

    def test_features_are_stored_sparse(self, tmp_path):
        g = small_graph()
        save_graph_json(g, tmp_path / "g.json")
        payload = json.loads((tmp_path / "g.json").read_text())
        stored = np.count_nonzero(g.features.toarray()) + 1  # -0.0 is stored, 0.0 is not
        assert payload["features_data"]["shape"] == [stored]
        assert payload["version"] == artifacts.ARTIFACT_VERSION == 2

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
}


def float_blob(p, name):
    return {**p, name: encode_array(np.zeros(p[name]["shape"]))}


WRONG_DTYPE = {
    "graph": lambda p: float_blob(p, "edges"),
    "split": lambda p: float_blob(p, "train_edges"),
    "prior": lambda p: float_blob(p, "joint_counts"),
    "labeling": lambda p: float_blob(p, "labels"),
    "checkpoint": lambda p: {
        **p, "params": {**p["params"], "w1": encode_array(np.zeros((5, 3), int))}
    },
    "manifest": lambda p: {**p, "stages": [p["stages"]]},
}

WRONG_SHAPE = {
    "graph": lambda p: {**p, "edges": encode_array(np.zeros((4, 3), dtype=int))},
    "split": lambda p: {**p, "valid_edges": encode_array(np.zeros(4, dtype=int))},
    "prior": lambda p: {**p, "joint_counts": encode_array(np.zeros(9, dtype=int))},
    "labeling": lambda p: {**p, "labels": encode_array(np.zeros((5, 2), dtype=int))},
    "checkpoint": lambda p: {
        **p, "params": {**p["params"], "bh": encode_array(np.zeros((2, 1)))}
    },
    "manifest": lambda p: {**p, "stages": {"ingest": {"digest": "d"}}},
}


def edit_feature_row(p, edit):
    """``p`` with the first two column indices of its first feature row that
    stores two entries or more replaced by ``edit`` of them."""
    blobs = artifacts.decode(
        "graph.json",
        p,
        arrays={
            "features_indptr": (artifacts.INT, (None,)),
            "features_indices": (artifacts.INT, (None,)),
        },
    )
    indptr, cols = blobs["features_indptr"], blobs["features_indices"]
    lo = int(indptr[np.flatnonzero(np.diff(indptr) >= 2)[0]])
    cols[lo : lo + 2] = edit(cols[lo : lo + 2].copy())
    return {**p, "features_indices": encode_array(cols)}


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
            path, lambda p: {**p, "n_classes": n_classes, "joint_counts": encode_array(counts)}
        )
        with pytest.raises(ParseError, match="joint_counts"):
            load_prior_json(path)

    @pytest.mark.parametrize(
        "blob",
        [
            {"dtype": "<i8", "shape": [2, 2], "data": "AAAAAAAAAAA="},  # 8 bytes for 4 entries
            {"dtype": "<i8", "shape": [1, 2], "data": "not base64!"},
            {"dtype": "<i8", "shape": [-1, 2], "data": ""},
            {"dtype": "<i8", "shape": "1x2", "data": ""},
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
        rewrite(path, lambda p: {**p, "n_classes": 2, "joint_counts": encode_array(counts)})
        with pytest.raises(ParseError, match="symmetric and non-negative"):
            load_prior_json(path)

    def test_split_node_out_of_range(self, tmp_path):
        path, _ = save("split", tmp_path)
        rewrite(path, lambda p: {**p, "n_nodes": 3})
        with pytest.raises(ParseError, match=r"outside \[0, 3\)"):
            load_split_json(path)

    @pytest.mark.parametrize(
        "change",
        [
            lambda p: {**p, "n_features": 2},
            lambda p: {**p, "n_nodes": 11},
            lambda p: {**p, "features_indptr": encode_array(np.zeros(13, dtype=int))},
            lambda p: {**p, "edges": encode_array(np.array([[0, 12]]))},
            lambda p: {**p, "node_ids": ["a"]},
            lambda p: edit_feature_row(p, lambda cols: cols[::-1]),
            lambda p: edit_feature_row(p, lambda cols: cols[:1].repeat(2)),
        ],
        ids=[
            "narrow-features", "fewer-nodes", "indptr-short", "edge-out-of-range", "node-ids",
            "unsorted-columns", "duplicate-columns",
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
            ({"wo": encode_array(np.zeros(3))}, "wo do not fit"),
            (
                {"use_priors": False, "wh": encode_array(np.zeros((6, 2)))},
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
