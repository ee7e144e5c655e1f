"""End-to-end tests for the command-line pipeline."""

import atexit
import ctypes
import gc
import importlib
import json
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from classlink import cli
from classlink.cli import main

from conftest import encode_blob


def write_dataset(root: Path, seed=7, n_per_class=18) -> dict:
    """Two noisy feature blobs whose classes mostly link across, not within."""
    rng = np.random.default_rng(seed)
    n = 2 * n_per_class
    labels = np.array([0] * n_per_class + [1] * n_per_class)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            p = 0.04 if labels[u] == labels[v] else 0.30
            if rng.random() < p:
                edges.append((u, v))
    feats = np.eye(2)[labels] + 0.3 * rng.standard_normal((n, 2))
    root.mkdir(parents=True, exist_ok=True)
    (root / "edges.txt").write_text(
        "\n".join(f"{u} {v}" for u, v in edges) + "\n"
    )
    (root / "features.csv").write_text(
        "\n".join(
            f"{i}," + ",".join(format(x, ".10g") for x in feats[i]) for i in range(n)
        )
        + "\n"
    )
    (root / "labels.csv").write_text(
        "\n".join(f"{i},c{labels[i]}" for i in range(n)) + "\n"
    )
    return {"n_nodes": n, "n_edges": len(edges)}


def write_config(path: Path, data_dir: Path, out_dir: Path, **extra) -> Path:
    lines = [
        f"edges: {data_dir}/edges.txt",
        f"features: {data_dir}/features.csv",
        f"labels: {data_dir}/labels.csv",
        f"out: {out_dir}",
        "seed: 3",
        "negatives: 120",
        "dim: 6",
        "hidden: 5",
        "epochs: 12",
        "patience: 4",
    ]
    for key, value in extra.items():
        lines.append(f"{key}: {value}")
    path.write_text("\n".join(lines) + "\n")
    return path


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture()
def dataset(tmp_path):
    stats = write_dataset(tmp_path / "data")
    return tmp_path, stats


class TestRunAll:
    def test_creates_every_artifact_with_manifest_entries(self, dataset, capsys):
        tmp, stats = dataset
        cfg = write_config(tmp / "run.yaml", tmp / "data", tmp / "out")
        assert main(["run-all", "--config", str(cfg)]) == 0
        out = tmp / "out"
        for name in (
            "graph.json",
            "split.json",
            "prior.json",
            "heatmap.csv",
            "checkpoint.json",
            "training_log.csv",
            "manifest.json",
            "eval/report.json",
            "eval/ranks.csv",
            "eval/scores.csv",
            "eval/timings.json",
        ):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["stages"]) == {"ingest", "split", "prior", "train", "evaluate"}
        for entry in manifest["stages"].values():
            assert len(entry["digest"]) == 64
        assert manifest["stages"]["ingest"]["n_nodes"] == stats["n_nodes"]
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("ingest:")
        assert lines[-1].startswith("evaluate:")

    def test_rerun_reuses_cached_stages(self, dataset, capsys):
        tmp, _ = dataset
        cfg = write_config(tmp / "run.yaml", tmp / "data", tmp / "out")
        assert main(["run-all", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["run-all", "--config", str(cfg)]) == 0
        second = capsys.readouterr().out
        for stage in ("ingest", "split", "prior", "train"):
            assert f"{stage}: up to date" in second

    def test_two_fresh_runs_are_byte_identical(self, dataset):
        tmp, _ = dataset
        digests = []
        for run in ("a", "b"):
            cfg = write_config(tmp / f"{run}.yaml", tmp / "data", tmp / f"out_{run}")
            assert main(["run-all", "--config", str(cfg)]) == 0
            out = tmp / f"out_{run}"
            digests.append(
                {
                    name: sha(out / name)
                    for name in (
                        "graph.json",
                        "split.json",
                        "prior.json",
                        "heatmap.csv",
                        "checkpoint.json",
                        "training_log.csv",
                        "eval/report.json",
                        "eval/ranks.csv",
                        "eval/scores.csv",
                    )
                }
            )
        assert digests[0] == digests[1]

    def test_manual_sequence_equals_run_all(self, dataset):
        tmp, _ = dataset
        cfg_all = write_config(tmp / "all.yaml", tmp / "data", tmp / "out_all")
        assert main(["run-all", "--config", str(cfg_all)]) == 0
        cfg_seq = write_config(tmp / "seq.yaml", tmp / "data", tmp / "out_seq")
        for command in ("ingest", "split", "prior", "train", "evaluate"):
            assert main([command, "--config", str(cfg_seq)]) == 0
        for name in (
            "graph.json",
            "split.json",
            "prior.json",
            "checkpoint.json",
            "eval/report.json",
            "eval/ranks.csv",
            "eval/scores.csv",
        ):
            assert sha(tmp / "out_all" / name) == sha(tmp / "out_seq" / name), name

    def test_structural_scorer_runs_without_a_labels_file(self, dataset, capsys):
        tmp, _ = dataset
        labelled = write_config(tmp / "l.yaml", tmp / "data", tmp / "out_l", scorer="cn")
        assert main(["run-all", "--config", str(labelled)]) == 0
        cfg = write_config(tmp / "u.yaml", tmp / "data", tmp / "out_u", scorer="cn")
        lines = cfg.read_text().splitlines(keepends=True)
        cfg.write_text("".join(line for line in lines if not line.startswith("labels:")))
        assert main(["run-all", "--config", str(cfg)]) == 0
        ranks = "eval/ranks.csv"
        assert (tmp / "out_u" / ranks).read_bytes() == (tmp / "out_l" / ranks).read_bytes()
        # training an ncn model by hand still needs the labels, and says so
        capsys.readouterr()
        assert main(["train", "--config", str(cfg)]) == 1
        assert "labels file" in capsys.readouterr().err

    @pytest.mark.parametrize("scorer", ["cn", "aa", "ra", "katz"])
    def test_scorer_without_prior_skips_cluster_and_prior(self, dataset, capsys, scorer):
        tmp, _ = dataset
        extra = {"label_source": "louvain", "scorer": scorer}
        cfg = write_config(tmp / "all.yaml", tmp / "data", tmp / "out_all", **extra)
        assert main(["run-all", "--config", str(cfg)]) == 0
        printed = capsys.readouterr().out
        assert "cluster:" not in printed and "prior:" not in printed
        for name in ("labeling.json", "prior.json"):
            assert not (tmp / "out_all" / name).exists(), name
        # the report equals that of a run through the stages run-all used to run
        cfg_seq = write_config(tmp / "seq.yaml", tmp / "data", tmp / "out_seq", **extra)
        for command in ("ingest", "split", "cluster", "prior", "evaluate"):
            assert main([command, "--config", str(cfg_seq)]) == 0
        assert (tmp / "out_seq" / "prior.json").exists()
        report = "eval/report.json"
        assert (tmp / "out_all" / report).read_bytes() == (
            tmp / "out_seq" / report
        ).read_bytes()


class TestLargeSeed:
    def test_root_seed_beyond_int64_runs_per_edge_evaluation(self, dataset, capsys):
        """A root seed of 2**64 + 5 passes config validation; every stage,
        per-edge evaluation included, runs to the end on it."""
        tmp, _ = dataset
        extra = {
            "label_source": "louvain",
            "scorer": "hc",
            "hc_base": "ra",
            "per_edge_negatives": 30,
            "metric": "hr@20",
        }
        cfg = write_config(tmp / "run.yaml", tmp / "data", tmp / "out", **extra)
        cfg.write_text(cfg.read_text().replace("seed: 3\n", f"seed: {2**64 + 5}\n"))
        assert main(["run-all", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1].startswith("evaluate:") and "vs 30 negatives" in lines[-1]
        report = json.loads((tmp / "out" / "eval" / "report.json").read_text())
        assert report["seed"] == 2**64 + 5


class TestScorerErrorCategory:
    def test_missing_label_in_per_edge_pools_is_a_labels_error(self, dataset, capsys):
        """A node with a feature row but no edges and no label lands in the
        per-edge negative pools; ``hc`` cannot score it, and the error keeps
        its ``labels`` category with the scoring context."""
        tmp, stats = dataset
        node = stats["n_nodes"]
        with (tmp / "data" / "features.csv").open("a") as f:
            f.write(f"{node},0.5,0.5\n")
        cfg = write_config(
            tmp / "run.yaml", tmp / "data", tmp / "out", scorer="hc", per_edge_negatives=20
        )
        assert main(["run-all", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[labels]: scorer failed while scoring per-edge negative")
        assert f"node {node} lacks a usable class label" in err

    def test_graph_label_outside_the_class_ids_is_a_parse_error(self, dataset, capsys):
        """A hand-edited ``graph.json`` whose label indexes no class id fails
        where it is read, naming the file, not later as a missing label."""
        tmp, _ = dataset
        cfg = write_config(tmp / "run.yaml", tmp / "data", tmp / "out", scorer="hc")
        for stage in ("ingest", "split"):
            assert main([stage, "--config", str(cfg)]) == 0
        path = tmp / "out" / "graph.json"
        payload = json.loads(path.read_text())
        labels = np.zeros(payload["n_nodes"], dtype=int)
        labels[5] = -3
        path.write_text(json.dumps({**payload, "labels": encode_blob(labels)}))
        capsys.readouterr()
        assert main(["prior", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error[parse]: {path}: node 5 has label -3, ")


PER_EDGE = {"scorer": "cn", "per_edge_negatives": 20}
REPORT_FILES = ("eval/report.json", "eval/ranks.csv", "eval/scores.csv")


class TestPerEdgePools:
    """``pools.json`` holds the per-edge pools; ``evaluate`` draws them only
    when its manifest entry is missing or stale."""

    def test_warm_run_all_draws_nothing(self, dataset, monkeypatch):
        from classlink import evaluation

        tmp, _ = dataset
        cfg = write_config(tmp / "run.yaml", tmp / "data", tmp / "out", **PER_EDGE)
        assert main(["run-all", "--config", str(cfg)]) == 0
        out = tmp / "out"
        cold = {name: sha(out / name) for name in (*REPORT_FILES, "pools.json")}
        timings = json.loads((out / "eval" / "timings.json").read_text())
        assert timings["sampling_s"] > 0.0

        def refuse(*args):
            raise AssertionError("a warm evaluate drew the pools again")

        monkeypatch.setattr(evaluation, "draw_per_edge_pools", refuse)
        assert main(["run-all", "--config", str(cfg)]) == 0
        assert {name: sha(out / name) for name in cold} == cold
        timings = json.loads((out / "eval" / "timings.json").read_text())
        assert timings["sampling_s"] > 0.0  # reading the pools

    @pytest.mark.parametrize(
        "change, redraws",
        [
            ({"scorer": "ra"}, False),
            ({"metric": "hr@10"}, False),
            ({"seed": 4}, True),
            ({"eval_split": "valid"}, True),
            ({"per_edge_negatives": 25}, True),
            ({}, True),  # the edge list edited, so ingest runs again
        ],
        ids=["scorer", "metric", "seed", "eval_split", "per_edge_negatives", "input-edit"],
    )
    def test_pools_are_drawn_again_only_for_their_keys(
        self, dataset, monkeypatch, change, redraws
    ):
        from classlink import evaluation

        tmp, _ = dataset
        cfg = write_config(tmp / "a.yaml", tmp / "data", tmp / "out", **PER_EDGE)
        assert main(["run-all", "--config", str(cfg)]) == 0
        path = tmp / "out" / "pools.json"
        before = (path.read_bytes(), path.stat().st_mtime_ns)
        if not change:
            with open(tmp / "data" / "edges.txt", "a") as fh:
                fh.write("# edited\n")
        cfg = write_config(tmp / "b.yaml", tmp / "data", tmp / "out", **{**PER_EDGE, **change})
        if "seed" in change:
            cfg.write_text(cfg.read_text().replace("seed: 3\n", "", 1))
        calls = []
        draw = evaluation.draw_per_edge_pools
        monkeypatch.setattr(
            evaluation, "draw_per_edge_pools", lambda *args: calls.append(args) or draw(*args)
        )
        assert main(["run-all", "--config", str(cfg)]) == 0
        assert len(calls) == int(redraws)
        if not redraws:
            assert (path.read_bytes(), path.stat().st_mtime_ns) == before
        # a redraw is recorded, so the next evaluate reads it
        assert main(["evaluate", "--config", str(cfg)]) == 0
        assert len(calls) == int(redraws)

    @pytest.mark.parametrize("seed", [3, 2**64 + 5])
    def test_pools_file_holds_the_eval_stream_draws(self, dataset, seed):
        from classlink.evaluation import load_pools_json
        from classlink.graph import load_graph_json, load_split_json, sample_negative_pools
        from classlink.rand import STREAM_EVAL

        tmp, _ = dataset
        cfg = write_config(tmp / "run.yaml", tmp / "data", tmp / "out", **PER_EDGE)
        cfg.write_text(cfg.read_text().replace("seed: 3\n", f"seed: {seed}\n"))
        assert main(["run-all", "--config", str(cfg)]) == 0
        out = tmp / "out"
        g = load_graph_json(out / "graph.json")
        n = len(load_split_json(out / "split.json").test_edges)
        expect = sample_negative_pools(g, 20, n, (seed, STREAM_EVAL))
        got = load_pools_json(out / "pools.json", n, 20, g.n_nodes)
        np.testing.assert_array_equal(got, expect)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stages"]["pools"]["path"] == "pools.json"
        assert manifest["stages"]["pools"]["seed"] == seed

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda text, n: text[: len(text) // 2],
            lambda text, n: json.dumps(
                {**json.loads(text), "pools": encode_blob(np.zeros((1, 20, 2), dtype=int))}
            ),
            lambda text, n: json.dumps(
                {**json.loads(text), "pools": encode_blob(pools_with_id(text, n))}
            ),
        ],
        ids=["truncated", "wrong-shape", "id-out-of-range"],
    )
    def test_corrupt_pools_file_is_a_parse_error(self, dataset, capsys, corrupt):
        tmp, stats = dataset
        cfg = write_config(tmp / "run.yaml", tmp / "data", tmp / "out", **PER_EDGE)
        assert main(["run-all", "--config", str(cfg)]) == 0
        path = tmp / "out" / "pools.json"
        path.write_text(corrupt(path.read_text(), stats["n_nodes"]))
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error[parse]: {path}: ")


def pools_with_id(text: str, node: int) -> np.ndarray:
    """The pools of a ``pools.json`` text with their last id set to ``node``."""
    from classlink import artifacts

    pools = artifacts.decode(
        "pools.json", json.loads(text), arrays={"pools": (artifacts.INT, (None, None, 2))}
    )["pools"]
    pools[-1, -1, -1] = node
    return pools


class TestLabelSources:
    def test_unordered_k_grid_fails_before_any_stage(self, dataset, capsys):
        tmp, _ = dataset
        cfg = write_config(
            tmp / "km.yaml", tmp / "data", tmp / "out", label_source="kmeans", k_grid="[5, 3, 4]"
        )
        assert main(["run-all", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "error[config]: k_grid must be strictly increasing, got [5, 3, 4]\n"
        )
        assert not (tmp / "out" / "graph.json").exists()

    def test_kmeans_grid_writes_curve_and_chosen_k(self, dataset):
        tmp, stats = dataset
        cfg = write_config(
            tmp / "km.yaml",
            tmp / "data",
            tmp / "out",
            label_source="kmeans",
            k_grid="[1, 2, 3, 5]",
        )
        assert main(["run-all", "--config", str(cfg)]) == 0
        out = tmp / "out"
        assert (out / "ssd_curve.csv").exists()
        labeling = json.loads((out / "labeling.json").read_text())
        assert labeling["k"] == json.loads((out / "manifest.json").read_text())[
            "stages"
        ]["cluster"]["k"]
        curve_ks = [int(line.split(",")[0]) for line in (out / "ssd_curve.csv").read_text().strip().splitlines()]
        assert curve_ks == [1, 2, 3, 5]
        labels_rows = (out / "labels.csv").read_text().strip().splitlines()
        assert len(labels_rows) == stats["n_nodes"]

    def test_louvain_source_builds_prior(self, dataset):
        tmp, _ = dataset
        cfg = write_config(
            tmp / "lv.yaml", tmp / "data", tmp / "out", label_source="louvain"
        )
        assert main(["run-all", "--config", str(cfg)]) == 0
        prior = json.loads((tmp / "out" / "prior.json").read_text())
        assert prior["label_source"] == "louvain"
        assert prior["n_classes"] >= 1

    def test_mono_prior_is_exactly_one(self, dataset):
        tmp, _ = dataset
        cfg = write_config(
            tmp / "mono.yaml", tmp / "data", tmp / "out", label_source="mono"
        )
        assert main(["run-all", "--config", str(cfg)]) == 0
        assert (tmp / "out" / "heatmap.csv").read_text().strip() == "1"

    def test_cluster_with_true_labels_is_an_error(self, dataset, capsys):
        tmp, _ = dataset
        cfg = write_config(tmp / "t.yaml", tmp / "data", tmp / "out")
        assert main(["ingest", "--config", str(cfg)]) == 0
        assert main(["split", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["cluster", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[config]:")
        assert "nothing to cluster" in err


class TestDependenciesAndStaleness:
    def test_missing_upstream_names_the_command(self, dataset, capsys):
        tmp, _ = dataset
        cfg = write_config(tmp / "t.yaml", tmp / "data", tmp / "out")
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[pipeline]:")
        assert "run `classlink ingest` first" in err

    def test_seed_change_marks_artifacts_stale(self, dataset, capsys):
        tmp, _ = dataset
        cfg = write_config(tmp / "t.yaml", tmp / "data", tmp / "out")
        assert main(["ingest", "--config", str(cfg)]) == 0
        assert main(["split", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["prior", "--config", str(cfg), "--seed", "99"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[pipeline]:")
        assert "re-run `classlink split`" in err

    def test_ingest_digest_ignores_seed(self, dataset, capsys):
        tmp, _ = dataset
        cfg = write_config(tmp / "t.yaml", tmp / "data", tmp / "out")
        assert main(["ingest", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["ingest", "--config", str(cfg), "--seed", "99"]) == 0
        assert "up to date" in capsys.readouterr().out

    def test_changed_input_file_makes_ingest_and_later_stages_stale(
        self, dataset, capsys
    ):
        """The manifest's ingest entry records each input file's size and
        modification time, not only its path."""
        tmp, stats = dataset
        cfg = write_config(
            tmp / "t.yaml", tmp / "data", tmp / "out", label_source="louvain", scorer="hc"
        )
        edges = tmp / "data" / "edges.txt"
        assert main(["ingest", "--config", str(cfg)]) == 0
        with open(edges, "a") as fh:
            fh.write("x y\n")
        capsys.readouterr()
        assert main(["run-all", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "up to date" not in out
        assert f"n_edges={stats['n_edges'] + 1}" in out
        manifest = json.loads((tmp / "out" / "manifest.json").read_text())
        assert manifest["stages"]["ingest"]["n_edges"] == stats["n_edges"] + 1

        # unchanged inputs: every stage is reused
        assert main(["run-all", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        for stage in ("ingest", "split", "cluster", "prior"):
            assert f"{stage}: up to date" in out

        # a later stage run alone names the stage to re-run
        with open(edges, "a") as fh:
            fh.write("y z\n")
        for command in ("split", "cluster", "prior", "evaluate"):
            assert main([command, "--config", str(cfg)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error[pipeline]:")
            assert "re-run `classlink ingest`" in err

        # and run-all reuses none of the stages built on the old graph
        assert main(["run-all", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "up to date" not in out
        assert f"n_edges={stats['n_edges'] + 2}" in out

    def test_evaluate_model_without_checkpoint(self, dataset, capsys):
        tmp, _ = dataset
        cfg = write_config(tmp / "t.yaml", tmp / "data", tmp / "out")
        assert main(["ingest", "--config", str(cfg)]) == 0
        assert main(["split", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg)]) == 1
        assert "run `classlink train` first" in capsys.readouterr().err

    def test_missing_input_file_is_reported_with_path(self, tmp_path, capsys):
        cfg = tmp_path / "t.yaml"
        cfg.write_text(f"edges: {tmp_path}/absent.txt\nmode: backbone_only\n")
        assert main(["ingest", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[config]:")
        assert "absent.txt" in err

    @pytest.mark.parametrize(
        "extra, flags, fragment",
        [({}, ["--seed", "-1"], "seed"), ({"ratios": "[.nan, 0.5, 0.5]"}, [], "ratios")],
        ids=["negative-seed", "nan-ratio"],
    )
    def test_out_of_domain_value_is_a_config_error(
        self, dataset, capsys, extra, flags, fragment
    ):
        tmp, _ = dataset
        cfg = write_config(tmp / "t.yaml", tmp / "data", tmp / "out", **extra)
        assert main(["run-all", "--config", str(cfg), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[config]:")
        assert fragment in err


class TestEvaluateAndBench:
    def test_heuristic_scorer_needs_no_checkpoint(self, dataset, capsys):
        tmp, _ = dataset
        cfg = write_config(tmp / "t.yaml", tmp / "data", tmp / "out", scorer="cn")
        assert main(["ingest", "--config", str(cfg)]) == 0
        assert main(["split", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg)]) == 0
        assert "scorer=cn" in capsys.readouterr().out
        report = json.loads((tmp / "out" / "eval" / "report.json").read_text())
        assert report["metric"] == "mrr"

    def test_class_integrated_scorer_uses_prior_artifact(self, dataset):
        tmp, _ = dataset
        cfg = write_config(tmp / "t.yaml", tmp / "data", tmp / "out", scorer="hc")
        for command in ("ingest", "split", "prior"):
            assert main([command, "--config", str(cfg)]) == 0
        assert main(["evaluate", "--config", str(cfg)]) == 0
        scores = (tmp / "out" / "eval" / "scores.csv").read_text().strip().splitlines()
        assert all(len(line.split(",")) == 4 for line in scores)

    def test_metric_flag_overrides_config(self, dataset):
        tmp, _ = dataset
        cfg = write_config(tmp / "t.yaml", tmp / "data", tmp / "out", scorer="cn")
        assert main(["ingest", "--config", str(cfg)]) == 0
        assert main(["split", "--config", str(cfg)]) == 0
        assert main(["evaluate", "--config", str(cfg), "--metric", "hr@10"]) == 0
        report = json.loads((tmp / "out" / "eval" / "report.json").read_text())
        assert report["metric"] == "hr@10"

    def test_heatmap_command_reexports(self, dataset):
        tmp, _ = dataset
        cfg = write_config(tmp / "t.yaml", tmp / "data", tmp / "out")
        for command in ("ingest", "split", "prior"):
            assert main([command, "--config", str(cfg)]) == 0
        heatmap = tmp / "out" / "heatmap.csv"
        before = sha(heatmap)
        heatmap.unlink()
        assert main(["heatmap", "--config", str(cfg)]) == 0
        assert sha(heatmap) == before
        meta = json.loads((tmp / "out" / "heatmap.csv.meta.json").read_text())
        assert meta["class_ids"] == ["c0", "c1"]


class TestProcessInterface:
    def test_module_entry_point_and_exit_codes(self, dataset):
        tmp, _ = dataset
        cfg = write_config(tmp / "t.yaml", tmp / "data", tmp / "out")
        ok = subprocess.run(
            [sys.executable, "-m", "classlink", "ingest", "--config", str(cfg)],
            capture_output=True,
            text=True,
        )
        assert ok.returncode == 0
        assert "ingest:" in ok.stdout
        bad = subprocess.run(
            [sys.executable, "-m", "classlink", "train", "--config", str(cfg), "--out", str(tmp / "nowhere")],
            capture_output=True,
            text=True,
        )
        assert bad.returncode == 1
        assert bad.stderr.startswith("error[pipeline]:")

    def test_help_lists_every_command_and_a_bad_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["--help"])
        assert done.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        for name, (_, help_text) in cli.COMMANDS.items():
            assert f"  {name}".ljust(10) + f"  {help_text}" in lines
        for argv in ([], ["bogus"], ["--seed", "1"]):
            with pytest.raises(SystemExit) as done:
                main(argv)
            assert done.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_dispatch_reads_the_command_table_at_call_time(self, tmp_path, monkeypatch):
        cfg = tmp_path / "t.yaml"
        cfg.write_text(f"edges: {tmp_path}/absent.txt\nmode: backbone_only\nseed: 4\n")
        seen = []
        monkeypatch.setitem(cli.COMMANDS, "heatmap", (seen.append, "traced"))
        assert main(["--config", str(cfg), "heatmap", "--seed", "5"]) == 0
        assert [c.seed for c in seen] == [5]

    def test_unknown_config_key_fails_fast(self, dataset, capsys):
        tmp, _ = dataset
        bad = tmp / "bad.yaml"
        bad.write_text("edges: e.txt\nlerning_rate: 0.1\n")
        assert main(["split", "--config", str(bad)]) == 1
        assert "unknown config key" in capsys.readouterr().err


def scipy_modules_seen(cfg: Path, commands: tuple[str, ...]) -> dict[str, list[str]]:
    """The scipy modules loaded in a fresh interpreter after importing the
    CLI (``"import"``) and after each of ``commands`` run on ``cfg``."""
    script = (
        "import json, sys\n"
        "from classlink import cli\n"
        "def scipy():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "seen = {'import': scipy()}\n"
        "for command in sys.argv[2:]:\n"
        "    assert cli.main([command, '--config', sys.argv[1]]) == 0\n"
        "    seen[command] = scipy()\n"
        "print(json.dumps(seen))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(cfg), *commands],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestLazyLayers:
    def test_ingest_and_split_load_no_scipy(self, dataset):
        """In a fresh interpreter, importing the CLI and running ``ingest``
        and ``split`` load no scipy module: the negative pools look
        candidates up on the graph's CSR arrays."""
        tmp, _ = dataset
        cfg = write_config(tmp / "t.yaml", tmp / "data", tmp / "out")
        seen = scipy_modules_seen(cfg, ("ingest", "split"))
        assert seen == {"import": [], "ingest": [], "split": []}

    def test_cold_louvain_run_all_with_per_edge_pools_loads_no_scipy(self, dataset):
        """A cold ``run-all`` with Louvain labels, ``hc`` over RA and per-edge
        pools runs every stage on numpy alone."""
        tmp, _ = dataset
        cfg = write_config(
            tmp / "t.yaml", tmp / "data", tmp / "out",
            label_source="louvain", scorer="hc", hc_base="ra", per_edge_negatives=5,
        )
        seen = scipy_modules_seen(cfg, ("run-all",))
        assert seen == {"import": [], "run-all": []}
        assert (tmp / "out" / "pools.json").exists()

    def test_kmeans_cluster_loads_scipy(self, dataset):
        """k-means multiplies sparse matrices, so ``cluster`` loads scipy."""
        tmp, _ = dataset
        cfg = write_config(
            tmp / "t.yaml", tmp / "data", tmp / "out", label_source="kmeans", k=3
        )
        seen = scipy_modules_seen(cfg, ("ingest", "split", "cluster"))
        assert seen["split"] == []
        assert "scipy.sparse" in seen["cluster"]

    @pytest.mark.parametrize(
        "extra, loads_scipy",
        [
            ({"label_source": "louvain", "scorer": "hc", "hc_base": "ra"}, False),
            ({"scorer": "ra"}, False),
            ({"label_source": "louvain", "scorer": "hc", "hc_base": "katz"}, False),
            ({"scorer": "katz"}, False),
            ({}, True),
        ],
        ids=["hc-over-ra", "ra", "hc-over-katz", "katz", "model"],
    )
    def test_warm_evaluate_loads_scipy_only_to_multiply(self, dataset, extra, loads_scipy):
        """After a cold ``run-all``, ``evaluate`` in a fresh interpreter reads
        its artifacts and scores with any heuristic (CN/AA/RA, Katz, or ``hc``
        over them) on numpy alone; the model scorer, which multiplies
        matrices, loads scipy."""
        tmp, _ = dataset
        cfg = write_config(
            tmp / "t.yaml", tmp / "data", tmp / "out", per_edge_negatives=5, **extra
        )
        assert main(["run-all", "--config", str(cfg)]) == 0
        seen = scipy_modules_seen(cfg, ("evaluate",))
        assert seen["import"] == []
        assert ("scipy.sparse" in seen["evaluate"]) == loads_scipy
        if not loads_scipy:
            assert seen["evaluate"] == []


class TestNonFiniteFeatures:
    def test_ingest_reports_the_cell_as_a_parse_error(self, dataset, capsys):
        tmp, _ = dataset
        path = tmp / "data" / "features.csv"
        rows = path.read_text().splitlines()
        rows[4] = rows[4].split(",")[0] + ",nan,1"
        path.write_text("\n".join(rows) + "\n")
        cfg = write_config(
            tmp / "km.yaml", tmp / "data", tmp / "out",
            label_source="kmeans", k=4, scorer="hc",
        )
        assert main(["run-all", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[parse]:")
        assert "features.csv:5: non-finite feature value nan" in err


class TestUndecodableInput:
    def test_ingest_names_the_file_as_a_parse_error(self, tmp_path, capsys):
        """An input file that is not UTF-8 is one ``error[parse]`` line
        naming the file, not a traceback."""
        (tmp_path / "edges.txt").write_bytes(b"a b\n\xff c\n")
        cfg = tmp_path / "run.yaml"
        cfg.write_text(
            f"edges: {tmp_path}/edges.txt\nout: {tmp_path}/out\n"
            "label_source: louvain\nscorer: ra\n"
        )
        assert main(["ingest", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error[parse]: cannot read {tmp_path}/edges.txt: ")
        assert "'utf-8' codec can't decode byte 0xff" in err
        assert len(err.splitlines()) == 1


class TestCorruptLabeling:
    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda p: {k: v for k, v in p.items() if k != "k"},
            lambda p: {**p, "labels": encode_blob(np.full(p["labels"]["shape"], p["k"]))},
            lambda p: [p],
        ],
        ids=["missing-k", "label-out-of-range", "not-an-object"],
    )
    def test_run_all_reports_parse_error(self, dataset, capsys, corrupt):
        tmp, _ = dataset
        cfg = write_config(
            tmp / "lv.yaml", tmp / "data", tmp / "out",
            label_source="louvain", scorer="hc",
        )
        assert main(["run-all", "--config", str(cfg)]) == 0
        path = tmp / "out" / "labeling.json"
        path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
        capsys.readouterr()
        assert main(["run-all", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[parse]:")
        assert "labeling.json" in err


class TestCorruptArtifacts:
    def run_twice(self, tmp, capsys, corrupt, name, command="run-all", **extra):
        """Run the pipeline, corrupt one artifact, run ``command`` again."""
        cfg = write_config(tmp / "t.yaml", tmp / "data", tmp / "out", **extra)
        assert main(["run-all", "--config", str(cfg)]) == 0
        path = tmp / "out" / name
        path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
        capsys.readouterr()
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[parse]:")
        assert name in err
        return err

    def test_prior_without_joint_counts(self, dataset, capsys):
        tmp, _ = dataset
        self.run_twice(
            tmp, capsys,
            lambda p: {k: v for k, v in p.items() if k != "joint_counts"},
            "prior.json", label_source="louvain", scorer="hc",
        )

    def test_manifest_holding_a_list(self, dataset, capsys):
        tmp, _ = dataset
        self.run_twice(tmp, capsys, lambda p: [p], "manifest.json")

    @pytest.mark.parametrize(
        "name, command", [("graph.json", "evaluate"), ("manifest.json", "run-all")]
    )
    def test_version_one_artifact(self, dataset, capsys, name, command):
        tmp, _ = dataset
        err = self.run_twice(tmp, capsys, lambda p: {**p, "version": 1}, name, command)
        assert "rebuild the run directory" in err

    @pytest.mark.parametrize(
        "mode, corrupt",
        [
            ("ncn", lambda p: {**p, "mode": "gcn"}),
            ("ncnc", lambda p: {**p, "completion": None}),
        ],
        ids=["unknown-mode", "ncnc-without-completion"],
    )
    def test_checkpoint_of_an_impossible_model(self, dataset, capsys, mode, corrupt):
        tmp, _ = dataset
        self.run_twice(tmp, capsys, corrupt, "checkpoint.json", mode=mode)


class TestModelScorerInputs:
    """`evaluate` with a prior-using model reads the run's `prior.json` and
    labels, not copies inside the checkpoint."""

    def run_all(self, tmp, **extra):
        cfg = write_config(tmp / "t.yaml", tmp / "data", tmp / "out", **extra)
        assert main(["run-all", "--config", str(cfg)]) == 0
        return cfg

    def test_labeling_of_the_wrong_node_count(self, dataset, capsys):
        tmp, _ = dataset
        cfg = self.run_all(tmp, label_source="louvain")
        path = tmp / "out" / "labeling.json"
        payload = json.loads(path.read_text())
        payload["labels"] = encode_blob(np.zeros(3, dtype=int))
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[pipeline]:")
        assert "re-run `classlink cluster`" in err

    def test_missing_prior_stage_names_the_command(self, dataset, capsys):
        tmp, _ = dataset
        cfg = self.run_all(tmp)
        path = tmp / "out" / "manifest.json"
        payload = json.loads(path.read_text())
        del payload["stages"]["prior"]
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[pipeline]:")
        assert "run `classlink prior` first" in err

    def test_backbone_only_model_needs_no_prior(self, dataset):
        tmp, _ = dataset
        cfg = write_config(tmp / "t.yaml", tmp / "data", tmp / "out", mode="backbone_only")
        for command in ("ingest", "split", "train", "evaluate"):
            assert main([command, "--config", str(cfg)]) == 0
        assert not (tmp / "out" / "prior.json").exists()

    @pytest.mark.parametrize("mode", ["ncn", "ncnc"])
    def test_checkpoint_with_old_prior_and_label_copies(self, dataset, mode):
        tmp, _ = dataset
        cfg = self.run_all(tmp, label_source="louvain", mode=mode)
        out = tmp / "out"
        report, scores = (out / "eval/report.json").read_bytes(), sha(out / "eval/scores.csv")
        prior = json.loads((out / "prior.json").read_text())
        labeling = json.loads((out / "labeling.json").read_text())
        path = out / "checkpoint.json"
        payload = json.loads(path.read_text())
        assert "prior_counts" not in payload and "labels" not in payload
        payload.update(prior_counts=prior["joint_counts"], labels=labeling["labels"])
        path.write_text(json.dumps(payload, sort_keys=True) + "\n")
        assert main(["evaluate", "--config", str(cfg)]) == 0
        assert (out / "eval/report.json").read_bytes() == report
        assert sha(out / "eval/scores.csv") == scores


class TestProcessEntry:
    """``python -m classlink`` and the ``classlink`` script set glibc's heap
    top pad and mmap threshold; importing the package and an in-process
    ``cli.main`` leave the allocator as it is."""

    class Libc:
        def __init__(self, calls):
            self.calls = calls

        def mallopt(self, param, value):
            self.calls.append((param, value))
            return 1

    def test_heap_setting_only_at_process_entry(self, tmp_path, monkeypatch, capsys):
        import classlink

        calls = []
        monkeypatch.setattr(ctypes, "CDLL", lambda name: self.Libc(calls))
        importlib.reload(classlink)
        entry = importlib.reload(importlib.import_module("classlink.__main__"))
        assert calls == []

        cfg = tmp_path / "t.yaml"
        cfg.write_text(f"edges: {tmp_path}/absent.txt\nmode: backbone_only\n")
        assert main(["ingest", "--config", str(cfg)]) == 1
        assert calls == []
        assert entry.main(["ingest", "--config", str(cfg)]) == 1
        assert calls == [(-2, 64 << 20), (-3, 32 << 20)]  # M_TOP_PAD, M_MMAP_THRESHOLD
        assert capsys.readouterr().err.count("error[config]:") == 2

    @pytest.mark.parametrize(
        "module, freezes", [("classlink.__main__", True), ("classlink.cli", False)]
    )
    def test_only_the_process_entry_freezes_the_heap_at_exit(self, dataset, module, freezes):
        # exit handlers run last in, first out: this check runs after main's
        tmp, _ = dataset
        cfg = write_config(tmp / "t.yaml", tmp / "data", tmp / "out")
        code = (
            "import atexit, gc, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count()))\n"
            f"from {module} import main\n"
            f"sys.exit(main(['ingest', '--config', {str(cfg)!r}]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        last = proc.stdout.splitlines()[-1].split()
        assert last[0] == "frozen" and (int(last[1]) > 0) == freezes

    def test_in_process_entry_leaves_the_collector_as_it_is(self, tmp_path, capsys):
        from classlink.__main__ import main as entry_main

        cfg = tmp_path / "t.yaml"
        cfg.write_text(f"edges: {tmp_path}/absent.txt\nmode: backbone_only\n")
        before = gc.get_freeze_count()
        try:
            assert entry_main(["ingest", "--config", str(cfg)]) == 1
            assert gc.get_freeze_count() == before
        finally:
            atexit.unregister(gc.freeze)
        assert "error[config]:" in capsys.readouterr().err

    def test_console_script_enters_through_the_heap_setting(self):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
        assert project["project"]["scripts"]["classlink"] == "classlink.__main__:main"

    def test_heap_setting_is_a_no_op_without_mallopt(self, monkeypatch):
        from classlink.__main__ import keep_heap

        def no_library(name):
            raise OSError("no C library")

        for cdll in (lambda name: object(), no_library):
            monkeypatch.setattr(ctypes, "CDLL", cdll)
            assert keep_heap() is None
