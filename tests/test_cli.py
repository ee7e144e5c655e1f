"""End-to-end tests for the command-line pipeline."""

import json
import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from classlink.cli import main


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

    def test_run_all_parses_the_graph_artifact_once(self, dataset, monkeypatch):
        import classlink.cli as cli

        calls = []
        real = cli.load_graph_json

        def counting(path):
            calls.append(path)
            return real(path)

        monkeypatch.setattr(cli, "load_graph_json", counting)
        tmp, _ = dataset
        cfg = write_config(tmp / "run.yaml", tmp / "data", tmp / "out")
        assert main(["run-all", "--config", str(cfg)]) == 0
        assert len(calls) == 1
        # a stage run on its own reads the file each time
        assert main(["evaluate", "--config", str(cfg)]) == 0
        assert main(["evaluate", "--config", str(cfg)]) == 0
        assert len(calls) == 3

    def test_graph_cache_rereads_a_changed_file(self, dataset):
        from classlink.cli import GraphCache
        from classlink.graph import build_graph, save_graph_json

        tmp, _ = dataset
        path = tmp / "graph.json"
        save_graph_json(build_graph(3, np.array([[0, 1]])), path)
        cache = GraphCache()
        first = cache.load(path)
        assert cache.load(path) is first
        save_graph_json(build_graph(3, np.array([[0, 1], [1, 2]])), path)
        second = cache.load(path)
        assert second is not first and second.n_edges == 2

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


class TestLabelSources:
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

    def test_bench_writes_fit_to_csv_and_manifest(self, tmp_path, capsys):
        cfg = tmp_path / "b.yaml"
        cfg.write_text(
            f"out: {tmp_path}/bench\nseed: 5\nbench_sizes: [500, 1000, 2000]\n"
        )
        assert main(["bench", "--config", str(cfg)]) == 0
        csv_text = (tmp_path / "bench" / "bench.csv").read_text()
        assert csv_text.count("\n") == 4  # three rows + fit comment
        assert "# fit: slope=" in csv_text
        manifest = json.loads((tmp_path / "bench" / "manifest.json").read_text())
        assert "slope" in manifest["stages"]["bench"]
        assert "r_squared" in manifest["stages"]["bench"]

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

    def test_unknown_config_key_fails_fast(self, dataset, capsys):
        tmp, _ = dataset
        bad = tmp / "bad.yaml"
        bad.write_text("edges: e.txt\nlerning_rate: 0.1\n")
        assert main(["split", "--config", str(bad)]) == 1
        assert "unknown config key" in capsys.readouterr().err
