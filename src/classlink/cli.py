"""Command-line pipeline: seeded stages writing digest-tracked artifacts.

Each subcommand reads its upstream artifacts out of the run directory,
verifies (via ``manifest.json``) that they were produced under the same
configuration, and writes its own artifact plus a manifest entry.  Running
stages one by one is therefore equivalent to ``run-all``, and re-running a
stage whose inputs have not changed reuses the cached artifact.  The ingest
entry also records each input file's size and modification time; when a
file no longer matches, ingest and every later stage are stale.

Per-edge evaluation keeps its negative pools in ``pools.json`` under a
manifest entry ``pools``, keyed by the split's config keys plus
``eval_split`` and ``per_edge_negatives``.  ``evaluate`` reads the pools
while that entry is up to date and otherwise draws, writes and records
them, so a scorer or metric switch ranks against the same pools without
drawing them again.  A draw takes every pool from the one stream ``(seed,
STREAM_EVAL)``; a run directory whose pools were drawn on the earlier
per-positive streams ``(seed, STREAM_EVAL, i)`` keeps them until the entry
goes stale.

Each command imports the layer functions it calls in its own body, so
importing this module loads only numpy, yaml and the package's ``config``,
``artifacts``, ``errors`` and ``rand``.  The layers load scipy only to
multiply a sparse matrix: k-means ``cluster``, ``train`` and an ``evaluate``
with the model scorer.  ``ingest``, ``split``, Louvain and mono ``cluster``,
``prior``, ``heatmap`` and an ``evaluate`` that scores with a heuristic
(CN/AA/RA, Katz, or ``hc`` over them), drawing its per-edge pools or reading
them, never load it.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from . import artifacts
from .config import RunConfig, load_config_file, stage_digest
from .errors import (
    ClasslinkError,
    ConfigurationError,
    DependencyError,
    StaleArtifactError,
)

if TYPE_CHECKING:
    import numpy as np

    from .clustering import PseudoLabeling
    from .graph import EdgeSplit, Graph, Scorer

MANIFEST_NAME = "manifest.json"

ARTIFACT_NAMES = {
    "ingest": "graph.json",
    "split": "split.json",
    "cluster": "labeling.json",
    "prior": "prior.json",
    "heatmap": "heatmap.csv",
    "train": "checkpoint.json",
    "pools": "pools.json",
    "evaluate": "eval/report.json",
}


# ---------------------------------------------------------------------------
# Manifest bookkeeping
# ---------------------------------------------------------------------------


def _manifest_path(cfg: RunConfig) -> Path:
    return Path(cfg.out) / MANIFEST_NAME


def _load_manifest(cfg: RunConfig) -> dict:
    """The manifest's stage entries (empty before the first stage runs)."""
    path = _manifest_path(cfg)
    if not path.exists():
        return {}
    stages = artifacts.read(path, "manifest", fields={"stages": dict})["stages"]
    for entry in stages.values():
        artifacts.decode(path, entry, fields={"digest": str, "path": str})
    return stages


def _input_files(cfg: RunConfig) -> dict:
    """``[size, mtime_ns]`` of each configured input file, ``None`` for one
    that cannot be read."""
    found = {}
    for name in ("edges", "features", "labels"):
        path = getattr(cfg, name)
        if path is None:
            continue
        try:
            st = os.stat(path)
        except (OSError, ValueError):
            found[name] = None
        else:
            found[name] = [st.st_size, st.st_mtime_ns]
    return found


def _record_stage(cfg: RunConfig, stage: str, **extra) -> None:
    # a new graph leaves every stage built on the old one behind
    stages = {} if stage == "ingest" else _load_manifest(cfg)
    stages[stage] = {
        "digest": stage_digest(cfg, stage),
        "path": ARTIFACT_NAMES[stage],
        "seed": cfg.seed,
        **extra,
    }
    artifacts.write(_manifest_path(cfg), "manifest", {"stages": stages})


def _require_stage(cfg: RunConfig, stage: str) -> Path:
    """Path of an upstream artifact, verified against the current config and
    the input files that were ingested."""
    stages = _load_manifest(cfg)
    entry = stages.get(stage)
    if entry is None:
        raise DependencyError(
            f"missing {stage} artifact; run `classlink {stage}` first"
        )
    path = Path(cfg.out) / entry["path"]
    if not path.exists():
        raise DependencyError(
            f"{stage} artifact vanished ({path}); run `classlink {stage}` again"
        )
    if entry.get("digest") != stage_digest(cfg, stage):
        raise StaleArtifactError(
            f"{stage} artifact was built from a different configuration; "
            f"re-run `classlink {stage}`"
        )
    ingest = stages.get("ingest")
    if ingest is not None and ingest.get("inputs") != _input_files(cfg):
        raise StaleArtifactError(
            "the input files changed since they were ingested; re-run `classlink ingest`"
        )
    return path


def _up_to_date(stage: str):
    """Skip the decorated command while ``stage``'s artifact is up to date."""

    def wrap(cmd):
        @functools.wraps(cmd)
        def run(cfg: RunConfig) -> None:
            try:
                path = _require_stage(cfg, stage)
            except (DependencyError, StaleArtifactError):
                return cmd(cfg)
            print(f"{stage}: up to date ({path})")

        return run

    return wrap


# ---------------------------------------------------------------------------
# Shared loading helpers
# ---------------------------------------------------------------------------


def _resolve_labels(
    cfg: RunConfig, g: Graph
) -> tuple[np.ndarray, int, tuple[str, ...]]:
    """Labels for prior building: ground truth or the clustering artifact."""
    if cfg.label_source == "true":
        if g.labels is None:
            raise ConfigurationError(
                "label source 'true' needs labels ingested from a labels file"
            )
        return g.labels, g.n_classes, g.class_ids
    from .clustering import load_labeling_json

    labeling = load_labeling_json(_require_stage(cfg, "cluster"))
    if labeling.labels.size != g.n_nodes:
        raise StaleArtifactError(
            "clustering artifact covers a different node set; "
            "re-run `classlink cluster`"
        )
    return labeling.labels, labeling.k, tuple(str(i) for i in range(labeling.k))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


@_up_to_date("ingest")
def cmd_ingest(cfg: RunConfig) -> None:
    from .graph import ingest_graph_json

    inputs = _input_files(cfg)  # before reading, so a change while reading shows
    path = Path(cfg.out) / ARTIFACT_NAMES["ingest"]
    n_nodes, n_edges = ingest_graph_json(cfg.edges, cfg.features, cfg.labels, path)
    _record_stage(cfg, "ingest", n_nodes=n_nodes, n_edges=n_edges, inputs=inputs)
    print(f"ingest: n_nodes={n_nodes} n_edges={n_edges} -> {path}")


@_up_to_date("split")
def cmd_split(cfg: RunConfig) -> None:
    from .graph import load_graph_json, save_split_json, split_edges

    g = load_graph_json(_require_stage(cfg, "ingest"))
    split = split_edges(g, cfg.ratios, cfg.seed, negatives=cfg.negatives)
    path = Path(cfg.out) / ARTIFACT_NAMES["split"]
    save_split_json(split, path)
    _record_stage(
        cfg,
        "split",
        n_train=len(split.train_edges),
        n_valid=len(split.valid_edges),
        n_test=len(split.test_edges),
    )
    print(
        f"split: train={len(split.train_edges)} valid={len(split.valid_edges)} "
        f"test={len(split.test_edges)} negatives={len(split.test_negatives)} -> {path}"
    )


def _cluster_labeling(cfg: RunConfig, g: Graph, split: EdgeSplit) -> PseudoLabeling:
    from .clustering import aggregate_features, elbow_kmeans, kmeans, louvain, mono_label

    if cfg.label_source == "mono":
        return mono_label(g.n_nodes)
    g_train = split.train_graph(g)
    if cfg.label_source == "louvain":
        return louvain(g_train, cfg.seed)
    # kmeans on train-graph-aggregated features
    if g.n_features == 0:
        raise ConfigurationError("kmeans labels need node features")
    agg = aggregate_features(g_train)
    if cfg.k is not None:
        return kmeans(
            agg,
            cfg.k,
            cfg.seed,
            max_iters=cfg.max_iters,
            normalize_rows=cfg.normalize_rows,
        )
    return elbow_kmeans(
        agg,
        list(cfg.k_grid or ()),
        cfg.seed,
        max_iters=cfg.max_iters,
        normalize_rows=cfg.normalize_rows,
    )


@_up_to_date("cluster")
def cmd_cluster(cfg: RunConfig) -> None:
    from .clustering import save_labeling_json, save_labels_csv, save_ssd_curve_csv
    from .graph import load_graph_json, load_split_json

    if cfg.label_source == "true":
        raise ConfigurationError(
            "label source 'true' reads the labels file; nothing to cluster"
        )
    g = load_graph_json(_require_stage(cfg, "ingest"))
    split = load_split_json(_require_stage(cfg, "split"))
    labeling = _cluster_labeling(cfg, g, split)
    out = Path(cfg.out)
    path = out / ARTIFACT_NAMES["cluster"]
    save_labeling_json(labeling, path)
    save_labels_csv(labeling, g.node_ids, out / "labels.csv")
    if labeling.ssd_curve is not None:
        save_ssd_curve_csv(labeling.ssd_curve, out / "ssd_curve.csv")
    _record_stage(cfg, "cluster", method=labeling.method, k=labeling.k)
    print(f"cluster: method={labeling.method} k={labeling.k} -> {path}")


@_up_to_date("prior")
def cmd_prior(cfg: RunConfig) -> None:
    from .graph import load_graph_json, load_split_json
    from .priors import count_class_links, export_heatmap, save_prior_json

    g = load_graph_json(_require_stage(cfg, "ingest"))
    split = load_split_json(_require_stage(cfg, "split"))
    labels, n_classes, class_ids = _resolve_labels(cfg, g)
    prior = count_class_links(split.train_edges, labels, n_classes)
    out = Path(cfg.out)
    path = out / ARTIFACT_NAMES["prior"]
    save_prior_json(prior, path, seed=cfg.seed, label_source=cfg.label_source)
    export_heatmap(prior, out / ARTIFACT_NAMES["heatmap"], class_ids)
    _record_stage(cfg, "prior", n_classes=n_classes, label_source=cfg.label_source)
    print(
        f"prior: {n_classes}x{n_classes} from {len(split.train_edges)} train edges "
        f"(labels={cfg.label_source}) -> {path}"
    )


def cmd_heatmap(cfg: RunConfig) -> None:
    from .graph import load_graph_json
    from .priors import export_heatmap, load_prior_json

    prior = load_prior_json(_require_stage(cfg, "prior"))
    g = load_graph_json(_require_stage(cfg, "ingest"))
    if cfg.label_source == "true" and g.labels is not None:
        class_ids = g.class_ids
    else:
        class_ids = tuple(str(i) for i in range(prior.n_classes))
    path = Path(cfg.out) / ARTIFACT_NAMES["heatmap"]
    export_heatmap(prior, path, class_ids)
    _record_stage(cfg, "heatmap", n_classes=prior.n_classes)
    print(f"heatmap: {prior.n_classes}x{prior.n_classes} -> {path}")


@_up_to_date("train")
def cmd_train(cfg: RunConfig) -> None:
    from .backbone import save_checkpoint, save_training_log, train
    from .graph import load_graph_json, load_split_json
    from .priors import load_prior_json

    g = load_graph_json(_require_stage(cfg, "ingest"))
    split = load_split_json(_require_stage(cfg, "split"))
    prior = labels = None
    if cfg.mode != "backbone_only":
        labels, _, _ = _resolve_labels(cfg, g)
        prior = load_prior_json(_require_stage(cfg, "prior"))
    model, log = train(g, split, prior, labels, cfg.mode, cfg.train_config())
    out = Path(cfg.out)
    path = out / ARTIFACT_NAMES["train"]
    save_checkpoint(model, path, config_digest=stage_digest(cfg, "train"))
    save_training_log(log, out / "training_log.csv")
    best_val = max(row["val_mrr"] for row in log)
    _record_stage(cfg, "train", mode=cfg.mode, epochs_run=len(log), best_val_mrr=best_val)
    print(
        f"train: mode={cfg.mode} epochs={len(log)} best_val_mrr={best_val:.6f} -> {path}"
    )


def _build_scorer(cfg: RunConfig, g: Graph, split: EdgeSplit) -> Scorer:
    from .priors import load_prior_json

    g_train = split.train_graph(g)
    model = None
    if cfg.scorer == "model":
        from .backbone import load_checkpoint, make_scorer

        model, digest = load_checkpoint(_require_stage(cfg, "train"))
        if digest != stage_digest(cfg, "train"):
            raise StaleArtifactError(
                "checkpoint was trained under a different configuration; "
                "re-run `classlink train`"
            )
    prior = labels = None
    if cfg.reads_prior:
        prior = load_prior_json(_require_stage(cfg, "prior"))
        labels, _, _ = _resolve_labels(cfg, g)
    if model is not None:
        return make_scorer(model, g_train, prior, labels)
    from .heuristics import make_heuristic_scorer

    return make_heuristic_scorer(
        cfg.scorer,
        g_train,
        katz=cfg.katz_config(),
        prior=prior,
        labels=labels,
        base=cfg.hc_base,
    )


def _per_edge_pools(cfg: RunConfig, g: Graph, n_positives: int) -> np.ndarray:
    """The run's per-edge negative pools: read from ``pools.json`` while its
    manifest entry is up to date, else drawn, written and recorded."""
    from .evaluation import draw_per_edge_pools, load_pools_json, save_pools_json

    try:
        path = _require_stage(cfg, "pools")
    except (DependencyError, StaleArtifactError):
        pools = draw_per_edge_pools(g, n_positives, cfg.per_edge_negatives, cfg.seed)
        save_pools_json(pools, Path(cfg.out) / ARTIFACT_NAMES["pools"])
        _record_stage(cfg, "pools")
        return pools
    return load_pools_json(path, n_positives, cfg.per_edge_negatives, g.n_nodes)


def cmd_evaluate(cfg: RunConfig) -> None:
    from .evaluation import evaluate_split, save_report
    from .graph import load_graph_json, load_split_json

    g = load_graph_json(_require_stage(cfg, "ingest"))
    split = load_split_json(_require_stage(cfg, "split"))
    scorer = _build_scorer(cfg, g, split)
    positives, pool = split.part(cfg.eval_split)
    t0 = time.perf_counter()
    pools = None
    if cfg.per_edge_negatives is not None:
        pools = _per_edge_pools(cfg, g, len(positives))
    t_pools = time.perf_counter() - t0
    report = evaluate_split(
        scorer, split, cfg.metric, cfg.seed, which=cfg.eval_split, pools=pools
    )
    report.timings["sampling_s"] = t_pools
    scores = {"positive": (positives, report.positive_scores)}
    if report.negative_scores is not None:
        scores["negative"] = (pool, report.negative_scores)
    paths = save_report(
        report,
        Path(cfg.out) / "eval",
        config_digest=stage_digest(cfg, "evaluate"),
        positives=positives,
        scores=scores,
    )
    _record_stage(
        cfg, "evaluate", scorer=cfg.scorer, metric=report.metric, value=report.value
    )
    print(
        f"evaluate: scorer={cfg.scorer} {report.metric}={report.value:.6f} "
        f"({len(positives)} positives vs {report.n_negatives} negatives) "
        f"-> {paths['report']}"
    )


def cmd_run_all(cfg: RunConfig) -> None:
    cmd_ingest(cfg)
    cmd_split(cfg)
    if cfg.reads_prior:
        if cfg.label_source != "true":
            cmd_cluster(cfg)
        cmd_prior(cfg)
    if cfg.scorer == "model":
        cmd_train(cfg)
    cmd_evaluate(cfg)


COMMANDS = {
    "ingest": (cmd_ingest, "load edge/feature/label files into a graph artifact"),
    "split": (cmd_split, "partition edges into train/valid/test with negative pools"),
    "prior": (cmd_prior, "count class-pair links on train edges and normalize"),
    "cluster": (cmd_cluster, "derive pseudo-labels (kmeans, louvain, or mono)"),
    "train": (cmd_train, "fit the link predictor with full-batch gradient descent"),
    "evaluate": (cmd_evaluate, "rank positives against sampled negatives"),
    "heatmap": (cmd_heatmap, "export the prior matrix as a CSV heatmap"),
    "run-all": (cmd_run_all, "run the full pipeline for one config"),
}

# CLI flags that override config-file values when provided.
_OVERRIDE_FLAGS = (
    ("--seed", "seed", int, "root seed for every stage"),
    ("--out", "out", str, "run directory for artifacts"),
    ("--edges", "edges", str, "edge-list file (u v per line)"),
    ("--features", "features", str, "node feature CSV"),
    ("--labels", "labels", str, "node label CSV"),
    ("--label-source", "label_source", str, "true, kmeans, louvain, or mono"),
    ("--mode", "mode", str, "ncn, ncnc, or backbone_only"),
    ("--scorer", "scorer", str, "model, cn, aa, ra, katz, or hc"),
    ("--metric", "metric", str, "mrr or hr@K"),
)


def build_parser() -> argparse.ArgumentParser:
    width = max(map(len, COMMANDS))
    parser = argparse.ArgumentParser(
        prog="classlink",
        description="Seeded link-prediction pipeline with class-conditioned priors.",
        epilog="commands:\n" + "\n".join(
            f"  {name:<{width}}  {help_text}" for name, (_, help_text) in COMMANDS.items()
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "command", choices=COMMANDS, metavar="command", help="one of the commands below"
    )
    parser.add_argument("--config", help="YAML config file", default=None)
    for flag, dest, typ, help_str in _OVERRIDE_FLAGS:
        parser.add_argument(flag, dest=dest, type=typ, help=help_str, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        mapping = load_config_file(args.config) if args.config else {}
        overrides = {
            dest: getattr(args, dest)
            for _, dest, _, _ in _OVERRIDE_FLAGS
            if getattr(args, dest) is not None
        }
        cfg = RunConfig.from_mapping(mapping, overrides=overrides)
        cfg.validate(check_paths=args.command in ("ingest", "run-all"))
        COMMANDS[args.command][0](cfg)
    except ClasslinkError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
