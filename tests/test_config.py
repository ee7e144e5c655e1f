"""Config parsing, validation, and digest behavior."""

import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from classlink.backbone import BatchBuilder, train
from classlink.clustering import elbow_kmeans, kmeans
from classlink.config import (
    RunConfig,
    STAGE_KEYS,
    load_config_file,
    stage_digest,
)
from classlink.errors import ClasslinkError, ConfigurationError
from classlink.evaluation import draw_per_edge_pools, evaluate_split
from classlink.graph import split_edges
from classlink.heuristics import make_heuristic_scorer
from classlink.priors import count_class_links

from conftest import planted_two_class, scipy_csr


def make_config(**kwargs) -> RunConfig:
    base = {"edges": "edges.txt", "labels": "labels.csv"}
    base.update(kwargs)
    return RunConfig.from_mapping(base)


class TestFromMapping:
    def test_defaults_fill_unset_keys(self):
        cfg = make_config()
        assert cfg.seed == 0
        assert cfg.ratios == (0.85, 0.05, 0.10)
        assert cfg.negatives == 500
        assert cfg.label_source == "true"
        assert cfg.mode == "ncn"
        assert cfg.metric == "mrr"
        assert cfg.scorer == "model"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config key"):
            RunConfig.from_mapping({"edges": "e", "lerning_rate": 0.1})

    def test_hyphen_and_underscore_keys_are_equivalent(self):
        cfg = RunConfig.from_mapping(
            {"edges": "e", "label-source": "kmeans", "k-grid": [1, 2, 3]}
        )
        assert cfg.label_source == "kmeans"
        assert cfg.k_grid == (1, 2, 3)

    def test_overrides_win_over_file_values(self):
        cfg = RunConfig.from_mapping(
            {"edges": "e", "seed": 1, "mode": "ncn"},
            overrides={"seed": 9, "mode": "ncnc"},
        )
        assert cfg.seed == 9
        assert cfg.mode == "ncnc"

    def test_yaml_boolean_true_means_ground_truth_labels(self):
        # YAML parses a bare `true` as a boolean before we ever see it.
        cfg = RunConfig.from_mapping({"edges": "e", "label_source": True})
        assert cfg.label_source == "true"

    def test_label_source_case_folded(self):
        cfg = RunConfig.from_mapping({"edges": "e", "label_source": "Louvain"})
        assert cfg.label_source == "louvain"

    def test_numeric_strings_coerced(self):
        cfg = RunConfig.from_mapping(
            {"edges": "e", "seed": "7", "dim": 16.0, "lr": "0.05"}
        )
        assert cfg.seed == 7 and cfg.dim == 16 and cfg.lr == 0.05

    def test_boolean_not_accepted_as_integer(self):
        with pytest.raises(ConfigurationError, match="expects an integer"):
            RunConfig.from_mapping({"edges": "e", "seed": True})

    def test_bad_ratio_shape_rejected(self):
        with pytest.raises(ConfigurationError, match="three reals"):
            RunConfig.from_mapping({"edges": "e", "ratios": [0.9, 0.1]})

    def test_round_trips_through_mapping(self):
        cfg = make_config(seed=4, label_source="kmeans", k_grid=[2, 3, 4])
        again = RunConfig.from_mapping(cfg.to_mapping())
        assert again == cfg


class TestValidate:
    def test_valid_default_config_passes(self):
        make_config().validate()

    def test_edges_required_for_pipeline(self):
        cfg = RunConfig.from_mapping({})
        with pytest.raises(ConfigurationError, match="'edges'"):
            cfg.validate()

    def test_check_paths_requires_existing_files(self, tmp_path):
        edge_file = tmp_path / "edges.txt"
        edge_file.write_text("0 1\n")
        cfg = RunConfig.from_mapping({"edges": str(edge_file), "mode": "backbone_only"})
        cfg.validate(check_paths=True)
        missing = RunConfig.from_mapping(
            {"edges": str(tmp_path / "nope.txt"), "mode": "backbone_only"}
        )
        with pytest.raises(ConfigurationError, match="nope.txt"):
            missing.validate(check_paths=True)

    def test_ratios_must_sum_to_one(self):
        cfg = make_config(ratios=[0.8, 0.1, 0.2])
        with pytest.raises(ConfigurationError, match="sum to 1"):
            cfg.validate()

    def test_kmeans_needs_exactly_one_of_k_and_grid(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            make_config(label_source="kmeans").validate()
        with pytest.raises(ConfigurationError, match="exactly one"):
            make_config(label_source="kmeans", k=3, k_grid=[1, 2, 3]).validate()
        make_config(label_source="kmeans", k=3).validate()
        make_config(label_source="kmeans", k_grid=[1, 2, 3]).validate()

    def test_k_grid_needs_three_candidates(self):
        with pytest.raises(ConfigurationError, match="at least 3"):
            make_config(label_source="kmeans", k_grid=[1, 2]).validate()

    def test_k_only_applies_to_kmeans(self):
        with pytest.raises(ConfigurationError, match="kmeans"):
            make_config(label_source="louvain", k=3).validate()

    def test_true_labels_need_a_label_file(self):
        # exactly the configs whose scorer reads the class prior need labels
        for extra in ({}, {"scorer": "hc", "mode": "backbone_only"}):
            cfg = RunConfig.from_mapping({"edges": "e", **extra})
            assert cfg.reads_prior
            with pytest.raises(ConfigurationError, match="labels file"):
                cfg.validate()
        # a label-free backbone and a structural scorer do not touch priors
        for extra in ({"mode": "backbone_only"}, {"scorer": "cn"}):
            cfg = RunConfig.from_mapping({"edges": "e", **extra})
            assert not cfg.reads_prior
            cfg.validate()

    def test_bad_enum_values_rejected(self):
        for kwargs, fragment in [
            ({"label_source": "oracle"}, "label source"),
            ({"mode": "gcn"}, "mode"),
            ({"scorer": "pagerank"}, "scorer"),
            ({"hc_base": "hc"}, "hc_base"),
            ({"eval_split": "train"}, "eval_split"),
        ]:
            with pytest.raises(ConfigurationError, match=fragment):
                make_config(**kwargs).validate()

    def test_metric_spec_is_parsed(self):
        make_config(metric="hr@100").validate()
        with pytest.raises(ConfigurationError):
            make_config(metric="auc").validate()

    def test_training_hyperparameters_checked(self):
        for lr in (-0.1, float("nan"), float("inf")):  # NaN passes `lr <= 0`
            with pytest.raises(ConfigurationError, match="learning rate"):
                make_config(lr=lr).validate()
        with pytest.raises(ConfigurationError):
            make_config(epochs=0).validate()

    def test_per_edge_negatives_positive(self):
        with pytest.raises(ConfigurationError, match="per_edge_negatives"):
            make_config(per_edge_negatives=0).validate()


class TestLoadConfigFile:
    def test_yaml_document_parsed(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("edges: e.txt\nseed: 11\nlabel_source: true\nratios: [0.7, 0.15, 0.15]\n")
        cfg = RunConfig.from_mapping(load_config_file(path))
        assert cfg.edges == "e.txt"
        assert cfg.seed == 11
        assert cfg.label_source == "true"  # boolean normalized back to the name
        assert cfg.ratios == (0.7, 0.15, 0.15)

    def test_empty_file_means_all_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert load_config_file(path) == {}

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_config_file(tmp_path / "absent.yaml")

    def test_invalid_yaml_is_a_config_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("edges: [unclosed\n")
        with pytest.raises(ConfigurationError, match="invalid YAML"):
            load_config_file(path)

    def test_non_mapping_document_rejected(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- a\n- b\n")
        with pytest.raises(ConfigurationError, match="mapping"):
            load_config_file(path)


class TestDigests:
    def test_output_dir_never_affects_digests(self):
        a = make_config(out="runs/a")
        b = make_config(out="runs/b")
        for stage in STAGE_KEYS:
            assert stage_digest(a, stage) == stage_digest(b, stage)

    def test_seed_invalidates_everything_downstream_of_split(self):
        a, b = make_config(seed=1), make_config(seed=2)
        assert stage_digest(a, "ingest") == stage_digest(b, "ingest")
        for stage in ("split", "pools", "cluster", "prior", "train", "evaluate"):
            assert stage_digest(a, stage) != stage_digest(b, stage)

    def test_evaluation_keys_leave_train_artifacts_valid(self):
        a, b = make_config(metric="mrr"), make_config(metric="hr@20")
        for stage in ("ingest", "split", "pools", "cluster", "prior", "train"):
            assert stage_digest(a, stage) == stage_digest(b, stage)
        assert stage_digest(a, "evaluate") != stage_digest(b, "evaluate")

    def test_training_keys_change_train_digest(self):
        a, b = make_config(dim=32), make_config(dim=64)
        assert stage_digest(a, "prior") == stage_digest(b, "prior")
        assert stage_digest(a, "train") != stage_digest(b, "train")

    def test_unknown_stage_rejected(self):
        with pytest.raises(ConfigurationError, match="stage"):
            stage_digest(make_config(), "deploy")

    def test_digest_is_stable_hex(self):
        d = stage_digest(make_config(), "evaluate")
        assert len(d) == 64 and set(d) <= set("0123456789abcdef")
        assert d == stage_digest(make_config(), "evaluate")

    def test_digests_are_pinned(self):
        """Fixed hex values: a key's name, default, stage or encoding that
        drifts would make every existing run directory stale."""
        kmeans_hc = RunConfig.from_mapping(
            {
                "edges": "edges.txt",
                "features": "features.csv",
                "label_source": "kmeans",
                "k_grid": [2, 3, 4],
                "scorer": "hc",
                "hc_base": "katz",
                "per_edge_negatives": 30,
                "seed": 1,
            }
        )
        golden = [
            (
                make_config(),
                "6ca876ff32dcb5eb0857e6cc4a6c4adae7a4327ff213ce6615b26dd772f623f5",
                "0f38854d7a466ada13918718acdb55209e5dfedf4dfc47c128dca8e833a60da0",
                "7bdc8f2c0c7d37bef71c332f83da0cccef66411920c696814f4a627dddd40069",
                "5e2a0a3f0f77d24ad3a959a661b17984a6e52eeb276169aeef5774817947397d",
                "9f33ffb8bd221b045a513d3f2157f93a1ccb042f76cc08fa817851cfad5b2ad4",
                "ac64d5290e6ef1adc6b1c6614f098e5cb602063ad8112ec78b59ac57277d1ddb",
            ),
            (
                kmeans_hc,
                "dc5260bddd87deab2ff851448aa3b03770534434be9b61c9f172516af982adb0",
                "b10cd169f06865a36089c130d09f35246bfffe0b83fa8ba6c6442caa7c1abf95",
                "33e6ffbc94f28147b0ebe43987741c7757d34d080f853646bf61ed51dbfd0a75",
                "993a3887432d1527902c90803d4ff666e0971b89e44f00dd4036b5328b7965eb",
                "5a359673d2180eb71d96419e3ba039ee8030d8d12e286fa2bd43d38d57418438",
                "02f73bac494f84db81fbafac575e9adb4321024bd62e014253d963e9bc75d84d",
            ),
        ]
        for cfg, ingest, split, pools, labels, train, evaluate in golden:
            expected = {
                "ingest": ingest,
                "split": split,
                "pools": pools,
                "cluster": labels,
                "prior": labels,
                "heatmap": labels,
                "train": train,
                "evaluate": evaluate,
            }
            assert {stage: stage_digest(cfg, stage) for stage in STAGE_KEYS} == expected
        # every key but the output directory is digested at evaluation
        assert set(STAGE_KEYS["evaluate"]) == {f.name for f in fields(RunConfig)} - {"out"}


def test_readme_config_table_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### Config keys", 1)[1].split("\n\n", 2)[1]
    documented = set()
    for row in table.splitlines()[2:]:  # below the header and its rule
        documented.update(re.findall(r"`(\w+)`", row.split("|")[1]))
    assert documented == {f.name for f in fields(RunConfig)}


class TestSharedNames:
    def test_the_layers_export_the_config_objects(self):
        """``config`` defines the names that validation shares with the
        layers; their old import paths give the same objects."""
        from classlink import backbone, config, evaluation, heuristics

        assert backbone.MODES is config.MODES
        assert backbone.TrainConfig is config.TrainConfig
        assert heuristics.STRUCTURAL is config.STRUCTURAL
        assert heuristics.GammaDecayConfig is config.GammaDecayConfig
        assert evaluation.parse_metric is config.parse_metric


# ---------------------------------------------------------------------------
# One rule path: validation and the layer that takes a value share its check
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def planted():
    g = planted_two_class(np.random.default_rng(5), n_per_class=10)
    split = split_edges(g, (0.7, 0.15, 0.15), 0, negatives=10)
    return g, split, count_class_links(split.train_edges, g.labels, g.n_classes)


# each layer entry that checks a rule, called with the rule's value
LAYER_ENTRIES = {
    "split_edges": lambda g, split, prior, v: split_edges(g, v, 0),
    "elbow_kmeans": lambda g, split, prior, v: elbow_kmeans(scipy_csr(g, "feature"), v, 0),
    "kmeans max_iters": lambda g, split, prior, v: kmeans(
        scipy_csr(g, "feature"), 2, 0, max_iters=v
    ),
    "elbow_kmeans max_iters": lambda g, split, prior, v: elbow_kmeans(
        scipy_csr(g, "feature"), [1, 2, 3], 0, max_iters=v
    ),
    "train": lambda g, split, prior, v: train(g, split, prior, g.labels, v),
    "BatchBuilder.create": lambda g, split, prior, v: BatchBuilder.create(g, v, prior, g.labels),
    "evaluate_split": lambda g, split, prior, v: evaluate_split(
        lambda pairs: np.zeros(len(pairs)),
        split,
        "mrr",
        0,
        pools=np.zeros((len(split.test_edges), v, 2), dtype=np.int64),
    ),
    "draw_per_edge_pools": lambda g, split, prior, v: draw_per_edge_pools(g, 3, v, 0),
    "EdgeSplit.part": lambda g, split, prior, v: split.part(v),
    "evaluate_split which": lambda g, split, prior, v: evaluate_split(
        lambda pairs: np.zeros(len(pairs)), split, "mrr", 0, which=v
    ),
    "make_heuristic_scorer": lambda g, split, prior, v: make_heuristic_scorer(
        "hc", g, prior=prior, labels=g.labels, base=v
    ),
}


@pytest.mark.parametrize(
    "key, value, entry",
    [
        ("ratios", (0.8, 0.1, 0.2), "split_edges"),
        ("ratios", (0.9, 0.1, 0.0), "split_edges"),
        ("k_grid", (5, 3, 4), "elbow_kmeans"),
        ("k_grid", (1, 2), "elbow_kmeans"),
        ("k_grid", (0, 1, 2), "elbow_kmeans"),
        ("max_iters", 0, "kmeans max_iters"),
        ("max_iters", 0, "elbow_kmeans max_iters"),
        ("mode", "gat", "train"),
        ("mode", "gat", "BatchBuilder.create"),
        ("per_edge_negatives", 0, "evaluate_split"),
        ("per_edge_negatives", 0, "draw_per_edge_pools"),
        ("eval_split", "train", "EdgeSplit.part"),
        ("eval_split", "train", "evaluate_split which"),
        ("hc_base", "hc", "make_heuristic_scorer"),
    ],
)
def test_validation_and_the_layer_give_one_error(planted, key, value, entry):
    """A bad value fails ``validate`` and the layer entry with the same
    category and message, because both call the one check in ``config``."""
    label_source = {"label_source": "kmeans"} if key == "k_grid" else {}
    with pytest.raises(ClasslinkError) as from_config:
        make_config(**label_source, **{key: value}).validate()
    with pytest.raises(ClasslinkError) as from_layer:
        LAYER_ENTRIES[entry](*planted, value)
    assert from_config.value.category == from_layer.value.category == "config"
    assert str(from_config.value) == str(from_layer.value)
