"""Import hygiene of the ``classlink`` package, read from its source with ``ast``.

Three rules, one test each per module:

* every name a module imports is used in that module (annotations count);
* no module imports a ``_private`` name from another classlink module: what
  two modules share is public;
* no module imports scipy: not when it is imported, not in a function
  body, not for type checking; the tests alone use it.

Two tests run a fresh interpreter. One imports the heuristics, the
backbone and k-means, which must load no scipy. The other builds a graph from dense and CSR features, writes and reads
``graph.json``, and runs k-means, feature aggregation, elbow k-means,
Louvain, ``hc`` over RA and the negative samplers in a fresh interpreter,
which must load neither scipy nor ``numpy.ma`` on the way.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "classlink"
MODULES = sorted(PACKAGE.glob("*.py"))


def imports(tree: ast.Module) -> list[tuple[ast.ImportFrom | ast.Import, str, str]]:
    """``(node, name bound, name imported)`` of every import in the module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.append((node, alias.asname or alias.name.split(".")[0], alias.name))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                found.append((node, alias.asname or alias.name, alias.name))
    return found


def test_the_package_has_modules():
    assert {"graph.py", "heuristics.py", "backbone.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [bound for _, bound, _ in imports(tree) if bound not in used]
    assert not unused, f"{path.name} imports {unused} and never uses them"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_is_imported_from_another_module(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [
        f"{'.' * node.level}{node.module or ''}:{name}"
        for node, _, name in imports(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "classlink")
        and name.startswith("_")
    ]
    assert not private, f"{path.name} imports private names {private}"


def scipy_imports(tree: ast.Module) -> list[str]:
    """The scipy modules imported anywhere in the module: at its top, in a
    function or class body, under ``if TYPE_CHECKING:`` or in a ``try``."""
    modules = [
        imported if isinstance(node, ast.Import) else node.module or ""
        for node, _, imported in imports(tree)
    ]
    return [m for m in modules if m.split(".")[0] == "scipy"]


def test_the_guard_sees_every_import():
    tree = ast.parse(
        "import scipy.sparse as sp\n"
        "from scipy import linalg\n"
        "if TYPE_CHECKING:\n    import scipy.stats\n"
        "else:\n    import scipy.signal\n"
        "try:\n    import scipy.io\nexcept ImportError:\n    pass\n"
        "def f():\n    import scipy.optimize\n"
        "class C:\n    from scipy.special import expit\n"
        "from . import scipy_like\n"
    )
    assert scipy_imports(tree) == [
        "scipy.sparse", "scipy", "scipy.stats", "scipy.signal", "scipy.io",
        "scipy.optimize", "scipy.special",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    """Every layer works on numpy arrays alone, so no module of the package
    imports scipy anywhere."""
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not scipy_imports(tree), f"{path.name} imports {scipy_imports(tree)}"


def test_heuristics_imports_no_scipy_anywhere():
    """The source check above sees only the package's own imports; importing
    the heuristics, the backbone and k-means in a fresh interpreter shows
    that nothing they pull in loads scipy either."""
    script = (
        "import sys\n"
        "import classlink.backbone, classlink.clustering, classlink.heuristics\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_louvain_hc_and_the_negative_samplers_load_no_scipy_or_numpy_ma(tmp_path):
    """A graph built from dense features and from a ``Csr``, ``graph.json``
    written and read back, k-means on a dense array and on a ``Csr``,
    feature aggregation and elbow k-means (with and without row
    normalisation), Louvain, ``hc`` over RA (with and without local
    normalisation), the split's pools, the per-edge pools and the training
    negatives run on numpy arrays with no plain ``np.unique``, which loads
    ``numpy.ma``: in a fresh interpreter they load neither scipy nor
    ``numpy.ma``."""
    rng = np.random.default_rng(0)
    edges, features = tmp_path / "edges.txt", tmp_path / "features.csv"
    edges.write_text("".join(f"{u} {v}\n" for u, v in rng.integers(0, 80, size=(300, 2))))
    rows = (rng.random((80, 12)) < 0.2).astype(int)
    features.write_text("".join(f"{i},{','.join(map(str, r))}\n" for i, r in enumerate(rows)))
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from classlink.clustering import aggregate_features, elbow_kmeans, kmeans, louvain\n"
        "from classlink.csr import Csr\n"
        "from classlink.evaluation import draw_per_edge_pools\n"
        "from classlink.graph import (build_graph, load_graph, load_graph_json,\n"
        "    sample_negatives, save_graph_json, split_edges)\n"
        "from classlink.heuristics import ClassHeuristicParams, make_heuristic_scorer\n"
        "from classlink.priors import count_class_links\n"
        f"g = load_graph({str(edges)!r}, {str(features)!r})\n"
        "assert g.n_nodes == 80 and g.n_features == 12\n"
        "x = Csr(g.feature_indptr, g.feature_indices, g.feature_data, (80, 12))\n"
        "dense = np.zeros((80, 12))\n"
        "dense[np.repeat(np.arange(80), np.diff(x.indptr)), x.indices] = x.data\n"
        "edges = g.undirected_edges()\n"
        "for given in (dense, x):\n"
        "    built = build_graph(80, edges, features=given)\n"
        "    assert built.feature_data.tobytes() == g.feature_data.tobytes()\n"
        "    assert kmeans(given, 3, 1).labels.size == 80\n"
        f"save_graph_json(g, {str(tmp_path / 'graph.json')!r})\n"
        f"g = load_graph_json({str(tmp_path / 'graph.json')!r})\n"
        "assert g.feature_data.tobytes() == x.data.tobytes()\n"
        "split = split_edges(g, (0.8, 0.1, 0.1), 1, negatives=20)\n"
        "train = split.train_graph(g)\n"
        "for unit in (False, True):\n"
        "    km = elbow_kmeans(aggregate_features(train), [1, 2, 3, 4], 1, normalize_rows=unit)\n"
        "    assert km.labels.size == 80 and len(km.ssd_curve) == 4\n"
        "labels = louvain(train, 1)\n"
        "assert labels.k > 1\n"
        "pools = draw_per_edge_pools(train, len(split.test_edges), 5, 1)\n"
        "assert pools.shape == (len(split.test_edges), 5, 2)\n"
        "prior = count_class_links(split.train_edges, labels.labels, labels.k)\n"
        "for local in (False, True):\n"
        "    hc = make_heuristic_scorer('hc', train, prior=prior, labels=labels.labels,\n"
        "        params=ClassHeuristicParams(normalize_locally=local), base='ra')\n"
        "    assert np.isfinite(hc(pools.reshape(-1, 2))).all()\n"
        "assert sample_negatives(train, 50, 3).shape == (50, 2)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        "    or m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
