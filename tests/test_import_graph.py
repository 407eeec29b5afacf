"""No path of the package loads scipy.

The selectors under every sparsity family, ``best_replacement``, online
rounds, OMP evaluation and the CLI run in Gram form on numpy alone, and
the thin-QR reference solve (``ls_solve``, ``SupportFactorization.solve``)
back-substitutes in numpy; scipy is a test dependency only.  The check
runs in a fresh interpreter because the test session itself loads scipy.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import dictsel

SCRIPT = textwrap.dedent(
    """
    import sys

    import numpy as np

    import dictsel
    import dictsel.cli
    from dictsel import AverageSparsity, BlockSparsity, IndividualSparsity, PartitionMatroid, SelectorConfig
    from dictsel import assemble, best_replacement, dct2_basis, haar2_basis, ls_solve, modular_greedy
    from dictsel import online_round, online_state, replacement_greedy, replacement_omp
    from dictsel.data_io import synth_dataset
    from dictsel.online import METHODS

    gs = assemble([("dct2", dct2_basis(4)), ("haar2", haar2_basis(4))])
    data = synth_dataset(gs, 12, 6, 2, seed=0)
    caps = IndividualSparsity(2)
    romp = replacement_omp(data, gs, caps, SelectorConfig(k=6))
    replacement_omp(data, gs, AverageSparsity.uniform(12, 3, 24), SelectorConfig(k=6))
    replacement_omp(data, gs, BlockSparsity((tuple(range(6)), tuple(range(6, 12))), (3, 3)), SelectorConfig(k=6))
    replacement_omp(data, gs, PartitionMatroid.uniform(12, gs.n, 2), SelectorConfig(k=6))
    best_replacement(AverageSparsity((2, 2), 3), [[0, 1], [2]], 3, np.array([0.5, 0.25]), [np.ones(2), np.ones(1)])
    replacement_greedy(data, gs, caps, 6)
    modular_greedy(data, gs, 6, 2)
    for method in METHODS:
        state = online_state(method, gs, 4, 2, horizon=3, seed=0)
        for t in range(3):
            online_round(state, data.matrix[:, t], gs)
    dictsel.cli.residual_variance(gs.matrix[:, romp.atoms], data, 2)
    assert "scipy" not in sys.modules, "scipy loaded by the runtime paths"

    a = gs.matrix
    y = data.matrix[:, 0]
    support = [1, 5, 9]
    w = ls_solve(a, support, y)
    normal = np.linalg.solve(a[:, support].T @ a[:, support], a[:, support].T @ y)
    assert np.abs(w[support] - normal).max() <= 1e-10, (w[support], normal)
    assert not np.delete(w, support).any()
    assert "scipy" not in sys.modules, "scipy loaded by ls_solve"
    """
)


def test_runtime_paths_do_not_import_scipy():
    src = str(Path(dictsel.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n{SCRIPT}"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
