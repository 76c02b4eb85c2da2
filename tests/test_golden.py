"""Golden digests of ``report_rows.csv`` for handcrafted and learned ``bench``
runs and of a short training run.

The rows are meant to stay byte-identical across changes that only make the
program faster: a kernel that sums in another order changes the last bits of
``objective`` or ``binary_score`` and so the digest. The same holds for the
training losses and parameters, which pass through every operation of the
autodiff tape forward and backward. The digests were taken with numpy 2.4.6
and scipy 1.17.1 (Python 3.11, x86-64): the ``bench`` ones before the CSR
product, the vectorised geometric features and the per-edge kernel grid
replaced their slower forms, the training one before the incidence-matrix
scatter replaced ``np.add.at`` on the tape, the learned one before the
operator layout moved into ``graphs.edge_pairs`` and
``SparseAffinity.symmetric``. Another numpy or scipy may round
differently; re-take the digests there from the commit before a change,
never from the change itself.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from probmatch.cli import main
from probmatch.graphs import synthesize_pair
from probmatch.predictor import LossConfig, PredictorConfig, train
from probmatch.solvers import SolverConfig


@pytest.mark.parametrize("argv, digest", [
    (["--n", "8", "--noise", "0.01", "0.03", "--instances", "100"],
     "ae825a2c94cba46a265c459b596b846ad1578e264c52d2364f5ab8762f3d9e11"),
    (["--n", "50", "--noise", "0.01", "--instances", "10"],
     "8a9baf925653d37dc5211b0c56b197021f7478bae7d8066004a02dbc941c203d"),
], ids=["n8", "n50"])
def test_handcrafted_report_rows_match_golden_digest(tmp_path, capsys, argv, digest):
    assert main(["bench", *argv, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    rows = (tmp_path / "report_rows.csv").read_bytes()
    assert hashlib.sha256(rows).hexdigest() == digest


def test_learned_report_rows_match_golden_digest(tmp_path, capsys):
    checkpoint = Path(__file__).resolve().parents[1] / "perfbench" / "predictor.ckpt"
    assert main(["bench", "--n", "8", "--noise", "0.03", "--instances", "100",
                 "--affinity-source", "learned", "--checkpoint", str(checkpoint),
                 "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    rows = (tmp_path / "report_rows.csv").read_bytes()
    digest = "8768923d20bff35a906502ae8f10b5e55d629ead2cac0ed487da37d11e12255b"
    assert hashlib.sha256(rows).hexdigest() == digest


def test_training_losses_and_parameters_match_golden_digest():
    pairs = [synthesize_pair(6, 0.02, seed=s) for s in range(8)]
    store, metrics = train(pairs, PredictorConfig(d_V=8, d_E=8, T=2), SolverConfig(),
                           LossConfig(), epochs=2)
    losses = np.array([m["mean_loss"] for m in metrics])
    digest = hashlib.sha256(losses.tobytes() + store.get_vector().tobytes()).hexdigest()
    assert digest == "77f1609b26ff88f6f7b82b47265d2fe5aa98a202247af7555f1caadcfb0b449c"
