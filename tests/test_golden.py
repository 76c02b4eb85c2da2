"""Golden digests of ``report_rows.csv`` for handcrafted and learned ``bench``
runs, of a short training run, and of what the other commands print or
write: ``compare`` tables, ``solve`` trace JSON, ``gen`` files and the
``gradcheck`` line.

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
``SparseAffinity.symmetric``, the command outputs before the solve record
kept its products and scales. Another numpy or scipy may round
differently; re-take the digests there from the commit before a change,
never from the change itself.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from probmatch.cli import main
from probmatch.graphs import synthesize_pair
from probmatch.predictor import LossConfig, PredictorConfig, train
from probmatch.solvers import SolverConfig

_CHECKPOINT = str(Path(__file__).resolve().parents[1] / "perfbench" / "predictor.ckpt")
_LEARNED = ["--affinity-source", "learned", "--checkpoint", _CHECKPOINT]


def _stdout_digest(capsys, argv, code=0):
    assert main(argv) == code
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


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
    assert main(["bench", "--n", "8", "--noise", "0.03", "--instances", "100", *_LEARNED,
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


@pytest.mark.parametrize("argv, digest", [
    (["--n", "8", "--noise", "0.0", "0.03", "--instances", "50"],
     "3e0470e06a0ee2171cddd25019e1b5449c6b80a2feb65eb7981a7fbdf6228c44"),
    (["--n", "8", "--noise", "0.03", "--instances", "100", *_LEARNED],
     "2ddad950eec9717da529e8fb6c3c30c1158df12c5324bd981fc2083b80b47ba1"),
], ids=["handcrafted", "learned"])
def test_compare_table_matches_golden_digest(capsys, argv, digest):
    assert _stdout_digest(capsys, ["compare", *argv]) == digest


@pytest.mark.parametrize("source, digest", [
    ("handcrafted", "55b1cbda5c74afe1dbb501bb7f9fb1c933326e1ae1ff29f3ace2c670a7a85537"),
    ("learned", "0a5474fdecd24d0957ceb9d39572bae5430ce0b6526c2732e1886bcae30971b4"),
])
def test_solve_trace_matches_golden_digest(tmp_path, capsys, source, digest):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"affinity_source": source, "checkpoint": _CHECKPOINT}))
    argv = ["solve", "--n", "8", "--noise", "0.03", "--seed", "0", "--config", str(config)]
    assert _stdout_digest(capsys, argv) == digest


def test_gen_files_match_golden_digest(tmp_path, capsys):
    assert main(["gen", "--n", "6", "--noise", "0.01", "0.04", "--instances", "3",
                 "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    files = sorted(tmp_path.glob("pair_*.json"))
    assert len(files) == 6
    digest = hashlib.sha256(b"".join(f.name.encode() + f.read_bytes() for f in files))
    assert digest.hexdigest() == "6820be4721089774aea81a366441361aaa46a6dae0a3ded92edcc6bf188ccb49"


@pytest.mark.parametrize("argv, code, digest", [
    (["--n", "3", "--noise", "0.02", "--d", "4", "--T", "2"], 0,
     "c477b37715aff5f68c41d3a9e6b2eccc4b904d76d2135e8b79f3550f8ce7808c"),
    ([], 1,
     "853a5472e0e2c2ca5dfa332ed9e94c2cee857a2c6bc7e22e972b236129f4afec"),
], ids=["readme-example", "old-defaults"])
def test_gradcheck_line_at_step_1e5_matches_golden_digest(capsys, argv, code, digest):
    assert _stdout_digest(capsys, ["gradcheck", *argv, "--step", "1e-5"], code) == digest
