import numpy as np
import pytest

from perfnet.datasets import (
    DatasetError,
    load_dataset,
    partition_agents,
    standardize_features,
    synthetic_agent_shards,
    synthetic_corpus,
)
from perfnet.experiments import build_environment, preset
from perfnet.metrics import write_csv


def test_toy_csv(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text("1.0,2.0,0\n3.5,-1.0,1\n0.0,0.0,1\n")
    x, y = load_dataset(p)
    assert x.shape == (3, 2)
    assert np.array_equal(y, [0.0, 1.0, 1.0])


def test_header_auto_skipped(tmp_path):
    p = tmp_path / "hdr.csv"
    p.write_text("f1,f2,label\n1.0,2.0,0\n3.0,4.0,1\n")
    x, y = load_dataset(p)
    assert x.shape == (2, 2) and list(y) == [0.0, 1.0]


def test_malformed_row_reports_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1.0,2.0,0\n1.0,oops,1\n")
    with pytest.raises(DatasetError, match="bad.csv:2"):
        load_dataset(p)


def test_ragged_row_reports_line(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("1.0,2.0,0\n1.0,1\n")
    with pytest.raises(DatasetError, match="ragged.csv:2"):
        load_dataset(p)


def test_non_binary_label_rejected(tmp_path):
    p = tmp_path / "lab.csv"
    p.write_text("1.0,2.0,0\n1.0,2.0,2\n")
    with pytest.raises(DatasetError, match="label"):
        load_dataset(p)


def test_corpus_scale_round_trip(tmp_path):
    x, y = synthetic_corpus(m=4601, d=48, seed=1)
    p = tmp_path / "corpus.csv"
    write_csv(p, {**{f"x{j}": x[:, j] for j in range(x.shape[1])}, "label": y})
    assert p.read_text().startswith("x0,x1,")
    x2, y2 = load_dataset(p)
    assert x2.shape == (4601, 48)
    assert np.array_equal(y, y2) and np.allclose(x, x2)


def test_dim_selection(tmp_path):
    p = tmp_path / "wide.csv"
    p.write_text("1.0,2.0,3.0,0\n4.0,5.0,6.0,1\n")
    x, _ = load_dataset(p, dim=2)
    assert x.shape == (2, 2) and x[1, 1] == 5.0
    with pytest.raises(DatasetError):
        load_dataset(p, dim=9)


def split_rows(m, *args, **kwargs):
    """``partition_agents`` on a corpus whose one feature is the row id.

    Returns the labels of the corpus and the split; each shard's and the
    test set's feature column names the corpus rows it holds.
    """
    _, y = synthetic_corpus(m=m, d=1, seed=0)
    ids = np.arange(m, dtype=float)[:, None]
    return y, partition_agents(ids, y, *args, standardize=False, **kwargs)


def test_partition_reference_sizes():
    y, (shards, test) = split_rows(4601, n=25, per_agent=138, test_count=1150, seed=3)
    used = np.concatenate([*(x[:, 0] for x, _ in shards), test[0][:, 0]])
    assert len(used) == 4600 and len(set(used)) == 4600  # one row unused
    assert len(shards) == 25 and all(len(x) == len(labels) == 138 for x, labels in shards)
    assert len(test[0]) == len(test[1]) == 1150
    # every label travels with its row
    for x, labels in [*shards, test]:
        assert np.array_equal(labels, y[x[:, 0].astype(int)])


def test_partition_single_agent_owns_everything():
    _, (shards, test) = split_rows(100, n=1, per_agent=100, test_count=0, seed=1)
    assert len(shards) == 1 and len(shards[0][0]) == 100 and len(test[0]) == 0


def test_partition_deterministic():
    _, (a, a_test) = split_rows(300, 5, 40, 50, seed=9)
    _, (b, b_test) = split_rows(300, 5, 40, 50, seed=9)
    assert all(np.array_equal(i[0], j[0]) for i, j in zip(a, b))
    assert np.array_equal(a_test[0], b_test[0])
    _, (_, c_test) = split_rows(300, 5, 40, 50, seed=10)
    assert not np.array_equal(a_test[0], c_test[0])


def test_partition_insufficient_rows_message():
    x, y = synthetic_corpus(m=50, d=4, seed=0)
    with pytest.raises(DatasetError, match="need 60 rows"):
        partition_agents(x, y, n=5, per_agent=10, test_count=10, seed=0)


def test_standardize_uses_train_stats_only():
    x = np.array([[0.0], [2.0], [100.0]])
    out = standardize_features(x, np.array([0, 1]))
    assert out[0, 0] == pytest.approx(-1.0) and out[1, 0] == pytest.approx(1.0)
    assert out[2, 0] == pytest.approx(99.0)


def test_standardize_has_the_bits_of_the_plain_expression():
    x, _ = synthetic_corpus(m=500, d=7, seed=3)
    x[:, 2] = 4.0  # a constant column keeps std 1
    train = np.arange(0, 500, 3)
    mean, std = x[train].mean(axis=0), x[train].std(axis=0)
    std[std == 0] = 1.0
    assert standardize_features(x, train).tobytes() == ((x - mean) / std).tobytes()


def test_synthetic_shards_shapes_and_test_pool():
    shards, (xt, yt) = synthetic_agent_shards(n=4, per_agent=30, d=6,
                                              heterogeneity=0.5, seed=2,
                                              test_per_agent=5)
    assert len(shards) == 4
    assert all(s[0].shape == (30, 6) for s in shards)
    assert xt.shape == (20, 6) and set(np.unique(yt)) <= {0.0, 1.0}


def test_the_config_signal_reaches_per_agent_shards():
    # the per_agent style used to label with a fixed logit scale 2, whatever synthetic.signal said
    cfg = preset("hetero_vs_homo", **{"environment.strategic.synthetic.per_agent": 30,
                                      "environment.strategic.synthetic.dim": 6})
    labels = {}
    for signal in (0.0, 2.0):
        syn = dict(per_agent=30, dim=6, style="per_agent", signal=signal)
        env, (_, test_labels) = build_environment(
            cfg.replace(**{"environment.strategic.synthetic": syn}).environment, seed=0)
        labels[signal] = np.concatenate([env.labels, test_labels])
    assert not np.array_equal(labels[0.0], labels[2.0])
    # the default, 2, labels as the fixed scale did
    env, _ = build_environment(cfg.environment, seed=0)
    assert env.labels.tobytes() == labels[2.0][:env.labels.size].tobytes()
