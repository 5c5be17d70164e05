from __future__ import annotations

import numpy as np
import pytest

from flowgraph.behavior_graph import SnapshotGraph
from flowgraph.errors import MalformedArtefact, NonFiniteLoss
from flowgraph.spectral_gcn import (
    VARIANT_CHEBYSHEV,
    VARIANT_RENORMALIZED,
    EdgeOperator,
    GcnModel,
    TrainConfig,
    build_operator,
    evaluate,
    forward,
    init_model,
    inverse_frequency_weights,
    load_model,
    loss_and_grads,
    propagate,
    save_model,
    train,
    union_matrices,
)
from oracles import gradient_check, graph_from


def separable_graph(seed: int, n_per_class: int = 8, index: int = 0):
    """Two groups whose features point along different axes.

    Class 0 lives in the first four dimensions, class 1 in the last
    four; a bias-free two-layer net can separate directions (not mere
    scale), so this is the canonical learnable task.
    """
    rng = np.random.default_rng(seed)
    f0 = np.hstack([rng.uniform(0.7, 1.0, size=(n_per_class, 4)),
                    rng.uniform(0.0, 0.1, size=(n_per_class, 4))])
    f1 = np.hstack([rng.uniform(0.0, 0.1, size=(n_per_class, 4)),
                    rng.uniform(0.7, 1.0, size=(n_per_class, 4))])
    features = np.vstack([f0, f1])
    labels = [0] * n_per_class + [1] * n_per_class
    edges = [(i, i + 1, 1) for i in range(n_per_class - 1)]
    edges += [(n_per_class + i, n_per_class + i + 1, 1) for i in range(n_per_class - 1)]
    return graph_from(features, labels, edges, index=index)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(variant="renormalized", k=2)
    with pytest.raises(ValueError):
        TrainConfig(variant="spectral-free")
    with pytest.raises(ValueError):
        TrainConfig(variant="chebyshev", k=0)
    with pytest.raises(ValueError):
        TrainConfig(hidden=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-0.1)


def test_init_shapes():
    renorm = init_model(TrainConfig(variant=VARIANT_RENORMALIZED, hidden=16))
    assert renorm.n_blocks == 1
    assert renorm.w0[0].shape == (8, 16)
    assert renorm.w1[0].shape == (16, 2)
    cheb = init_model(TrainConfig(variant=VARIANT_CHEBYSHEV, k=3, hidden=5))
    assert cheb.n_blocks == 4
    assert all(w.shape == (8, 5) for w in cheb.w0)
    assert all(w.shape == (5, 2) for w in cheb.w1)


def test_zero_weights_give_uniform_probabilities():
    g = separable_graph(seed=0)
    for variant, k in ((VARIANT_RENORMALIZED, 1), (VARIANT_CHEBYSHEV, 3)):
        model = init_model(TrainConfig(variant=variant, k=k, hidden=4))
        model.w0 = [np.zeros_like(w) for w in model.w0]
        model.w1 = [np.zeros_like(w) for w in model.w1]
        a, x, _ = union_matrices([g])
        operator = build_operator(a, variant)
        _, probs = forward(model, operator, x)
        assert np.array_equal(probs, np.full((g.n_nodes, 2), 0.5))


def test_softmax_rows_sum_to_one():
    g = separable_graph(seed=3)
    model = init_model(TrainConfig(variant=VARIANT_CHEBYSHEV, k=2, hidden=7, seed=5))
    a, x, _ = union_matrices([g])
    operator = build_operator(a, VARIANT_CHEBYSHEV)
    _, probs = forward(model, operator, x)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12


def test_forward_single_node_by_hand():
    g = graph_from([[2.0, -3.0, 0, 0, 0, 0, 0, 0]], [0])
    model = GcnModel(variant=VARIANT_RENORMALIZED, k=1, hidden=2, seed=0,
                     w0=[np.zeros((8, 2))], w1=[np.zeros((2, 2))])
    model.w0[0][0, 0] = 1.0  # hidden0 = f1
    model.w0[0][1, 1] = 1.0  # hidden1 = f2
    model.w1[0][0, 0] = 1.0
    model.w1[0][0, 1] = -1.0
    a, x, _ = union_matrices([g])
    operator = build_operator(a, VARIANT_RENORMALIZED)
    assert np.array_equal(operator @ np.eye(1), [[1.0]])
    scores, probs = forward(model, operator, x)
    # relu([2, -3]) = [2, 0]; scores = [2, -2]
    assert np.array_equal(scores, [[2.0, -2.0]])
    expected = np.exp([2.0, -2.0])
    expected /= expected.sum()
    assert np.allclose(probs, [expected], atol=1e-15)


def test_inverse_frequency_weights():
    assert inverse_frequency_weights(np.array([0, 1, 0, 1])) == (1.0, 1.0)
    w = inverse_frequency_weights(np.array([0, 0, 0, 1]))
    assert w == (4 / 6, 4 / 2)
    # all-one-class: the absent class count is clamped, not divided by zero
    w0, w1 = inverse_frequency_weights(np.array([0, 0]))
    assert np.isfinite(w0) and np.isfinite(w1)


def test_unit_class_weights_equal_plain_mean_cross_entropy():
    g = separable_graph(seed=6)
    model = init_model(TrainConfig(variant=VARIANT_RENORMALIZED, seed=2))
    a, x, y = union_matrices([g])
    operator = build_operator(a, VARIANT_RENORMALIZED)
    loss, _, _ = loss_and_grads(model, operator, propagate(model, operator, x), y, (1.0, 1.0))
    _, probs = forward(model, operator, x)
    manual = float(-np.log(probs[np.arange(len(y)), y]).mean())
    assert loss == pytest.approx(manual, rel=1e-12)


def test_loss_decreases_early_and_task_is_learned():
    graphs = [separable_graph(seed=s, index=s) for s in range(4)]
    for variant, k in ((VARIANT_RENORMALIZED, 1), (VARIANT_CHEBYSHEV, 3)):
        config = TrainConfig(variant=variant, k=k, epochs=200,
                             learning_rate=0.05, seed=0)
        model, losses = train(graphs, config)
        assert losses[9] < losses[0]
        metrics = evaluate(model, graphs)
        assert metrics.accuracy >= 0.99, variant


def test_zero_learning_rate_keeps_weights():
    g = separable_graph(seed=1)
    config = TrainConfig(variant=VARIANT_RENORMALIZED, epochs=1, learning_rate=0.0)
    before = init_model(config)  # train starts from the same seeded init
    after, losses = train([g], config)
    assert len(losses) == 1
    for w, original in zip(after.w0 + after.w1, before.w0 + before.w1):
        assert np.array_equal(w, original)
    # the loss train reports is the weighted cross-entropy of the forward pass
    a, x, y = union_matrices([g])
    _, probs = forward(before, build_operator(a, config.variant), x)
    sample_w = np.asarray(inverse_frequency_weights(y))[y]
    expected = -(sample_w * np.log(probs[np.arange(len(y)), y])).sum() / sample_w.sum()
    assert losses[0] == pytest.approx(float(expected), rel=1e-12)


def test_gradient_check_renormalized():
    g = separable_graph(seed=4, n_per_class=2)  # 4 nodes
    model = init_model(TrainConfig(variant=VARIANT_RENORMALIZED, hidden=3, seed=7))
    assert gradient_check(model, g) < 1e-5


def test_gradient_check_chebyshev():
    g = separable_graph(seed=9, n_per_class=3)  # 6 nodes
    g.entities, g.labels, g.features = g.entities[:5], g.labels[:5], g.features[:5]
    g.edges = g.edges[(g.edges[:, :2] < 5).all(axis=1)]
    model = init_model(TrainConfig(variant=VARIANT_CHEBYSHEV, k=3, hidden=3, seed=7))
    assert gradient_check(model, g) < 1e-5


def test_zero_features_zero_first_layer_gradient():
    g = graph_from(np.zeros((4, 8)), [0, 1, 0, 1], [(0, 1, 1), (2, 3, 1)])
    for variant, k in ((VARIANT_RENORMALIZED, 1), (VARIANT_CHEBYSHEV, 2)):
        model = init_model(TrainConfig(variant=variant, k=k, seed=3))
        a, x, y = union_matrices([g])
        operator = build_operator(a, variant)
        _, gw0, _ = loss_and_grads(model, operator, propagate(model, operator, x), y,
                                   (1.0, 1.0))
        for g0 in gw0:
            assert np.array_equal(g0, np.zeros_like(g0))


def test_divergence_raises_non_finite_loss():
    g = separable_graph(seed=2)
    config = TrainConfig(variant=VARIANT_RENORMALIZED, epochs=10,
                         learning_rate=1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteLoss) as err:
            train([g], config)
    assert err.value.epoch >= 0


def test_training_is_bit_reproducible():
    graphs = [separable_graph(seed=s, index=s) for s in range(3)]
    config = TrainConfig(variant=VARIANT_CHEBYSHEV, k=2, epochs=30, seed=11)
    model1, trace1 = train(graphs, config)
    model2, trace2 = train(graphs, config)
    assert trace1 == trace2
    for w1, w2 in zip(model1.w0 + model1.w1, model2.w0 + model2.w1):
        assert np.array_equal(w1, w2)


def test_save_load_round_trip(tmp_path):
    for variant, k in ((VARIANT_RENORMALIZED, 1), (VARIANT_CHEBYSHEV, 3)):
        model, _ = train([separable_graph(seed=5)],
                         TrainConfig(variant=variant, k=k, epochs=5, seed=1))
        path = tmp_path / f"{variant}.txt"
        save_model(path, model)
        back = load_model(path)
        assert (back.variant, back.k, back.hidden, back.seed) \
            == (model.variant, model.k, model.hidden, model.seed)
        for w1, w2 in zip(back.w0 + back.w1, model.w0 + model.w1):
            assert np.array_equal(w1, w2)


def test_load_rejects_other_files(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("something else\n")
    with pytest.raises(ValueError):
        load_model(path)


def test_load_refuses_empty_and_truncated_files(tmp_path):
    model, _ = train([separable_graph(seed=5)],
                     TrainConfig(variant=VARIANT_CHEBYSHEV, k=2, hidden=2, epochs=1))
    path = tmp_path / "model.txt"
    save_model(path, model)
    text = path.read_text()
    first_line = len("gcn-model v1\n")
    # empty, every cut after the header line, and a line after the weights
    for bad in [""] + [text[:cut] for cut in range(first_line, len(text))] + [text + "0.5\n"]:
        path.write_text(bad)
        with pytest.raises(MalformedArtefact, match="model.txt") as err:
            load_model(path)
        if not bad.endswith("\n"):
            assert ("empty file" if not bad else "no newline at end of file") in str(err.value)


def test_load_refuses_a_header_the_weights_do_not_fit(tmp_path):
    model, _ = train([separable_graph(seed=5)],
                     TrainConfig(variant=VARIANT_CHEBYSHEV, k=3, hidden=4, epochs=1))
    path = tmp_path / "model.txt"
    save_model(path, model)
    text = path.read_text()
    assert "\nvariant chebyshev\nk 3\nhidden 4\n" in text and "\nblocks 4\n" in text
    edits = [("variant chebyshev", "variant bogus"), ("\nk 3\n", "\nk 7\n"),
             ("\nk 3\n", "\nk 2\n"), ("\nk 3\n", "\nk 0\n"),
             ("hidden 4", "hidden 5"), ("hidden 4", "hidden 0"),
             ("variant chebyshev", "variant renormalized"),
             ("variant chebyshev\nk 3", "variant renormalized\nk 1"),
             ("\nw1 0 4 2\n", "\nw0 4 4 2\n")]  # a w1 block read as a fifth w0 block
    for old, new in edits:
        path.write_text(text.replace(old, new, 1))
        with pytest.raises(MalformedArtefact, match="model.txt"):
            load_model(path)


def permuted_graph(g, perm):
    """The graph whose node i is node perm[i] of g."""
    new_index = np.argsort(perm)
    return SnapshotGraph(snapshot=g.snapshot, entities=[g.entities[i] for i in perm],
                         labels=g.labels[perm], features=g.features[perm],
                         edges=np.column_stack([new_index[g.edges[:, :2]], g.edges[:, 2]]))


def permuted_operator(op, perm):
    """P op P^T for P = I[perm], kept in row-sorted triplet form."""
    new_index = np.argsort(perm)
    rows, cols = new_index[op.rows], new_index[op.cols]
    order = np.lexsort((cols, rows))
    return EdgeOperator(op.n, rows[order], cols[order], op.vals[order])


def test_permutation_equivariance_renormalized():
    rng = np.random.default_rng(13)
    g = separable_graph(seed=13)
    model = init_model(TrainConfig(variant=VARIANT_RENORMALIZED, seed=4))
    a, x, _ = union_matrices([g])
    operator = build_operator(a, VARIANT_RENORMALIZED)
    scores, probs = forward(model, operator, x)
    for _ in range(5):
        perm = rng.permutation(g.n_nodes)
        p = np.eye(g.n_nodes)[perm]
        a_p, x_p, _ = union_matrices([permuted_graph(g, perm)])
        assert np.array_equal(x_p, p @ x)
        operator_p = build_operator(a_p, VARIANT_RENORMALIZED)
        scores_p, probs_p = forward(model, operator_p, x_p)
        assert np.abs(scores_p - p @ scores).max() < 1e-12
        assert np.abs(probs_p - p @ probs).max() < 1e-12


def test_permutation_equivariance_chebyshev_operator():
    # the network is exactly equivariant given a consistently permuted
    # operator; rebuilding L~ from scratch re-estimates lambda_max with
    # a fixed-seed start vector, which is only permutation-invariant up
    # to the power-iteration tolerance, so the operator is permuted
    # directly here
    rng = np.random.default_rng(17)
    g = separable_graph(seed=17)
    model = init_model(TrainConfig(variant=VARIANT_CHEBYSHEV, k=3, seed=4))
    a, x, _ = union_matrices([g])
    operator = build_operator(a, VARIANT_CHEBYSHEV)
    scores, _ = forward(model, operator, x)
    for _ in range(5):
        perm = rng.permutation(g.n_nodes)
        p = np.eye(g.n_nodes)[perm]
        operator_p = permuted_operator(operator, perm)
        assert np.array_equal(operator_p @ np.eye(g.n_nodes),
                              p @ (operator @ np.eye(g.n_nodes)) @ p.T)
        scores_p, _ = forward(model, operator_p, p @ x)
        assert np.abs(scores_p - p @ scores).max() < 1e-12


def test_evaluate_known_predictions():
    g = graph_from(np.zeros((4, 8)), [0, 0, 1, 1])
    model = init_model(TrainConfig(variant=VARIANT_RENORMALIZED))
    model.w0 = [np.zeros_like(model.w0[0])]
    model.w1 = [np.zeros_like(model.w1[0])]
    # zero scores -> argmax picks class 0 everywhere
    m = evaluate(model, [g])
    assert m.accuracy == 0.5
    assert m.recall == (1.0, 0.0)
    assert m.precision == (0.5, 0.0)
    assert m.balanced_accuracy == 0.5
    assert m.n_nodes == 4
    as_dict = m.as_dict()
    assert as_dict["balanced_accuracy"] == 0.5
    assert as_dict["n_nodes"] == 4


def test_balanced_accuracy_skips_absent_classes():
    g = graph_from(np.zeros((3, 8)), [0, 0, 0])
    model = init_model(TrainConfig(variant=VARIANT_RENORMALIZED))
    model.w0 = [np.zeros_like(model.w0[0])]
    model.w1 = [np.zeros_like(model.w1[0])]
    m = evaluate(model, [g])
    assert m.balanced_accuracy == 1.0  # only class 0 present, fully recalled


def test_train_input_validation():
    with pytest.raises(ValueError):
        train([], TrainConfig())
    empty = graph_from(np.zeros((0, 8)), [])
    with pytest.raises(ValueError):
        train([empty], TrainConfig())
