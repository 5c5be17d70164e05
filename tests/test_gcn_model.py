from __future__ import annotations

import time

import numpy as np
import pytest

from flowgraph.behavior_graph import SnapshotGraph
from flowgraph.errors import MalformedArtefact, NonFiniteLoss
from flowgraph.spectral_gcn import (
    EPOCHS,
    HIDDEN,
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
from oracles import dense_gcn_oracle, dense_operators, gradient_check, graph_from


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
    with pytest.raises(ValueError, match="seed"):
        TrainConfig(seed=-1)
    # a bool or non-integer is refused here, not later as a TypeError in numpy or range
    for name, bad in (("k", {"variant": "chebyshev", "k": 1.5}), ("seed", {"seed": 1.5}),
                      ("seed", {"seed": True})):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            TrainConfig(**bad)


def test_k_defaults_per_variant():
    assert TrainConfig().k == 1
    assert TrainConfig(variant=VARIANT_CHEBYSHEV).k == 3
    assert TrainConfig(variant=VARIANT_CHEBYSHEV, k=2).k == 2


def test_init_shapes():
    assert HIDDEN == 16
    config = TrainConfig(variant=VARIANT_RENORMALIZED)
    renorm = init_model(config)
    assert renorm.config is config
    assert renorm.w0.shape == (8, 16)
    assert renorm.w1.shape == (16, 2)
    # a layer stacks its 4 blocks: w0's 8-row blocks, w1's 2-column blocks
    cheb = init_model(TrainConfig(variant=VARIANT_CHEBYSHEV, k=3))
    assert cheb.w0.shape == (32, 16)
    assert cheb.w1.shape == (16, 8)
    # w0's blocks are drawn first, in order: k = 1's two are k = 3's first two
    assert np.array_equal(cheb.w0[:16], init_model(TrainConfig(variant=VARIANT_CHEBYSHEV, k=1)).w0)


def test_zero_weights_give_uniform_probabilities():
    g = separable_graph(seed=0)
    for variant, k in ((VARIANT_RENORMALIZED, 1), (VARIANT_CHEBYSHEV, 3)):
        model = init_model(TrainConfig(variant=variant, k=k))
        model.w0 = np.zeros_like(model.w0)
        model.w1 = np.zeros_like(model.w1)
        a, x, _ = union_matrices([g])
        operator = build_operator(a, variant)
        _, probs = forward(model, operator, x)
        assert np.array_equal(probs, np.full((g.n_nodes, 2), 0.5))


def test_softmax_rows_sum_to_one():
    g = separable_graph(seed=3)
    model = init_model(TrainConfig(variant=VARIANT_CHEBYSHEV, k=2, seed=5))
    a, x, _ = union_matrices([g])
    operator = build_operator(a, VARIANT_CHEBYSHEV)
    _, probs = forward(model, operator, x)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12


def test_forward_single_node_by_hand():
    g = graph_from([[2.0, -3.0, 0, 0, 0, 0, 0, 0]], [0])
    model = GcnModel(TrainConfig(), np.zeros((8, 2)), np.zeros((2, 2)))
    model.w0[0, 0] = 1.0  # hidden0 = f1
    model.w0[1, 1] = 1.0  # hidden1 = f2
    model.w1[0, 0] = 1.0
    model.w1[0, 1] = -1.0
    a, x, _ = union_matrices([g])
    operator = build_operator(a, VARIANT_RENORMALIZED)
    assert np.array_equal(operator @ np.eye(1), [[1.0]])
    scores, probs = forward(model, operator, x)
    # relu([2, -3]) = [2, 0]; scores = [2, -2]
    assert np.array_equal(scores, [[2.0, -2.0]])
    expected = np.exp([2.0, -2.0])
    expected /= expected.sum()
    assert np.allclose(probs, [expected], atol=1e-15)


def rel_err(got, want) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


@pytest.mark.parametrize("hidden", [HIDDEN, 2])
@pytest.mark.parametrize("variant, k", [(VARIANT_RENORMALIZED, 1)]
                         + [(VARIANT_CHEBYSHEV, k) for k in (1, 2, 3, 5)])
def test_forward_and_gradients_match_the_dense_oracle(variant, k, hidden):
    """Scores, loss and every gradient block within 1e-12 of the dense oracle's, which
    propagates each layer's input before its weights; a graph with self-loops, a
    reciprocal pair, a node whose only edge is its self-loop and two isolated nodes."""
    rng = np.random.default_rng(k + 10 * hidden)
    edges = [(0, 1, 1), (1, 0, 2), (1, 2, 1), (2, 0, 1), (3, 3, 4), (3, 4, 1), (5, 5, 1),
             (7, 8, 3), (8, 2, 1)]
    # centred features, so that the relu lets some hidden values through and stops others
    g = graph_from(rng.normal(size=(10, 8)), [0, 1, 0, 0, 1, 0, 0, 1, 0, 1], edges)
    blocks = 1 if variant == VARIANT_RENORMALIZED else k + 1
    model = GcnModel(TrainConfig(variant=variant, k=k),
                     np.concatenate([rng.normal(size=(8, hidden)) for _ in range(blocks)]),
                     np.concatenate([rng.normal(size=(hidden, 2)) for _ in range(blocks)], axis=1))
    z1 = sum(t @ g.features @ w
             for t, w in zip(dense_operators(model, g), np.split(model.w0, blocks)))
    assert 0.0 < (z1 > 0).mean() < 1.0
    weights = inverse_frequency_weights(g.labels)
    a, x, y = union_matrices([g])
    operator = build_operator(a, variant)
    scores, _ = forward(model, operator, x)
    loss, gw0, gw1 = loss_and_grads(model, operator, propagate(model, operator, x), y, weights)
    want_scores, want_loss, want_gw0, want_gw1 = dense_gcn_oracle(model, g, weights)
    assert rel_err(scores, want_scores) <= 1e-12
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    for got, want in ((gw0, want_gw0), (gw1, want_gw1)):  # relative to the layer's largest
        assert got.shape == want.shape and rel_err(got, want) <= 1e-12


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
        model, losses = train(graphs, TrainConfig(variant=variant, k=k, seed=0))
        assert losses[9] < losses[0]
        metrics = evaluate(model, graphs)
        assert metrics.accuracy >= 0.99, variant


def test_first_loss_is_weighted_cross_entropy_of_the_init():
    g = separable_graph(seed=1)
    config = TrainConfig(variant=VARIANT_RENORMALIZED)
    before = init_model(config)  # train starts from the same seeded init
    _, losses = train([g], config)
    assert len(losses) == EPOCHS
    # the loss train reports first is the weighted cross-entropy of the init's forward pass
    a, x, y = union_matrices([g])
    _, probs = forward(before, build_operator(a, config.variant), x)
    sample_w = np.asarray(inverse_frequency_weights(y))[y]
    expected = -(sample_w * np.log(probs[np.arange(len(y)), y])).sum() / sample_w.sum()
    assert losses[0] == pytest.approx(float(expected), rel=1e-12)


def test_gradient_check_renormalized():
    g = separable_graph(seed=4, n_per_class=2)  # 4 nodes
    model = init_model(TrainConfig(variant=VARIANT_RENORMALIZED, seed=7))
    assert gradient_check(model, g) < 1e-5


def test_gradient_check_chebyshev():
    g = separable_graph(seed=9, n_per_class=3)  # 6 nodes
    g.nodes, g.labels, g.features = g.nodes[:5], g.labels[:5], g.features[:5]
    g.edges = g.edges[(g.edges[:, :2] < 5).all(axis=1)]
    model = init_model(TrainConfig(variant=VARIANT_CHEBYSHEV, k=3, seed=7))
    assert gradient_check(model, g) < 1e-5


def test_zero_features_zero_first_layer_gradient():
    g = graph_from(np.zeros((4, 8)), [0, 1, 0, 1], [(0, 1, 1), (2, 3, 1)])
    for variant, k in ((VARIANT_RENORMALIZED, 1), (VARIANT_CHEBYSHEV, 2)):
        model = init_model(TrainConfig(variant=variant, k=k, seed=3))
        a, x, y = union_matrices([g])
        operator = build_operator(a, variant)
        _, gw0, _ = loss_and_grads(model, operator, propagate(model, operator, x), y,
                                   (1.0, 1.0))
        assert np.array_equal(gw0, np.zeros_like(gw0))


def test_divergence_raises_non_finite_loss():
    g = separable_graph(seed=2)
    g.features *= 1e150  # the first step's gradient is that large, and the second loss overflows
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteLoss) as err:
            train([g], TrainConfig(variant=VARIANT_RENORMALIZED))
    assert err.value.epoch >= 0


def test_training_is_bit_reproducible():
    graphs = [separable_graph(seed=s, index=s) for s in range(3)]
    config = TrainConfig(variant=VARIANT_CHEBYSHEV, k=2, seed=11)
    model1, trace1 = train(graphs, config)
    model2, trace2 = train(graphs, config)
    assert trace1 == trace2
    assert np.array_equal(model1.w0, model2.w0) and np.array_equal(model1.w1, model2.w1)


def test_save_load_round_trip(tmp_path):
    for variant, k in ((VARIANT_RENORMALIZED, 1), (VARIANT_CHEBYSHEV, 3)):
        model, _ = train([separable_graph(seed=5)], TrainConfig(variant=variant, k=k, seed=1))
        path = tmp_path / f"{variant}.txt"
        save_model(path, model)
        back = load_model(path)
        assert back.config == model.config == TrainConfig(variant=variant, k=k, seed=1)
        assert np.array_equal(back.w0, model.w0) and np.array_equal(back.w1, model.w1)


@pytest.mark.parametrize("variant, k", [(VARIANT_RENORMALIZED, 1)]
                         + [(VARIANT_CHEBYSHEV, k) for k in (1, 2, 5)])
def test_resaving_a_loaded_model_rewrites_its_bytes(tmp_path, variant, k):
    model, _ = train([separable_graph(seed=5)], TrainConfig(variant=variant, k=k, seed=2))
    path, again = tmp_path / "model.txt", tmp_path / "again.txt"
    save_model(path, model)
    save_model(again, load_model(path))
    assert again.read_bytes() == path.read_bytes()


def test_load_rejects_other_files(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("something else\n")
    with pytest.raises(ValueError):
        load_model(path)


def test_load_refuses_empty_and_truncated_files(tmp_path):
    model, _ = train([separable_graph(seed=5)], TrainConfig(variant=VARIANT_CHEBYSHEV, k=2))
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
    model, _ = train([separable_graph(seed=5)], TrainConfig(variant=VARIANT_CHEBYSHEV, k=3))
    path = tmp_path / "model.txt"
    save_model(path, model)
    text = path.read_text()
    assert "\nvariant chebyshev\nk 3\nhidden 16\nseed 0\nblocks 4\n" in text
    weight = text.split("\nw0 0 8 16\n", 1)[1].split(" ", 1)[0]  # the first weight's text
    edits = [("variant chebyshev", "variant bogus"), ("\nk 3\n", "\nk 7\n"),
             ("\nk 3\n", "\nk 2\n"), ("\nk 3\n", "\nk 0\n"),
             ("hidden 16", "hidden 15"), ("hidden 16", "hidden 0"), ("hidden 16", "hidden 4"),
             ("\nseed 0\n", "\nseed -3\n"),
             ("variant chebyshev", "variant renormalized"),
             ("variant chebyshev\nk 3", "variant renormalized\nk 1"),
             ("\nw1 0 16 2\n", "\nw0 4 16 2\n"),  # a w1 block read as a fifth w0 block
             ("\nw0 1 8 16\n", "\nw0 7 8 16\n"),  # blocks are numbered 0, 1, ... in order
             # counts, k and seed are ASCII decimal; no text holds '_' or other digits
             ("hidden 16", "hidden +16"), ("hidden 16", "hidden 016"), ("\nk 3\n", "\nk 0_3\n"),
             ("\nk 3\n", "\nk \u0663\n"), ("\nseed 0\n", "\nseed +0\n"),
             ("blocks 4", "blocks +4"), ("\nw0 0 8 16\n", "\nw0 0 8 1_6\n"),
             ("\nw0 0 8 16\n", "\nw0 0 +8 16\n"),
             ("\nw0 0 8 16\n" + weight, "\nw0 0 8 16\n" + weight.replace(".", "_0.", 1)),
             ("\nw0 0 8 16\n" + weight, "\nw0 0 8 16\n\u0661" + weight),
             # save_model never writes a weight that is not finite
             *(("\nw0 0 8 16\n" + weight, "\nw0 0 8 16\n" + bad)
               for bad in ("nan", "inf", "-inf", "1e400")),
             ("\nw1 3 16 2\n", "\nw1 3 16 2\nnan ")]
    for old, new in edits:
        path.write_text(text.replace(old, new, 1))
        with pytest.raises(MalformedArtefact, match="model.txt"):
            load_model(path)


def test_load_refuses_other_spellings_of_a_weight(tmp_path):
    """Only repr's spelling of each weight, one space apart, is the text save_model writes."""
    model, _ = train([separable_graph(seed=5)], TrainConfig(variant=VARIANT_CHEBYSHEV, k=2))
    path = tmp_path / "model.txt"
    save_model(path, model)
    text = path.read_text()
    row = text.split("\nw0 0 8 16\n", 1)[1].split("\n", 1)[0]  # the first weight row
    first, rest = row.split(" ", 1)
    path.write_text(text.replace(row, f"0.5 {rest}", 1))
    assert load_model(path).w0[0, 0] == 0.5
    for bad in (f"0.50 {rest}", f"+0.5 {rest}", f"5e-1 {rest}", f".5 {rest}", f"0.5  {rest}",
                f"0.5 {rest} ", f"0.5\t{rest}"):
        path.write_text(text.replace(row, bad, 1))
        with pytest.raises(MalformedArtefact, match=r"model\.txt.*line 8 reads"):
            load_model(path)


def test_load_names_a_row_with_the_wrong_count_of_numbers(tmp_path):
    """A row with a number too many or too few is refused by its line number."""
    model, _ = train([separable_graph(seed=5)], TrainConfig(variant=VARIANT_CHEBYSHEV, k=3))
    path = tmp_path / "model.txt"
    save_model(path, model)
    lines = path.read_text().split("\n")
    assert lines[6] == "w0 0 8 16" and lines[42] == "w1 0 16 2"
    for at, width in ((8, 16), (47, 2)):  # w0 block 0's first row, w1 block 0's fourth
        row = lines[at - 1]
        for bad, count in ((f"nan {row}", width + 1), (row.split(" ", 1)[1], width - 1)):
            path.write_text("\n".join(lines[:at - 1] + [bad] + lines[at:]))
            with pytest.raises(MalformedArtefact,
                               match=rf"model\.txt.*line {at} holds {count} numbers, not {width}"):
                load_model(path)


@pytest.mark.parametrize("at, edit", [
    (8, lambda row: "abc " + row.split(" ", 1)[1]),  # w0 block 0's first weight
    (3, lambda row: "k abc"), (5, lambda row: "seed x"),
    (2, lambda row: "variant"), (6, lambda row: "blocks"),
], ids=["weight", "k", "seed", "variant", "blocks"])
def test_load_names_the_line_of_a_value_that_does_not_parse(tmp_path, at, edit):
    model, _ = train([separable_graph(seed=5)], TrainConfig(variant=VARIANT_RENORMALIZED))
    path = tmp_path / "model.txt"
    save_model(path, model)
    lines = path.read_text().split("\n")
    path.write_text("\n".join(lines[:at - 1] + [edit(lines[at - 1])] + lines[at:]))
    with pytest.raises(MalformedArtefact, match=rf"model\.txt.*\bline {at}\b"):
        load_model(path)


def test_load_counts_lines_before_it_builds_weights(tmp_path):
    """A header whose k asks for billions of blocks is refused by its line count at once."""
    path = tmp_path / "model.txt"
    path.write_text("gcn-model v1\nvariant chebyshev\nk 4000000000\nhidden 16\nseed 0\n"
                    "blocks 4000000001\n")
    started = time.perf_counter()
    with pytest.raises(MalformedArtefact, match="model.txt"):
        load_model(path)
    assert time.perf_counter() - started < 1.0


def permuted_graph(g, perm):
    """The graph whose node i is node perm[i] of g."""
    new_index = np.argsort(perm)
    return SnapshotGraph(snapshot=g.snapshot, nodes=[g.nodes[i] for i in perm],
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
    model.w0 = np.zeros_like(model.w0)
    model.w1 = np.zeros_like(model.w1)
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
    model.w0 = np.zeros_like(model.w0)
    model.w1 = np.zeros_like(model.w1)
    m = evaluate(model, [g])
    assert m.balanced_accuracy == 1.0  # only class 0 present, fully recalled


def test_evaluate_refuses_an_empty_list():
    """A union of no graphs has no feature width: evaluate refuses it as train does, while
    a list of one empty graph gives zero-node metrics, for either variant."""
    model = init_model(TrainConfig())
    for call in (lambda: evaluate(model, []), lambda: train([], TrainConfig()),
                 lambda: union_matrices([])):
        with pytest.raises(ValueError, match="need at least one graph"):
            call()
    for variant in (VARIANT_RENORMALIZED, VARIANT_CHEBYSHEV):
        m = evaluate(init_model(TrainConfig(variant=variant)), [graph_from(np.zeros((0, 8)), [])])
        assert (m.n_nodes, m.accuracy, m.balanced_accuracy) == (0, 0.0, 0.0), variant


def test_train_input_validation():
    with pytest.raises(ValueError):
        train([], TrainConfig())
    empty = graph_from(np.zeros((0, 8)), [])
    with pytest.raises(ValueError):
        train([empty], TrainConfig())
