import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

from lucidnet import Dataset, Network, build_network, input_ref, train_epoch
from lucidnet.training import EpochWorkspace, _predicted_outputs

from sample_reference import forward


def make_dataset(features, labels, class_labels=None, names=None):
    features = np.asarray(features, dtype=float)
    if names is None:
        names = [f"x{k}" for k in range(features.shape[1])]
    if class_labels is None:
        class_labels = sorted(set(labels))
    return Dataset(names, features, list(labels), list(class_labels))


def distinct_groups(ds, net):
    """(dataset of each group's first row, group sizes as floats): the
    rows grouped by their values on the network's active inputs and their
    label, in order of first occurrence, as ``EpochWorkspace`` groups them."""
    groups = {}
    for j, (row, label) in enumerate(zip(ds.features.tolist(), ds.labels)):
        key = (tuple(v for v, on in zip(row, net.active_inputs) if on), label)
        groups.setdefault(key, []).append(j)
    rows = [members[0] for members in groups.values()]
    counts = np.array([len(members) for members in groups.values()], dtype=float)
    return make_dataset(ds.features[rows], [ds.labels[j] for j in rows],
                        ds.class_labels, ds.feature_names), counts


@pytest.fixture
def xor_dataset():
    X = np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]], dtype=float)
    labels = ["neg", "pos", "pos", "neg"]
    return make_dataset(X, labels, class_labels=["pos", "neg"])


RELEVANT = (0, 2, 4, 5, 7)
IRRELEVANT = (1, 3, 6)


def majority_dataset():
    """All 256 ±1 vectors of 8 features; the class is the majority vote of
    the five relevant features, so the three others carry no signal and
    removing any relevant one makes zero training error impossible."""
    rows = np.array(list(itertools.product((-1.0, 1.0), repeat=8)))
    votes = rows[:, list(RELEVANT)].sum(axis=1)
    labels = ["pos" if v > 0 else "neg" for v in votes]
    return make_dataset(rows, labels, class_labels=["pos", "neg"])


@pytest.fixture(scope="session")
def majority_data():
    return majority_dataset()


def neuron_doc(bias, synapses, activation="step", trainable=False):
    """One neuron of a network document; ``synapses`` lists
    (source layer, source index, weight) in slot order."""
    return {
        "bias": {"w": float(bias), "trainable": trainable},
        "synapses": [
            {"src_layer": sl, "src_index": si, "w": float(w), "trainable": trainable}
            for sl, si, w in synapses
        ],
        "activation": activation,
    }


def network_from_layers(input_dim, layers, labels, active_inputs=None):
    """Network from per-layer lists of ``neuron_doc`` dicts."""
    if active_inputs is None:
        active_inputs = [True] * input_dim
    return Network.from_doc({
        "input_dim": input_dim,
        "active_inputs": list(active_inputs),
        "layers": layers,
        "output_labels": list(labels),
    })


def single_neuron_net(weights, bias, activation="step", trainable=False,
                      labels=("P", "O"), input_dim=None):
    input_dim = input_dim or len(weights)
    synapses = [(0, k, w) for k, w in enumerate(weights)]
    neuron = neuron_doc(bias, synapses, activation, trainable)
    return network_from_layers(input_dim, [[neuron]], labels)


def single_question_rule_network():
    """One frozen step neuron encoding the five-question election rule:
    the power party wins on at least two yes answers among questions 3, 4,
    6, and 9, or on one such yes combined with a no on question 8."""
    weights = {2: 1.0, 3: 1.0, 5: 1.0, 7: -1.0, 8: 1.0}  # 0-based features
    neuron = neuron_doc(1.0, [(0, k, w) for k, w in sorted(weights.items())])
    return network_from_layers(12, [[neuron]], ["P", "O"],
                               [k in weights for k in range(12)])


def random_ternary_step_net(rng, n_inputs, hidden_sizes, n_out=1):
    """Frozen random ternary step network; dead fan-outs are possible and
    that is fine for soundness checks."""
    sizes = [n_inputs] + list(hidden_sizes) + [n_out]
    return network_from_layers(
        n_inputs, random_ternary_layers(rng, sizes, "step"),
        ["P", "O"] if n_out == 1 else [f"c{i}" for i in range(n_out)],
    )


def random_ternary_layers(rng, sizes, activation):
    """Fully connected frozen layers with weights drawn from {-1, 0, 1},
    bias first, then the synapses, neuron by neuron."""
    layers = []
    for l in range(1, len(sizes)):
        layer = []
        for _ in range(sizes[l]):
            bias = float(rng.integers(-1, 2))
            synapses = [(l - 1, j, float(rng.integers(-1, 2)))
                        for j in range(sizes[l - 1])]
            layer.append(neuron_doc(bias, synapses, activation))
        layers.append(layer)
    return layers


EDIT_KINDS = ("input", "neuron", "synapse", "freeze")

edit_lists = st.lists(
    st.tuples(st.sampled_from(EDIT_KINDS), st.integers(0, 10**6)), max_size=6
)


def apply_edits(net, edits):
    """Remove or freeze live elements picked by index; after every edit the
    cascade audit must find nothing left to remove."""
    for kind, pick in edits:
        if kind == "input":
            pool = [input_ref(k) for k in net.active_feature_indices()]
        elif kind == "neuron":
            pool = list(net.iter_neurons(hidden_only=True))
        elif kind == "synapse":
            pool = [ref for ref, _, _ in net.iter_weights(with_bias=False)]
        else:
            pool = [ref for ref, _, _ in net.iter_weights()]
        if not pool:
            continue
        ref = pool[pick % len(pool)]
        if kind == "freeze":
            net.set_weight(ref, float(pick % 3 - 1), freeze=True)
        else:
            net.remove_element(ref)
        assert net.audit_structure() == []


def total_loss(net, dataset, loss_kind):
    """Sum of the per-sample losses over the whole training set."""
    return EpochWorkspace(net, dataset, loss_kind).evaluate()[0]


def classify_outputs(outputs, labels):
    """Predicted label per row: argmax over outputs, sign rule for a single
    output, ties to the first label."""
    return [labels[i] for i in _predicted_outputs(outputs).tolist()]


def move_weight(net, ref, value):
    """Set a weight to ``value`` without changing its trainable flag."""
    net.set_weight(ref, value, freeze=not net.is_trainable(ref))


def finite_difference_weight(net, ref, x, d_out, h=1e-4):
    """Central difference of L = outputs . d_out with respect to one weight."""
    w0 = net.weight(ref)

    def value(w):
        move_weight(net, ref, w)
        return float(forward(net, x).outputs @ np.asarray(d_out))

    up = value(w0 + h)
    down = value(w0 - h)
    move_weight(net, ref, w0)
    return (up - down) / (2 * h)


def assert_close_rel(actual, expected, rel=1e-6, abs_tol=1e-9):
    if abs(expected) < abs_tol and abs(actual) < abs_tol:
        return
    err = abs(actual - expected) / max(abs(expected), abs_tol)
    assert err <= rel, f"relative error {err} (actual {actual}, expected {expected})"


def fresh_trained_xor(seed, lr=0.3, momentum=0.9, max_epochs=5000):
    from lucidnet import LossKind, TrainConfig, train_until

    net = build_network((2, 6, 1), output_labels=["pos", "neg"], seed=seed)
    cfg = TrainConfig(
        learning_rate=lr,
        momentum=momentum,
        max_epochs=max_epochs,
        success_criterion="zero-classification-error",
    )
    X = np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]], dtype=float)
    dataset = make_dataset(X, ["neg", "pos", "pos", "neg"], class_labels=["pos", "neg"])
    outcome = train_until(net, dataset, LossKind("mse"), cfg)
    return net, dataset, cfg, outcome


def step(work, config):
    """One ``train_epoch`` from the workspace's own evaluation; returns the
    workspace, whose trace then holds the step's derivatives."""
    train_epoch(work, config, work.evaluate())
    return work
