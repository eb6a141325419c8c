"""Reference evaluators the benchmark checks lucidnet's outputs against.

They read the JSON documents lucidnet writes (``network.json``,
``rules.json``) and share no code with lucidnet, so a defect in lucidnet's
own evaluation cannot hide inside a check built on it.
"""

from __future__ import annotations

import itertools

import numpy as np

TERNARY = (-1.0, 0.0, 1.0)


def _activate(kind, sigma):
    if kind == "tanh":
        return np.tanh(sigma)
    if kind == "sigmoid":
        return np.tanh(0.5 * sigma)
    if kind == "step":
        return np.where(sigma < 0.0, -1.0, 1.0)
    raise ValueError(f"unknown activation {kind!r}")


def network_outputs(doc, X, step=False):
    """Outputs of a compact network document on the rows of X; with
    ``step`` every activation is the hard threshold h(0) = +1."""
    values = [np.asarray(X, dtype=float)]
    n = values[0].shape[0]
    for layer in doc["layers"]:
        columns = []
        for neuron in layer:
            sigma = np.full(n, float(neuron["bias"]["w"]))
            for syn in neuron["synapses"]:
                sigma = sigma + syn["w"] * values[syn["src_layer"]][:, syn["src_index"]]
            columns.append(_activate("step" if step else neuron["activation"], sigma))
        values.append(np.stack(columns, axis=1) if columns else np.zeros((n, 0)))
    return values[-1]


def network_predictions(doc, X, step=False):
    """Predicted label per row: sign rule for one output (ties to the first
    label), otherwise the first maximal output."""
    outputs = network_outputs(doc, X, step)
    labels = np.array(doc["output_labels"])
    if outputs.shape[1] == 1:
        return np.where(outputs[:, 0] >= 0.0, labels[0], labels[1])
    return labels[np.argmax(outputs, axis=1)]


def _weights(doc):
    for layer in doc["layers"]:
        for neuron in layer:
            yield neuron["bias"]
            yield from neuron["synapses"]


def frozen_ternary(doc):
    """Every live weight frozen at -1, 0 or +1: what verbalization needs."""
    return all(not w["trainable"] and w["w"] in TERNARY for w in _weights(doc))


def max_fan_in(doc):
    """Largest count of live synapses that are trainable or nonzero."""
    return max(
        (
            sum(1 for s in neuron["synapses"] if s["trainable"] or s["w"] != 0.0)
            for layer in doc["layers"]
            for neuron in layer
        ),
        default=0,
    )


def transparent(doc):
    return frozen_ternary(doc) and max_fan_in(doc) <= 3


def rule_predictions(doc, columns):
    """Class per row of a rule-set document; ``columns`` maps each feature
    name to its (N,) array of ±1 values."""
    n = len(next(iter(columns.values())))
    values = {}
    for rule in doc["rules"]:
        satisfied = np.zeros(n, dtype=int)
        for st in rule["statements"]:
            if st.get("feature") is not None:
                source = columns[st["feature"]]
            else:
                source = values[st["rule"]]
            satisfied += (source > 0) == st["affirmed"]
        values[rule["name"]] = np.where(satisfied >= rule["k"], 1.0, -1.0)
    outputs = doc["output_rules"]
    if len(outputs) == 1:
        label = outputs[0]["label"]
        other = next(c for c in doc["class_labels"] if c != label)
        return np.where(values[outputs[0]["rule"]] > 0, label, other)
    stacked = np.stack([values[o["rule"]] for o in outputs], axis=1)
    return np.array([o["label"] for o in outputs])[np.argmax(stacked, axis=1)]


def universe(doc):
    return {
        st["feature"]
        for rule in doc["rules"]
        for st in rule["statements"]
        if st.get("feature") is not None
    }


def compare_counts(doc1, doc2):
    """Brute-force agreement table over every ±1 assignment of the union
    universe: (both first label, both second, r1 first & r2 second,
    r1 second & r2 first), labels taken from the first rule set."""
    names = sorted(universe(doc1) | universe(doc2))
    grid = np.array(list(itertools.product((-1.0, 1.0), repeat=len(names))))
    columns = {name: grid[:, i] for i, name in enumerate(names)}
    c1 = rule_predictions(doc1, columns)
    c2 = rule_predictions(doc2, columns)
    first, second = doc1["class_labels"][:2]
    return (
        int(np.sum((c1 == first) & (c2 == first))),
        int(np.sum((c1 == second) & (c2 == second))),
        int(np.sum((c1 == first) & (c2 == second))),
        int(np.sum((c1 == second) & (c2 == first))),
    )
