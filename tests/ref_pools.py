"""The one adapter between ElementRefs and the index arrays of pools and
ratings, for the tests.

A pruning step carries its candidate pool as one index array, rows of
``net.weight_table`` for weights and columns of the value vector for
inputs and neurons, and its rating as indicators aligned with a ledger's
``index``.  Tests that name elements by ref, or rate them with a
hand-built {ref: indicator} map, go through the functions below, and read
ratings back as such maps in ElementRef.key order.
"""

import numpy as np

from lucidnet import SensitivityLedger, candidate_pool, collect_ledger, element_refs

CLASSES = ("input", "neuron", "weight")


def element_class(ref):
    return "weight" if ref.kind in ("synapse", "bias") else ref.kind


def pool_of(net, refs):
    """(element class, index array) of refs of one class, in their order.
    A weight ref resolves to its row as ``Network.weight`` resolves it (a
    slot-0 synapse names its bias, and a ref of no live weight raises
    StaleReferenceError); an input or neuron ref to its value column.  An
    empty list is an empty weight pool."""
    classes = {element_class(ref) for ref in refs} or {"weight"}
    assert len(classes) == 1, f"refs of several classes: {classes}"
    kind = classes.pop()
    if kind == "weight":
        index = [net._weight(ref) for ref in refs]
    else:
        index = [net.offsets[ref.layer] + ref.neuron for ref in refs]
    return kind, np.array(index, dtype=np.intp)


def by_class(refs):
    """(element class, its refs in the order given) per class, in the
    order of ``CLASSES``, empty classes included."""
    return [(kind, [ref for ref in refs if element_class(ref) == kind]) for kind in CLASSES]


def ledger_of(net, refs, counts, mode):
    """The ``SensitivityLedger`` of ``net`` for refs of one class."""
    return SensitivityLedger(net, *pool_of(net, refs), counts, mode)


def ledger_refs(net, ledger):
    """The refs of a ledger's ``index``: row i of its samples is refs[i]'s."""
    return element_refs(net, ledger.element_class, ledger.index)


def rating_map(net, ledger, valid_set=None):
    """``ledger.finalize`` as {ref: indicator} in ElementRef.key order."""
    indicators = ledger.finalize(net, valid_set)
    order = np.argsort(ledger.index, kind="stable")
    return dict(zip(element_refs(net, ledger.element_class, ledger.index[order]),
                    indicators[order].tolist()))


def collect_ratings(net, dataset, loss, cfg, epochs, refs, mode, valid_set=None,
                    collect=collect_ledger):
    """{ref: indicator} over refs of any classes, by one ``collect``
    ledger per class of ``by_class``, each training the network further,
    so a twin rated the same way trains through the same epochs."""
    rated = {}
    for kind, pool in by_class(refs):
        kind, index = pool_of(net, pool) if pool else (kind, [])
        ledger = collect(net, dataset, loss, cfg, epochs, kind, index, mode)
        rated.update(rating_map(net, ledger, valid_set))
    return rated


def rated(net, final_map):
    """(index, indicators) of a hand-built {ref: indicator} map of one
    class, in the map's order, as ``select_candidates`` takes them."""
    _, index = pool_of(net, list(final_map))
    return index, np.fromiter(final_map.values(), float, len(final_map))


def pool_refs(net, problem):
    """The refs of the problem's candidate pool, in its order."""
    return element_refs(net, problem.element_class, candidate_pool(net, problem))
