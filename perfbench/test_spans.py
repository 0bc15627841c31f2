"""Span arithmetic and wrapper restoration of the traced pass.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_spans.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import spans  # noqa: E402
from spans import Span  # noqa: E402


def span(name, start, end, parent=-1):
    layer = name.split(".", 1)[0]
    return Span(name, layer, start, end, parent, 0)


def test_union_counts_overlap_once():
    assert spans.union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert spans.union_length([(0.0, 4.0), (1.0, 2.0)]) == 4.0
    assert spans.union_length([]) == 0.0


def test_nested_spans_give_self_times():
    # build_catalog -> solve_equilibrium, then -> coupling_tensors, which
    # calls its own-layer helper mode_tensor
    tree = [
        span("resonances.build_catalog", 0.0, 10.0),
        span("equilibrium.solve_equilibrium", 1.0, 2.0, parent=0),
        span("coupling.coupling_tensors", 3.0, 8.0, parent=0),
        span("coupling.mode_tensor", 4.0, 7.0, parent=2),
    ]
    assert spans.self_times(tree) == [4.0, 1.0, 2.0, 3.0]
    metrics = spans.layer_metrics(tree, wall_s=12.0)
    assert metrics["resonances.catalog_self_s"] == 4.0
    assert metrics["equilibrium.solve_s"] == 1.0
    # the own-layer helper counts towards the function that called it
    assert metrics["coupling.tensors_s"] == 5.0
    assert metrics["coupling.calls"] == 1
    assert metrics["harness.self_s"] == 2.0
    layer_total = sum(metrics[f"{l}.self_s"] for l in spans.LAYERS)
    assert layer_total + metrics["harness.self_s"] == 12.0


def test_overlapping_children_counted_once():
    tree = [
        span("quantum.build_rwa_interaction", 0.0, 10.0),
        span("quantum.FockBasis.lowering", 1.0, 4.0, parent=0),
        span("quantum.FockBasis.raising", 3.0, 6.0, parent=0),
    ]
    assert spans.self_times(tree)[0] == 5.0
    metrics = spans.layer_metrics(tree, wall_s=10.0)
    assert metrics["quantum.build_rwa_s"] == 5.0
    assert metrics["quantum.fock_op_s"] == 6.0


def test_untraced_code_sees_the_originals():
    import ionchain
    from ionchain import coupling, quantum, resonances

    originals = (coupling.coupling_tensors, ionchain.coupling_tensors,
                 quantum.length_scale, resonances.build_catalog,
                 vars(quantum.FockBasis)["lowering"],
                 vars(quantum.FockBasis)["uniform"])
    recorder = spans.Recorder(pass_id=7)
    recorder.install()
    try:
        assert coupling.coupling_tensors is not originals[0]
        assert ionchain.coupling_tensors is coupling.coupling_tensors
        assert quantum.length_scale.__wrapped__ is originals[2]
        ionchain.build_catalog(3)
    finally:
        recorder.uninstall()
    restored = (coupling.coupling_tensors, ionchain.coupling_tensors,
                quantum.length_scale, resonances.build_catalog,
                vars(quantum.FockBasis)["lowering"],
                vars(quantum.FockBasis)["uniform"])
    assert all(a is b for a, b in zip(restored, originals))

    names = [s.name for s in recorder.spans]
    assert names[0] == "resonances.build_catalog"
    nested = recorder.spans[names.index("coupling.coupling_tensors")]
    assert recorder.spans[nested.parent].name == "resonances.build_catalog"
    assert all(s.pass_id == 7 and s.start <= s.end for s in recorder.spans)
    # nothing is recorded once the originals are back
    count = len(recorder.spans)
    ionchain.build_catalog(3)
    assert len(recorder.spans) == count
