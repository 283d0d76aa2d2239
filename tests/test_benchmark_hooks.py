"""The names that ``perfbench/tracing.py`` patches must stay where it looks.

A traced benchmark run swaps ``GroupTable``'s lazy properties, its
``center_ids`` method, the pipeline's stage functions and the ``mul_flat``
imports for wrappers.  Only a traced run does that, so this test runs one
point under ``GridInstrument`` to catch a refactor that moves any of them.
"""

import importlib.util
from pathlib import Path

import gelfand
import gelfand.pipeline

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_traced_point_records_every_grid_span_and_restores():
    tracing = load_tracing()
    table_cls = gelfand.groups.GroupTable
    before = dict(table_cls.__dict__)
    tracer = tracing.Tracer()
    instrument = tracing.GridInstrument(gelfand, tracer)
    try:
        report = gelfand.pipeline.run_verify("gl", 1, 2)
        instrument.end_point()
    finally:
        instrument.restore()
    assert report.passed
    assert set(tracing.GRID_SPANS) <= {span[0] for span in tracer.spans}
    # GL2(F2) keeps a transvection and the swap; GL1(F2) is trivial
    assert instrument.counts["generators"] == 2
    assert instrument.counts["elements"] == 6 + 1
    assert dict(table_cls.__dict__) == before
    assert gelfand.groups.mul_flat is gelfand.matrix.mul_flat
