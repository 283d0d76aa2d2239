"""Each of run_verify's report checks reads False, and fails the report, when
one fault is injected into the stage it checks."""

from dataclasses import replace

import pytest

from gelfand import pipeline
from gelfand.cosets import InvolutionAction
from gelfand.pipeline import run_verify


def _failed(report, key):
    assert report.checks[key] is False
    assert report.passed is False


def test_a_transpose_that_moves_a_class_fails_transpose_classes(monkeypatch):
    real = pipeline.conjugacy_classes

    def then_corrupt(g):
        classes = real(g)
        tr = g.transpose_ids.copy()
        cls = classes.class_of
        i, j = 0, int((cls != cls[0]).nonzero()[0][0])
        tr[i], tr[j] = tr[j], tr[i]  # element 0 now lands in j's class
        g._transpose_ids = tr
        return classes

    monkeypatch.setattr(pipeline, "conjugacy_classes", then_corrupt)
    _failed(run_verify("gl", 1, 2), "transpose_classes")


@pytest.mark.parametrize("key", ["mackey_sum", "dual_dims"])
def test_a_lowered_dim_inv_fails(key, monkeypatch):
    real = pipeline.dim_invariants

    def lowered(t, emb):
        rows = real(t, emb)
        i = next(i for i, r in enumerate(rows) if r.dim_inv)
        # dim_dual_inv is left as it was
        rows[i] = replace(rows[i], dim_inv=rows[i].dim_inv - 1)
        return rows

    monkeypatch.setattr(pipeline, "dim_invariants", lowered)
    _failed(run_verify("gl", 1, 2), key)


def test_no_nonfixed_mod_center_coset_fails_lemma_3_1(monkeypatch):
    real = pipeline.involution_action

    def all_fixed(d):
        if not d.mod_center:
            return real(d)
        return InvolutionAction(d, list(range(d.count)), d.count, 0)

    monkeypatch.setattr(pipeline, "involution_action", all_fixed)
    report = run_verify("gl", 1, 3)
    _failed(report, "lemma_3_1")
    assert report.sigma_nonfixed == 0
