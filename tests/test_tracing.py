"""The benchmark's tracer keeps working on the library as it is: every name
it wraps still exists, and ``glnz factor`` runs through the traced
factorization and its product check."""

import contextlib
import importlib
import io
import json
import sys
from pathlib import Path

import pytest

import glnz
import glnz.cli
from glnz.cli import matrix_payload
from glnz.exactmat import random_elementary_word

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_tracer_finds_every_traced_name(tracing):
    # Tracer raises on a traced name the library no longer has
    tracer = tracing.Tracer(glnz)
    assert len(tracer.names) == sum(len(fns) for fns in tracing.TRACED.values()) + len(
        tracing.CODEC_HELPERS
    )


def test_traced_factor_call_counts_the_factorization_and_its_check(tracing, monkeypatch):
    M = random_elementary_word(4, 12, 10**6, 5)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(matrix_payload(M))))
    tracer = tracing.Tracer(glnz)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tracer.call(lambda: glnz.cli.main(["factor"]), 0)
    assert code == 0 and json.loads(out.getvalue())["round_trip"] is True
    metrics = tracer.metrics(0.0)
    assert metrics["congruence.elementary_factorization.calls"] == 1
    assert metrics["congruence.Factorization.product.calls"] == 1
    assert metrics["cli.main.calls"] == 1
    assert 0 < metrics["congruence.elementary_factorization.check_share"] < 1
