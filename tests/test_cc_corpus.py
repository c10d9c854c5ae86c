"""The committed corpus of hand-counted decision-point manifests."""

from __future__ import annotations

import json

import pytest

from slopscope import measure_checkpoint

from conftest import FIXTURES


def _manifest() -> dict:
    with open(FIXTURES / "cc_corpus" / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_corpus_is_large_enough():
    assert len(_manifest()) >= 30


def test_every_fixture_callable_is_in_the_manifest(cc_corpus):
    inv = measure_checkpoint(cc_corpus).inventory
    found = {f"{c.file}::{c.qualified_name}" for c in inv.callables}
    assert found == set(_manifest())


@pytest.mark.parametrize("key,expected", sorted(_manifest().items()))
def test_hand_counted_cc_and_sloc(cc_corpus, key, expected):
    inv = measure_checkpoint(cc_corpus).inventory
    by_key = {f"{c.file}::{c.qualified_name}": c for c in inv.callables}
    record = by_key[key]
    assert record.cc == expected["cc"], f"{key}: cc {record.cc} != hand count {expected['cc']}"
    assert record.sloc == expected["sloc"], f"{key}: sloc {record.sloc} != hand count {expected['sloc']}"
