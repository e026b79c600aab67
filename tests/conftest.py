"""Shared fixtures: synthetic corpora and a trained classifier."""
from __future__ import annotations

import random

import pytest

from ransomwatch.features import Mode
from ransomwatch.gbdt import BoostParams, fit
from ransomwatch.notes import tokenize
from ransomwatch.simulator import (
    BenignProfile, BenignSpec, RansomwareSpec, ScenarioSpec, TreeSpec, build_corpus, first_dir_decoy,
    make_benign_text, make_note_corpus, mix,
)

TRAIN_SEED = 11
HELDOUT_SEED = 99


@pytest.fixture(scope="session")
def note_corpus():
    """158 synthetic ransom notes and 110 benign docs, tokenized."""
    notes = [tokenize(t) for t in make_note_corpus(158, seed=21)]
    rng = random.Random(22)
    benign = [tokenize(make_benign_text(rng)) for _ in range(110)]
    return notes, benign


@pytest.fixture(scope="session")
def train_corpus():
    return build_corpus(240, 260, seed=TRAIN_SEED)


@pytest.fixture(scope="session")
def heldout_corpus():
    return build_corpus(96, 104, seed=HELDOUT_SEED)


@pytest.fixture(scope="session")
def trained_forest(train_corpus):
    return fit(train_corpus.X, train_corpus.y, BoostParams(),
               dims=train_corpus.dims, hash_seed=train_corpus.hash_seed)


@pytest.fixture(scope="session")
def gene_pool():
    from ransomwatch.notes import build_pool

    notes = [tokenize(t) for t in make_note_corpus(100, seed=31)]
    return build_pool(notes, n=3, top_k=300)


@pytest.fixture(scope="session")
def mode_mix():
    """One run of each mode M1-M6 and an office decoy-toucher under one root, overlapping in time."""
    tree = TreeSpec(depth=2, fanout=2, files=60)
    return mix([ScenarioSpec(kind=RansomwareSpec(mode=mode, files_per_second=40 + 30 * i), seed=90 + i, tree=tree,
                             decoy_paths=(first_dir_decoy(tree, 90 + i),), start_us=150_000 * i)
                for i, mode in enumerate(Mode)]
               + [ScenarioSpec(kind=BenignSpec(profile=BenignProfile.OFFICE, touch_decoy=True), seed=99, tree=tree,
                               decoy_paths=(first_dir_decoy(tree, 99),), start_us=200_000)])
