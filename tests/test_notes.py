"""Note analyzer: tokenization, n-grams, gene pool laws, similarity."""
from __future__ import annotations

import hashlib
import json
import random
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ransomwatch import notes as notes_module
from ransomwatch.decoys import DecoyRegistry
from ransomwatch.events import FileEvent, Operation
from ransomwatch.notes import (
    DEFAULT_TAU_SIM,
    EmptyCorpus,
    GenePool,
    build_pool,
    ngrams,
    similarity,
    tokenize,
)
from ransomwatch.pipeline import Engine, MappingContentProvider
from ransomwatch.simulator import make_benign_text, make_note_corpus

from oracles import ref_similarity, ref_tokenize


def test_tokenize_normalizes():
    assert tokenize("All your files have been ENCRYPTED!") == ("all", "your", "files", "have", "been", "encrypted")


def test_tokenize_empty():
    assert tokenize("") == ()


def test_tokenize_keeps_interior_and_symbols():
    assert tokenize("Don't pay $500, (really) e.g. -- ...") == ("don't", "pay", "$500", "really", "e.g")


def test_tokenize_unicode_punctuation():
    assert tokenize("«quoted» “files” encrypted…") == ("quoted", "files", "encrypted")


def test_tokenize_matches_regex_oracle_on_mixed_punctuation():
    rng = random.Random(3)
    pieces = ["files!", "(pay)", "us...", "$500", "now;", "--key--", "a+b", "don't", "#1", "[x]", "e.g.,", "OK?!"]
    for _ in range(200):
        text = " ".join(rng.choice(pieces) for _ in range(rng.randint(0, 30)))
        assert tokenize(text) == ref_tokenize(text)


def test_ngrams_trigram_example():
    note = ("all", "your", "files", "have", "been", "encrypted")
    grams = ngrams(note, 3)
    assert len(grams) == 4
    assert ("all", "your", "files") in grams
    assert ("have", "been", "encrypted") in grams


def test_ngrams_short_note():
    assert ngrams(("pay", "now"), 3) == []


def test_ngrams_rejects_bad_n():
    with pytest.raises(ValueError):
        ngrams(("a",), 0)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from("abcdef"), max_size=40), st.integers(min_value=1, max_value=8))
def test_ngrams_count_law(words, n):
    assert len(ngrams(tuple(words), n)) == max(0, len(words) - n + 1)


def test_build_pool_tiny_counts():
    # bigrams of (x y x y z): (x,y) twice, (y,x) once, (y,z) once
    pool = build_pool([("x", "y", "x", "y", "z")], n=2, top_k=None)
    assert pool.fragments[("x", "y")] == pytest.approx(0.5)
    assert pool.fragments[("y", "x")] == pytest.approx(0.25)
    assert pool.fragments[("y", "z")] == pytest.approx(0.25)


def test_pool_invariant_scores_sum_to_one_untruncated(note_corpus):
    notes, _ = note_corpus
    pool = build_pool(notes, n=3, top_k=None)
    assert sum(pool.fragments.values()) == pytest.approx(1.0, abs=1e-9)


def test_pool_truncation_keeps_global_scores(note_corpus):
    notes, _ = note_corpus
    assert len(notes) == 158
    full = build_pool(notes, n=3, top_k=None)
    pool = build_pool(notes, n=3, top_k=300)
    assert len(pool) <= 300
    assert sum(pool.fragments.values()) <= 1.0 + 1e-9
    for frag, score in pool.fragments.items():
        assert full.fragments[frag] == score


def test_pool_scores_invariant_to_note_duplication():
    note = tokenize("all your files have been encrypted pay us now")
    one = build_pool([note], n=3, top_k=None)
    two = build_pool([note, note], n=3, top_k=None)
    assert one.fragments == two.fragments


def test_pool_descending_order_with_lexicographic_ties():
    pool = build_pool([("b", "a", "b", "a", "c")], n=1, top_k=None)
    assert list(pool.fragments) == [("a",), ("b",), ("c",)]  # a and b tie at 2, c has 1


def test_build_pool_empty_corpus():
    with pytest.raises(EmptyCorpus):
        build_pool([("too", "short")], n=3)


@pytest.mark.parametrize("top_k", [0, -1])
def test_build_pool_rejects_top_k_below_one(top_k):
    with pytest.raises(ValueError):
        build_pool([("your", "files", "are", "encrypted")], n=3, top_k=top_k)


def test_pool_serialization_deterministic_and_round_trips(note_corpus):
    notes, _ = note_corpus
    a = build_pool(notes, n=3, top_k=300)
    b = build_pool(list(notes), n=3, top_k=300)
    assert a.to_json() == b.to_json()
    assert GenePool.from_json(a.to_json()).fragments == a.fragments


_POOL = {"n": 2, "top_k": 1, "source_count": 1, "fragments": [{"words": ["your", "files"], "f": 1.0}]}


def _frag(words, f):
    return [{"words": words, "f": f}]


@pytest.mark.parametrize("payload", [
    {**_POOL, "fragments": [["your", "files"]]},  # fragments as plain word lists
    {k: v for k, v in _POOL.items() if k != "fragments"},
    {k: v for k, v in _POOL.items() if k != "n"},
    [_POOL],
    # JSON strings, booleans and fractions where the format asks for a JSON number or integer
    {**_POOL, "fragments": _frag(["your", "files"], "0.5")},
    {**_POOL, "fragments": _frag(["your", "files"], True)},
    {**_POOL, "n": 2.9},
    {**_POOL, "n": "2"},
    {**_POOL, "n": True, "fragments": _frag(["files"], 1.0)},
    {**_POOL, "source_count": "7"},
    {**_POOL, "source_count": 2.5},
    {**_POOL, "source_count": True},
    {**_POOL, "top_k": "lots"},
    {**_POOL, "top_k": 0},
    {**_POOL, "fragments": _frag(["your", "files"], 10**400)},
    {**_POOL, "source_count": -5},
    {**_POOL, "top_k": 1, "fragments": _frag(["your", "files"], 0.7) + _frag(["pay", "now"], 0.5)},
    {**_POOL, "top_k": None, "fragments": _frag(["your", "files"], 0.5) + _frag(["pay", "now"], 0.7)},
    {**_POOL, "top_k": None, "fragments": _frag(["your", "files"], 0.7) + _frag(["your", "files"], 0.5)},
], ids=["word-lists", "no-fragments", "no-n", "not-an-object", "f-string", "f-bool", "n-fraction", "n-string", "n-bool",
        "source_count-string", "source_count-fraction", "source_count-bool", "top_k-string", "top_k-zero",
        "f-int-too-large-for-a-float", "source_count-negative", "top_k-below-the-fragment-count", "f-ascending",
        "words-twice"])
def test_pool_from_json_rejects_malformed_payloads(payload):
    assert GenePool.from_json(json.dumps(_POOL)).fragments == {("your", "files"): 1.0}
    with pytest.raises(ValueError, match="gene pool"):
        GenePool.from_json(json.dumps(payload))


def test_pool_from_json_takes_integer_scores_and_no_top_k():
    pool = GenePool.from_json(json.dumps({**_POOL, "top_k": None, "fragments": _frag(["your", "files"], 1)}))
    assert pool.top_k is None and pool.fragments == {("your", "files"): 1.0}
    assert type(pool.fragments["your", "files"]) is float


def test_pool_from_json_takes_ties_in_any_order_a_full_top_k_and_no_sources():
    fragments = _frag(["pay", "now"], 0.5) + _frag(["all", "your"], 0.5) + _frag(["your", "files"], 0.25)
    pool = GenePool.from_json(json.dumps({**_POOL, "top_k": 3, "source_count": 0, "fragments": fragments}))
    assert list(pool.fragments) == [("pay", "now"), ("all", "your"), ("your", "files")]
    assert (pool.top_k, pool.source_count) == (3, 0)


def test_similarity_self_is_one():
    note = tokenize("your files are encrypted send bitcoin to recover them")
    pool = build_pool([note], n=3, top_k=None)
    verdict = similarity(note, pool)
    assert verdict.score == pytest.approx(1.0, abs=1e-9)
    assert verdict.is_note


def test_similarity_no_overlap_is_zero():
    pool = build_pool([tokenize("your files are encrypted pay now")], n=3, top_k=None)
    verdict = similarity(tokenize("the quarterly meeting covered travel policy topics"), pool)
    assert verdict.score == 0.0 and not verdict.is_note


def test_similarity_sums_matched_scores():
    pool = GenePool(2, None, {("a", "b"): 0.5, ("b", "c"): 0.25, ("z", "z"): 0.25}, 1)
    verdict = similarity(("a", "b", "c"), pool, tau=0.7)
    assert verdict.score == pytest.approx(0.75)
    assert {frag for frag, _ in verdict.matched} == {("a", "b"), ("b", "c")}
    assert verdict.is_note  # 0.75 >= 0.7


def test_similarity_set_semantics_ignores_repetition():
    pool = build_pool([tokenize("all your files have been encrypted")], n=3, top_k=None)
    once = similarity(tokenize("all your files"), pool)
    thrice = similarity(tokenize("all your files all your files all your files"), pool)
    assert once.matched == tuple((f, s) for f, s in thrice.matched if f == ("all", "your", "files"))
    assert thrice.score == pytest.approx(
        sum(s for f, s in pool.fragments.items() if f in {("all", "your", "files"), ("your", "files", "all"), ("files", "all", "your")})
    )


def test_similarity_invariant_to_pool_storage_order():
    frags = {("a", "b"): 0.4, ("b", "c"): 0.35, ("c", "d"): 0.25}
    shuffled = dict(reversed(list(frags.items())))
    doc = ("a", "b", "c")
    assert similarity(doc, GenePool(2, None, frags, 1)).score == pytest.approx(
        similarity(doc, GenePool(2, None, shuffled, 1)).score
    )


def test_default_threshold_value():
    assert DEFAULT_TAU_SIM == 0.21


# -- what criterion 4's inline curves read from similarity ------------------------

def _held_out(note_corpus, pool_notes=100):
    """A pool from the first notes, the held-out notes, and the benign docs."""
    notes, benign = note_corpus
    return build_pool(notes[:pool_notes], n=3, top_k=300), notes[pool_notes:], benign


def test_verdict_at_every_tau_is_the_score_cut(note_corpus):
    # criterion 4 scores each document once at tau=0 and cuts the scores per tau
    pool, held_out, benign = _held_out(note_corpus)
    docs = held_out + benign
    base = [similarity(doc, pool, tau=0.0) for doc in docs]
    flagged = []
    for tau in (i / 20 for i in range(21)):
        verdicts = [similarity(doc, pool, tau=tau) for doc in docs]
        assert [(v.score, v.matched) for v in verdicts] == [(v.score, v.matched) for v in base]
        assert [v.is_note for v in verdicts] == [v.score >= tau for v in base]
        notes_flagged = sum(v.is_note for v in verdicts[: len(held_out)])
        flagged.append((notes_flagged, sum(v.is_note for v in verdicts) - notes_flagged))
    # recall and false positives only fall as tau rises
    for (prev_notes, prev_benign), (notes, benign_flagged) in zip(flagged, flagged[1:]):
        assert notes <= prev_notes and benign_flagged <= prev_benign


def test_threshold_extremes_flag_every_held_out_note_or_none(note_corpus):
    pool, held_out, benign = _held_out(note_corpus)
    scores = [similarity(doc, pool, tau=0.0).score for doc in held_out]
    assert min(scores) > 0  # every held-out note matches at least one fragment
    assert all(similarity(doc, pool, tau=0.0).is_note for doc in held_out + benign)
    assert not any(similarity(doc, pool, tau=max(scores) + 1e-6).is_note for doc in held_out)


@pytest.mark.parametrize("n", [1, 3])
def test_match_count_is_the_distinct_pool_fragments_in_the_doc(note_corpus, n):
    # criterion 4 counts a document's matches as len(verdict.matched)
    notes, benign = note_corpus
    pool = build_pool(notes, n=n, top_k=300)
    for doc in notes + benign:
        matched = similarity(doc, pool, tau=0.0).matched
        assert len(matched) == len(set(ngrams(doc, n)) & pool.fragments.keys())


# -- exactness of the fast tokenizer and similarity against oracles.ref_tokenize and ref_similarity

def _non_ascii_variant(text: str) -> str:
    """The same text dressed in non-ASCII punctuation and letters."""
    return (
        text.replace("'", "\u2019").replace(". ", "\u3002 ").replace("!", "\uff01")
        .replace(", ", " \u00bb ").replace("files", "F\u00cfLES").replace("your", "\u00abYour\u00bb")
    )


def _simulator_texts() -> list[str]:
    benign_rng, rng = random.Random(42), random.Random(5)
    texts = make_note_corpus(80, seed=41) + [make_benign_text(benign_rng) for _ in range(80)]
    texts += [make_benign_text(rng) for _ in range(80)]
    return texts + [_non_ascii_variant(t) for t in texts]


_ADVERSARIAL_TEXTS = [
    "files\u2019 \u2019pay\u2019 don\u2019t",  # right single quotation mark
    "ENCRYPTED\u3002 \u3002\u3002 done\u3002\u3002",  # ideographic full stop
    "\u00abquoted\u00bb \u00ab\u00bb \u00ab \u00bb",  # guillemets
    "no\u00a0break\u00a0space a\u2028b\u2029c\x85d",  # non-ASCII whitespace
    "x\x1cy\x1dz\x1e!w\x1f. sep\x1c",  # ASCII separators split
    "\u0130STANBUL \u0130 \u0130! !\u0130",  # I with dot lowers to two chars
    "STRA\u1e9eE \u1e9e \u1e9e\u2026",  # capital sharp s
    "PAY\uff01 \uff01now\uff01 \uff01",  # fullwidth exclamation mark
    "e\u0301te\u0301 \u0301x\u0301 a\u0308! !\u0308 \u0301",  # combining marks
    "!!! ... \u00bf? \u2026 \u3001\u3002 -- () []{}",  # all punctuation
    "'\u2019'word'\u2019' \u2019'\u2019 .a. '\u00e9'",  # ASCII and non-ASCII P interleaved
    "\u00c9CRIT! Ma\u00cfs. \u03a3\u039f\u03a3 \u0130i\u0307",
    "",
    "   \t\n  ",
]


@pytest.mark.parametrize("text", _ADVERSARIAL_TEXTS)
def test_tokenize_equals_reference_on_adversarial_text(text):
    assert tokenize(text) == ref_tokenize(text)


def test_tokenize_equals_reference_on_simulator_corpora():
    for text in _simulator_texts():
        assert tokenize(text) == ref_tokenize(text)


@settings(max_examples=400, deadline=None)
@given(st.text())
def test_tokenize_equals_reference_on_any_text(text):
    assert tokenize(text) == ref_tokenize(text)


def test_ascii_lower_keeps_whitespace_and_punctuation():
    for c in map(chr, range(128)):
        low = c.lower()
        assert low == c or "A" <= c <= "Z"
        assert low.isspace() == c.isspace()
        assert unicodedata.category(low).startswith("P") == unicodedata.category(c).startswith("P")
    assert notes_module._ASCII_PUNCT == "!\"#%&'()*,-./:;?@[\\]_{}"


def _random_pool(rng: random.Random, n: int, vocab: str) -> GenePool:
    fragments = {}
    for _ in range(rng.randint(1, 12)):
        frag = tuple(rng.choice(vocab) for _ in range(n))
        fragments[frag] = rng.choice([rng.random(), 0.25, 1e-17, 0.1 + 0.2])
    return GenePool(n, None, fragments, 1)


def _random_doc(rng: random.Random, vocab: str) -> tuple[str, ...]:
    if rng.random() < 0.3:  # a fragment repeated many times
        unit = [rng.choice(vocab) for _ in range(rng.randint(1, 3))]
        return tuple(unit * rng.randint(1, 6))
    return tuple(rng.choice(vocab) for _ in range(rng.randint(0, 12)))


def test_similarity_and_match_count_equal_reference_on_random_pools():
    rng = random.Random(17)
    short_docs = 0
    for _ in range(3000):
        n = rng.randint(1, 4)
        vocab = "abcd"[: rng.randint(1, 4)]
        pool = _random_pool(rng, n, vocab)
        doc = _random_doc(rng, vocab)
        short_docs += len(doc) < n
        tau = rng.choice([0.0, 0.21, 0.5])
        got, want = similarity(doc, pool, tau), ref_similarity(doc, pool, tau)
        assert got.matched == want.matched
        assert repr(got.score) == repr(want.score) and type(got.score) is type(want.score)
        assert got.is_note == want.is_note
    assert short_docs > 100


def test_similarity_no_match_scores_int_zero(gene_pool):
    verdict = similarity(tokenize("nothing here matches"), gene_pool, tau=0.0)
    assert verdict.matched == ()
    assert verdict.score == 0 and type(verdict.score) is int
    assert verdict.is_note  # 0 >= 0.0


def test_similarity_rejects_empty_pool_and_bad_n():
    doc = ("a", "b")
    with pytest.raises(ValueError):
        similarity(doc, GenePool(2, None, {}, 0))
    with pytest.raises(ValueError):
        similarity(doc, GenePool(0, None, {(): 1.0}, 1))


# sha256 over repr((score, matched)) of every text of _simulator_texts()
# against the gene_pool fixture, computed with the per-token tokenizer and
# the pool-walking similarity they replaced.
_SIMILARITY_GOLDEN = "e91c72b47d1343ce115074693fe19f8e7d429e44ff30baf0308ba135f026f6e9"


def test_similarity_matches_golden_digest(gene_pool):
    digest = hashlib.sha256()
    for text in _simulator_texts():
        verdict = similarity(tokenize(text), gene_pool)
        digest.update(repr((verdict.score, verdict.matched)).encode("utf-8") + b"\n")
    assert digest.hexdigest() == _SIMILARITY_GOLDEN


def _pool_json(n=2, fragments=(["a", "b"],), score=0.5) -> str:
    return json.dumps({"n": n, "top_k": None, "source_count": 1, "fragments": [{"words": w, "f": score} for w in fragments]})


@pytest.mark.parametrize(
    "text",
    [
        _pool_json(n=0, fragments=([],)),
        _pool_json(n=-1, fragments=([],)),
        _pool_json(fragments=()),
        _pool_json(fragments=(["a", "b"], ["a"])),
        _pool_json(fragments=(["a", "b", "c"],)),
        _pool_json(fragments=(["a", 2],)),
        _pool_json(fragments=("ab",)),
        # a NaN score makes every verdict False, a negative one cancels others, an infinite one flags every holder
        _pool_json(score=float("nan")),
        _pool_json(score=-0.5),
        _pool_json(score=float("inf")),
        _pool_json(score=float("-inf")),
        _pool_json(score=0.5).replace("0.5", "1e400"),
    ],
    ids=["n0", "n_negative", "no_fragments", "short_fragment", "long_fragment", "non_string_word", "string_not_list",
         "score_nan", "score_negative", "score_infinity", "score_minus_infinity", "score_1e400"],
)
def test_pool_from_json_rejects_malformed(text):
    with pytest.raises(ValueError, match="gene pool"):
        GenePool.from_json(text)


# -- the ASCII score bound -------------------------------------------------------

# Clean words, and loose ones: interior or only punctuation, whitespace, empty,
# non-ASCII. "Btc" is clean but never matches, since tokens are lowered.
_BOUND_WORDS = ["your", "files", "pay", "btc", "$5", "x1", "Btc", "don't", "a.b", "--", "", "x y", "k\x1cey", "café"]
_SEPARATORS = " \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f"


def _random_case(word_and_mask: tuple[str, list[bool]]) -> str:
    word, mask = word_and_mask
    return "".join(c.upper() if up else c for c, up in zip(word, mask))


@st.composite
def _bound_cases(draw) -> tuple[GenePool, str]:
    """An ASCII text mixing pool words in any case with any ASCII, and a pool
    of n = 1-4 whose fragments come from the text's own n-grams and from
    _BOUND_WORDS, loose ones included."""
    word = st.tuples(
        st.sampled_from([w for w in _BOUND_WORDS if w.isascii()]), st.lists(st.booleans(), min_size=8, max_size=8)
    ).map(_random_case)
    punct = st.text(st.sampled_from(notes_module._ASCII_PUNCT), max_size=3)
    sep = st.text(st.sampled_from(_SEPARATORS), min_size=1, max_size=2)
    parts = draw(st.lists(st.one_of(
        st.tuples(punct, word, punct, sep).map("".join),
        st.tuples(punct.filter(bool), sep).map("".join),  # a run that strips to nothing
        st.text(st.characters(max_codepoint=127), max_size=6),
    ), max_size=40))
    text = "".join(parts)
    n = draw(st.integers(min_value=1, max_value=4))
    frag = st.tuples(*[st.sampled_from(_BOUND_WORDS)] * n)
    own = ngrams(tokenize(text), n)
    if own:
        frag = st.one_of(frag, st.sampled_from(own))
    scores = st.one_of(st.floats(min_value=0.0, max_value=1.0), st.sampled_from([0.1, 0.2, 0.25, 1e-17, 0.1 + 0.2]))
    frags = draw(st.lists(frag, min_size=1, max_size=12))
    return GenePool(n, None, {f: draw(scores) for f in frags}, 1), text


@settings(max_examples=600, deadline=None)
@given(_bound_cases())
def test_score_bound_is_at_least_the_exact_score(case):
    pool, text = case
    bound = pool.score_bound(text.encode())
    assert bound is not None
    assert bound >= similarity(tokenize(text), pool, tau=0.0).score


def test_score_bound_on_clean_pools():
    pool = GenePool(2, None, {("pay", "now"): 0.25, ("your", "files"): 0.5, ("Btc", "now"): 0.125}, 1)
    for text in ["PAY... now!", "your\x1cfiles", "(your) 'files' pay\x0bnow", "btc now"]:
        assert pool.score_bound(text.encode()) == similarity(tokenize(text), pool).score, text
    # interior punctuation splits a token into pieces, so the bound may exceed the score
    assert pool.score_bound(b"pay-now") == 0.25 and similarity(tokenize("pay-now"), pool).score == 0
    assert pool.score_bound(b"your files?!pay now") == 0.75


def test_score_bound_counts_loose_fragments_always():
    pool = GenePool(1, None, {("don't",): 0.5, ("pay",): 0.25}, 1)
    assert pool.score_bound(b"nothing here") == 0.5
    assert pool.score_bound(b"PAY up") == 0.75


def test_score_bound_is_none_for_non_ascii_blobs_and_unboundable_pools(gene_pool):
    text = make_note_corpus(1, seed=31)[0]
    assert gene_pool.score_bound(text.encode()) >= similarity(tokenize(text), gene_pool).score
    assert gene_pool.score_bound(_non_ascii_variant(text).encode()) is None
    assert gene_pool.score_bound(b"caf\xc3\xa9 " + text.encode()) is None
    assert gene_pool.score_bound(b"\xff not utf-8") is None
    for pool in (GenePool(2, None, {}, 0), GenePool(0, None, {(): 1.0}, 1), GenePool(1, None, {("a",): -0.5}, 1)):
        assert pool.score_bound(b"a b") is None


def test_score_bound_rules_out_benign_text_and_keeps_notes(gene_pool):
    for text in _simulator_texts():
        bound = gene_pool.score_bound(text.encode())
        if bound is not None:
            assert bound >= similarity(tokenize(text), gene_pool, tau=0.0).score
    rng = random.Random(8)
    benign = [make_benign_text(rng) for _ in range(200)]
    assert all(gene_pool.score_bound(t.encode()) < DEFAULT_TAU_SIM for t in benign)


def _replay_documents(pool, forest, texts):
    """One pid per document: Create then Write, then end of stream."""
    content = {f"C:/Users/u/Documents/doc_{i:03d}.txt": text for i, text in enumerate(texts)}
    engine = Engine(DecoyRegistry(), pool, forest, content_provider=MappingContentProvider(content))
    for i, path in enumerate(content):
        engine.process(FileEvent(i * 10_000, i + 1, "editor.exe", Operation.CREATE, path, "txt"))
        engine.process(FileEvent(i * 10_000 + 5_000, i + 1, "editor.exe", Operation.WRITE, path, "txt"))
    engine.finish()
    return [a.to_json_line() for a in engine.alerts], engine.metrics.triggers, dict(engine.threat_by_pid)


def test_engine_gives_the_same_alerts_without_the_bound(gene_pool, trained_forest, monkeypatch):
    rng = random.Random(12)
    texts = make_note_corpus(30, seed=13) + [make_benign_text(rng) for _ in range(60)]
    texts += [_non_ascii_variant(t) for t in texts[::5]]
    rng.shuffle(texts)
    ruled_out = []
    score_bound = GenePool.score_bound

    def recording_bound(self, blob):
        bound = score_bound(self, blob)
        ruled_out.append(bound is not None and bound < DEFAULT_TAU_SIM)
        return bound

    monkeypatch.setattr(GenePool, "score_bound", recording_bound)
    with_bound = _replay_documents(gene_pool, trained_forest, texts)
    assert sum(ruled_out) >= 60 and not all(ruled_out)
    monkeypatch.setattr(GenePool, "score_bound", lambda self, blob: None)
    assert _replay_documents(gene_pool, trained_forest, texts) == with_bound
    assert with_bound[1] >= 10
