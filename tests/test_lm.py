import pytest

from ekd.lm import BOS, EOS, UNK, load_arpa, save_arpa, train_lm

CORPUS = [
    ["ab", "ba", "ab"],
    ["ba", "aba"],
    ["ab"],
    ["aba", "ab", "ba"],
    ["bab", "ab"],
    ["ba", "bab"],
]


@pytest.fixture(params=[1, 2, 3])
def lm(request):
    return train_lm(CORPUS, order=request.param)


def test_unigram_counting_single_transcript():
    lm1 = train_lm([["a", "b"]], order=1)
    pa = 10 ** lm1.log10_prob("a")
    pb = 10 ** lm1.log10_prob("b")
    pe = 10 ** lm1.log10_prob(EOS)
    assert pa == pytest.approx(pb) == pytest.approx(pe)  # counts are all one
    total = pa + pb + pe + 10 ** lm1.log10_prob("zzz")
    assert total == pytest.approx(1.0, abs=1e-9)


def test_context_distributions_normalize(lm):
    events = sorted(lm.vocabulary)
    contexts = [(), ("ab",), ("ba", "ab"), ("never-seen",), (BOS,), (BOS, BOS),
                ("ab", "never-seen"), ("aba", "bab")]
    for ctx in contexts:
        total = sum(10 ** lm.log10_prob(w, ctx) for w in events)
        assert total == pytest.approx(1.0, abs=1e-6), f"context {ctx}"


def test_unseen_words_get_unknown_mass(lm):
    assert lm.log10_prob("zzz") == lm.log10_prob(UNK)
    assert 10 ** lm.log10_prob("zzz") > 0


def _per_token_log10_prob(lm, transcripts):
    """The mean log10 probability of the words plus the end-of-sentence token."""
    return (sum(lm.sentence_log10_prob(words) for words in transcripts)
            / sum(len(words) + 1 for words in transcripts))


def test_training_text_preferred_over_held_out():
    train_half = CORPUS[:4]
    held_out = [["qx"], ["zz", "yy"], ["ba", "qx", "zz"]]
    model = train_lm(train_half, order=2)
    assert _per_token_log10_prob(model, train_half) > _per_token_log10_prob(model, held_out)


def test_two_domain_per_token_log_prob_split():
    domain_a = [["ab", "ba"], ["ab", "aba"], ["ba", "bab"], ["ab"]]
    domain_b = [["qq", "rr"], ["rr", "ss"], ["qq"]]
    model = train_lm(domain_a, order=2)
    assert _per_token_log10_prob(model, domain_a) > _per_token_log10_prob(model, domain_b)


def test_order_validation():
    with pytest.raises(ValueError, match="order"):
        train_lm(CORPUS, order=0)
    with pytest.raises(ValueError, match="non-empty"):
        train_lm([], order=2)


def test_deterministic():
    a = train_lm(CORPUS, order=3)
    b = train_lm(CORPUS, order=3)
    assert a.log_probs == b.log_probs and a.backoffs == b.backoffs


def test_sentence_score_uses_history():
    model = train_lm(CORPUS, order=2)
    # p(ab | <s>) should differ from the unigram p(ab)
    assert model.log10_prob("ab", (BOS,)) != model.log10_prob("ab")


def test_arpa_round_trip(tmp_path, lm):
    path = tmp_path / "model.arpa"
    save_arpa(lm, path)
    loaded = load_arpa(path)
    assert loaded.order == lm.order
    assert loaded.log_probs == lm.log_probs
    assert loaded.backoffs == lm.backoffs
    assert loaded.vocabulary == lm.vocabulary


def test_arpa_layout(tmp_path):
    model = train_lm(CORPUS, order=2)
    path = tmp_path / "model.arpa"
    save_arpa(model, path)
    text = path.read_text()
    assert text.startswith("\\data\\\n")
    assert "\\1-grams:" in text and "\\2-grams:" in text
    assert text.rstrip().endswith("\\end\\")
    header_counts = [int(line.split("=")[1]) for line in text.splitlines()
                     if line.startswith("ngram")]
    sections = text.split("\n\n")[1:-1]  # after the \data\ block, before \end\
    assert [s.splitlines()[0] for s in sections] == ["\\1-grams:", "\\2-grams:"]
    assert header_counts == [len(s.splitlines()) - 1 for s in sections]


@pytest.mark.parametrize("cut", ["half", "last_entry", "end_line"])
def test_truncated_arpa_is_refused(tmp_path, cut):
    path = tmp_path / "model.arpa"
    save_arpa(train_lm(CORPUS, order=3), path)
    text = path.read_text()
    body, end = text.rsplit("\n\n", 1)  # end: the \end\ line
    assert end == "\\end\\\n"
    cuts = {"half": text[:text.index("\n", len(text) // 2) + 1],
            "last_entry": body.rsplit("\n", 1)[0] + "\n\n" + end,
            "end_line": body + "\n\n"}
    path.write_text(cuts[cut])
    reason = "missing \\\\end\\\\" if cut == "end_line" else "differ from the \\\\data\\\\ counts"
    with pytest.raises(ValueError, match=f"{path.name}: .*{reason}"):
        load_arpa(path)


def test_arpa_queries_survive_round_trip(tmp_path):
    model = train_lm(CORPUS, order=3)
    path = tmp_path / "model.arpa"
    save_arpa(model, path)
    loaded = load_arpa(path)
    for ctx in [(), ("ab",), ("ba", "ab"), ("zz",)]:
        for w in ["ab", "ba", "zz", EOS]:
            assert loaded.log10_prob(w, ctx) == model.log10_prob(w, ctx)
