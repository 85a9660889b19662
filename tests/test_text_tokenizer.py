"""Tests for repro.text.tokenizer."""

from hypothesis import given, strategies as st

from repro.text.tokenizer import Token, split_sentences, tokenize, words


class TestTokenize:
    def test_simple_sentence(self):
        assert words("Sales rose sharply") == ["sales", "rose", "sharply"]

    def test_percent_kept_whole(self):
        assert "20%" in [t.text for t in tokenize("rose 20% today")]

    def test_money_kept_whole(self):
        toks = [t.text for t in tokenize("cost $1,299.99 total")]
        assert "$1,299.99" in toks

    def test_iso_date_kept_whole(self):
        toks = [t.text for t in tokenize("on 2024-03-15 the")]
        assert "2024-03-15" in toks

    def test_alphanumeric_merge(self):
        assert [t.text for t in tokenize("Q2 results")][0] == "Q2"

    def test_apostrophe_word(self):
        assert "don't" in [t.text for t in tokenize("we don't know")]

    def test_punctuation_separate(self):
        assert [t.text for t in tokenize("end.")] == ["end", "."]

    def test_offsets_match_source(self):
        text = "Alpha bought 3 units."
        for tok in tokenize(text):
            assert text[tok.start:tok.end] == tok.text

    def test_empty_string(self):
        assert tokenize("") == []

    def test_whitespace_only(self):
        assert tokenize("   \n\t ") == []

    def test_is_word_flag(self):
        tok = tokenize("hello")[0]
        assert tok.is_word and not tok.is_number

    def test_is_number_flag(self):
        tok = tokenize("1,299")[0]
        assert tok.is_number and not tok.is_word

    def test_words_case_preserved(self):
        assert words("Alpha Beta", lowercase=False) == ["Alpha", "Beta"]


class TestSentences:
    def test_two_sentences(self):
        assert split_sentences("Sales rose. Margins fell.") == [
            "Sales rose.", "Margins fell.",
        ]

    def test_abbreviation_not_split(self):
        out = split_sentences("Dr. Smith saw the patient. He improved.")
        assert len(out) == 2
        assert out[0].startswith("Dr. Smith")

    def test_question_and_exclamation(self):
        out = split_sentences("Did it work? Yes! Great.")
        assert len(out) == 3

    def test_empty(self):
        assert split_sentences("") == []

    def test_single_sentence_no_period(self):
        assert split_sentences("no terminal punctuation") == [
            "no terminal punctuation"
        ]

    def test_decimal_not_split(self):
        out = split_sentences("Price is 3.5 dollars today. Fine.")
        assert len(out) == 2


@given(st.text(max_size=300))
def test_tokenize_offsets_always_consistent(text):
    for tok in tokenize(text):
        assert text[tok.start:tok.end] == tok.text


@given(st.text(max_size=300))
def test_sentences_preserve_nonspace_content(text):
    joined = "".join(split_sentences(text))
    # Splitting never invents non-whitespace characters.
    for ch in set(joined):
        if not ch.isspace():
            assert ch in text
