import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessionpipe import parsing
from sessionpipe.corpus import ActivityTaxonomy
from sessionpipe.parsing import MatchTier, normalize, parse_binary, parse_label


class TestParseLabel:
    def test_exact(self, taxonomy):
        parsed = parse_label("shared book reading", taxonomy)
        assert (parsed.label, parsed.tier) == ("shared book reading", MatchTier.EXACT)

    def test_exact_ignores_case_and_punctuation(self, taxonomy):
        parsed = parse_label("Singing, Reciting!", taxonomy)
        assert (parsed.label, parsed.tier) == ("singing, reciting", MatchTier.EXACT)

    def test_alias(self, taxonomy):
        parsed = parse_label("book reading", taxonomy)
        assert (parsed.label, parsed.tier) == ("shared book reading", MatchTier.ALIAS)

    def test_fuzzy_substring(self, taxonomy):
        parsed = parse_label("The activity shown is shared book reading.", taxonomy)
        assert (parsed.label, parsed.tier) == ("shared book reading", MatchTier.FUZZY)

    def test_taxonomy_normalized_once(self, taxonomy, monkeypatch):
        texts = []
        monkeypatch.setattr(parsing, "normalize", lambda text: texts.append(text) or normalize(text))
        taxonomy = ActivityTaxonomy(name=taxonomy.name, labels=taxonomy.labels, aliases=taxonomy.aliases)
        for text in ["toy play", "book reading", "we did some toy play", "???"] * 5:
            parse_label(text, taxonomy)
        assert len(texts) == 20 + len(taxonomy.labels) + len(taxonomy.aliases)

    def test_no_full_label_is_unknown(self, taxonomy):
        parsed = parse_label("could be reading or singing", taxonomy)
        assert parsed.tier is MatchTier.UNKNOWN
        assert parsed.label is None

    def test_earliest_occurrence_wins(self, taxonomy):
        text = "first toy play, later shared book reading"
        assert parse_label(text, taxonomy).label == "toy play"

    def test_longer_label_wins_at_the_same_position(self):
        taxonomy = ActivityTaxonomy(name="t", labels=("toy", "toy play"))
        parsed = parse_label("we saw toy play here", taxonomy)
        assert (parsed.label, parsed.tier) == ("toy play", MatchTier.FUZZY)
        assert parse_label("we saw toy blocks", taxonomy).label == "toy"

    @pytest.mark.parametrize("text", ["Withdrawing from the table.", "They watch a screenplay."])
    def test_fuzzy_matches_whole_words_only(self, text):
        taxonomy = ActivityTaxonomy(name="t", labels=("drawing", "play"))
        assert parse_label(text, taxonomy).tier is MatchTier.UNKNOWN

    def test_totality_never_raises(self, taxonomy):
        for text in ("", "   ", "?!", "\n\n", "42"):
            assert parse_label(text, taxonomy).tier in set(MatchTier)


class TestParseBinary:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("Yes, the child appears agitated.", True),
            ("No.", False),
            ("Present", True),
            ("absent.", False),
            ("The child is calm.", None),
            ("Nothing notable.", None),  # 'no' must be standalone
            ("presentation of toys", None),
        ],
    )
    def test_token_rule(self, text, expected):
        assert parse_binary(text) is expected

    def test_first_token_decides(self):
        assert parse_binary("no, wait, yes") is False


_FILLER_WORDS = st.lists(
    st.sampled_from(["the", "child", "and", "adult", "are", "calmly", "together", "now"]),
    min_size=0,
    max_size=6,
)


@given(prefix=_FILLER_WORDS, suffix=_FILLER_WORDS, label_index=st.integers(min_value=0, max_value=2))
@settings(max_examples=200, deadline=None)
def test_wrapping_prose_degrades_exact_to_fuzzy_same_label(prefix, suffix, label_index):
    taxonomy = ActivityTaxonomy(
        name="t", labels=("shared book reading", "singing, reciting", "toy play")
    )
    label = taxonomy.labels[label_index]
    text = " ".join([*prefix, label, *suffix])
    parsed = parse_label(text, taxonomy)
    assert parsed.label == label
    assert parsed.tier in (MatchTier.EXACT, MatchTier.FUZZY)


_LETTERS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=4)


@given(
    prefix=_FILLER_WORDS,
    label_index=st.integers(min_value=0, max_value=2),
    before=st.one_of(st.just(""), _LETTERS),
    after=st.one_of(st.just(""), _LETTERS),
)
@settings(max_examples=200, deadline=None)
def test_label_glued_to_extra_letters_never_matches(prefix, label_index, before, after):
    taxonomy = ActivityTaxonomy(name="t", labels=("drawing", "toy play", "singing"))
    if not before and not after:
        after = "s"
    text = " ".join([*prefix, before + taxonomy.labels[label_index] + after, "today"])
    assert parse_label(text, taxonomy).tier is MatchTier.UNKNOWN


@given(text=st.text(max_size=80))
@settings(max_examples=200, deadline=None)
def test_parsing_is_total_and_deterministic(text):
    taxonomy = ActivityTaxonomy(name="t", labels=("alpha beta", "gamma"))
    assert parse_label(text, taxonomy) == parse_label(text, taxonomy)
    assert parse_binary(text) == parse_binary(text)


def test_normalize():
    assert normalize("  Singing,  Reciting! ") == "singing reciting"
    assert normalize("") == ""
