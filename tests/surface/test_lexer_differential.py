"""The table-driven lexer against the character-loop oracle.

:mod:`repro.surface.lexer` scans with one master regex per token;
``reference_lexer`` is the character loop it replaced.  On every input
both must produce the same tokens and spans, or the same
``SyntaxProblem`` message and span.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.counter import SOURCE as COUNTER
from repro.apps.mortgage import BASE_SOURCE
from repro.core.errors import SyntaxProblem
from repro.surface.lexer import tokenize

from .reference_lexer import tokenize as reference_tokenize

_SETTINGS = settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: The robustness suite's alphabet plus the characters the two lexers
#: classify by different means: escapes, stray operators, CR, and
#: non-ASCII letters and digits (``²`` is a digit to ``str.isdigit``
#: but not to ``re``'s ``\d``; ``½`` is numeric but neither a digit nor
#: a letter; ``٣`` is a non-ASCII decimal digit).
_ALPHABET = (
    "abcxyz0123456789 \n\t\"'()[]:=+-*/%<>|.,_"
    "globalpagefunrenderinitboxedpostontapifthenelsefordowhile"
    "\\!\r²½٣éΩ①Ⅻ"
)


def outcome(lex, source):
    """Tokens as ``(kind, text, span)``, or the problem's message and span."""
    try:
        return [(token.kind, token.text, token.span) for token in lex(source)]
    except SyntaxProblem as problem:
        return ("SyntaxProblem", problem.message, problem.span)


def assert_same(source):
    assert outcome(tokenize, source) == outcome(reference_tokenize, source)


class TestAgreesWithReference:
    @_SETTINGS
    @given(source=st.text(alphabet=_ALPHABET, max_size=200))
    def test_robustness_alphabet(self, source):
        assert_same(source)

    @_SETTINGS
    @given(source=st.text(max_size=80))
    def test_full_unicode(self, source):
        assert_same(source)

    @_SETTINGS
    @given(source=st.text(alphabet=" \t\r\n/x1.\"", max_size=60))
    def test_tabs_and_carriage_returns(self, source):
        assert_same(source)

    @_SETTINGS
    @given(
        base=st.sampled_from([COUNTER, BASE_SOURCE]),
        data=st.data(),
        kind=st.sampled_from(["insert", "delete", "replace"]),
        char=st.one_of(st.sampled_from(_ALPHABET), st.characters()),
    )
    def test_point_mutations_of_the_apps(self, base, data, kind, char):
        at = data.draw(st.integers(min_value=0, max_value=len(base)))
        if kind == "insert":
            source = base[:at] + char + base[at:]
        elif kind == "delete":
            source = base[:at] + base[at + 1:]
        else:
            source = base[:at] + char + base[at + 1:]
        assert_same(source)

    def test_the_apps_verbatim(self):
        for source in (COUNTER, BASE_SOURCE):
            assert_same(source)

    def test_edge_cases(self):
        for source in (
            "", "  ", "\n\n", "// only a comment", "a\n  // c", "x  ",
            "a\n\tb\n    c\n", "a\n  b\n c\n", "x\r\n", '"a\\qb"', '"ab',
            '"a\nb"', '"a\\', '"a\\n\\t\\"\\\\b"', "1.2.3", "1.", ".5",
            "..5", "12²", "1.5²", "1.²", ".²", "x²", "é1", "½", "٣.٣",
            "a!b", "a != b", "f(x)//c\n", "x /\n/ y",
        ):
            assert_same(source)
