"""Positive braid words: the word type, its text grammar, and torus words.

Letters are generator indices 1..strands-1, composed bottom-to-top.  This
module builds words and :mod:`torusknot.braid` decides their equality, so a
diagram built from a word loads no normal-form code.

The word grammar accepted by :func:`parse_braid`::

    word   := term+
    term   := digit | '{' name '}' | '(' word ')' | term '^' integer
    digit  := '1'..'9'            (a generator index)

ASCII whitespace is ignored; exponents are nonnegative; named macros expand
to fixed words (see ``_MACROS``), with ``{delta_p}`` expanding to the
full twist on the current strand count.  Digits and whitespace are ASCII
only.  An exponent takes every digit that follows it: ``(1)^32`` is 32
letters, while ``(1)^3 2`` is ``1112``.  A word that would grow past
``MAX_WORD_LETTERS`` letters raises WordTooLong before it is built.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple

from ._gate import _check_ints

__all__ = [
    "ParseError", "UnknownMacro", "IndexOutOfRange", "StrandMismatch",
    "UnsupportedTorusFamily", "WordTooLong", "MAX_WORD_LETTERS", "BraidWord",
    "parse_braid", "torus_braid_word", "lemma_word",
]

whitespace = " \t\n\r\x0b\x0c"  # string.whitespace: the ASCII whitespace characters


class ParseError(ValueError):
    """Malformed braid-word text."""


class UnknownMacro(ParseError):
    """A '{name}' macro not present in the macro table."""


class IndexOutOfRange(ValueError):
    """A generator index that does not exist on this strand count."""


class StrandMismatch(ValueError):
    """Two words on different strand counts were combined or compared."""


class UnsupportedTorusFamily(ValueError):
    """lemma_word was asked for a (p, q) outside the tabulated families."""


class WordTooLong(ValueError):
    """A word of more than MAX_WORD_LETTERS letters, refused before it is built."""


MAX_WORD_LETTERS = 2**16


def _check_length(letters: int) -> None:
    if letters > MAX_WORD_LETTERS:
        raise WordTooLong(
            f"a word of {letters} letters is above the cap of {MAX_WORD_LETTERS}"
        )


class BraidWord:
    """A positive braid word: generator letters read bottom-to-top.

    ``letters`` is a tuple of ints; on at most 256 strands the word stores
    it as ``bytes``, one byte a letter where a tuple takes eight.
    """

    __slots__ = ("strands", "_letters")

    strands: int

    def __init__(self, strands: int, letters: Iterable[int]) -> None:
        letters = tuple(letters)  # a list would leave the word unhashable
        if type(strands) is not int:  # bools are ints to isinstance
            raise TypeError(f"strand count {strands!r} is not an int")
        if strands < 1:
            raise ValueError("strand count must be positive")
        for g in letters:
            if type(g) is not int or not 1 <= g < strands:
                if type(g) is not int:  # a float would print as a letter
                    raise TypeError(f"generator {g!r} is not an int")
                raise IndexOutOfRange(f"generator {g} does not exist on {strands} strands")
        object.__setattr__(self, "strands", strands)
        compact = bytes(letters) if strands <= 256 else letters
        object.__setattr__(self, "_letters", compact)

    @property
    def letters(self) -> tuple[int, ...]:
        return tuple(self._letters)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.strands, self._letters) == (other.strands, other._letters)

    def __hash__(self) -> int:
        return hash((self.strands, self.letters))  # a tuple's hash is not salted

    def __repr__(self) -> str:
        return f"BraidWord(strands={self.strands!r}, letters={self.letters!r})"

    def __reduce__(self) -> tuple:
        return BraidWord, (self.strands, self.letters)

    def __len__(self) -> int:
        return len(self._letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if not isinstance(other, BraidWord):
            return NotImplemented
        if self.strands != other.strands:
            raise StrandMismatch(
                f"cannot concatenate words on {self.strands} and {other.strands} strands"
            )
        _check_length(len(self._letters) + len(other._letters))
        return BraidWord(self.strands, self._letters + other._letters)

    def __pow__(self, n: int) -> "BraidWord":
        if n < 0:
            raise ValueError("positive braid words only")
        _check_length(len(self._letters) * n)
        return BraidWord(self.strands, self._letters * n)

    def rotate(self, k: int) -> "BraidWord":
        """Cyclic rotation: move the first k letters to the end."""
        if not self._letters:
            return self
        k %= len(self._letters)
        return BraidWord(self.strands, self._letters[k:] + self._letters[:k])

    def as_text(self) -> str:
        return "".join(map(str, self._letters))

    def __str__(self) -> str:
        return self.as_text() or "(empty)"


# ----------------------------------------------------------------------
# parsing


def _full_twist_letters(strands: int) -> tuple[int, ...]:
    _check_length((strands - 1) * strands)
    return tuple(range(1, strands)) * strands


# The named macros: fixed words, and the full twist on the word's strand count.
_MACROS: dict[str, "tuple[int, ...] | Callable[[int], tuple[int, ...]]"] = {
    "alpha": (3, 2, 3, 3, 1, 1),
    "beta": (3, 1, 1, 2, 3, 1, 1, 2, 3, 3, 4, 3, 1, 1),
    "gamma": (3, 1, 1, 2, 3, 1, 1, 2, 3, 1, 1),
    "zeta": (1, 3, 3, 5, 4, 5, 3, 3, 2, 3, 3, 4, 5, 1, 3),
    "eta": (3, 1, 5, 5, 3, 1, 2, 1, 3),
    "delta_p": _full_twist_letters,
}


def parse_braid(text: str, strands: int) -> BraidWord:
    """Parse braid-word text into a BraidWord on ``strands`` strands.

    >>> parse_braid("(123)^2 1^3", 4).as_text()
    '123123111'
    """
    try:
        letters, pos = _parse_word(text, 0, strands)
    except RecursionError:
        raise ParseError("word nested too deeply to parse") from None
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise ParseError(f"unexpected {text[pos]!r} at offset {pos}")
    return BraidWord(strands, tuple(letters))


def _skip_ws(s: str, i: int) -> int:
    while i < len(s) and s[i] in whitespace:  # str.isspace also takes U+3000
        i += 1
    return i


def _parse_word(s: str, i: int, strands: int) -> tuple[list[int], int]:
    out: list[int] = []
    while True:
        i = _skip_ws(s, i)
        if i >= len(s) or s[i] == ")":
            return out, i
        term, i = _parse_term(s, i, strands)
        _check_length(len(out) + len(term))
        out.extend(term)


def _parse_term(s: str, i: int, strands: int) -> tuple[list[int], int]:
    ch = s[i]
    if "0" <= ch <= "9":  # str.isdigit also takes other scripts' digits
        g = int(ch)
        if not 1 <= g <= strands - 1:
            raise IndexOutOfRange(
                f"generator {g} at offset {i} does not exist on {strands} strands"
            )
        base = [g]
        i += 1
    elif ch == "{":
        close = s.find("}", i)
        if close < 0:
            raise ParseError(f"unclosed macro brace at offset {i}")
        name = s[i + 1 : close].strip(whitespace)
        if name not in _MACROS:
            raise UnknownMacro(f"unknown macro {name!r} at offset {i}")
        expansion = _MACROS[name]
        if callable(expansion):
            expansion = expansion(strands)
        for g in expansion:
            if not 1 <= g <= strands - 1:
                raise IndexOutOfRange(
                    f"macro {name!r} uses generator {g}, absent on {strands} strands"
                )
        base = list(expansion)
        i = close + 1
    elif ch == "(":
        inner, i = _parse_word(s, i + 1, strands)
        i = _skip_ws(s, i)
        if i >= len(s) or s[i] != ")":
            raise ParseError(f"unclosed parenthesis at offset {i}")
        base = inner
        i += 1
    else:
        raise ParseError(f"unexpected {ch!r} at offset {i}")
    while True:
        j = _skip_ws(s, i)
        if j < len(s) and s[j] == "^":
            j += 1
            j = _skip_ws(s, j)
            start = j
            if j < len(s) and s[j] == "-":
                raise ParseError(f"negative exponent at offset {j}: positive words only")
            while j < len(s) and "0" <= s[j] <= "9":
                j += 1
            if j == start:
                raise ParseError(f"missing exponent at offset {start}")
            count = int(s[start:j])
            _check_length(len(base) * count)
            base = base * count
            i = j
        else:
            return base, i


# ----------------------------------------------------------------------
# torus words and their tabulated rewritings


def torus_braid_word(p: int, q: int) -> BraidWord:
    """The standard (p, q) torus word: (sigma_1 ... sigma_{p-1})^q on p strands."""
    _check_ints(p, q)
    if p < 1 or q < 0:
        raise ValueError(f"invalid torus braid parameters ({p}, {q})")
    _check_length((p - 1) * q)
    return BraidWord(p, tuple(range(1, p)) * q)


class _Family(NamedTuple):
    """One row of the family table ``_FAMILIES``; its fields are described there."""

    word: tuple[tuple[str, int, int], ...]
    conjugator: str
    s_b: tuple[int, int]
    g_t: tuple[int, int]
    dealternating: tuple[int, int]
    known_upper: tuple[int, int]
    note: str


_BY_IMPORT = "attained by a hand-modified closure (import as a PD file)"
_BY_TABLE = "attained by the tabulated diagram"

# The tabulated families T(p, pn + r), n >= 1, keyed by (p, r), in the order
# verify_lemmas checks them.  In each row:
# * word rewrites the torus word as chunks (text, a, b): the letters of text,
#   in the parse_braid grammar, written a*n + b times, chunk after chunk;
# * conjugator is a word c in the same grammar with word * c == c * torus word:
#   empty where the two are equal, one letter where word equals the torus word
#   once that letter is rotated from its front to its back (closures agree);
# * s_b, g_t and dealternating are the all-B circle count, Turaev genus and
#   dealternating number of the closure of word, and known_upper is the best
#   known dealternating upper bound of T(p, q), each a pair (a, b) for a*n + b;
# * note says what attains known_upper; where dealternating is above it, no
#   diagram built here does.
_FAMILIES: dict[tuple[int, int], _Family] = {
    (4, 0): _Family(
        (("1", 2, 0), ("3", 2, 0), ("2132", 2, 0)),
        "", (8, -2), (2, 0), (4, 0), (2, 1), _BY_IMPORT,
    ),
    (4, 1): _Family(
        (("1", 2, 0), ("3", 2, 0), ("2132", 2, -1), ("2131213", 0, 1)),
        "", (8, 1), (2, 0), (4, 0), (2, 1), _BY_IMPORT,
    ),
    (4, 2): _Family(
        (("1", 2, 2), ("3", 2, 0), ("2132", 2, 1)),
        "", (8, 2), (2, 1), (4, 2), (2, 2), _BY_IMPORT,
    ),
    (4, 3): _Family(
        (("1", 2, 2), ("3", 2, 0), ("2132", 2, 0), ("2131213", 0, 1)),
        "", (8, 5), (2, 1), (4, 2), (2, 2),
        "best known value; the hand-modified closure attains 2n+3, one more than this",
    ),
    (5, 0): _Family(
        (("2311", 0, 1), ("{alpha}", 1, -1), ("234", 0, 1), ("{beta}", 1, -1),
         ("{gamma}43", 0, 1)),
        "", (12, -3), (4, 0), (4, 2), (4, 1), _BY_IMPORT,
    ),
    (5, 1): _Family(
        (("1323311", 0, 1), ("{alpha}", 1, -1), ("234", 0, 1), ("{beta}", 1, -1),
         ("{gamma}343", 0, 1)),
        "", (12, 1), (4, 0), (4, 2), (4, 1), _BY_IMPORT,
    ),
    (5, 2): _Family(
        (("1231323311", 0, 1), ("{alpha}", 1, -1), ("234", 0, 1), ("{beta}", 1, -1),
         ("{gamma}3433", 0, 1)),
        "", (12, 3), (4, 1), (4, 3), (4, 2), _BY_IMPORT,
    ),
    (5, 3): _Family(
        (("12131231323311", 0, 1), ("{alpha}", 1, -1), ("234", 0, 1),
         ("{beta}", 1, -1), ("{gamma}3433", 0, 1)),
        "2", (12, 5), (4, 2), (4, 4), (4, 3), _BY_IMPORT,
    ),
    (5, 4): _Family(
        (("2311", 0, 1), ("{alpha}", 1, 0), ("234", 0, 1), ("{beta}", 1, 0),
         ("311231422", 0, 1)),
        "", (12, 7), (4, 3), (4, 7), (4, 4), _BY_IMPORT,
    ),
    (6, 0): _Family(
        (("2", 0, 1), ("{zeta}323", 1, -1), ("{zeta}234", 0, 1), ("{eta}343", 1, -1),
         ("{eta}43", 0, 1)),
        "", (18, -4), (6, 0), (6, 2), (6, 2), _BY_TABLE,
    ),
    (6, 1): _Family(
        (("1323", 0, 1), ("{zeta}323", 1, -1), ("{zeta}234", 0, 1),
         ("{eta}343", 1, -1), ("{eta}3435", 0, 1)),
        "", (18, 1), (6, 0), (6, 2), (6, 2), _BY_TABLE,
    ),
}


def _family(p: int, q: int) -> tuple[_Family | None, int]:
    """The table row of T(p, q) (None outside the table) and its n = q // p."""
    _check_ints(p, q)
    n, r = divmod(q, p) if p >= 1 else (0, 0)
    return (_FAMILIES.get((p, r)) if n >= 1 else None), n


def lemma_word(p: int, q: int) -> BraidWord:
    """The tabulated rewriting of the (p, q) torus word, p in {4, 5, 6}.

    These are the words whose closures have small all-B Kauffman state
    counts; each is conjugate to the standard torus word by its family's
    conjugator word (equal to it where that is empty), which
    :func:`verify_lemmas` replays.  Requires q >= p (so n = q // p >= 1)
    and a tabulated residue q % p; raises UnsupportedTorusFamily otherwise.
    """
    family, n = _family(p, q)
    if family is None:
        raise UnsupportedTorusFamily(
            f"no tabulated rewriting for the ({p}, {q}) torus word"
        )
    _check_length((p - 1) * q)  # a rewriting is as long as the torus word
    letters: list[int] = []
    for chunk, a, b in family.word:
        letters.extend(parse_braid(chunk, p).letters * (a * n + b))
    return BraidWord(p, tuple(letters))

