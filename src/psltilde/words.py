"""Reduced words in free generators and their cyclic canonical forms."""
from __future__ import annotations

from dataclasses import dataclass

from .errors import UnknownGenerator

Letter = tuple[str, int]  # (generator name, exponent +1 or -1)


def _join(pieces) -> tuple[Letter, ...]:
    """Free reduction of the concatenation of freely reduced pieces: letters
    cancel only across the junctions, so the cost is one step per piece and
    per cancelled pair. It builds words (CurveWord(...) and *); substitution
    and canonical forms run on Alphabet code strings."""
    out: list[Letter] = []
    for piece in pieces:
        k, n = 0, len(piece)
        while out and k < n and out[-1][0] == piece[k][0] \
                and out[-1][1] == -piece[k][1]:
            out.pop()
            k += 1
        out.extend(piece[k:] if k else piece)
    return tuple(out)


def _inverse(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    return tuple((g, -e) for g, e in reversed(letters))


@dataclass(frozen=True)
class CurveWord:
    """Freely reduced word; letters are (generator, +-1) pairs."""

    letters: tuple[Letter, ...]

    def __init__(self, letters=()):
        # a token (g, k) expands to |k| equal letters, a freely reduced piece
        object.__setattr__(self, "letters", _join(
            ((gen, 1 if exp > 0 else -1),) * abs(exp) for gen, exp in letters))

    @classmethod
    def _reduced(cls, letters: tuple[Letter, ...]) -> "CurveWord":
        """The word of letters that are already freely reduced."""
        w = object.__new__(cls)
        object.__setattr__(w, "letters", letters)
        return w

    def __mul__(self, other: "CurveWord") -> "CurveWord":
        return CurveWord._reduced(_join((self.letters, other.letters)))

    def inv(self) -> "CurveWord":
        return CurveWord._reduced(_inverse(self.letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __str__(self) -> str:
        return format_word(self)

    def generators(self) -> set[str]:
        return {g for g, _ in self.letters}

    def exponent_sum(self, gen: str) -> int:
        return sum(e for g, e in self.letters if g == gen)


EMPTY_WORD = CurveWord(())


def word(*tokens) -> CurveWord:
    """Build a word from tokens like "a1", ("b1", -1), or CurveWords."""
    letters: list[Letter] = []
    for tok in tokens:
        if isinstance(tok, CurveWord):
            letters.extend(tok.letters)
        elif isinstance(tok, str):
            letters.append((tok, 1))
        else:
            letters.append(tok)
    return CurveWord(letters)


def parse_word(text: str) -> CurveWord:
    """Parse "a1 b1^-1 c2" (whitespace-separated, integer exponents)."""
    letters: list[Letter] = []
    for tok in text.split():
        if "^" in tok:
            gen, _, expstr = tok.partition("^")
            letters.append((gen, int(expstr)))
        else:
            letters.append((tok, 1))
    return CurveWord(letters)


def format_word(w: CurveWord) -> str:
    return " ".join(g if e == 1 else f"{g}^-1" for g, e in w.letters)


def _least_rotation(s: str) -> str:
    # a least rotation starts at an occurrence of the least character
    n, doubled, c = len(s), s + s, min(s)
    best = s
    i = s.find(c)
    while i >= 0:
        rot = doubled[i:i + n]
        if rot < best:
            best = rot
        i = s.find(c, i + 1)
    return best


class Alphabet:
    """One character per letter, so that words are strings and substitution
    and free reduction run in C-level string operations.

    The generator of rank r in name order (as strings: "c10" < "c2") has
    (g, +1) coded chr(2r) and (g, -1) coded chr(2r + 1). Coded words thus
    compare as canonical forms order letters, and the inverse of a letter
    is its code XOR 1."""

    def __init__(self, gens):
        self.letters = tuple((g, e) for g in sorted(set(gens)) for e in (1, -1))
        self.codes = {letter: chr(k) for k, letter in enumerate(self.letters)}
        self._decode = dict(zip(self.codes.values(), self.letters))
        self._inverse = {k: k ^ 1 for k in range(len(self.letters))}
        self._pairs = tuple(chr(k) + chr(k ^ 1)
                            for k in range(len(self.letters)))

    def encode(self, w: CurveWord) -> str:
        """The code string of w; a generator outside the alphabet raises
        UnknownGenerator naming it."""
        try:
            return "".join(map(self.codes.__getitem__, w.letters))
        except KeyError as exc:
            raise UnknownGenerator(exc.args[0][0]) from None

    def decode(self, s: str) -> CurveWord:
        """The word of a freely reduced code string."""
        return CurveWord._reduced(tuple(map(self._decode.__getitem__, s)))

    def inverse(self, s: str) -> str:
        return s[::-1].translate(self._inverse)

    def tuple_key(self, s: str) -> str:
        """Sort key of code strings in the order of their letter tuples,
        which put (g, -1) before (g, +1): each code XOR 1."""
        return s.translate(self._inverse)

    def reduce(self, s: str) -> str:
        """Free reduction: every pass deletes the adjacent inverse pairs, one
        layer of each cancellation, until a pass deletes nothing."""
        while True:
            n = len(s)
            for pair in self._pairs:
                s = s.replace(pair, "")
            if len(s) == n:
                return s

    def substitution(self, images: dict[str, CurveWord]) -> dict[int, str]:
        """str.translate table of a generator substitution; letters of
        generators without an image are left as they are."""
        table = {}
        for gen, img in images.items():
            code = self.encode(img)
            table[ord(self.codes[gen, 1])] = code
            table[ord(self.codes[gen, -1])] = self.inverse(code)
        return table

    def substitute(self, s: str, table: dict[int, str]) -> str:
        """Image of a freely reduced code string under a substitution table."""
        return self.reduce(s.translate(table))

    def canonical(self, s: str) -> str:
        """Least rotation among the cyclic reduction of a freely reduced
        code string and its inverse. Only rotations that start at the least
        character are compared, which keeps the cost near linear."""
        i, j = 0, len(s)
        while j - i >= 2 and ord(s[i]) ^ 1 == ord(s[j - 1]):
            i += 1
            j -= 1
        core = s[i:j]
        if not core:
            return core
        return min(_least_rotation(core), _least_rotation(self.inverse(core)))


def canonical_form(w: CurveWord) -> CurveWord:
    """Lexicographically least rotation among the cyclic reduction of w and
    its inverse; idempotent, shared by all conjugates and by w^-1.

    Letters are ordered by generator name as strings ("c10" < "c2"), and
    (g, +1) before (g, -1): the order of Alphabet codes."""
    alphabet = Alphabet(w.generators())
    return alphabet.decode(alphabet.canonical(alphabet.encode(w)))


def substitute(w: CurveWord, images: dict[str, CurveWord]) -> CurveWord:
    """Apply a generator substitution (endomorphism of the free group)."""
    gens = w.generators()
    images = {gen: images[gen] for gen in gens}
    alphabet = Alphabet(gens.union(*(img.generators()
                                     for img in images.values())))
    return alphabet.decode(alphabet.substitute(
        alphabet.encode(w), alphabet.substitution(images)))
