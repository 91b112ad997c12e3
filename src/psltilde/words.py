"""Reduced words in free generators and their cyclic canonical forms."""
from __future__ import annotations

from dataclasses import dataclass

Letter = tuple[str, int]  # (generator name, exponent +1 or -1)


def _join(pieces) -> tuple[Letter, ...]:
    """Free reduction of the concatenation of freely reduced pieces: letters
    cancel only across the junctions, so the cost is one step per piece and
    per cancelled pair."""
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


def cyclic_reduce(w: CurveWord) -> CurveWord:
    letters = w.letters
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i][0] == letters[j - 1][0] \
            and letters[i][1] == -letters[j - 1][1]:
        i += 1
        j -= 1
    return CurveWord._reduced(letters[i:j])


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


def canonical_form(w: CurveWord) -> CurveWord:
    """Lexicographically least rotation among the cyclic reduction of w and
    its inverse; idempotent, shared by all conjugates and by w^-1.

    Letters are ordered by generator name as strings ("c10" < "c2"), and
    (g, +1) before (g, -1). Each letter becomes one character of that rank,
    so the rotations compare as strings; only rotations that start at the
    least character are compared, which keeps the cost near linear."""
    core = cyclic_reduce(w).letters
    if not core:
        return EMPTY_WORD
    code, inverse_code, decode = {}, {}, {}
    for r, gen in enumerate(sorted({g for g, _ in set(core)})):
        pos, neg = chr(2 * r), chr(2 * r + 1)
        code[gen, 1] = inverse_code[gen, -1] = pos
        code[gen, -1] = inverse_code[gen, 1] = neg
        decode[pos], decode[neg] = (gen, 1), (gen, -1)
    best = min(
        _least_rotation("".join(map(code.__getitem__, core))),
        _least_rotation("".join(map(inverse_code.__getitem__,
                                    reversed(core)))))
    return CurveWord._reduced(tuple(map(decode.__getitem__, best)))


def substitute(w: CurveWord, images: dict[str, CurveWord]) -> CurveWord:
    """Apply a generator substitution (endomorphism of the free group)."""
    table = {}
    for gen, exp in set(w.letters):
        img = images[gen].letters
        table[gen, exp] = img if exp == 1 else _inverse(img)
    return CurveWord._reduced(_join(map(table.__getitem__, w.letters)))
