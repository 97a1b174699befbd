"""Words over a free basis, free reduction, and the torsion Dehn algorithm.

A letter is a pair ``(symbol, sign)`` with sign +1 or -1; a word is a tuple
of letters.  A dart ``(edge, sign)`` has the same shape and a dart path is a
word over the edge ids, so inversion, free reduction and least rotation here
are also the package's path algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from .orbicomplex import OneRelatorOrbicomplex

Letter = tuple[str, int]
Word = tuple[Letter, ...]


def inverse_letter(letter: Letter) -> Letter:
    sym, sign = letter
    return (sym, -sign)


def inverse_word(word: Sequence[Letter]) -> Word:
    return tuple(inverse_letter(x) for x in reversed(word))


def free_reduce(word: Iterable[Letter], cyclic: bool = False) -> Word:
    """Cancel adjacent inverse pairs; with ``cyclic`` also reduce around the seam."""
    out: list[Letter] = []
    for letter in word:
        if out and out[-1] == inverse_letter(letter):
            out.pop()
        else:
            out.append(letter)
    if cyclic:
        while len(out) >= 2 and out[0] == inverse_letter(out[-1]):
            out.pop()
            out.pop(0)
    return tuple(out)


def least_rotation(word: Sequence[Letter]) -> Word:
    """The lexicographically least cyclic rotation; ``()`` for the empty word."""
    w = tuple(word)
    return min((w[r:] + w[:r] for r in range(len(w))), default=())


def is_cyclically_reduced(word: Sequence[Letter]) -> bool:
    if not word:
        return True
    if tuple(word) != free_reduce(word):
        return False
    return word[0] != inverse_letter(word[-1]) or len(word) == 1


def is_proper_power(word: Sequence[Letter]) -> tuple[bool, Word, int]:
    """Rotation scan of a cyclically reduced word for a root of exponent >= 2.

    Returns ``(True, root, k)`` with word == root * k and k maximal, else
    ``(False, word, 1)``.
    """
    w = tuple(word)
    if not w:
        raise ValueError("empty word has no power decomposition")
    if not is_cyclically_reduced(w):
        raise ValueError("power decomposition expects a cyclically reduced word")
    n = len(w)
    for d in range(1, n):
        if n % d == 0 and w == w[:d] * (n // d):
            return (True, w[:d], n // d)
    return (False, w, 1)


def parse_word(text: str, alphabet: Iterable[str] | None = None) -> Word:
    """Parse whitespace-separated letters; ``~`` suffix marks an inverse."""
    allowed = set(alphabet) if alphabet is not None else None
    letters: list[Letter] = []
    for token in text.split():
        if token.endswith("~"):
            sym, sign = token[:-1], -1
        else:
            sym, sign = token, 1
        if not sym or "~" in sym:
            raise ValueError(f"bad letter token {token!r}")
        if allowed is not None and sym not in allowed:
            raise ValueError(f"letter {sym!r} not in alphabet")
        letters.append((sym, sign))
    return tuple(letters)


def format_word(word: Sequence[Letter]) -> str:
    return " ".join(sym + ("~" if sign < 0 else "") for sym, sign in word)


@dataclass(frozen=True)
class DehnStep:
    """One replacement: the matched subword and the rotation that supplied it."""

    position: int
    length: int
    rotation: int
    sign: int


@dataclass(frozen=True)
class DehnResult:
    trivial: bool
    remnant: Word
    steps: tuple[DehnStep, ...]


def _rotation_table(relator: Word) -> list[tuple[int, int, Word]]:
    m = len(relator)
    inv = inverse_word(relator)
    table = []
    for idx in range(m):
        table.append((idx, 1, relator[idx:] + relator[:idx]))
        table.append((idx, -1, inv[idx:] + inv[:idx]))
    return table


def dehn_solve(word: Sequence[Letter], x: "OneRelatorOrbicomplex",
               strong_threshold: bool = False) -> DehnResult:
    """Decide triviality in the group of ``x`` by greedy long-subword replacement.

    Repeatedly finds a factor of a cyclic rotation of the relator power (or
    its inverse) of length at least floor(n|w|/2) + 1 and swaps it for the
    inverse of the complementary piece, free-reducing in between.  Each swap
    strictly shortens the word, and a freely reduced word with no such factor
    is nontrivial, so reaching the empty word is a complete triviality test.
    ``strong_threshold`` raises the bar to (n-1)|w| + 1.
    """
    n = x.branch_index
    if n < 2:
        raise ValueError("word problem routine requires branch index >= 2")
    base = x.relator_word()
    u = free_reduce(word)
    if tuple(word) != u:
        raise ValueError("input word must be freely reduced")
    relator = base * n
    m = len(relator)
    threshold = (n - 1) * len(base) + 1 if strong_threshold else m // 2 + 1
    table = _rotation_table(base * n)
    steps: list[DehnStep] = []
    while u:
        found = None
        for i in range(len(u)):
            best = None
            cap = min(len(u) - i, m)
            if cap < threshold:
                continue
            for idx, sign, rot in table:
                match = 0
                while match < cap and u[i + match] == rot[match]:
                    match += 1
                if match >= threshold and (best is None or match > best[0]):
                    best = (match, idx, sign, rot)
            if best is not None:
                found = (i, best)
                break
        if found is None:
            return DehnResult(False, u, tuple(steps))
        i, (length, idx, sign, rot) = found
        replacement = inverse_word(rot[length:])
        u = free_reduce(u[:i] + replacement + u[i + length:])
        steps.append(DehnStep(i, length, idx, sign))
    return DehnResult(True, (), tuple(steps))
