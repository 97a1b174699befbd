"""Words over a free basis, free reduction, and the torsion Dehn algorithm.

A letter is a pair ``(symbol, sign)`` with sign +1 or -1; a word is a tuple
of letters.  A dart ``(edge, sign)`` has the same shape and a dart path is a
word over the edge ids, so inversion and free reduction here are also the
package's path algebra.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Container, Iterable, NamedTuple, Sequence

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
        if out and out[-1] == (letter[0], -letter[1]):
            out.pop()
        else:
            out.append(letter)
    if cyclic:
        while len(out) >= 2 and out[0] == inverse_letter(out[-1]):
            out.pop()
            out.pop(0)
    return tuple(out)


def is_reduced(word: Sequence[Letter]) -> bool:
    """No letter is followed by its inverse."""
    last_sym, last_sign = None, 0
    for sym, sign in word:
        if sym == last_sym and sign != last_sign:
            return False
        last_sym, last_sign = sym, sign
    return True


def is_cyclically_reduced(word: Sequence[Letter]) -> bool:
    if not word:
        return True
    if not is_reduced(word):
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
    letters: list[Letter] = []
    for token in text.split():
        if token.endswith("~"):
            sym, sign = token[:-1], -1
        else:
            sym, sign = token, 1
        if not sym or "~" in sym:
            raise ValueError(f"bad letter token {token!r}")
        letters.append((sym, sign))
    if alphabet is not None:
        _check_letters(letters, set(alphabet))
    return tuple(letters)


def format_word(word: Sequence[Letter]) -> str:
    return " ".join(sym + ("~" if sign < 0 else "") for sym, sign in word)


def _check_letters(word: Iterable[Letter], symbols: Container[str]) -> None:
    """Refuse the first letter of ``word``, in reading order, that names no
    loop in ``symbols`` or whose sign is not 1 or -1."""
    for sym, sign in word:
        if sym not in symbols:
            raise ValueError(f"letter {sym!r} is not a loop of the rose")
        if sign != 1 and sign != -1:
            raise ValueError(f"letter {sym!r} has sign {sign!r}, not 1 or -1")


def _require_torsion(x: "OneRelatorOrbicomplex") -> "OneRelatorOrbicomplex":
    """``x`` when its branch index is at least 2, as the word problem, the
    subgroup pipeline and the campaigns need."""
    if x.branch_index < 2:
        raise ValueError(
            f"branch index must be at least 2, got {x.branch_index}")
    return x


class DehnStep(NamedTuple):
    """One replacement: the matched subword and the rotation that supplied it."""

    position: int
    length: int
    rotation: int
    sign: int


class DehnResult(NamedTuple):
    trivial: bool
    remnant: Word
    steps: tuple[DehnStep, ...]


def splice(u: Word, start: int, stop: int,
           r: Sequence[Letter]) -> tuple[Word, int]:
    """Free reduction of ``u[:start] + r + u[stop:]`` for freely reduced
    ``u`` and ``r``, and how many letters of ``u[:start]`` it keeps.  Only
    the seams can cancel, so the letters away from them are never visited."""
    left, k = start, 0
    while left and k < len(r) and u[left - 1] == (r[k][0], -r[k][1]):
        left -= 1
        k += 1
    right, j = stop, len(r)
    while j > k and right < len(u) and r[j - 1] == (u[right][0], -u[right][1]):
        j -= 1
        right += 1
    if j == k:      # r is used up: the two ends of u meet
        while left and right < len(u) and \
                u[left - 1] == (u[right][0], -u[right][1]):
            left -= 1
            right += 1
    return u[:left] + tuple(r[k:j]) + u[right:], left


def dehn_solve(word: Sequence[Letter], x: "OneRelatorOrbicomplex") -> DehnResult:
    """Decide triviality in the group of ``x`` by greedy long-subword replacement.

    Raises ValueError at the first letter that is not a loop of the rose,
    has a sign other than 1 or -1, or cancels the letter before it.

    Repeatedly finds a factor of a cyclic rotation of the relator power (or
    its inverse) of length at least floor(n|w|/2) + 1 and swaps it for the
    inverse of the complementary piece, free-reducing in between.  Each swap
    strictly shortens the word, and a freely reduced word with no such factor
    is nontrivial, so reaching the empty word is a complete triviality test.

    The first position with a match wins.  A match begins with
    ``threshold`` letters of its rotation, which name that rotation, so each
    position costs one lookup.  After a swap that keeps ``a`` letters of the
    old prefix, no position before ``a - threshold + 1`` can match: those
    letters lie in that prefix, where the previous scan found none.
    """
    threshold, index = _require_torsion(x)._dehn_index
    u = tuple(word)
    symbols = x.gamma.edges
    last_sym, last_sign = None, 0
    for sym, sign in u:
        # a repeat of the letter before was checked with that letter
        if sym != last_sym:
            if sym not in symbols or sign != 1 and sign != -1:
                _check_letters([(sym, sign)], symbols)
        elif sign != last_sign:
            _check_letters([(sym, sign)], symbols)
            raise ValueError("input word must be freely reduced")
        last_sym, last_sign = sym, sign
    steps: list[DehnStep] = []
    start = 0
    while u:
        for i in range(start, len(u) - threshold + 1):
            hit = index.get(u[i:i + threshold])
            if hit is not None:
                break
        else:
            return DehnResult(False, u, tuple(steps))
        idx, sign, rot, inv_rot = hit
        cap = min(len(u) - i, len(rot))
        length = threshold
        while length < cap and u[i + length] == rot[length]:
            length += 1
        # a match is a reduced factor longer than |w| of a word of period
        # |w|, so the relator power is cyclically reduced and so is the swap
        u, kept = splice(u, i, i + length, inv_rot[:len(rot) - length])
        steps.append(DehnStep(i, length, idx, sign))
        start = max(0, kept - threshold + 1)
    return DehnResult(True, (), tuple(steps))
