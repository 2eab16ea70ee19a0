"""Replay a descent-cycling note from the problem's factors alone.

The note "dc-trivial member U,V,W after K moves: s3 1>2, s1 3>2" claims
that K moves lead from the factors to the member U,V,W, and that the
member has a common ascent.  A move "s3 1>2" has factor 1, which has a
descent at 3 while factors 2 and 3 have ascents there, pass s_3 to factor
2: both words are multiplied by s_3 on the right.  The replay uses plain
tuples and shares no code with the package.
"""

import re

NOTE = re.compile(r"dc-trivial member (.+) after (\d+) moves?(?:: (.+))?")
MOVE = re.compile(r"s(\d+) ([123])>([123])")


def parse_word(text):
    """A permutation as the package prints it: digits, or numbers and spaces past 9."""
    return tuple(int(x) for x in (text.split() if " " in text else text))


def replay(factors, note):
    """The number of moves in note, after checking that they replay on factors.

    The factors may be shorter than the member's words; they are embedded
    in S_n, with n the length of those words.  Raises AssertionError when
    the note does not parse, a move is not a descent-cycling move of the
    current words, the moves do not end at the member, or the member has
    no common ascent.
    """
    match = NOTE.fullmatch(note)
    assert match, note
    member = [parse_word(word) for word in match[1].split(",")]
    assert len(member) == len(factors) == 3, note
    n = len(member[0])
    words = [tuple(x) + tuple(range(len(x) + 1, n + 1)) for x in factors]
    moves = match[3].split(", ") if match[3] else []
    assert len(moves) == int(match[2]), note
    for move in moves:
        step = MOVE.fullmatch(move)
        assert step, move
        i, giver, receiver = int(step[1]), int(step[2]) - 1, int(step[3]) - 1
        assert 1 <= i < n and giver != receiver, move
        for k, x in enumerate(words):
            assert (x[i - 1] > x[i]) == (k == giver), (move, words)
        for k in (giver, receiver):
            x = words[k]
            words[k] = x[: i - 1] + (x[i], x[i - 1]) + x[i + 1 :]
    assert words == member, (note, words)
    assert any(all(x[i - 1] < x[i] for x in words) for i in range(1, n)), note
    return len(moves)
