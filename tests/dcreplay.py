"""Replay a descent-cycling note from the problem's factors alone.

The note "dc-trivial member U,V,W after K moves: s3 1>2, s1 3>2" claims
that K moves lead from the factors to the member U,V,W, and that the
member has a common ascent.  A move "s3 1>2" has factor 1, which has a
descent at 3 while factors 2 and 3 have ascents there, pass s_3 to factor
2: both words are multiplied by s_3 on the right.  The note
"value-1 member U,V,W after K moves: ..." claims the same moves, and that
one of U, V, W is the identity and the other two sum to n + 1 at every
position, so the member, and the factors, have intersection number 1.
The replay uses plain tuples and shares no code with the package.
"""

import re

NOTE = re.compile(r"(dc-trivial|value-1) member (.+) after (\d+) moves?(?:: (.+))?")
MOVE = re.compile(r"s(\d+) ([123])>([123])")


def parse_word(text):
    """A permutation as the package prints it: digits, or numbers and spaces past 9."""
    return tuple(int(x) for x in (text.split() if " " in text else text))


def common_ascent(words):
    """True when some position is an ascent of every word."""
    return any(all(x[i - 1] < x[i] for x in words) for i in range(1, len(words[0])))


def value_one(words):
    """True when one word is the identity and the other two sum to n + 1 at every position."""
    n = len(words[0])
    for k, e in enumerate(words):
        if e == tuple(range(1, n + 1)):
            x, y = (words[j] for j in range(3) if j != k)
            if all(a + b == n + 1 for a, b in zip(x, y)):
                return True
    return False


def replay(factors, note):
    """The number of moves in note, after checking that they replay on factors.

    The factors may be shorter than the member's words; they are embedded
    in S_n, with n the length of those words.  Raises AssertionError when
    the note does not parse, a move is not a descent-cycling move of the
    current words, the moves do not end at the member, or the member is
    not of the kind the note names.
    """
    match = NOTE.fullmatch(note)
    assert match, note
    member = [parse_word(word) for word in match[2].split(",")]
    assert len(member) == len(factors) == 3, note
    n = len(member[0])
    words = [tuple(x) + tuple(range(len(x) + 1, n + 1)) for x in factors]
    moves = match[4].split(", ") if match[4] else []
    assert len(moves) == int(match[3]), note
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
    kind = common_ascent if match[1] == "dc-trivial" else value_one
    assert kind(words), note
    return len(moves)
