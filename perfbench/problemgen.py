"""Seeded problem generator for the benchmark; standard library only.

Permutations grow by random reduced words: start from the identity and
swap a random ascent (right multiplication by s_i) until the target length
is reached.  A symmetric triple at rank n splits n(n-1)/2 into three random
lengths; an asymmetric problem picks its target length first and then two
factor lengths that sum to it.

Every batch has a fixed composition: a fixed count of problems per rank and,
where a stratum says so, per cost class.  A problem's cost swings with its
answer (a nonvanishing rank-5 triple costs about twenty times a vanishing
one under descent cycling; an asymmetric problem whose code content fits
tries all sampled contents instead of one), so drawing the classes freely
would make a batch's cost, and the measured throughput, depend on the luck
of the draw.  The class counts follow the shares the free draw gives, as
``--shares`` measures them (see NATURAL_SHARES), rounded to the batch.  The
classes are decided here, independently of the package under test:
symmetric triples by a Schubert-polynomial oracle, asymmetric problems by a
direct scan of the Schubitope subset inequalities.  The checker uses both
answers, and the same scan on every symmetric triple, as references.

The same (workload, seed, batch) always gives a byte-identical problem file.
Print one batch, or measure the class shares of the free draw, with:

    python3 perfbench/problemgen.py --workload sym-decide --seed 0 --batch 0
    python3 perfbench/problemgen.py --shares
"""

from __future__ import annotations

import argparse
import collections
import itertools
import random
import sys
import threading
from dataclasses import dataclass
from typing import Optional

Perm = tuple[int, ...]
Poly = dict[tuple[int, ...], int]


@dataclass(frozen=True)
class Stratum:
    """count problems at one rank, optionally all of one class.

    vanishes=True/False asks for symmetric triples whose intersection number
    is / is not zero, or asymmetric problems whose target code does / does
    not miss the Schubitope of the factors (the asymmetric test's answer).
    """

    rank: int
    count: int
    vanishes: Optional[bool] = None


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "sym" or "asym"
    strata: tuple[Stratum, ...]
    cli_args: tuple[str, ...]

    @property
    def batch_size(self) -> int:
        return sum(s.count for s in self.strata)


# Share of freely drawn problems in the vanishing class, per (mode, rank),
# as `--shares` measured it (20000 draws per rank at ranks 4-5, 4000 at 7-9):
# symmetric triples with intersection number 0, asymmetric problems whose
# target code misses the factors' Schubitope.
NATURAL_SHARES = {
    ("sym", 4): 0.653,
    ("sym", 5): 0.829,
    ("asym", 7): 0.687,
    ("asym", 8): 0.729,
    ("asym", 9): 0.760,
}


def natural_strata(mode: str, rank: int, count: int) -> tuple[Stratum, ...]:
    """count problems at rank, split into the classes by their natural shares."""
    vanishing = round(NATURAL_SHARES[mode, rank] * count)
    return (
        Stratum(rank, vanishing, vanishes=True),
        Stratum(rank, count - vanishing, vanishes=False),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sym-decide",
            "sym",
            (Stratum(10, 12),),
            ("--tests=schubitope,bruhat,root_game",),
        ),
        Workload(
            "asym-flexible",
            "asym",
            tuple(s for rank in (7, 8, 9) for s in natural_strata("asym", rank, 10)),
            ("--tests=schubitope,flexible", "--flexible-samples=16"),
        ),
        Workload(
            "cross-check",
            "sym",
            natural_strata("sym", 4, 20) + natural_strata("sym", 5, 12),
            ("--tests=schubitope,bruhat,descent_cycling,root_game,oracle",),
        ),
    )
}


def random_permutation(n: int, target_length: int, rng: random.Random) -> Perm:
    """A permutation of 1..n of the given length, grown by a random reduced word."""
    if not 0 <= target_length <= n * (n - 1) // 2:
        raise ValueError(f"length {target_length} impossible in S_{n}")
    w = list(range(1, n + 1))
    for _ in range(target_length):
        i = rng.choice([i for i in range(n - 1) if w[i] < w[i + 1]])
        w[i], w[i + 1] = w[i + 1], w[i]
    return tuple(w)


def format_permutation(w: Perm) -> str:
    """One-line notation as the CLI reads it: digits up to rank 9, else spaced."""
    if len(w) <= 9:
        return "".join(str(v) for v in w)
    return " ".join(str(v) for v in w)


def symmetric_triple(n: int, rng: random.Random) -> tuple[Perm, Perm, Perm]:
    total = n * (n - 1) // 2
    cuts = sorted(rng.randint(0, total) for _ in range(2))
    lengths = (cuts[0], cuts[1] - cuts[0], total - cuts[1])
    u, v, w = (random_permutation(n, k, rng) for k in lengths)
    return u, v, w


def asymmetric_problem(n: int, rng: random.Random) -> tuple[Perm, Perm, Perm]:
    """(factor, factor, target) with factor lengths summing to the target's."""
    target_length = rng.randint(2, n * (n - 1) // 2)
    target = random_permutation(n, target_length, rng)
    first = rng.randint(1, target_length - 1)
    u = random_permutation(n, first, rng)
    v = random_permutation(n, target_length - first, rng)
    return u, v, target


# --- independent oracle: Schubert polynomials by divided differences -------


def _divided_difference(f: Poly, i: int) -> Poly:
    """(f - s_i f) / (x_i - x_{i+1}), monomial by monomial; i is 1-based."""
    out: Poly = {}
    for e, c in f.items():
        a, b = e[i - 1], e[i]
        if a == b:
            continue
        sign = 1 if a > b else -1
        hi, lo = max(a, b), min(a, b)
        for k in range(hi - lo):
            ee = list(e)
            ee[i - 1], ee[i] = hi - 1 - k, lo + k
            key = tuple(ee)
            val = out.get(key, 0) + sign * c
            if val:
                out[key] = val
            else:
                del out[key]
    return out


_SCHUBERT_TABLES: dict[int, dict[Perm, Poly]] = {}


def schubert_table(n: int) -> dict[Perm, Poly]:
    """Schubert polynomials of all of S_n, descending from the longest element."""
    table = _SCHUBERT_TABLES.get(n)
    if table is None:
        top = tuple(range(n, 0, -1))
        table = {top: {tuple(range(n - 1, -1, -1)): 1}}
        frontier = [top]
        while frontier:
            nxt = []
            for w in frontier:
                for i in range(1, n):
                    if w[i - 1] > w[i]:
                        ws = list(w)
                        ws[i - 1], ws[i] = ws[i], ws[i - 1]
                        ws = tuple(ws)
                        if ws not in table:
                            table[ws] = _divided_difference(table[w], i)
                            nxt.append(ws)
            frontier = nxt
        _SCHUBERT_TABLES[n] = table
    return table


def intersection_number(u: Perm, v: Perm, w: Perm) -> int:
    """Coefficient of S_{w0 w} in S_u S_v: the triple intersection number."""
    n = len(u)
    if sum(map(_length, (u, v, w))) != n * (n - 1) // 2:
        return 0
    table = schubert_table(n)
    f: Poly = {}
    for e1, c1 in table[u].items():
        for e2, c2 in table[v].items():
            key = tuple(a + b for a, b in zip(e1, e2))
            f[key] = f.get(key, 0) + c1 * c2
    y = list(n + 1 - x for x in w)  # w0 * w
    while True:
        descent = next((i for i in range(1, n) if y[i - 1] > y[i]), None)
        if descent is None:
            break
        f = _divided_difference(f, descent)
        y[descent - 1], y[descent] = y[descent], y[descent - 1]
    return f.get((0,) * n, 0)


def _length(w: Perm) -> int:
    return sum(1 for i, j in itertools.combinations(range(len(w)), 2) if w[i] > w[j])


# --- independent Schubitope membership: the subset-inequality scan --------


def _code(w: Perm) -> tuple[int, ...]:
    return tuple(sum(1 for y in w[i + 1:] if y < x) for i, x in enumerate(w))


def _rothe_columns(w: Perm) -> list[tuple[int, ...]]:
    """Rows of the cells of each nonempty column of the Rothe diagram."""
    n = len(w)
    pos = {v: i for i, v in enumerate(w, start=1)}
    columns = []
    for j in range(1, n + 1):
        rows = tuple(i for i in range(1, n + 1) if j < w[i - 1] and i < pos[j])
        if rows:
            columns.append(rows)
    return columns


def _column_theta(cells: tuple[int, ...], mask: int) -> int:
    """Matched ( ) pairs plus stars of one column word; row r is bit r - 1 of mask."""
    total = pending = prev = 0
    for r in cells:
        # rows of S strictly between the previous cell and this one: the "("s
        pending += (mask >> prev & ((1 << (r - 1 - prev)) - 1)).bit_count()
        if mask >> (r - 1) & 1:
            total += 1
        elif pending:
            pending -= 1
            total += 1
        prev = r
    return total


def content_misses_schubitope(columns: list[tuple[int, ...]], alpha: tuple[int, ...]) -> bool:
    """True when alpha violates a subset inequality of the diagram's Schubitope."""
    n = len(alpha)
    distinct = collections.Counter(columns).items()
    alpha_sum = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        alpha_sum[mask] = alpha_sum[mask & (mask - 1)] + alpha[low]
    for mask in range(1, (1 << n) - 1):
        if alpha_sum[mask] > sum(k * _column_theta(c, mask) for c, k in distinct):
            return True
    return False


def code_misses_schubitope(u: Perm, v: Perm, target: Perm) -> bool:
    """True when code(target) violates a subset inequality of D(u) + D(v)."""
    return content_misses_schubitope(_rothe_columns(u) + _rothe_columns(v), _code(target))


def staircase_misses_schubitope(u: Perm, v: Perm, w: Perm) -> bool:
    """True when (n-1, ..., 0) violates a subset inequality of D(u) + D(v) + D(w)."""
    columns = _rothe_columns(u) + _rothe_columns(v) + _rothe_columns(w)
    return content_misses_schubitope(columns, tuple(range(len(u) - 1, -1, -1)))


def calibration_job(threads: int = 1) -> None:
    """A fixed amount of this module's own arithmetic, for timing the host.

    Uses nothing from the package under test, so a change to the package
    cannot move it; the Schubert table is rebuilt so every call does the
    same work.  The work is split over `threads` threads, which take turns
    on the interpreter lock as the CLI's worker threads do.
    """
    _SCHUBERT_TABLES.pop(5, None)
    schubert_table(5)
    rng = random.Random("calibration")
    triples = [symmetric_triple(5, rng) for _ in range(240)]
    problems = [asymmetric_problem(8, rng) for _ in range(120)]

    def work(part: int) -> None:
        for triple in triples[part::threads]:
            intersection_number(*triple)
        for problem in problems[part::threads]:
            code_misses_schubitope(*problem)

    workers = [threading.Thread(target=work, args=(part,)) for part in range(1, threads)]
    for worker in workers:
        worker.start()
    work(0)
    for worker in workers:
        worker.join()


# --- batches ----------------------------------------------------------------


@dataclass(frozen=True)
class Batch:
    """One problem file plus the reference answers the generator knows.

    expected maps a record id ("L<line>") to any of {"oracle": intersection
    number}, {"schubitope_symmetric": verdict} and {"schubitope_asymmetric":
    verdict}, where a verdict is "VANISHES" or "INCONCLUSIVE".
    """

    text: str
    expected: dict[str, dict]


def _verdict(vanishes: bool) -> str:
    return "VANISHES" if vanishes else "INCONCLUSIVE"


def make_batch(workload: Workload, seed: int, batch: int, references: bool = True) -> Batch:
    """Batch number `batch` of the workload for this seed.

    With references=False the scans that only the checker needs are skipped
    (the text is the same), so a timed loop can make batches cheaply.
    """
    rng = random.Random(f"{workload.name}:{seed}:{batch}")
    drawn: list[tuple[str, dict]] = []
    for stratum in workload.strata:
        for _ in range(stratum.count):
            while True:
                expected = {}
                if workload.mode == "asym":
                    u, v, target = asymmetric_problem(stratum.rank, rng)
                    line = (
                        f"asym: {format_permutation(u)}, {format_permutation(v)}"
                        f" -> {format_permutation(target)}"
                    )
                    if stratum.vanishes is None and not references:
                        break
                    vanishes = code_misses_schubitope(u, v, target)
                    expected["schubitope_asymmetric"] = _verdict(vanishes)
                else:
                    triple = symmetric_triple(stratum.rank, rng)
                    line = "sym: " + ", ".join(format_permutation(w) for w in triple)
                    if references:
                        expected["schubitope_symmetric"] = _verdict(
                            staircase_misses_schubitope(*triple)
                        )
                    if stratum.vanishes is None:
                        break
                    value = intersection_number(*triple)
                    vanishes = value == 0
                    expected["oracle"] = value
                if stratum.vanishes is None or vanishes == stratum.vanishes:
                    break
            drawn.append((line, expected))
    rng.shuffle(drawn)
    lines = [f"# {workload.name} seed={seed} batch={batch}"]
    expected_by_id = {}
    for line, expected in drawn:
        lines.append(line)
        if expected:
            expected_by_id[f"L{len(lines)}"] = expected
    return Batch("\n".join(lines) + "\n", expected_by_id)


def measure_shares(draws_small: int, draws_large: int) -> dict[tuple[str, int], float]:
    """Share of the vanishing class among freely drawn problems, per stratified rank."""
    rng = random.Random("shares")
    shares = {}
    for mode, rank in sorted(NATURAL_SHARES):
        draws = draws_small if rank <= 5 else draws_large
        if mode == "sym":
            hits = sum(intersection_number(*symmetric_triple(rank, rng)) == 0 for _ in range(draws))
        else:
            hits = sum(code_misses_schubitope(*asymmetric_problem(rank, rng)) for _ in range(draws))
        shares[mode, rank] = hits / draws
    return shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Print one benchmark problem file.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--batch", type=int, default=0)
    parser.add_argument("--shares", action="store_true",
                        help="measure the vanishing share of the free draw per rank instead")
    args = parser.parse_args(argv)
    if args.shares:
        for (mode, rank), share in measure_shares(20000, 4000).items():
            print(f"{mode} rank {rank}: vanishing share {share:.4f}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    sys.stdout.write(make_batch(WORKLOADS[args.workload], args.seed, args.batch).text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
