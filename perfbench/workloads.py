"""Seeded input generators for the benchmark workloads.

Each generator takes the workload seed and returns the text of one input
file; the program under test only ever sees that file.  The same seed gives
the same bytes.  Sizes are fixed per workload so that the work a pipeline
does moves little from seed to seed.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CENSUS = Path("src/interlock/data/table2_degrees.csv")


def _census() -> list[tuple[str, int]]:
    with CENSUS.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return [(name, int(degree)) for name, degree in rows[1:]]


def _havel_hakimi(degrees: list[int], rng: random.Random) -> list[tuple[int, int]]:
    """Realize a graphical degree sequence; ties are broken by a seeded key."""
    key = [rng.random() for _ in degrees]
    residual = list(degrees)
    edges: list[tuple[int, int]] = []
    while True:
        order = sorted(range(len(residual)), key=lambda i: (-residual[i], key[i]))
        head = order[0]
        d = residual[head]
        if d == 0:
            return edges
        residual[head] = 0
        for other in order[1 : d + 1]:
            if residual[other] == 0:
                raise ValueError("degree sequence is not graphical")
            residual[other] -= 1
            edges.append((min(head, other), max(head, other)))


def _csv_text(rows: list[tuple[str, str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["actor", "event"])
    writer.writerows(rows)
    return buf.getvalue()


def _seat(boards: list[list[str]], groups, prefix: str) -> None:
    """Seat one new editor on every board of each group of journals."""
    seats = sum(map(len, boards))  # grows with every editor: a unique number
    for group in groups:
        name = f"{prefix} {seats:06d}"
        for j in group:
            boards[j].append(name)
        seats += len(group)


def _spread(rng: random.Random, n: int, low: int, high: int) -> list[int]:
    """``n`` values spread evenly over low..high, in seeded order; their sum
    is the same for every seed."""
    values = [low + (high - low + 1) * j // n for j in range(n)]
    rng.shuffle(values)
    return values


def _singles(rng: random.Random, boards: list[list[str]], low: int, high: int, prefix: str) -> None:
    """Add low..high single-board editors to every board."""
    extras = _spread(rng, len(boards), low, high)
    _seat(boards, ([j] for j, extra in enumerate(extras) for _ in range(extra)), prefix)


def paper61(seed: int) -> str:
    """Table 2 census as a two-mode NET file.

    Each census line gets 1-4 editors shared by exactly its two journals and
    every board gets 10-25 single-board editors, so the projected degree
    sequence is the census itself.
    """
    rng = random.Random(seed)
    census = _census()
    lines = _havel_hakimi([d for _, d in census], rng)
    boards: list[list[str]] = [[] for _ in census]
    shares = _spread(rng, len(lines), 1, 4)
    _seat(boards, (line for line, k in zip(lines, shares) for _ in range(k)), "Shared Editor")
    _singles(rng, boards, 10, 25, "Board Editor")
    actors = sorted({a for board in boards for a in board})
    rng.shuffle(actors)
    n_events = len(census)
    index = {a: n_events + i for i, a in enumerate(actors, start=1)}
    out = [f"*Vertices {n_events + len(actors)} {n_events}"]
    out += [f'{i} "{name}"' for i, (name, _) in enumerate(census, start=1)]
    out += [f'{index[a]} "{a}"' for a in actors]
    edges = [(j, index[a]) for j, board in enumerate(boards, start=1) for a in board]
    rng.shuffle(edges)
    out.append("*Edges")
    out += [f"{e} {a}" for e, a in edges]
    return "\n".join(out) + "\n"


def _journal(j: int) -> str:
    return f"Journal of Field {j:04d}"


def _membership_csv(rng: random.Random, boards: list[list[str]], spell=lambda name: name) -> str:
    rows = [(spell(a), _journal(j)) for j, board in enumerate(boards) for a in board]
    rng.shuffle(rows)
    return _csv_text(rows)


def dense_field(seed: int) -> str:
    """One connected field of journals on a ring.

    Each pair of journals at most six apart shares one editor, which fixes
    the lines; 360 more editors hold 2-5 boards (geometrically fewer with
    more boards) inside a window of seven neighbouring journals, which
    raises line values, and every board gets 0-20 single-board editors.
    """
    rng = random.Random(seed)
    n, reach = 180, 6
    boards: list[list[str]] = [[] for _ in range(n)]
    _seat(boards, ((j, (j + d) % n) for j in range(n) for d in range(1, reach + 1)), "Field Editor")
    holds = [2] * 200 + [3] * 90 + [4] * 40 + [5] * 30
    rng.shuffle(holds)
    windows = []
    for k in holds:
        home = rng.randrange(n)
        windows.append([home] + [(home + d) % n for d in rng.sample(range(1, reach + 1), k - 1)])
    _seat(boards, windows, "Field Editor")
    _singles(rng, boards, 0, 20, "Field Editor")
    return _membership_csv(rng, boards)


def fragmented(seed: int) -> str:
    """A wide, sparse network of 400 journals.

    180 journals share no editor; the rest form small trees of 2-10
    journals joined by 1-3 shared editors per line, and every board gets
    14-56 single-board editors.
    """
    rng = random.Random(seed)
    n = 400
    order = list(range(n))
    rng.shuffle(order)
    sizes = [1] * 180 + [2] * 50 + [3] * 20 + [4] * 6 + [6] * 3 + [8] + [10]
    lines = []
    start = 0
    for size in sizes:
        members = order[start : start + size]
        start += size
        lines += [(members[rng.randrange(i)], members[i]) for i in range(1, size)]
    values = _spread(rng, len(lines), 1, 3)
    boards: list[list[str]] = [[] for _ in range(n)]
    _seat(boards, (line for line, k in zip(lines, values) for _ in range(k)), "Sparse Editor")
    _singles(rng, boards, 14, 56, "Sparse Editor")
    return _membership_csv(rng, boards)


def archive(seed: int) -> str:
    """Multi-year board histories of 120 journals.

    170 editors each sit on two random boards and every board has 80-240
    single-board editors.  Each seat is listed in two years, so half the
    rows repeat an earlier one, and the case of an editor's name varies from
    listing to listing; ``--normalize-names`` merges the variants.
    """
    rng = random.Random(seed)
    n = 120
    boards: list[list[str]] = [[] for _ in range(n)]
    _seat(boards, (rng.sample(range(n), 2) for _ in range(170)), "Archive Editor")
    _singles(rng, boards, 80, 240, "Archive Editor")
    years = [board + board for board in boards]
    spellings = (str, str.upper, str.lower, str.swapcase)
    return _membership_csv(rng, years, lambda name: rng.choice(spellings)(name))


@dataclass(frozen=True)
class Workload:
    """A generated input and the flags it runs with; every workload also
    writes the NET, CSV and DOT exports.  Why each workload exists is
    recorded in BENCHMARK.json."""

    name: str
    input_name: str
    flags: tuple[str, ...]
    generator: Callable[[int], str]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper61", "boards.net", ("--slice", "2", "--slice", "3", "--tables"), paper61),
        Workload("dense-field", "boards.csv", ("--slice", "2", "--slice", "3"), dense_field),
        Workload("fragmented", "boards.csv", ("--slice", "1", "--slice", "2", "--slice", "3"), fragmented),
        Workload("archive", "boards.csv", ("--normalize-names",), archive),
    )
}


def generate(name: str, seed: int) -> str:
    return WORKLOADS[name].generator(seed)
