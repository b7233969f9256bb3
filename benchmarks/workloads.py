"""Seeded inputs and independent output oracles for the hyperq benchmark.

Nothing here imports hyperq.  Each oracle works on the integer shadow
q = 1 (and r = s = 1) of a command's output and compares it with plain
integer arithmetic: the Stern bit walk for ``fusc``, 2x2 integer
matrix products for ``matrix``, and continued fractions for ``qrat``
and ``cwindex``.  A wrong polynomial whose coefficients still sum to
the right value slips past these checks, but not past the sha256 of
all outputs that every run records.

Query sizes are stratified: every seed draws the same multiset of
(command, size) pairs and only the concrete numbers change.  The cost
of every command here follows its size class (bits of n, continued
fraction length and partial-quotient sum, expansion count), so runs
with different seeds measure the same amount of work.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from math import gcd

#: sweep name -> the number of checks it reports at its default bound
SWEEPS = {
    "sweep-poly": {"qrat": 10000, "weightbij": 16384, "mnent": 16383,
                   "mnthm": 16384, "mprime": 16384, "gg": 773},
    "sweep-lattice": {"mainbij": 4096, "hrs": 8273, "hbar": 4097},
}

#: queries per command class and pass on the ``queries`` workload
PER_COMMAND = 20
#: of which this many repeat the class's largest size, so that the p95
#: of the stream falls among queries of one size, not between two sizes
TOP_REPEATS = 3
#: commands per pass on the ``cli-cold`` workload
COLD_COMMANDS = 40


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: a CLI argv and what to check."""

    argv: tuple[str, ...]
    kind: str
    params: tuple[int, ...]
    checks: int = 1  # checks the operation performs (a sweep's count)


# ---------------------------------------------------------------------------
# integer oracles


def fusc_pair(n: int) -> tuple[int, int]:
    """(fusc(n), fusc(n+1)) by the top-down bit walk."""
    a, b = 0, 1
    for bit in bin(n)[2:] if n else "":
        if bit == "0":
            b = a + b
        else:
            a = a + b
    return a, b


def cf_value(cf: list[int]) -> tuple[int, int]:
    """The reduced r/s with continued fraction [a1; a2, ...]."""
    r, s = cf[-1], 1
    for a in reversed(cf[:-1]):
        r, s = a * r + s, r
    return r, s


def cf_of(r: int, s: int) -> list[int]:
    out = []
    while s:
        a, rem = divmod(r, s)
        out.append(a)
        r, s = s, rem
    return out


def cw_index_of(r: int, s: int) -> int:
    """The n >= 1 with fusc(n)/fusc(n+1) = r/s (r, s >= 1, coprime)."""
    cf = cf_of(r, s)
    if len(cf) % 2 == 0:
        cf = cf[:-1] + [cf[-1] - 1, 1]
    word = "".join(("1" if i % 2 == 0 else "0") * a for i, a in enumerate(cf))
    return int(word[::-1], 2)


def word_matrix(n: int) -> tuple[int, int, int, int]:
    """M(n) at q = 1: the word of n in L = [[1,0],[1,1]], R = [[1,1],[0,1]]."""
    a, b, c, d = 1, 0, 0, 1
    for bit in reversed(bin(n)[3:]):
        if bit == "1":   # right-multiply by R
            b, d = a + b, c + d
        else:            # right-multiply by L
            a, c = a + b, c + d
    return a, b, c, d


_SEP = re.compile(r" ([+-]) ")
_COEFF = re.compile(r"\d+")


def at_one(text: str) -> int:
    """Sum of the coefficients of a rendered polynomial in any variables.

    Terms are separated by " + " / " - "; a term's coefficient is its
    leading digits, or 1 when it starts with a variable.
    """
    parts = _SEP.split(text.strip())
    total, sign = 0, 1
    for i, part in enumerate(parts):
        if i % 2:
            sign = 1 if part == "+" else -1
            continue
        if part.startswith("-"):
            sign, part = -sign, part[1:]
        m = _COEFF.match(part)
        total += sign * (int(m.group()) if m else 1)
    return total


def _ratio_at_one(text: str) -> tuple[int, int]:
    num, den = text.split(") / (")
    return at_one(num[1:]), at_one(den[:-1])


def check(op: Op, json_out: bool, stdout: str) -> bool:
    """Does a command's stdout agree with the integer oracle?"""
    kind, p = op.kind, op.params
    try:
        data = json.loads(stdout) if json_out else None
        text = stdout.rstrip("\n")
        if kind == "fusc":
            got = data["fusc"] if data else int(text)
            return got == fusc_pair(p[0])[0]
        if kind == "cw":
            got = (data["num"], data["den"]) if data else tuple(map(int, text.split("/")))
            return got == fusc_pair(p[0])
        if kind == "fuscq":
            return at_one(data["fusc_q"] if data else text) == fusc_pair(p[0])[0]
        if kind == "cwq":
            got = (at_one(data["num"]), at_one(data["den"])) if data else _ratio_at_one(text)
            return got == fusc_pair(p[0])
        if kind in ("hyper-count", "hyper-genfunc", "fence-rgf"):
            if kind == "hyper-count":
                got = data["count"] if data else int(text)
            else:
                got = at_one(data["h_q" if kind == "hyper-genfunc" else "rgf"] if data else text)
            return got == fusc_pair(p[0])[1]
        if kind == "matrix":
            rows = data["entries"] if data else [row.split(" | ") for row in text.split("\n")]
            got = tuple(at_one(e) for row in rows for e in row)
            return got == word_matrix(p[0])
        if kind == "cwindex":
            got = data["n"] if data else int(text)
            return fusc_pair(got) == (p[0], p[1])
        if kind == "qrat":
            num, den = (at_one(data["num"]), at_one(data["den"])) if data else _ratio_at_one(text)
            return den != 0 and num * p[1] == den * p[0]
    except (ValueError, KeyError, TypeError, IndexError):
        return False
    raise ValueError(f"no oracle for {kind!r}")


def check_sweep(op: Op, stdout: str) -> tuple[bool, int]:
    """A sweep's ``verify --json`` payload: PASS with the expected count.

    Returns (correct, number of failures the report lists).
    """
    try:
        (report,) = json.loads(stdout)["reports"]
        fails = len(report["failures"])
        return report["passed"] and report["checked"] == op.checks, fails
    except (ValueError, KeyError, TypeError):
        return False, op.checks


#: the keys of a ``verify --json`` report that do not depend on timing
REPORT_KEYS = ("theorem", "lo", "hi", "checked", "failures", "notes", "passed")


def stable_output(op: Op, stdout: str) -> str:
    """The output for the digest: for sweeps, the report keys that do
    not depend on timing, so added timing or counter keys leave it as is."""
    if op.kind != "sweep":
        return stdout
    try:
        reports = json.loads(stdout)["reports"]
        return json.dumps([{k: r.get(k) for k in REPORT_KEYS} for r in reports])
    except (ValueError, KeyError, TypeError, AttributeError):
        return stdout


# ---------------------------------------------------------------------------
# seeded input streams


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _ladder(lo: int, hi: int, steps: int) -> list[int]:
    """``steps`` sizes: geometric from lo to hi, then hi repeated."""
    rising = max(steps - TOP_REPEATS, 1)
    if rising == 1:
        return [hi] * steps
    return ([round(lo * (hi / lo) ** (i / (rising - 1))) for i in range(rising)]
            + [hi] * (steps - rising))


def _n_of_bits(rng: random.Random, bits: int) -> int:
    return rng.getrandbits(bits - 1) | (1 << (bits - 1))


def _cf(rng: random.Random, length: int, total: int) -> list[int]:
    """A canonical continued fraction [a1 >= 1, ..., am >= 2] with m
    terms summing to ``total``, so r/s > 1."""
    cuts = sorted(rng.sample(range(1, total - 1), length - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _count_target(rng: random.Random, count: int) -> int:
    """An n with exactly ``count`` hyperbinary expansions, n + 1 =
    cw_index(count, s) for a random coprime s, of 2b - 2 to 2b + 2 bits
    where b is the bit length of ``count``, since the cost of listing
    the expansions grows with their length too."""
    b = count.bit_length()
    while True:
        s = rng.randrange(1, 2 * count + 1)
        if gcd(count, s) == 1:
            n = cw_index_of(count, s) - 1
            if 2 * b - 2 <= n.bit_length() <= 2 * b + 2:
                return n


def sweep_ops(workload: str) -> list[Op]:
    """The workload's sweeps at their default bounds, in registry order."""
    return [Op(("verify", name, "--json"), "sweep", (), checks)
            for name, checks in SWEEPS[workload].items()]


def query_ops(seed: int, per_command: int = PER_COMMAND) -> list[Op]:
    """The ``queries`` stream: ten command classes, each over a fixed
    ladder of sizes, a third of them with ``--json``, in seeded order."""
    rng = _rng("queries", seed)
    k = per_command
    ops: list[Op] = []

    def by_bits(argv: tuple[str, ...], kind: str, lo: int, hi: int) -> None:
        for bits in _ladder(lo, hi, k):
            n = _n_of_bits(rng, bits)
            ops.append(Op(argv + (str(n),), kind, (n,)))

    by_bits(("fuscq",), "fuscq", 24, 550)
    by_bits(("cwq",), "cwq", 24, 550)
    by_bits(("hyper", "--genfunc"), "hyper-genfunc", 24, 550)
    by_bits(("fence", "--rgf"), "fence-rgf", 24, 1024)
    by_bits(("matrix",), "matrix", 16, 224)
    by_bits(("matrix", "--prime"), "matrix", 8, 68)
    for count in _ladder(2, 10000, k):
        n = _count_target(rng, count)
        ops.append(Op(("hyper", str(n)), "hyper-count", (n,)))
    for length, total in zip(_ladder(2, 400, k), _ladder(8, 4000, k)):
        r, s = cf_value(_cf(rng, length, total))
        ops.append(Op(("cwindex", f"{r}/{s}"), "cwindex", (r, s)))
    for length, total in zip(_ladder(1, 60, k), _ladder(8, 600, k)):
        r, s = cf_value(_cf(rng, length, total))
        ops.append(Op(("qrat", f"{r}/{s}"), "qrat", (r, s)))
    for length, total in zip(_ladder(1, 33, k), _ladder(8, 330, k)):
        r, s = cf_value(_cf(rng, length, total))
        ops.append(Op(("qrat", "--via", "graph", f"{r}/{s}"), "qrat", (r, s)))

    json_ids = set(rng.sample(range(len(ops)), len(ops) // 3))
    ops = [Op(op.argv + ("--json",), op.kind, op.params) if i in json_ids else op
           for i, op in enumerate(ops)]
    rng.shuffle(ops)
    return ops


#: (argv prefix, oracle kind) of the tiny commands on ``cli-cold``
_COLD_POOL = (
    (("fusc",), "fusc"), (("cw",), "cw"), (("fuscq",), "fuscq"), (("cwq",), "cwq"),
    (("hyper",), "hyper-count"), (("hyper", "--genfunc"), "hyper-genfunc"),
    (("fence", "--rgf"), "fence-rgf"), (("matrix",), "matrix"),
    (("matrix", "--prime"), "matrix"), (("cwindex",), "cwindex"),
    (("qrat",), "qrat"), (("qrat", "--via", "graph"), "qrat"),
)


def cold_ops(seed: int, count: int = COLD_COMMANDS) -> list[Op]:
    """``count`` tiny commands cycling through every subcommand class,
    with n < 64 or r, s < 64, in seeded order."""
    rng = _rng("cli-cold", seed)
    ops = []
    for i in range(count):
        argv, kind = _COLD_POOL[i % len(_COLD_POOL)]
        if kind in ("cwindex", "qrat"):
            r = s = 2
            while gcd(r, s) != 1:
                s = rng.randrange(1, 32)
                r = rng.randrange(s + 1, 64)
            ops.append(Op(argv + (f"{r}/{s}",), kind, (r, s)))
        else:
            n = rng.randrange(1, 64)
            ops.append(Op(argv + (str(n),), kind, (n,)))
    rng.shuffle(ops)
    return ops


def defect_probes(seed: int) -> list[Op]:
    """Inputs the CLI accepts but cannot answer yet: recursion one frame
    per bit fails past ~1000 bits, and ``hyper`` counts by enumeration.
    They run only on traced ``queries`` runs and are counted on their own,
    so that fixing them shows without the timed workload ever failing."""
    rng = _rng("probes", seed)
    big = _n_of_bits(rng, 1101)
    alternating = int("10" * 30, 2)
    return [
        Op(("fuscq", str(big)), "fuscq", (big,)),
        Op(("cwq", str(big)), "cwq", (big,)),
        Op(("hyper", "--genfunc", str(big)), "hyper-genfunc", (big,)),
        Op(("hyper", str(alternating)), "hyper-count", (alternating,)),
    ]
