"""Command line interface.

Every subcommand prints a plain text result by default, or a stable
JSON object with ``--json``.  ``--out PATH`` writes the payload to a
file instead of stdout.  Exit codes: 0 success, 1 a verification sweep
reported failures, 2 usage or malformed input, 3 input outside a
command's supported domain (for example ``qrat --via graph`` on a
rational that is not greater than one) or too large for its answer to
fit in memory or to index, 4 the output could not be written (the
``--out`` file's directory does not exist, standard output is a full
device, or its encoding cannot spell the text, say "ε" under ASCII), 5
standard output was closed before all of the output was written (for
example, piped into ``head -1``) or was not open at all.

A cold start pays only for what the subcommand runs: building the
parser imports nothing beyond the modules below, each handler imports
its own library module, and ``json`` is imported only under ``--json``;
``hyperq fusc 19`` loads ``stern`` and ``poly`` and nothing else.
Importing this module builds no parser: ``main`` builds one on its first
call and reuses it, while ``build_parser()`` returns a fresh one.
Integers have no digit limit while ``main`` runs, so an answer or an
argument of any length converts to and from text.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

#: the ``verify`` sweeps, ``sorted(verify.REGISTRY)``, spelled out so
#: that building the parser does not import ``verify``
VERIFY_NAMES = ("gg", "hbar", "hrs", "mainbij", "mnent", "mnthm", "mprime", "qrat", "weightbij")


def _parse_rational(text: str) -> tuple[int, int]:
    """Parse 'r/s' (or a bare integer 'r' meaning r/1)."""
    parts = text.split("/")
    try:
        if len(parts) == 1:
            return int(parts[0]), 1
        if len(parts) == 2:
            return int(parts[0]), int(parts[1])
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a rational like 7/3, got {text!r}")


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")


def _nonneg(text: str) -> int:
    n = _int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("expected a nonnegative integer")
    return n


def _pos(text: str) -> int:
    n = _int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("expected a positive integer")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperq",
        description="Hyperbinary expansions, q-deformed rationals, and their identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        # argparse takes "-1/3" for an option and reports R/S as missing;
        # read every "-<digit>" token as a value, so the input checks name
        # it (a private ArgumentParser attribute, present in 3.10-3.13)
        p._negative_number_matcher = re.compile(r"-\.?\d")
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.add_argument("--out", metavar="PATH", help="write the output to a file")
        return p

    p = add("fusc", _cmd_fusc, "diatomic sequence value fusc(n)")
    p.add_argument("n", type=_nonneg)

    p = add("fuscq", _cmd_fuscq, "q-analogue fusc_q(n) as a polynomial in q")
    p.add_argument("n", type=_nonneg)

    p = add("cw", _cmd_cw, "n-th term of the enumeration of the positive rationals")
    p.add_argument("n", type=_nonneg)

    p = add("cwq", _cmd_cwq, "q-deformed n-th term, a ratio of polynomials")
    p.add_argument("n", type=_nonneg)

    p = add("cwindex", _cmd_cwindex, "position of r/s in the rational enumeration")
    p.add_argument("rational", type=_parse_rational, metavar="R/S")

    p = add("qrat", _cmd_qrat, "q-deformation of a nonnegative rational r/s")
    p.add_argument("rational", type=_parse_rational, metavar="R/S")
    p.add_argument(
        "--via",
        choices=("cf", "graph"),
        default="cf",
        help="compute via continued fractions (default) or via closure sets "
        "of an oriented path (requires r/s > 1)",
    )

    p = add("hyper", _cmd_hyper, "hyperbinary expansions of n")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--list", action="store_true", help="list expansions, largest first")
    g.add_argument("--count", action="store_true", help="number of expansions (default)")
    g.add_argument("--genfunc", action="store_true", help="generating polynomial h_q(n)")
    g.add_argument("--stats", action="store_true",
                   help="per expansion statistics (ones, twos, zeros right of the "
                   "leftmost nonzero digit, weight)")
    g.add_argument("--dot", action="store_true",
                   help="DOT source for the lattice of expansions")
    p.add_argument("n", type=_nonneg)

    p = add("fence", _cmd_fence, "fence poset of n and its order ideals")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--ideals", action="store_true", help="list order ideals by size")
    g.add_argument("--rgf", action="store_true", help="rank generating function")
    g.add_argument("--dot", action="store_true", help="DOT source for the fence")
    g.add_argument("--dot-ideals", action="store_true",
                   help="DOT source for the lattice of order ideals")
    p.add_argument("n", type=_pos)

    p = add("matrix", _cmd_matrix, "2x2 L/R product M(n) over Laurent polynomials")
    p.add_argument("--prime", action="store_true",
                   help="use the two-variable L'/R' matrices instead")
    p.add_argument("n", type=_pos)

    p = add("verify", _cmd_verify, "sweep one identity family (or all) over a range")
    p.add_argument("name", choices=VERIFY_NAMES + ("all",))
    p.add_argument("--max", type=_pos, default=None, dest="max_n",
                   help="override the sweep's upper bound")

    return parser


#: the parser ``main`` reuses, built on its first call
_parser = functools.cache(build_parser)


def _cmd_fusc(args) -> tuple[str, dict]:
    from . import stern
    v = stern.fusc(args.n)
    return str(v), {"n": args.n, "fusc": v}


def _cmd_fuscq(args) -> tuple[str, dict]:
    from . import stern
    text = stern.fusc_q(args.n).text()
    return text, {"n": args.n, "fusc_q": text}


def _cmd_cw(args) -> tuple[str, dict]:
    from . import stern
    f = stern.cw(args.n)
    return (f"{f.numerator}/{f.denominator}",
            {"n": args.n, "num": f.numerator, "den": f.denominator})


def _cmd_cwq(args) -> tuple[str, dict]:
    from . import stern
    v = stern.cw_q(args.n).canonical()
    num, den = v.num.text(), v.den.text()
    return f"({num}) / ({den})", {"n": args.n, "num": num, "den": den}


def _cmd_cwindex(args) -> tuple[str, dict]:
    from . import qrational as qr
    r, s = args.rational
    n = qr.cw_index(r, s)
    return str(n), {"r": r, "s": s, "n": n}


def _cmd_qrat(args) -> tuple[str, dict]:
    from . import qrational as qr
    r, s = args.rational
    if args.via == "graph":
        v = qr.qdeform_via_graph(r, s).canonical()
    else:
        v = qr.qdeform(r, s).canonical()
    num, den = v.num.text(), v.den.text()
    return f"({num}) / ({den})", {"r": r, "s": s, "via": args.via, "num": num, "den": den}


def _cmd_hyper(args) -> tuple[str, dict]:
    from . import hyperbinary as hb
    n = args.n
    if args.list:
        elems = hb.expansions(n)
        texts = [hb.digits_text(d) for d in elems]
        return ("\n".join(t if t else "ε" for t in texts),
                {"n": n, "expansions": texts})
    if args.genfunc:
        text = hb.h_q(n).text()
        return text, {"n": n, "h_q": text}
    if args.stats:
        rows = hb.stats_rows(n)
        header = "digits ell p1 p2 t z s_vector"
        lines = [header]
        for row in rows:
            sv = ",".join(str(x) for x in row["s_vector"])
            digits = row["digits"] if row["digits"] else "ε"
            lines.append(
                f"{digits} {row['ell']} {row['p1']} {row['p2']} {row['t']} {row['z']} {sv}"
            )
        return "\n".join(lines), {"n": n, "expansions": rows}
    if args.dot:
        src = hb.lattice_dot(n)
        return src, {"n": n, "dot": src}
    c = hb.h_count(n)
    return str(c), {"n": n, "count": c}


def _cmd_fence(args) -> tuple[str, dict]:
    from .fence import cover_pairs, fence, fence_dot, ideal_members, ideals, ideals_dot, rgf
    n = args.n
    f = fence(n)
    if args.ideals:
        masks = ideals(f)
        members = [ideal_members(m, len(f)) for m in masks]
        lines = ["{" + ", ".join(f"x{i}" for i in mem) + "}" for mem in members]
        return "\n".join(lines), {"n": n, "size": len(f), "ideals": members}
    if args.rgf:
        text = rgf(f).text()
        return text, {"n": n, "rgf": text}
    if args.dot:
        src = fence_dot(n)
        return src, {"n": n, "dot": src}
    if args.dot_ideals:
        src = ideals_dot(n)
        return src, {"n": n, "dot": src}
    covers = cover_pairs(f)
    lines = [f"elements: {len(f)}"]
    lines += [f"x{lo} < x{hi}" for lo, hi in covers]
    return ("\n".join(lines),
            {"n": n, "size": len(f), "covers": [list(c) for c in covers]})


def _cmd_matrix(args) -> tuple[str, dict]:
    from . import matrices as mx
    n = args.n
    m = mx.m_prime_of(n) if args.prime else mx.m_of(n)
    texts = [e.text() for e in m.entries()]
    text = f"{texts[0]} | {texts[1]}\n{texts[2]} | {texts[3]}"
    return (text,
            {"n": n, "prime": bool(args.prime),
             "entries": [[texts[0], texts[1]], [texts[2], texts[3]]]})


def _cmd_verify(args) -> tuple[str, dict]:
    from .verify import run_verify
    reports = run_verify(args.name, args.max_n)
    lines: list[str] = []
    for rep in reports:
        lines.extend(rep.lines())
    ok = all(rep.passed for rep in reports)
    return "\n".join(lines), {"reports": [rep.to_dict() for rep in reports], "passed": ok}


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.  Python's limit on the
    digits of an int converted to or from text is lifted while it runs
    and restored afterwards, so in-process callers see no change."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return _main(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _warn(message: object) -> None:
    """Print ``hyperq: message`` on standard error.  Without one, not
    open at start (``sys.stderr`` is None) or closed since, the message
    is dropped; it never goes to standard output."""
    if sys.stderr is not None:
        try:
            print(f"hyperq: {message}", file=sys.stderr)
        except OSError:
            pass


def _main(argv: list[str] | None) -> int:
    args = _parser().parse_args(argv)
    try:
        text, payload = args.handler(args)
    except (MemoryError, OverflowError):
        _warn("input too large to compute in memory")
        return 3
    except ValueError as exc:
        # qrational.UnsupportedDomain carries exit code 3
        _warn(exc)
        return getattr(exc, "exit_code", 2)
    # only the verify payload has "passed": a failed sweep exits 1
    exit_code = 0 if payload.get("passed", True) else 1
    if args.json:
        import json
        text = json.dumps(payload, indent=2)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            _warn(exc)
            return 4
        return exit_code
    if sys.stdout is None:  # started with standard output closed
        return 5
    try:
        print(text)
        sys.stdout.flush()
    except UnicodeEncodeError as exc:  # raised before anything is written
        _warn(exc)
        return 4
    except OSError as exc:
        # point stdout at devnull so the flush at interpreter exit does
        # not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):  # the reader has gone
            return 5
        _warn(exc)
        return 4
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
