"""Command line front end: reproducible enumeration, verification,
bijection, formula and sampling runs.

Every subcommand renders to JSON, an aligned text table, or CSV, and
writes to stdout or ``--out FILE``.  Outputs are deterministic byte for
byte given the same flags (timing goes to stderr), big integers print as
decimal strings and probabilities as ``p/q``.

Each output is stated once, as its JSON payload, and a table or CSV
reads its rows off it: one ``(field, value)`` row per field after
``schema`` and per entry of a nested map, or one row per entry of a list
or law, such as the verify rows.

Tableau and trajectory lists are rendered one item at a time as the
generator yields it: a JSON record becomes its final text, the same bytes
as ``json.dumps(payload, indent=2)``, and a table or CSV item its row.
Only those are kept, and nothing is written until the last item has been
rendered, so a budget or domain error leaves stdout and ``--out`` empty.
Each record's text is filled straight into one template: a tableau's from
the listing's family, its path and its quoted row texts, a trajectory's
from its steps and its ``u`` values.  The family text and the row
renderer (bit rows or point rows) are picked once per listing.  The text
of a bit row comes from a small cache keyed by the row, since a listing
repeats few distinct rows.

Each command handler imports the engines it runs when it is called, so a
process loads only what its subcommand needs: parsing, ``--help`` and the
``verify --suite`` choices need only ``errors`` and ``families``.  Without
a bytecode cache every imported module is compiled afresh in each process.

Exit codes: 0 success / all checks pass; 1 a verification or round-trip
check failed (a witness is printed to stderr); 2 usage or domain error,
or stdout could not be written; 141 the reader closed stdout early
(nothing is printed).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from functools import lru_cache, partial
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .errors import BijectionError, CornersError, InvalidTableauError
from .families import SUITE_NAMES, Family

if TYPE_CHECKING:
    from .sampler import Trajectory
    from .tableaux import Tableau

__all__ = ["main", "run_command"]

_FORMATS = ("table", "json", "csv")


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


class _StdoutError(Exception):
    """Writing or flushing stdout raised the ``OSError`` in ``__cause__``."""


def _emit(text: str | Iterable[str], out: str | None) -> None:
    chunks = (text,) if isinstance(text, str) else text
    if out is None:
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()  # a closed reader or a full disk shows here, not at shutdown
        except OSError as exc:
            raise _StdoutError from exc
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # bit value -> its digit


@lru_cache(maxsize=256)  # every bit row of length 0..7, the longest rows within the enumeration budgets
def _bit_row_text(row: tuple[int, ...]) -> str:
    """The JSON text of one 0/1 row, such as ``"0110"``."""
    return '"' + bytes(row).translate(_BIT_DIGITS).decode() + '"'


def _bit_rows(t: Tableau) -> Iterator[str]:
    """The JSON texts of a 0/1 tableau's rows."""
    return map(_bit_row_text, t.rows)


def _point_rows(t: Tableau) -> Iterator[str]:
    """The JSON texts of a pointed tableau's rows."""
    return map(encode_basestring_ascii, t.row_strings())


def _tableau_text(family: str, row_texts: Callable[[Tableau], Iterator[str]], t: Tableau) -> str:
    """``to_record(t)`` as it reads in a list payload, filled into one template;
    ``family`` is ``t.family.value`` and ``row_texts`` renders the rows of
    that family's tableaux, both the same for every record of a listing.

    The family and path go between quotes unescaped: a family value and
    an S/W word hold no character that JSON escapes.  An f-string sizes
    its result exactly; ``%`` formatting may leave each kept text in a
    larger memory block than it needs.
    """
    rows = list(row_texts(t))
    rows_text = "[\n        " + ",\n        ".join(rows) + "\n      ]" if rows else "[]"
    return (
        f'{{\n      "schema": "tableau/v1",\n      "family": "{family}",'
        f'\n      "path": "{t.path.steps}",\n      "rows": {rows_text}\n    }}'
    )


def _tableau_renderer(family: Family) -> Callable[[Tableau], str]:
    """:func:`_tableau_text` for the records of one listing of ``family``,
    with its family text and row renderer read once."""
    return partial(_tableau_text, family.value, _point_rows if family.pointed else _bit_rows)


def _trajectory_text(tr: Trajectory) -> str:
    """``{"steps": tr.steps, "uSequence": [...]}`` as it reads in a list payload;
    the S/W word and the never empty list of ints need no escaping."""
    u_text = ",\n        ".join(map(str, tr.u_sequence))
    return f'{{\n      "steps": "{tr.steps}",\n      "uSequence": [\n        {u_text}\n      ]\n    }}'


def _csv_text(header: Sequence[str], rows: Iterable[Sequence[object]]) -> Iterator[str]:
    """The CSV text, one line at a time: ``writerow`` returns what its
    file's ``write`` returns, here the line itself."""
    writer = csv.writer(SimpleNamespace(write=str), lineterminator="\n")
    yield writer.writerow(header)
    yield from map(writer.writerow, rows)


def _table_text(header: Sequence[str], rows: Sequence[Sequence[object]]) -> Iterator[str]:
    """The aligned table, one line at a time.

    A first pass over ``rows`` takes the column widths and a second renders
    each line, so no text of a cell is kept beyond its own line.
    """
    widths = [len(h) for h in header]
    for row in rows:
        for i, x in enumerate(row):
            widths[i] = max(widths[i], len(str(x)))
    yield "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip() + "\n"
    yield "  ".join("-" * w for w in widths) + "\n"
    for row in rows:
        yield "  ".join(str(x).ljust(widths[i]) for i, x in enumerate(row)).rstrip() + "\n"


def _render(
    fmt: str, payload: dict, header: Sequence[str], rows: Sequence[Sequence[object]]
) -> str | Iterable[str]:
    if fmt == "json":
        return _json_text(payload)
    if fmt == "csv":
        return _csv_text(header, rows)
    return _table_text(header, rows)


#: The row prefix of each nested map in a payload: one row per entry.
_ROW_PREFIX = {"cornerCountsByK": "corners@", "uHistogram": "u="}


def _field_rows(payload: dict) -> list[tuple[str, object]]:
    """The ``(field, value)`` rows of a payload's fields after ``schema``."""
    rows: list[tuple[str, object]] = []
    for field, value in list(payload.items())[1:]:
        if isinstance(value, dict):
            rows += [(_ROW_PREFIX[field] + k, v) for k, v in value.items()]
        else:
            rows.append((field, value))
    return rows


def _cmd_census(args: argparse.Namespace) -> int:
    from .enumerator import census

    data = census(args.size, args.family, method=args.method).to_json_dict()
    _emit(_render(args.format, data, ("field", "value"), _field_rows(data)), args.out)
    return 0


def _emit_list(
    args: argparse.Namespace,
    schema: str,
    key: str,
    items: Iterable,
    render: Callable[[object], str],
    row: Callable[[object], tuple],
    header: Sequence[str],
    **extra: object,
) -> int:
    """Emit a list payload, rendering each item as it is yielded.

    The JSON payload holds ``schema``, ``family``, ``n``, the ``extra``
    keys, ``count`` and the list under ``key``, one ``render(item)`` each:
    the text of the item's record as it reads nested in the list; a table
    or CSV has one ``(index, *row(item))`` line per item.
    """
    if args.format != "json":
        rows = [(i, *row(item)) for i, item in enumerate(items)]
        _emit((_csv_text if args.format == "csv" else _table_text)(header, rows), args.out)
        return 0
    texts = list(map(render, items))
    head = {"schema": schema, "family": args.family.value, "n": args.size, **extra}
    text = _json_text({**head, "count": str(len(texts)), key: []})
    if not texts:
        _emit(text, args.out)
        return 0

    def chunks() -> Iterator[str]:
        yield text[: -len("]\n}\n")]  # the head up to the list's "["
        separator = "\n    "
        for record_text in texts:
            yield separator
            yield record_text
            separator = ",\n    "
        yield "\n  ]\n}\n"

    _emit(chunks(), args.out)
    return 0


def _emit_tableaux(args: argparse.Namespace, tableaux: Iterable[Tableau], **extra: object) -> int:
    """Emit a ``tableau-list/v1`` payload; ``extra`` keys go between ``n`` and ``count``."""
    return _emit_list(
        args, "tableau-list/v1", "tableaux", tableaux, _tableau_renderer(args.family),
        lambda t: (t.path.steps, "|".join(t.row_strings())), ("index", "path", "rows"), **extra,
    )


def _cmd_enumerate(args: argparse.Namespace) -> int:
    from .enumerator import enumerate_tableaux

    return _emit_tableaux(args, enumerate_tableaux(args.size, args.family))


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verification import run_suite

    started = time.perf_counter()
    report = run_suite(args.suite, args.max_size)
    elapsed = time.perf_counter() - started
    payload = report.to_json_dict()
    header = ("identity", "parameters", "lhs", "rhs", "status")
    rows = [tuple(row.values()) for row in payload["rows"]]
    _emit(_render(args.format, payload, header, rows), args.out)
    print(f"verify: suite={report.suite} rows={len(report.rows)} elapsed={elapsed:.2f}s", file=sys.stderr)
    if not report.passed:
        for row in report.failures():
            print(f"FAIL {row.identity} [{row.parameters}]: {row.lhs} != {row.rhs}", file=sys.stderr)
        return 1
    return 0


def _cmd_formula(args: argparse.Namespace) -> int:
    from .chain import _fraction_text, corner_distribution, expected_corners, total_corners

    family, n = args.family, args.size
    payload = {"schema": "formula/v1", "kind": args.kind, "family": family.value, "n": n}
    if args.kind == "corners":
        values = corner_distribution(n, family, method=args.method)
        payload["values"] = {str(k): _fraction_text(v) for k, v in sorted(values.items())}
        header, rows = ("k", "probability"), payload["values"].items()
    else:
        if args.kind == "expected":
            payload["value"] = _fraction_text(expected_corners(n, family))
        else:  # total
            payload["value"] = str(total_corners(n, family))
        header, rows = ("field", "value"), [(args.kind, payload["value"])]
    _emit(_render(args.format, payload, header, rows), args.out)
    return 0


#: Python's default bound on the digits of an ``int`` read from text.
#: ``run_command`` lifts it for exact totals, and parsing a longer
#: literal takes quadratic time, so a record's integers keep it.
_RECORD_INT_DIGITS = 4300


def _record_int(text: str) -> int:
    if len(text) - text.startswith("-") > _RECORD_INT_DIGITS:
        raise InvalidTableauError(f"a tableau record holds an integer over {_RECORD_INT_DIGITS} digits")
    return int(text)


def _read_record(path: str | None):
    from .tableaux import from_record

    if path in (None, "-"):
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    try:
        record = json.loads(text, parse_int=_record_int)
    except RecursionError:
        raise InvalidTableauError("a tableau record nests too deeply to parse") from None
    return from_record(record)


def _cmd_bijection(args: argparse.Namespace) -> int:
    if args.direction in ("roundtrip", "decompose") and args.size is None:
        raise CornersError(f"bijection {args.direction} needs --size")
    if args.direction == "roundtrip" and args.family is None:
        raise CornersError("bijection roundtrip needs --family")
    if args.direction == "decompose":
        from .chain import symmetric_corner_decomposition

        d = symmetric_corner_decomposition(args.size)
        payload = {
            "schema": "corner-decomposition/v1",
            "n": d.index,
            "twiceB": str(d.twice_type_b),
            "southTerm": str(d.south_term),
            "westTerm": str(d.west_term),
            "total": str(d.total),
        }
        _emit(_render(args.format, payload, ("field", "value"), _field_rows(payload)), args.out)
        return 0
    from .bijections import round_trip, symmetric_to_type_b, type_b_to_symmetric
    from .tableaux import to_record

    if args.direction in ("fold", "unfold"):
        image_of = symmetric_to_type_b if args.direction == "fold" else type_b_to_symmetric
        _emit(_json_text(to_record(image_of(_read_record(args.infile)))), args.out)
        return 0
    # roundtrip
    if args.family.bit_family is not Family.TYPE_B:  # the fold pairs symmetric with type-B
        raise CornersError("roundtrip sweeps run on type-b or symmetric families")
    from .enumerator import enumerate_tableaux

    checked = 0
    for t in enumerate_tableaux(args.size, args.family):
        checked += 1
        if round_trip(t)[1] != t:
            print("round-trip failure, witness:", file=sys.stderr)
            print(json.dumps(to_record(t)), file=sys.stderr)
            return 1
    payload = {
        "schema": "bijection-roundtrip/v1",
        "family": args.family.value,
        "n": args.size,
        "checked": str(checked),
        "failures": "0",
    }
    _emit(_render(args.format, payload, ("field", "value"), _field_rows(payload)), args.out)
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    from .sampler import monte_carlo_corner_report, sample_permutation_tableaux, sample_trajectories

    if args.kind == "report":
        report = monte_carlo_corner_report(args.size, args.family, args.count, args.seed)
        payload = report.to_json_dict()
        header = ("name", "estimate", "standardError", "reference", "zScore")
        rows = [tuple(s.values()) for s in (payload["meanCorners"], *payload["perPosition"])]
        _emit(_render(args.format, payload, header, rows), args.out)
        return 0
    if args.kind == "tableaux":
        if args.family is not Family.PERMUTATION:
            raise CornersError("tableau sampling is implemented for the permutation family")
        tableaux = sample_permutation_tableaux(args.size, args.seed, args.count)
        return _emit_tableaux(args, tableaux, seed=args.seed)
    return _emit_list(
        args, "trajectory-list/v1", "trajectories",
        sample_trajectories(args.size, args.family, args.seed, args.count),
        _trajectory_text,
        lambda tr: (tr.steps, " ".join(map(str, tr.u_sequence))),
        ("index", "steps", "uSequence"), seed=args.seed,
    )


def _family(text: str) -> Family:
    """:meth:`Family.parse` for argparse, which prints the message of an
    ``ArgumentTypeError`` but drops that of a ``ValueError``."""
    try:
        return Family.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_common(parser: argparse.ArgumentParser, *, family: Family | None = None) -> None:
    parser.add_argument(
        "--family",
        type=_family,
        default=family,
        required=family is None,
        help="tree-like, permutation, type-b or symmetric",
    )
    parser.add_argument("--size", "-n", "--n", dest="size", type=int, required=True,
                        help="tableau size (family index for chain-level commands)")
    parser.add_argument("--format", choices=_FORMATS, default="table")
    parser.add_argument("--out", metavar="FILE", default=None, help="write output to FILE instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corners",
        description="Exact corner statistics of tree-like, permutation, type-B and symmetric tableaux.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", help="enumerate one family at one size and aggregate statistics")
    _add_common(p)
    p.add_argument("--method", choices=("auto", "brute", "extension"), default="auto")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("enumerate", help="list every tableau of one family at one size")
    _add_common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="check closed-form identities against enumeration and DP")
    p.add_argument("--suite", choices=("all", *SUITE_NAMES), default="all")
    p.add_argument("--max-size", type=int, default=6)
    p.add_argument("--format", choices=_FORMATS, default="table")
    p.add_argument("--out", metavar="FILE", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("formula", help="evaluate closed forms: per-position law, expectation, total")
    p.add_argument("kind", choices=("corners", "expected", "total"))
    _add_common(p)
    p.add_argument("--method", choices=("formula", "dp"), default="formula")
    p.set_defaults(func=_cmd_formula)

    p = sub.add_parser("bijection", help="fold/unfold between symmetric and type-B tableaux")
    p.add_argument("direction", choices=("fold", "unfold", "roundtrip", "decompose"))
    p.add_argument("--family", type=_family, default=None)
    p.add_argument("--size", "-n", "--n", dest="size", type=int, default=None)
    p.add_argument("--in", dest="infile", metavar="FILE", default=None,
                   help="tableau record JSON (defaults to stdin) for fold/unfold")
    p.add_argument("--format", choices=_FORMATS, default="table",
                   help="for roundtrip and decompose; fold/unfold always write the JSON record")
    p.add_argument("--out", metavar="FILE", default=None)
    p.set_defaults(func=_cmd_bijection)

    p = sub.add_parser("sample", help="seeded random tableaux, trajectories and Monte Carlo reports")
    _add_common(p, family=Family.PERMUTATION)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--kind", choices=("report", "tableaux", "trajectories"), default="report")
    p.set_defaults(func=_cmd_sample)

    return parser


def run_command(argv: Sequence[str]) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # exact totals outgrow the default 4300 digits
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BijectionError as exc:
        print(f"bijection failure: {exc}", file=sys.stderr)
        return 1
    except CornersError as exc:
        return _fail_usage(str(exc))
    except _StdoutError as exc:
        # send what is still buffered to devnull, so the flush at shutdown
        # cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc.__cause__, BrokenPipeError):
            return 128 + 13  # the reader closed stdout: the status a shell gives a process that SIGPIPE ends
        return _fail_usage(str(exc.__cause__))
    except (OSError, ValueError) as exc:
        return _fail_usage(str(exc))


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
