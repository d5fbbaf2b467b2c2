"""Command-line surface: build and export complexes, run homology, take local
subcomplexes and boundaries, and run the named verification checks. Every
verb writes its output to --out, or to stdout when --out is not given.

Exit codes: 0 success, 1 a verification check failed, 2 usage or input error,
3 enumeration cap exceeded.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .complexes import Complex
from .homology import format_homology, homology_summary, reduced_homology
from .separation import (
    DEFAULT_ENUMERATION_CAP,
    CapExceeded,
    build,
    check_enumeration_cap,
    check_face_budget,
)
from .verify import (
    CHECK_NAMES,
    CheckResult,
    any_failed,
    format_results,
    full_report,
    results_to_json,
    run_named_check,
)

EXIT_OK = 0
EXIT_FAILED_CHECKS = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _write(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_complex(path: str, cap: int) -> tuple[Complex, int | None, str | None]:
    """Read a complex file within the face budget of the cap."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("complex JSON is nested too deeply") from None
    cx = Complex.from_dict(data)
    check_enumeration_cap(0, cap)  # a file has no ground size to bound: check the cap alone
    check_face_budget(cx, cap)
    return cx, data.get("n"), data.get("relation")


def _obtain_complex(args: argparse.Namespace) -> tuple[Complex, int | None, str | None]:
    """A complex from a JSON file, or built from --n/--relation."""
    if getattr(args, "input", None):
        return _load_complex(args.input, args.cap)
    if args.n is None or args.relation is None:
        raise ValueError("provide an input file or both --n and --relation")
    sc = build(args.n, args.relation, args.cap)
    return sc.complex, sc.n, sc.relation


def _parse_face(cx: Complex, text: str) -> int:
    """Resolve a face given as subset strings, e.g. '15,234', to its vertex mask.

    Labels for n >= 10 contain commas, so there ';' separates the vertices.
    """
    labels = {label: i for i, label in enumerate(cx.labels)}
    if any("," in label for label in cx.labels):
        tokens = [t.strip() for t in text.split(";")]
    else:
        tokens = [t.strip() for t in text.split(",")]
    face = 0
    for token in tokens:
        if token not in labels:
            raise ValueError(f"{token!r} is not a vertex label of this complex")
        if face >> labels[token] & 1:
            raise ValueError(f"{token!r} is repeated in the face")
        face |= 1 << labels[token]
    return face


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_face_counts(args: argparse.Namespace) -> int:
    cx, _, _ = _obtain_complex(args)
    check_face_budget(cx, args.cap)
    _write(" ".join(map(str, cx.face_counts())) + "\n", args.out)
    return EXIT_OK


def _cmd_homology(args: argparse.Namespace) -> int:
    cx, _, _ = _obtain_complex(args)
    check_face_budget(cx, args.cap)
    groups = reduced_homology(cx)
    if args.format == "json":
        text = json.dumps(homology_summary(groups), indent=2, sort_keys=True)
    else:
        text = format_homology(groups)
    _write(text + "\n", args.out)
    return EXIT_OK


# the complex each export verb writes, from the one it was given
_EXPORTS = {
    "build": lambda cx, args: cx,
    "link": lambda cx, args: cx.link_mask(_parse_face(cx, args.face)),
    "star": lambda cx, args: cx.star_mask(_parse_face(cx, args.face)),
    "deletion": lambda cx, args: cx.deletion_mask(_parse_face(cx, args.face)),
    "boundary": lambda cx, args: cx.boundary(),
}


def _cmd_export(args: argparse.Namespace) -> int:
    cx, n, relation = _obtain_complex(args)
    result = _EXPORTS[args.verb](cx, args)
    _write(json.dumps(result.to_dict(n, relation), indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def _write_results(results: list[CheckResult], args: argparse.Namespace) -> int:
    """Write the check rows in --format to --out; the exit code they give."""
    out = results_to_json(results) if args.format == "json" else format_results(results) + "\n"
    _write(out, args.out)
    return EXIT_FAILED_CHECKS if any_failed(results) else EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    return _write_results(run_named_check(args.check, args.n, args.relation, args.cap), args)


def _cmd_reproduce(args: argparse.Namespace) -> int:
    progress = None
    if args.progress:
        progress = lambda msg: print(f"... {msg}", file=sys.stderr)
    return _write_results(full_report(args.n, progress=progress), args)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepcx",
        description="Separation complexes: construction, homology, verification.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p: argparse.ArgumentParser, needs_input: bool = True) -> None:
        if needs_input:
            p.add_argument("input", nargs="?", default=None,
                           help="complex JSON file (alternative to --n/--relation)")
        p.add_argument("--n", type=int, default=None, help="ground set size")
        p.add_argument("--relation", choices=("ws", "ss"), default=None)
        p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                       help=f"enumeration cap (default {DEFAULT_ENUMERATION_CAP})")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("build", help="build a separation complex and write JSON")
    add_common(p, needs_input=False)
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("fvector", help="face counts per dimension")
    add_common(p)
    p.set_defaults(func=_cmd_face_counts)

    p = sub.add_parser("homology", help="reduced integer homology")
    add_common(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_homology)

    for verb in ("link", "star", "deletion"):
        p = sub.add_parser(verb, help=f"{verb} of a face, as a complex")
        add_common(p)
        p.add_argument("--face", required=True,
                       help="comma-separated subset strings, e.g. 15,234; "
                            "for n >= 10, whose labels contain commas, "
                            "separate them with ';'")
        p.set_defaults(func=_cmd_export)

    p = sub.add_parser("boundary", help="codimension-1 boundary subcomplex")
    add_common(p)
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("verify", help="run one named verification check")
    p.add_argument("check", choices=CHECK_NAMES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--relation", choices=("ws", "ss"), default=None)
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                   help=f"enumeration cap (default {DEFAULT_ENUMERATION_CAP})")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("reproduce-paper",
                       help="run the complete verification report")
    p.add_argument("--n", type=int, default=5,
                   help="largest ground size, 4 to 6 (default 5)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--progress", action="store_true",
                   help="stream progress lines to stderr")
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
