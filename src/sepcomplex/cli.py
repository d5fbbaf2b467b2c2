"""Command-line surface: build and export complexes, run homology, take local
subcomplexes and boundaries, and run the named verification checks.

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
from .separation import CAP_ENV_VAR, DEFAULT_ENUMERATION_CAP, CapExceeded, build
from .subsets import check_ground_size, check_relation, is_frozen, parse_subset
from .verify import (
    CHECK_NAMES,
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


def _complex_json(cx: Complex, n: int | None, relation: str | None) -> str:
    return json.dumps(cx.to_dict(n, relation), indent=2, sort_keys=True) + "\n"


def _write(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_complex(path: str) -> tuple[Complex, int | None, str | None]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    cx = Complex.from_dict(data)
    n, relation = data.get("n"), data.get("relation")
    if relation is not None:
        check_relation(relation)
    if n is not None:
        _check_labels(cx.labels, check_ground_size(n), relation)
    return cx, n, relation


def _check_labels(labels: Sequence[str], n: int, relation: str | None) -> None:
    """Each label must name its own subset of [n], and a non-frozen one when
    the complex carries its relation."""
    named: dict[int, str] = {}
    for label in labels:
        try:
            s = parse_subset(label, n)
        except ValueError as exc:
            raise ValueError(f"vertex label {label!r} is not a subset of [{n}]: {exc}") from None
        if relation is not None and is_frozen(s, n):
            raise ValueError(f"vertex label {label!r} is a frozen subset of [{n}], "
                             f"not a vertex of a {relation} complex")
        if s in named:
            raise ValueError(f"vertex labels {named[s]!r} and {label!r} name the same subset")
        named[s] = label


def _obtain_complex(args: argparse.Namespace) -> tuple[Complex, int | None, str | None]:
    """A complex from a JSON file, or built from --n/--relation."""
    if getattr(args, "input", None):
        return _load_complex(args.input)
    if args.n is None or args.relation is None:
        raise ValueError("provide an input file or both --n and --relation")
    sc = build(args.n, args.relation, args.cap)
    return sc.complex, sc.n, sc.relation


def _parse_face(cx: Complex, text: str) -> list[int]:
    """Resolve a face given as subset strings, e.g. '15,234'.

    Labels for n >= 10 contain commas, so there ';' separates the vertices.
    """
    labels = {label: i for i, label in enumerate(cx.labels)}
    if any("," in label for label in cx.labels):
        tokens = [t.strip() for t in text.split(";")]
    else:
        tokens = [t.strip() for t in text.split(",")]
    face = []
    for token in tokens:
        if token not in labels:
            raise ValueError(f"{token!r} is not a vertex label of this complex")
        face.append(labels[token])
    return face


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_build(args: argparse.Namespace) -> int:
    sc = build(args.n, args.relation, args.cap)
    _write(_complex_json(sc.complex, sc.n, sc.relation), args.out)
    return EXIT_OK


def _cmd_fvector(args: argparse.Namespace) -> int:
    cx, _, _ = _obtain_complex(args)
    counts = cx.face_counts()
    sys.stdout.write(" ".join(map(str, counts)) + "\n")
    return EXIT_OK


def _cmd_homology(args: argparse.Namespace) -> int:
    cx, _, _ = _obtain_complex(args)
    groups = reduced_homology(cx)
    if args.format == "json":
        sys.stdout.write(json.dumps(homology_summary(groups), indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(format_homology(groups) + "\n")
    return EXIT_OK


def _cmd_local(args: argparse.Namespace) -> int:
    cx, n, relation = _obtain_complex(args)
    face = _parse_face(cx, args.face)
    if args.verb == "link":
        result = cx.link(face)
    elif args.verb == "star":
        result = cx.star(face)
    else:
        result = cx.deletion(face)
    _write(_complex_json(result, n, relation), args.out)
    return EXIT_OK


def _cmd_boundary(args: argparse.Namespace) -> int:
    cx, n, relation = _obtain_complex(args)
    _write(_complex_json(cx.boundary(), n, relation), args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_named_check(args.check, args.n, args.relation, args.cap)
    out = results_to_json(results) if args.format == "json" else format_results(results) + "\n"
    _write(out, args.out)
    return EXIT_FAILED_CHECKS if any_failed(results) else EXIT_OK


def _cmd_reproduce(args: argparse.Namespace) -> int:
    progress = None
    if args.progress:
        progress = lambda msg: print(f"... {msg}", file=sys.stderr)
    results = full_report(args.n, progress=progress)
    out = results_to_json(results) if args.format == "json" else format_results(results) + "\n"
    _write(out, args.out)
    return EXIT_FAILED_CHECKS if any_failed(results) else EXIT_OK


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
        p.add_argument("--cap", type=int, default=None,
                       help=f"enumeration cap override (default {CAP_ENV_VAR} "
                            f"or {DEFAULT_ENUMERATION_CAP})")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("build", help="build a separation complex and write JSON")
    add_common(p, needs_input=False)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("fvector", help="face counts per dimension")
    add_common(p)
    p.set_defaults(func=_cmd_fvector)

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
        p.set_defaults(func=_cmd_local, verb=verb)

    p = sub.add_parser("boundary", help="codimension-1 boundary subcomplex")
    add_common(p)
    p.set_defaults(func=_cmd_boundary)

    p = sub.add_parser("verify", help="run one named verification check")
    p.add_argument("check", choices=CHECK_NAMES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--relation", choices=("ws", "ss"), default=None)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("reproduce-paper",
                       help="run the complete verification report")
    p.add_argument("--n", type=int, default=5,
                   help="largest ground size, 4 to 6 (default 5)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
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
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
