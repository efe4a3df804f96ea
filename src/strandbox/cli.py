"""Command-line front end.

Subcommands and their --format choices (the first is the default):
strings, bands, minimal, roots and verify-gls take table|json; component
takes dot|json; tube takes table|json|dot; tau, classify and
verify-coxeter print plain text and take no --format.  Each subcommand
returns the lines it prints, and verify-gls and verify-coxeter also whether
they passed; `main` alone prints them and sets the exit code.  Output goes
to stdout, diagnostics (`error: ...`) to stderr; exit code 0 on success, 1
on a failed verification or a failed internal check of the calculus, 2 on
usage errors.
The environment variable STRANDBOX_FIELD (rat | fp:<prime>, the prime at
most 2^31 - 1) selects the base field for Hom/Ext computations.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice

from .algebra import build_type_C_algebra, normalize_orientation
from .artrans import (
    build_component,
    classify_component,
    component_to_dot,
    component_to_json,
    minimal_strings,
    tube_rank,
)
from .errors import DomainError, InternalCheckError, StrandboxError
from .linalg import scalar_from_spec
from .modules import ZERO, dim_vector, format_module, format_vector, parse_module, rank_vector
from .roots import cartan, closed_form_positive_roots, enumerate_positive_roots
from .strings import delta_length, enumerate_bands, enumerate_strings, format_word
from .verify import check_coxeter_compatibility, check_gls
from . import artrans


def _presentation(args):
    return build_type_C_algebra(args.n, args.orient)


def _scalar():
    return scalar_from_spec(os.environ.get("STRANDBOX_FIELD", "rat"))


def _seq(text):
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise DomainError(f"not a comma-separated vertex sequence: {text!r}") from None


def _formatted(args, doc, table, indent=None):
    """The output of a table|json subcommand: one `json.dumps` line of doc
    under --format json, the table lines otherwise."""
    return [json.dumps(doc, indent=indent)] if args.format == "json" else table


EXPORTS = {"dot": component_to_dot, "json": component_to_json}


def cmd_strings(args):
    words = [format_word(w) for w in enumerate_strings(_presentation(args), args.max_len)]
    return _formatted(args, words, words)


def cmd_bands(args):
    bands = [(format_word(b), delta_length(b))
             for b in enumerate_bands(_presentation(args), args.max_dl)]
    return _formatted(args, [{"band": b, "dl": dl} for b, dl in bands],
                      [f"{b}  dl={dl}" for b, dl in bands])


MAX_POWER = 1000  # bounds the run: a step costs time linear in the word, which may grow


def cmd_tau(args):
    k = abs(args.power)
    if k > MAX_POWER:
        raise DomainError(f"|--power| must be at most {MAX_POWER}, not {k}")
    m = parse_module(_presentation(args), args.module)
    step = artrans.tau if args.power >= 0 else artrans.tau_inv
    # the k-th module of the orbit, or zero when the orbit ends before it
    return [format_module(next(islice(artrans.orbit(m, step), k, None), ZERO))]


def cmd_component(args):
    seed = parse_module(_presentation(args), args.seed)
    return [EXPORTS[args.format](build_component(seed, args.radius))]


def cmd_minimal(args):
    table = minimal_strings(_presentation(args), args.max_len)
    doc = {str(t): [format_module(m) for m in mods] for t, mods in table.items()}
    lines = []
    for t, mods in doc.items():
        lines += [f"type {t}:", *(f"  {m}" for m in mods)]
    return _formatted(args, doc, lines, indent=2)


def cmd_tube(args):
    g = tube_rank(_presentation(args), args.levels)
    if args.format in EXPORTS:
        return [EXPORTS[args.format](g)]
    lines = []
    for level, row in enumerate(g.rows, start=1):
        lines.append(f"level {level}:")
        for m in row:
            dims, ranks = format_vector(dim_vector(m)), format_vector(rank_vector(m))
            lines.append(f"  {format_module(m)}  dim={dims}  rank={ranks}")
    return lines


def cmd_classify(args):
    kind, rank = classify_component(parse_module(_presentation(args), args.seed))
    return [kind if rank is None else f"{kind}({rank})"]


def cmd_roots(args):
    cd = cartan(args.n)
    if args.closed_form:
        if not args.seq or not args.orient:
            raise DomainError("--closed-form requires --seq and --orient")
        seq = _seq(args.seq)
        omega = normalize_orientation(args.orient, args.n)
        roots_set = closed_form_positive_roots(cd, omega, seq, args.bound)
    else:
        for flag in ("seq", "orient"):
            if getattr(args, flag) is not None:
                raise DomainError(f"--{flag} is read only with --closed-form")
        roots_set = enumerate_positive_roots(cd, args.bound)
    ordered = sorted(roots_set)
    return _formatted(args, [list(r) for r in ordered], [format_vector(r) for r in ordered])


def cmd_verify_gls(args):
    report = check_gls(_presentation(args), args.bound, char=_scalar())
    return [report.to_json() if args.format == "json" else report.to_table()], report.passed


def cmd_verify_coxeter(args):
    p, seq = _presentation(args), _seq(args.seq)
    report = check_coxeter_compatibility(p, seq, args.depth)
    if report.passed:
        return [f"coxeter compatibility: pass (seq={seq}, depth={args.depth})"], True
    return [*report.problems, "coxeter compatibility: FAIL"], False


TABLE_JSON = ("table", "json")


def _subcommand(subs, name, fn, help, formats=(), orient=True):
    """The subparser `name`, which runs fn: --n, --orient unless the
    subcommand reads its own, and --format over `formats` (the first is the
    default) when it prints more than one."""
    sub = subs.add_parser(name, help=help)
    sub.add_argument("--n", type=int, required=True, help="number of vertices (>= 3)")
    if orient:
        sub.add_argument("--orient", required=True,
                         help="spine orientation, e.g. RRL (R: i->i+1)")
    if formats:
        sub.add_argument("--format", choices=formats, default=formats[0])
    sub.set_defaults(fn=fn)
    return sub


def build_parser():
    parser = argparse.ArgumentParser(
        prog="strandbox",
        description="String algebras of affine type C-tilde: strings, bands, "
                    "AR translation, components, roots and the GLS verifier.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = _subcommand(subs, "strings", cmd_strings, "enumerate string classes up to a length",
                    TABLE_JSON)
    s.add_argument("--max-len", type=int, required=True)

    s = _subcommand(subs, "bands", cmd_bands, "enumerate band classes up to a delta-length",
                    TABLE_JSON)
    s.add_argument("--max-dl", type=int, required=True)

    s = _subcommand(subs, "tau", cmd_tau, "apply the AR translation to a module")
    s.add_argument("module", help="module text form, e.g. 'triv(2)' or 'a21~.e1'")
    s.add_argument("--power", type=int, default=1,
                   help="tau^k; negative k applies the inverse translation; "
                        f"|k| <= {MAX_POWER}")

    s = _subcommand(subs, "component", cmd_component, "breadth-first AR component window",
                    ("dot", "json"))
    s.add_argument("seed")
    s.add_argument("--radius", type=int, required=True)

    s = _subcommand(subs, "classify", cmd_classify, "classify the component of a module")
    s.add_argument("seed")

    s = _subcommand(subs, "minimal", cmd_minimal, "minimal string modules by index type",
                    TABLE_JSON)
    s.add_argument("--max-len", type=int, default=12,
                   help="length bound for the (2,2) family")

    s = _subcommand(subs, "tube", cmd_tube, "the rank-(n-1) tube, level by level",
                    ("table", "json", "dot"))
    s.add_argument("--levels", type=int, default=None)

    s = _subcommand(subs, "roots", cmd_roots, "positive roots up to a height bound",
                    TABLE_JSON, orient=False)
    s.add_argument("--bound", type=int, required=True)
    s.add_argument("--closed-form", action="store_true",
                   help="use the Coxeter-orbit description instead of reflection BFS")
    s.add_argument("--seq", help="comma-separated +-admissible sequence")
    s.add_argument("--orient", help="spine orientation (closed form only)")

    s = _subcommand(subs, "verify-gls", cmd_verify_gls,
                    "run the root/rank-vector bijection check", TABLE_JSON)
    s.add_argument("--bound", type=int, required=True)

    s = _subcommand(subs, "verify-coxeter", cmd_verify_coxeter,
                    "rank vs Coxeter orbit compatibility")
    s.add_argument("--seq", required=True, help="comma-separated admissible sequence")
    s.add_argument("--depth", type=int, default=6)

    return parser


def main(argv=None):
    """Run one subcommand: print the lines it returns and exit 0, or 1 when
    a verification it ran failed; print a refusal as `error: ...` on stderr
    and exit 2, or 1 for a failed internal check of the calculus."""
    args = build_parser().parse_args(argv)
    try:
        out = args.fn(args)
    except StrandboxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, InternalCheckError) else 2
    lines, passed = out if isinstance(out, tuple) else (out, True)
    for line in lines:
        print(line)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
