"""Command-line front end.

Subcommands and their --format choices (the first is the default):
strings, bands, minimal, roots and verify-gls take table|json; component
takes dot|json; tube takes table|json|dot; tau, classify and
verify-coxeter print plain text and take no --format.  Output goes to
stdout, diagnostics to stderr; exit code 0 on success, 1 on a failed
verification or a failed internal check of the calculus, 2 on usage errors.
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


def cmd_strings(args):
    p = _presentation(args)
    words = enumerate_strings(p, args.max_len)
    if args.format == "json":
        print(json.dumps([format_word(w) for w in words]))
    else:
        for w in words:
            print(format_word(w))
    return 0


def cmd_bands(args):
    p = _presentation(args)
    bands = enumerate_bands(p, args.max_dl)
    if args.format == "json":
        print(json.dumps([{"band": format_word(b), "dl": delta_length(b)} for b in bands]))
    else:
        for b in bands:
            print(f"{format_word(b)}  dl={delta_length(b)}")
    return 0


MAX_POWER = 1000  # bounds the run: a step costs time linear in the word, which may grow


def cmd_tau(args):
    k = abs(args.power)
    if k > MAX_POWER:
        raise DomainError(f"|--power| must be at most {MAX_POWER}, not {k}")
    m = parse_module(_presentation(args), args.module)
    step = artrans.tau if args.power >= 0 else artrans.tau_inv
    # the k-th module of the orbit, or zero when the orbit ends before it
    print(format_module(next(islice(artrans.orbit(m, step), k, None), ZERO)))
    return 0


def cmd_component(args):
    p = _presentation(args)
    seed = parse_module(p, args.seed)
    g = build_component(seed, args.radius)
    if args.format == "json":
        print(component_to_json(g))
    else:
        print(component_to_dot(g))
    return 0


def cmd_minimal(args):
    p = _presentation(args)
    table = minimal_strings(p, args.max_len)
    if args.format == "json":
        doc = {str(t): [format_module(m) for m in mods] for t, mods in table.items()}
        print(json.dumps(doc, indent=2))
    else:
        for t, mods in table.items():
            print(f"type {t}:")
            for m in mods:
                print(f"  {format_module(m)}")
    return 0


def cmd_tube(args):
    p = _presentation(args)
    g = tube_rank(p, args.levels)
    if args.format == "json":
        print(component_to_json(g))
    elif args.format == "dot":
        print(component_to_dot(g))
    else:
        for level, row in enumerate(g.rows, start=1):
            print(f"level {level}:")
            for m in row:
                dims, ranks = format_vector(dim_vector(m)), format_vector(rank_vector(m))
                print(f"  {format_module(m)}  dim={dims}  rank={ranks}")
    return 0


def cmd_classify(args):
    p = _presentation(args)
    seed = parse_module(p, args.seed)
    kind, rank = classify_component(seed)
    print(kind if rank is None else f"{kind}({rank})")
    return 0


def cmd_roots(args):
    cd = cartan(args.n)
    if args.closed_form:
        if not args.seq or not args.orient:
            print("--closed-form requires --seq and --orient", file=sys.stderr)
            return 2
        seq = _seq(args.seq)
        omega = normalize_orientation(args.orient, args.n)
        roots_set = closed_form_positive_roots(cd, omega, seq, args.bound)
    else:
        for flag in ("seq", "orient"):
            if getattr(args, flag) is not None:
                print(f"--{flag} is read only with --closed-form", file=sys.stderr)
                return 2
        roots_set = enumerate_positive_roots(cd, args.bound)
    ordered = sorted(roots_set)
    if args.format == "json":
        print(json.dumps([list(r) for r in ordered]))
    else:
        for r in ordered:
            print(format_vector(r))
    return 0


def cmd_verify_gls(args):
    p = _presentation(args)
    report = check_gls(p, args.bound, char=_scalar())
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.to_table())
    return 0 if report.passed else 1


def cmd_verify_coxeter(args):
    p = _presentation(args)
    seq = _seq(args.seq)
    report = check_coxeter_compatibility(p, seq, args.depth)
    if report.passed:
        print(f"coxeter compatibility: pass (seq={seq}, depth={args.depth})")
        return 0
    for problem in report.problems:
        print(problem)
    print("coxeter compatibility: FAIL")
    return 1


TABLE_JSON = ("table", "json")


def _add_common(sub, formats=()):
    """--n and --orient, and --format over `formats` (the first is the
    default) when the subcommand prints more than one."""
    sub.add_argument("--n", type=int, required=True, help="number of vertices (>= 3)")
    sub.add_argument("--orient", required=True,
                     help="spine orientation, e.g. RRL (R: i->i+1)")
    if formats:
        sub.add_argument("--format", choices=formats, default=formats[0])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="strandbox",
        description="String algebras of affine type C-tilde: strings, bands, "
                    "AR translation, components, roots and the GLS verifier.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("strings", help="enumerate string classes up to a length")
    _add_common(s, TABLE_JSON)
    s.add_argument("--max-len", type=int, required=True)
    s.set_defaults(fn=cmd_strings)

    s = subs.add_parser("bands", help="enumerate band classes up to a delta-length")
    _add_common(s, TABLE_JSON)
    s.add_argument("--max-dl", type=int, required=True)
    s.set_defaults(fn=cmd_bands)

    s = subs.add_parser("tau", help="apply the AR translation to a module")
    _add_common(s)
    s.add_argument("module", help="module text form, e.g. 'triv(2)' or 'a21~.e1'")
    s.add_argument("--power", type=int, default=1,
                   help="tau^k; negative k applies the inverse translation; "
                        f"|k| <= {MAX_POWER}")
    s.set_defaults(fn=cmd_tau)

    s = subs.add_parser("component", help="breadth-first AR component window")
    _add_common(s, ("dot", "json"))
    s.add_argument("seed")
    s.add_argument("--radius", type=int, required=True)
    s.set_defaults(fn=cmd_component)

    s = subs.add_parser("classify", help="classify the component of a module")
    _add_common(s)
    s.add_argument("seed")
    s.set_defaults(fn=cmd_classify)

    s = subs.add_parser("minimal", help="minimal string modules by index type")
    _add_common(s, TABLE_JSON)
    s.add_argument("--max-len", type=int, default=12,
                   help="length bound for the (2,2) family")
    s.set_defaults(fn=cmd_minimal)

    s = subs.add_parser("tube", help="the rank-(n-1) tube, level by level")
    _add_common(s, ("table", "json", "dot"))
    s.add_argument("--levels", type=int, default=None)
    s.set_defaults(fn=cmd_tube)

    s = subs.add_parser("roots", help="positive roots up to a height bound")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--bound", type=int, required=True)
    s.add_argument("--closed-form", action="store_true",
                   help="use the Coxeter-orbit description instead of reflection BFS")
    s.add_argument("--seq", help="comma-separated +-admissible sequence")
    s.add_argument("--orient", help="spine orientation (closed form only)")
    s.add_argument("--format", choices=TABLE_JSON, default="table")
    s.set_defaults(fn=cmd_roots)

    s = subs.add_parser("verify-gls", help="run the root/rank-vector bijection check")
    _add_common(s, TABLE_JSON)
    s.add_argument("--bound", type=int, required=True)
    s.set_defaults(fn=cmd_verify_gls)

    s = subs.add_parser("verify-coxeter", help="rank vs Coxeter orbit compatibility")
    _add_common(s)
    s.add_argument("--seq", required=True, help="comma-separated admissible sequence")
    s.add_argument("--depth", type=int, default=6)
    s.set_defaults(fn=cmd_verify_coxeter)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except StrandboxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, InternalCheckError) else 2


if __name__ == "__main__":
    sys.exit(main())
