"""Command-line front end.

    partialpi check-pi GROUPFILE [GEN ...]      one subgroup, full witness
    partialpi verify {builtin|DIR} [options]    corpus sweep, report document

Exit codes: 0 ok, 1 usage or parse error, 2 verification failure,
3 indeterminate-only (cap exceeded somewhere, nothing failed).

Caps come from defaults, then PARTIALPI_CAP_* environment variables, then
--config FILE (JSON object with closure/iso/lattice/series/module_dim),
then explicit flags; every report document embeds the caps used.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import __version__
from .config import Caps, caps_from_env
from .corpus import Corpus, builtin_corpus
from .embedding import evaluate_series, satisfies_partial_pi
from .errors import BadParameter, ParseError, PartialPiError
from .chiefs import all_chief_series
from .groupfile import parse_group_file
from .groups import clear_memo, subgroup_generated
from .perms import parse_cycles
from .theorems import CHECKS, LEMMA_IDS, run_corpus


def _gens_str(term) -> str:
    gens = term.generators
    return ", ".join(g.cycle_string() for g in gens) if gens else "()"


def _build_caps(args) -> Caps:
    names = [f.name for f in fields(Caps)]
    values = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            for key, val in json.load(fh).items():
                if key not in names:
                    raise BadParameter(f"unknown config key {key!r}")
                values[key] = int(val)
    for name in names:
        flag = getattr(args, f"cap_{name}", None)
        if flag is not None:
            values[name] = flag
    return replace(caps_from_env(), **values)


def _cmd_check_pi(args) -> int:
    caps = _build_caps(args)
    spec = parse_group_file(args.groupfile)
    G = spec.build(caps)
    gens = [parse_cycles(text, G.degree) for text in args.generators]
    H = subgroup_generated(G, gens)
    verdict, witness = satisfies_partial_pi(G, H, caps)
    print(f"group {spec.name} of order {G.order}; subgroup of order {H.order}")
    if verdict:
        print("verdict: true")
        terms = witness.series.terms
        print("witness chief series:")
        for i, term in enumerate(terms):
            print(f"  G_{i} (order {term.order}) = <{_gens_str(term)}>")
        for rec in witness.per_factor:
            print(f"  factor {rec.factor_index + 1}: trace order "
                  f"{rec.intersection_order}, normalizer index "
                  f"{rec.normalizer_index}, primes {set(rec.prime_set) or '{}'}")
    else:
        print("verdict: false")
        print("no chief series passes; first series evaluation:")
        series = next(all_chief_series(G, caps))
        for rec in evaluate_series(G, H, series):
            state = "ok" if rec.passed else "FAILS"
            print(f"  factor {rec.factor_index + 1} "
                  f"(order {series.factor_orders()[rec.factor_index]}): "
                  f"trace order {rec.intersection_order}, normalizer index "
                  f"{rec.normalizer_index}, primes {set(rec.prime_set) or '{}'}"
                  f" -> {state}")
    return 0


def _load_corpus(target: str, caps: Caps) -> Corpus:
    if target == "builtin":
        return builtin_corpus(caps)
    entries = []
    root = Path(target)
    if not root.is_dir():
        raise ParseError(f"{target}: not a directory")
    specs = {}
    for path in sorted(root.glob("*.grp")):
        spec = parse_group_file(path)
        specs[spec.name] = spec
        entries.append((spec.name, spec.directive or ""))
    corpus = Corpus(tuple(entries), caps)
    for name, spec in specs.items():  # prebuild gen-line groups directly
        corpus._built[name] = spec.build(caps)
    return corpus


def _theorem_filter(values):
    if not values:
        return None
    for v in values:
        if v not in CHECKS:
            theorems = ", ".join(c for c in CHECKS if not c.startswith("lemma:"))
            raise BadParameter(
                f"unknown theorem {v!r}; use {theorems} or lemma:<id> with id "
                "in " + ", ".join(LEMMA_IDS))
    return set(values)


def _cmd_verify(args) -> int:
    caps = _build_caps(args)
    corpus = _load_corpus(args.corpus, caps)
    theorem_filter = _theorem_filter(args.theorem)
    p_filter = set(args.p) if args.p else None
    d_filter = set(args.d) if args.d else None
    reports = []
    for name, G in corpus:  # a group's memo is freed once its checks end
        reports += run_corpus([(name, G)], caps=caps, p_filter=p_filter,
                              d_filter=d_filter, theorem_filter=theorem_filter)
        clear_memo(G)
    summary = {"pass": 0, "fail": 0, "vacuous": 0, "indeterminate": 0}
    for r in reports:
        summary[r.status] += 1
    if args.format == "structured":
        print(f"#partialpi-report version={__version__}")
        print(f"#caps {caps.describe()}")
        for r in reports:
            print(" ".join(f"{k}:{v}" for k, v in r.record_fields()))
        print("#summary " + " ".join(f"{k}={summary[k]}" for k in
                                     ("pass", "fail", "vacuous", "indeterminate")))
    else:
        print(f"partialpi {__version__} verify: {len(corpus)} groups, "
              f"caps [{caps.describe()}]")
        for r in reports:
            tag = {"pass": "PASS", "fail": "FAIL", "vacuous": "vac ",
                   "indeterminate": "INDET"}[r.status]
            pd = f" p={r.p}" if r.p is not None else ""
            pd += f" d={r.d}" if r.d is not None else ""
            cases = f" cases={','.join(r.conclusion_cases)}" \
                if r.conclusion_cases else ""
            err = f" [{r.error}]" if r.error else ""
            print(f"{tag} {r.group_name:10s} {r.check_id}{pd}{cases}{err}")
        print("summary: " + " ".join(f"{k}={summary[k]}" for k in
                                     ("pass", "fail", "vacuous", "indeterminate")))
    if summary["fail"]:
        return 2
    if summary["indeterminate"]:
        return 3
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partialpi",
        description="chief-series embedding property engine")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_caps(p):
        p.add_argument("--config", help="JSON config file with cap overrides")
        for f in fields(Caps):
            p.add_argument(f"--cap-{f.name.replace('_', '-')}", type=int,
                           dest=f"cap_{f.name}")

    p_check = sub.add_parser("check-pi", help="evaluate the property for one subgroup")
    p_check.add_argument("groupfile")
    p_check.add_argument("generators", nargs="*",
                         help="subgroup generators in cycle notation")
    add_caps(p_check)
    p_check.set_defaults(func=_cmd_check_pi)

    p_verify = sub.add_parser("verify", help="run theorem/lemma checks over a corpus")
    p_verify.add_argument("corpus", nargs="?", default="builtin",
                          help="'builtin' or a directory of .grp files")
    p_verify.add_argument("--theorem", action="append",
                          help="A, B, C or lemma:<id>; repeatable")
    p_verify.add_argument("--p", action="append", type=int,
                          help="restrict to this prime; repeatable")
    p_verify.add_argument("--d", action="append", type=int,
                          help="restrict to this order parameter; repeatable")
    p_verify.add_argument("--format", choices=("text", "structured"),
                          default="text")
    add_caps(p_verify)
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ParseError, BadParameter, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PartialPiError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
