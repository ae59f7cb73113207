"""Regenerate the benchmark's reference files from the current sources.

    python3 perfbench/make_reference.py

Writes ``reference/builtin-structured.txt`` (the structured report of
``partialpi verify builtin``) and ``reference/check-pi-pool.json`` (for every
check-pi pool group, POOL_SIZE requests of one or two random elements in
cycle notation, drawn with a fixed seed, each with the subgroup order and the
Pi and CAP verdicts the sources give). It stops if a cap stops a verdict
or the quotient oracle disagrees with one. Run it only on a commit whose
verdicts are trusted: the benchmark counts every later difference as a
failure.
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stdout

import workloads

POOL_SEED = 20240401
POOL_SIZE = 32
EXCLUDED_BUILTINS = ("C1", "C2")
EXTRA_GROUPS = (
    ("C2^5", "elemab:2:5"),
    ("C3^4", "elemab:3:4"),
    ("D8xD8", "dp:dihedral:8xdihedral:8"),
    ("Q8xQ8", "dp:quaternion:8xquaternion:8"),
    ("C2^3xS3", "dp:elemab:2:3xsym:3"),
    ("S5", "sym:5"),
    ("A4xA4", "dp:alt:4xalt:4"),
)


def make_report() -> str:
    from partialpi import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(workloads.SWEEP_ARGV))
    if code != 0:
        raise SystemExit(f"verify builtin exited {code}")
    return buf.getvalue()


def make_pool() -> dict:
    from partialpi.corpus import BUILTIN_ENTRIES
    from partialpi.embedding import satisfies_partial_pi_by_quotients
    from partialpi.groupfile import build_directive, serialize_directive

    rng = random.Random(POOL_SEED)
    entries = [e for e in BUILTIN_ENTRIES if e[0] not in EXCLUDED_BUILTINS]
    groups = []
    for name, directive in entries + list(EXTRA_GROUPS):
        G = build_directive(directive)
        text = serialize_directive(name, directive)
        requests = []
        while len(requests) < POOL_SIZE:
            picks = [rng.randrange(G.order) for _ in range(rng.choice((1, 2)))]
            gens = [G.perm(i).cycle_string() for i in picks]
            req = workloads.Request(None, name, text, gens, None, None, None)
            G_req, H, pi, cap = workloads.run_request(req)
            if pi is None or cap is None:
                raise SystemExit(f"{name} {gens}: a cap stopped a verdict")
            if satisfies_partial_pi_by_quotients(G_req, H)[0] != pi:
                raise SystemExit(f"{name} {gens}: oracle disagrees")
            requests.append({"gens": gens, "order": H.order, "pi": pi,
                             "cap": cap})
        groups.append({"name": name, "directive": directive,
                       "requests": requests})
        print(f"{name}: {len(requests)} requests", file=sys.stderr)
    return {"pool_seed": POOL_SEED, "groups": groups}


def main():
    workloads.use_checkout_sources()
    workloads.REFERENCE_REPORT.parent.mkdir(exist_ok=True)
    workloads.REFERENCE_REPORT.write_text(make_report(), encoding="utf-8")
    pool = make_pool()
    with open(workloads.REQUEST_POOL, "w", encoding="utf-8") as fh:
        json.dump(pool, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
