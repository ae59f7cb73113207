"""The benchmark workloads and their correctness checks.

Every workload runs in this one process, closed loop, one client, no
threads: the next verdict is asked for only when the last one is in.

* ``sweep-cold``: ``partialpi verify builtin --format structured`` through
  ``cli.main`` in-process, stdout captured, on a fresh corpus each pass.
* ``check-pi``: a seeded stream of single-subgroup requests, each one what
  ``partialpi check-pi`` does: build G from a group-file text, generate H
  from one or two elements in cycle notation, decide the partial
  Pi-property and then the partial CAP-property of H.

This module imports no ``partialpi`` code at import time, so a set-up probe
can import it first and then time the program's own import.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_REPORT = BENCH_DIR / "reference" / "builtin-structured.txt"
REQUEST_POOL = BENCH_DIR / "reference" / "check-pi-pool.json"

SWEEP_ARGV = ["verify", "builtin", "--format", "structured"]
# Each check-pi pass asks this many requests of every pool group, so every
# seed gives the same mix of cheap and expensive groups: 39 groups x 6 = 234
# requests, at least ten of them beyond the 95th percentile.
REQUESTS_PER_GROUP = 6
SETUP_SAMPLES = 5


class ProgramMissing(RuntimeError):
    """The checkout holds no partialpi sources to benchmark."""


def use_checkout_sources():
    """Import partialpi from ``src/`` of this checkout, never from elsewhere."""
    if not (SRC / "partialpi" / "__init__.py").is_file():
        raise ProgramMissing(f"no partialpi package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for var in [v for v in os.environ if v.startswith("PARTIALPI_CAP_")]:
        del os.environ[var]  # default caps, whatever the caller's environment


# -- inputs ------------------------------------------------------------------


class Request(NamedTuple):
    pool_id: tuple   # (group name, index in the pool)
    group: str
    text: str        # the group file
    gens: tuple      # generators of H in cycle notation
    order: int       # recorded |H|
    pi: bool         # recorded verdicts
    cap: bool


def load_pool() -> list:
    """Pool groups, each ``(name, directive, [recorded requests])``."""
    with open(REQUEST_POOL, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return [(g["name"], g["directive"], g["requests"]) for g in data["groups"]]


def request_stream(pool, seed: int):
    """Endless passes of requests: every pass draws REQUESTS_PER_GROUP
    distinct pool requests of every group, in seeded order."""
    from partialpi.groupfile import serialize_directive

    rng = random.Random(seed)
    texts = {name: serialize_directive(name, directive)
             for name, directive, _ in pool}
    while True:
        batch = []
        for name, _, recorded in pool:
            for i in rng.sample(range(len(recorded)), REQUESTS_PER_GROUP):
                rec = recorded[i]
                batch.append(Request((name, i), name, texts[name],
                                     tuple(rec["gens"]), rec["order"],
                                     rec["pi"], rec["cap"]))
        rng.shuffle(batch)
        yield batch


def build_inputs(workload: str, seed: int):
    """Import the program and build the workload's inputs: check-pi gets its
    request stream, first pass built; the sweep gets a builtin corpus."""
    import partialpi  # noqa: F401  (the import is part of set-up)
    from partialpi import cli  # noqa: F401
    from partialpi.corpus import builtin_corpus

    if workload == "check-pi":
        stream = request_stream(load_pool(), seed)
        return itertools.chain([next(stream)], stream)
    return builtin_corpus()


def setup_samples(workload: str, seed: int):
    """SETUP_SAMPLES times the seconds to import the program and build the
    workload's inputs, each in a fresh interpreter."""
    code = ("import sys, time; sys.path[:0] = [{bench!r}, {src!r}]; "
            "import workloads; t = time.perf_counter(); "
            "workloads.build_inputs({workload!r}, {seed}); "
            "print(time.perf_counter() - t)").format(
                bench=str(BENCH_DIR), src=str(SRC), workload=workload,
                seed=seed)
    out = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


# -- verdict checks ----------------------------------------------------------


class Tally:
    """Verdicts attempted, wrong or missing or errored, and cap-limited."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.indeterminate = 0

    def add(self, other: "Tally"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.indeterminate += other.indeterminate


def _record_key(line: str):
    fields = {}
    for token in line.split(" "):  # the leading fields, before any details
        key, sep, value = token.partition(":")
        if sep:
            fields.setdefault(key, value)
    return (fields.get("group"), fields.get("check"), fields.get("p"),
            fields.get("d"))


def compare_records(lines, reference_lines) -> Tally:
    """Record-by-record comparison of structured report lines."""
    ref = [l for l in reference_lines if l and not l.startswith("#")]
    got = {}
    for line in lines:
        if line and not line.startswith("#"):
            got.setdefault(_record_key(line), line)
    tally = Tally()
    tally.attempted = len(ref)
    for line in ref:
        mine = got.pop(_record_key(line), None)
        if mine == line:
            continue
        if mine is not None and " status:indeterminate " in mine:
            tally.indeterminate += 1
        else:
            tally.failed += 1
    tally.failed += len(got)  # records the reference does not have
    return tally


# -- passes ------------------------------------------------------------------


class RequestSpans:
    """While tracing, opens one request span per ``theorems.run_check`` call
    that ``run_corpus`` makes, labelled with its group and check."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def __enter__(self):
        from partialpi import theorems
        self.module = theorems
        self.inner = theorems.run_check
        if self.tracer:
            theorems.run_check = self._call
        return self

    def __exit__(self, *exc):
        self.module.run_check = self.inner

    def _call(self, G, check_id, params, *args, **kwargs):
        group = kwargs.get("group_name") or (
            args[1] if len(args) > 1 else G.name)
        sid = self.tracer.begin_request(group, check_id)
        try:
            return self.inner(G, check_id, params, *args, **kwargs)
        finally:
            self.tracer.end_request(sid)


# A sweep hands over all its verdicts at once, when ``verify`` prints the
# report at the end of the pass, so every verdict of a pass has the pass's
# time as its latency.


def cold_pass(reference_lines, tracer=None):
    """One ``verify builtin`` run on a fresh corpus: (seconds, verdict
    latencies in ms, tally, report text)."""
    from partialpi import cli

    buf = io.StringIO()
    with RequestSpans(tracer):
        t0 = time.perf_counter()
        with redirect_stdout(buf):
            code = cli.main(list(SWEEP_ARGV))
        wall = time.perf_counter() - t0
    text = buf.getvalue()
    tally = compare_records(text.splitlines(), reference_lines)
    if code != 0:
        tally.failed = max(tally.failed, 1)
    return wall, [wall * 1000.0] * tally.attempted, tally, text


def run_request(req: Request):
    """One check-pi request: (G, H, pi verdict, cap verdict); a verdict is
    None when a cap stopped it."""
    from partialpi import embedding, groupfile, groups, perms
    from partialpi.config import DEFAULT_CAPS as caps
    from partialpi.errors import CapExceeded

    spec = groupfile.parse_group_text(req.text)
    G = spec.build(caps)
    H = groups.subgroup_generated(
        G, [perms.parse_cycles(text, G.degree) for text in req.gens])
    verdicts = []
    for decide in (embedding.satisfies_partial_pi,
                   embedding.satisfies_partial_cap):
        try:
            verdicts.append(decide(G, H, caps)[0])
        except CapExceeded:
            verdicts.append(None)
    return G, H, verdicts[0], verdicts[1]


def check_pi_pass(batch, oracle_cache: dict, tracer=None):
    """Ask every request in turn; check each outside the timed region.

    Returns (seconds, latencies in ms, tally). ``oracle_cache`` maps a pool
    request to its quotient-oracle verdict so repeats are checked once.
    """
    from partialpi import embedding

    tally = Tally()
    latencies = []
    for req in batch:
        tally.attempted += 2
        if tracer:
            sid = tracer.begin_request(req.group, "check-pi")
        t0 = time.perf_counter()
        try:
            G, H, pi, cap = run_request(req)
        except Exception:  # both verdicts count as failed
            traceback.print_exc()
            G = None
        latencies.append((time.perf_counter() - t0) * 1000.0)
        if tracer:
            tracer.end_request(sid)
        if G is None:
            tally.failed += 2
            continue
        if tracer:
            tracer.active = False
        if req.pool_id not in oracle_cache:
            try:
                oracle_cache[req.pool_id] = \
                    embedding.satisfies_partial_pi_by_quotients(G, H)[0]
            except Exception:  # no oracle verdict: the pi verdict fails
                traceback.print_exc()
                oracle_cache[req.pool_id] = None
        if tracer:
            tracer.active = True
        right = (H.order == req.order
                 and pi == req.pi == oracle_cache[req.pool_id],
                 H.order == req.order and cap == req.cap)
        for got, ok in zip((pi, cap), right):
            if got is None:
                tally.indeterminate += 1
            elif not ok:
                tally.failed += 1
    return sum(latencies) / 1000.0, latencies, tally


def quantiles_ms(latencies):
    """(p50, p90, p95) of latencies."""
    q = statistics.quantiles(latencies, n=20)
    return q[9], q[17], q[18]
