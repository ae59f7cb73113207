"""Self-test of the benchmark at tiny size.

    python3 -m pytest -q perfbench/test_selftest.py

Shrinks the corpus to three small groups and the check-pi pool to three
small groups, then checks that every workload prints every metric
BENCHMARK.json names, with its unit, and that one corrupted reference
verdict shows up as a failure.
"""

from __future__ import annotations

import json

import pytest

import run
import workloads

workloads.use_checkout_sources()

TINY_GROUPS = ("C4", "S3", "D8")
SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def _expected(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _tiny_reference(corrupt: bool) -> str:
    lines = workloads.REFERENCE_REPORT.read_text(encoding="utf-8").splitlines()
    records = [l for l in lines if not l.startswith("#")
               and l.split(" ", 1)[0][len("group:"):] in TINY_GROUPS]
    if corrupt:
        records[0] = records[0].replace(" pass:true", " pass:false")
    counts = {s: sum(f" status:{s} " in r for r in records)
              for s in ("pass", "fail", "vacuous", "indeterminate")}
    summary = "#summary " + " ".join(f"{k}={v}" for k, v in counts.items())
    return "\n".join(lines[:2] + records + [summary]) + "\n"


def _tiny_pool(corrupt: bool) -> dict:
    pool = json.loads(workloads.REQUEST_POOL.read_text(encoding="utf-8"))
    pool["groups"] = [g for g in pool["groups"] if g["name"] in TINY_GROUPS]
    for g in pool["groups"]:  # so that every pass asks every kept request
        del g["requests"][workloads.REQUESTS_PER_GROUP:]
    if corrupt:
        first = pool["groups"][0]["requests"][0]
        first["cap"] = not first["cap"]
    return pool


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Install tiny inputs; returns a function that runs one workload and
    returns its parsed result line."""
    import partialpi.corpus

    def install(corrupt=False):
        builtin = dict(partialpi.corpus.BUILTIN_ENTRIES)
        monkeypatch.setattr(partialpi.corpus, "BUILTIN_ENTRIES",
                            tuple((n, builtin[n]) for n in TINY_GROUPS))
        ref = tmp_path / "reference.txt"
        ref.write_text(_tiny_reference(corrupt), encoding="utf-8")
        pool = tmp_path / "pool.json"
        pool.write_text(json.dumps(_tiny_pool(corrupt)), encoding="utf-8")
        monkeypatch.setattr(workloads, "REFERENCE_REPORT", ref)
        monkeypatch.setattr(workloads, "REQUEST_POOL", pool)
        monkeypatch.setattr(workloads, "SETUP_SAMPLES", 1)
        monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")

    return install


def _run(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3",
                     "--seconds", "0.01", "--trace", str(trace)])
    assert code == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return json.loads(last)


@pytest.mark.parametrize("workload", tuple(run.RUNS))
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_emitted_with_its_unit(tiny, capsys, workload, trace):
    tiny()
    result = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = _expected("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


@pytest.mark.parametrize("workload", tuple(run.RUNS))
def test_a_corrupted_reference_verdict_counts_as_failed(tiny, capsys,
                                                         workload):
    tiny(corrupt=True)
    result = _run(capsys, workload, 1)
    assert result["correct"] is False and result["failed"] >= 1
    assert result["metrics"]["verdicts.failed_ratio"]["value"] > 0
