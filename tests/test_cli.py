import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from partialpi.cli import main
from partialpi.corpus import BUILTIN_ENTRIES
from partialpi.groupfile import (
    build_directive,
    parse_group_text,
    serialize_directive,
)
from partialpi.groups import is_isomorphic
from partialpi.errors import ParseError


S3_FILE = "group S3\ndegree 3\ngen (1 2)\ngen (1 2 3)\nend\n"
A4_FILE = "group A4\nbuild alt:4\nend\n"


@pytest.fixture
def groupdir(tmp_path):
    (tmp_path / "s3.grp").write_text(S3_FILE)
    (tmp_path / "a4.grp").write_text(A4_FILE)
    return tmp_path


def test_parse_group_text():
    spec = parse_group_text(S3_FILE)
    assert spec.name == "S3" and spec.degree == 3
    assert spec.build().order == 6
    spec = parse_group_text("group X\r\nbuild sdp:2:2:0,1,1,1:3\r\nend\r\n")
    assert spec.build().order == 12  # CRLF tolerated


def test_parse_errors():
    for text in ("",
                 "group X\nend\n",
                 "group X\ndegree 3\ngen (1 2)\nbuild sym:3\nend\n",
                 "group X\ngen (1 2)\nend\n",
                 "group X\ndegree 3\ngen (1 2\nend\n",
                 "group X\nfoo bar\nend\n",
                 "group X\ndegree 3\ngen (1 5)\nend\n",
                 "group X\nbuild nosuch:3\nend\n"):
        with pytest.raises(ParseError):
            parse_group_text(text).build()


def test_dp_directive_multiplication_sign():
    g1 = build_directive("dp:sym:3×cyclic:2")
    g2 = build_directive("dp:sym:3xcyclic:2")
    assert g1.order == 12 and g2.order == 12
    assert is_isomorphic(g1, g2)


def test_exit_code_on_failing_verdict(monkeypatch, capsys):
    from partialpi.theorems import VerdictReport
    import partialpi.cli as cli
    fake = VerdictReport("X", "A", p=2, hypotheses={"h": True},
                         hypotheses_hold=True, conclusion_cases=(),
                         passed=False, status="fail")
    monkeypatch.setattr(cli, "run_corpus", lambda *a, **k: [fake])
    rc = main(["verify", "builtin", "--theorem", "A"])
    out = capsys.readouterr().out
    assert rc == 2 and "FAIL" in out


def test_directive_round_trip_isomorphic():
    # every built-in constructor serialized to a file and re-parsed gives an
    # isomorphic group (checked under the iso cap)
    from partialpi.config import DEFAULT_CAPS
    for name, directive in BUILTIN_ENTRIES:
        g = build_directive(directive)
        if g.order > DEFAULT_CAPS.iso:
            continue  # iso test capped; all built-ins currently fit
        spec = parse_group_text(serialize_directive(name, directive))
        g2 = spec.build()
        assert g2.name == name
        assert is_isomorphic(g, g2), name


def test_check_pi_cli(groupdir, capsys):
    rc = main(["check-pi", str(groupdir / "s3.grp"), "(1 2)"])
    out = capsys.readouterr().out
    assert rc == 0 and "verdict: true" in out and "witness chief series" in out
    rc = main(["check-pi", str(groupdir / "a4.grp"), "(1 2)(3 4)"])
    out = capsys.readouterr().out
    assert rc == 0 and "verdict: false" in out and "FAILS" in out
    assert "normalizer index 3" in out
    # trivial subgroup: true
    rc = main(["check-pi", str(groupdir / "a4.grp")])
    out = capsys.readouterr().out
    assert rc == 0 and "verdict: true" in out


def test_check_pi_bad_input(groupdir, capsys):
    rc = main(["check-pi", str(groupdir / "s3.grp"), "(1 9)"])
    assert rc == 1
    rc = main(["check-pi", str(groupdir / "missing.grp")])
    assert rc == 1


def test_verify_directory(groupdir, capsys):
    rc = main(["verify", str(groupdir), "--theorem", "A", "--p", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "A4" in out and "cases=2" in out


def test_verify_empty_dir(tmp_path, capsys):
    rc = main(["verify", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0 and "pass=0" in out


def test_verify_builtin_subset_structured(capsys):
    rc = main(["verify", "builtin", "--theorem", "B", "--p", "2",
               "--format", "structured"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("#partialpi-report version=")
    assert lines[1].startswith("#caps ")
    assert lines[-1].startswith("#summary ")
    assert "fail=0" in lines[-1]
    body = [l for l in lines if not l.startswith("#")]
    assert all(l.startswith("group:") for l in body)
    def cases_of(name):
        rec = next(l for l in body if f"group:{name} " in l)
        return dict(kv.split(":", 1) for kv in rec.split())["cases"]
    assert "4" in cases_of("SL(2,3)")
    assert cases_of("A5") == "3"
    assert cases_of("A4") == "2"


def test_verify_structured_stability(capsys):
    args = ["verify", "builtin", "--theorem", "C", "--p", "2", "--d", "4",
            "--format", "structured"]
    rc = main(args)
    out1 = capsys.readouterr().out
    rc2 = main(args)
    out2 = capsys.readouterr().out
    assert rc == rc2 == 0
    assert out1 == out2  # byte-identical reports
    rec = next(l for l in out1.splitlines() if "group:C2^4:C3" in l)
    fields = dict(kv.split(":", 1) for kv in rec.split())
    assert fields["status"] == "pass" and fields["detail.k"] == "2"
    assert fields["detail.m"] == "4" and fields["detail.n"] == "2"


def test_structured_stability_across_processes(groupdir):
    # different hash seeds must not perturb the byte-level report
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "partialpi.cli", "verify", str(groupdir),
             "--format", "structured"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


REFERENCE_REPORT = (pathlib.Path(__file__).resolve().parents[1]
                    / "perfbench" / "reference" / "builtin-structured.txt")


def test_builtin_report_matches_reference(capsys, monkeypatch):
    """The whole structured report of the builtin sweep, byte for byte,
    at the default caps."""
    for var in [v for v in os.environ if v.startswith("PARTIALPI_CAP_")]:
        monkeypatch.delenv(var)
    rc = main(["verify", "builtin", "--format", "structured"])
    assert rc == 0
    assert capsys.readouterr().out == REFERENCE_REPORT.read_text(
        encoding="utf-8")


_CAPPED_REPORTS = (
    # flags, sha256 prefix of the report, its summary line
    (["--cap-series", "2"], "a0b40ab8502f96a3",
     "pass=482 fail=0 vacuous=659 indeterminate=56"),
    (["--cap-lattice", "4", "--cap-series", "5"], "ea927581ab2c163c",
     "pass=257 fail=0 vacuous=426 indeterminate=514"),
    (["--cap-module-dim", "1"], "8049a7f914565723",
     "pass=472 fail=0 vacuous=687 indeterminate=38"),
)


@pytest.mark.parametrize("flags, digest, summary", _CAPPED_REPORTS,
                         ids=[" ".join(c[0]) for c in _CAPPED_REPORTS])
def test_capped_report_pinned(capsys, monkeypatch, flags, digest, summary):
    """The structured report of the builtin sweep under tight caps, pinned
    by its sha256 prefix and summary line: which verdicts a cap stops, and
    how each stopped one reads. A change that alters a pinned report lists
    the changed lines in CHANGES.md."""
    for var in [v for v in os.environ if v.startswith("PARTIALPI_CAP_")]:
        monkeypatch.delenv(var)
    rc = main(["verify", "builtin", "--format", "structured", *flags])
    out = capsys.readouterr().out
    assert rc == 3  # indeterminate verdicts, none failed
    assert out.splitlines()[-1] == f"#summary {summary}"
    assert hashlib.sha256(out.encode("utf-8")).hexdigest()[:16] == digest


def test_verify_unknown_theorem(capsys):
    rc = main(["verify", "builtin", "--theorem", "Z"])
    assert rc == 1


def test_caps_flags_and_config(tmp_path, capsys):
    cfg = tmp_path / "caps.json"
    cfg.write_text(json.dumps({"lattice": 4}))
    (tmp_path / "s4.grp").write_text("group S4\nbuild sym:4\nend\n")
    rc = main(["verify", str(tmp_path), "--theorem", "A", "--p", "2",
               "--config", str(cfg)])
    out = capsys.readouterr().out
    assert rc == 3  # indeterminate-only
    assert "indeterminate=1" in out
    # explicit flag overrides the config file
    rc = main(["verify", str(tmp_path), "--theorem", "A", "--p", "2",
               "--config", str(cfg), "--cap-lattice", "512"])
    out = capsys.readouterr().out
    assert rc == 0 and "indeterminate=0" in out


def test_env_cap_override(groupdir):
    # theorem A at p = 2 on A4 needs the lattice of its order-4 Sylow subgroup
    env = dict(os.environ, PARTIALPI_CAP_LATTICE="2")
    proc = subprocess.run(
        [sys.executable, "-m", "partialpi.cli", "verify", str(groupdir),
         "--theorem", "A", "--p", "2"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 3
    assert "INDET" in proc.stdout


def test_report_embeds_caps(capsys):
    rc = main(["verify", "builtin", "--theorem", "A", "--p", "5",
               "--cap-series", "77777"])
    out = capsys.readouterr().out
    assert "series=77777" in out
