"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.constraints.containment import (ContainmentConstraint,
                                           Projection)
from repro.io.json_io import dump_bundle
from repro.queries.atoms import rel
from repro.queries.cq import cq
from repro.queries.terms import var
from repro.relational.instance import Instance
from repro.relational.schema import DatabaseSchema, RelationSchema

SCHEMA = DatabaseSchema([RelationSchema("S", ["eid", "cid"])])
MASTER_SCHEMA = DatabaseSchema([RelationSchema("M", ["cid"])])


@pytest.fixture
def bundle_path(tmp_path):
    def write(support):
        database = Instance(SCHEMA, {"S": set(support)})
        master = Instance(MASTER_SCHEMA, {"M": {("c1",), ("c2",)}})
        q = cq([var("c")], [rel("S", "e0", var("c"))])
        cc = ContainmentConstraint(
            cq([var("c")], [rel("S", var("e"), var("c"))]),
            Projection.on("M", [0]), name="ind")
        path = tmp_path / "bundle.json"
        dump_bundle(str(path), schema=SCHEMA,
                    master_schema=MASTER_SCHEMA, database=database,
                    master=master, query=q, constraints=[cc])
        return str(path)

    return write


class TestRCDPCommand:
    def test_complete_exit_zero(self, bundle_path, capsys):
        path = bundle_path({("e0", "c1"), ("e0", "c2")})
        assert main(["rcdp", path]) == 0
        assert "complete" in capsys.readouterr().out

    def test_incomplete_exit_one_with_certificate(self, bundle_path,
                                                  capsys):
        path = bundle_path({("e0", "c1")})
        assert main(["rcdp", path]) == 1
        out = capsys.readouterr().out
        assert "incomplete" in out
        assert "counterexample" in out


class TestRCQPCommand:
    def test_nonempty_exit_zero_with_witness(self, bundle_path, capsys):
        path = bundle_path({("e0", "c1")})
        assert main(["rcqp", path]) == 0
        out = capsys.readouterr().out
        assert "nonempty" in out
        assert "witness" in out


class TestCompleteCommand:
    def test_suggests_missing_facts(self, bundle_path, capsys):
        path = bundle_path({("e0", "c1")})
        assert main(["complete", path]) == 0
        out = capsys.readouterr().out
        assert "collect" in out
        assert "c2" in out


class TestDemoCommand:
    def test_runs_and_prints_audit(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "master data" in out
        assert "verdict" in out


class TestErrors:
    def test_missing_bundle_file(self, capsys):
        with pytest.raises(SystemExit):
            main(["rcdp"])  # argparse: missing argument

    def test_broken_bundle_reports_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": {"relations": []}, '
                        '"master_schema": {"relations": []}, '
                        '"database": {}, "master": {}, '
                        '"query": {"language": "CQ", "text": ""}, '
                        '"constraints": []}')
        assert main(["rcdp", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read bundle"),
        ("{bad", "is not valid JSON"),
        ("[]", "must be a JSON object, got list"),
    ], ids=["missing-file", "invalid-json", "top-level-array"])
    def test_unloadable_bundle_exits_two(self, tmp_path, capsys,
                                         content, message):
        # Exit 1 means INCOMPLETE, so a bad input must never produce it.
        path = tmp_path / "bundle.json"
        if content is not None:
            path.write_text(content)
        assert main(["decide", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and message in lines[0]

    @pytest.mark.parametrize("command", ["decide", "lint"])
    @pytest.mark.parametrize("mutate, message", [
        (lambda payload: payload.pop("query"),
         "missing required key 'query'"),
        (lambda payload: payload["constraints"].append({"bogus": 1}),
         "constraint 1: missing required key 'query'"),
        (lambda payload: payload["constraints"][0].pop("projection"),
         "constraint 0: missing required key 'projection'"),
        (lambda payload: payload.update(constraints={}),
         "'constraints' must be a list"),
    ], ids=["no-query", "bogus-constraint", "no-projection",
            "constraints-not-a-list"])
    def test_malformed_bundle_exits_two(self, bundle_path, capsys, command,
                                        mutate, message):
        # A crash must not look like a verdict (decide's 1 = INCOMPLETE)
        # nor like a clean lint (0).
        import json

        path = bundle_path([("e0", "c1")])
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        mutate(payload)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and message in lines[0]

    def test_lint_needs_no_data_blocks(self, bundle_path, capsys):
        # lint analyzes a bundle without its instances; decide cannot.
        import json

        path = bundle_path([("e0", "c1")])
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        del payload["database"], payload["master"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        assert main(["lint", path]) in (0, 1)
        assert "error:" not in capsys.readouterr().err
        assert main(["decide", path]) == 2
        assert "missing required key 'database'" in capsys.readouterr().err


class TestAuditCommand:
    def test_trustworthy_exit_zero(self, bundle_path, capsys):
        path = bundle_path({("e0", "c1"), ("e0", "c2")})
        assert main(["audit", path]) == 0
        assert "trustworthy" in capsys.readouterr().out

    def test_collect_data_exit_one(self, bundle_path, capsys):
        path = bundle_path({("e0", "c1")})
        assert main(["audit", path]) == 1
        out = capsys.readouterr().out
        assert "collect" in out


class TestMissingCommand:
    def test_lists_missing_answers(self, bundle_path, capsys):
        path = bundle_path({("e0", "c1")})
        assert main(["missing", path]) == 1
        out = capsys.readouterr().out
        assert "c2" in out

    def test_complete_database_reports_none(self, bundle_path, capsys):
        path = bundle_path({("e0", "c1"), ("e0", "c2")})
        assert main(["missing", path]) == 0
        assert "relatively complete" in capsys.readouterr().out

    def test_limit_flag(self, bundle_path, capsys):
        path = bundle_path(set())
        assert main(["missing", path, "--limit", "1"]) == 1
        out = capsys.readouterr().out
        assert "1 answer(s)" in out


class TestObservabilityFlags:
    def test_decide_alias_with_trace_profile_stats(self, bundle_path,
                                                   tmp_path, capsys):
        import json

        from repro.obs import check_trace, read_trace

        path = bundle_path({("e0", "c1")})
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        assert main(["decide", path, "--trace", str(trace),
                     "--metrics", str(metrics), "--profile"]) == 1
        out = capsys.readouterr().out
        # satellite: engine counters surface in the statistics block
        assert "statistics:" in out
        assert "plans_compiled" in out
        assert "phase" in out and "decide_rcdp" in out
        records = read_trace(str(trace))
        assert check_trace(records) == []
        snapshot = json.loads(metrics.read_text(encoding="utf-8"))
        assert "governor.ticks.valuations" in snapshot["counters"]

    def test_traced_run_keeps_the_untraced_verdict(self, bundle_path,
                                                   tmp_path, capsys):
        path = bundle_path({("e0", "c1"), ("e0", "c2")})
        plain = main(["rcdp", path])
        traced = main(["rcdp", path, "--trace",
                       str(tmp_path / "t.jsonl")])
        assert traced == plain == 0

    def test_workers_two_trace_validates(self, bundle_path, tmp_path,
                                         capsys):
        from repro.obs import check_trace, read_trace

        path = bundle_path({("e0", "c1")})
        trace = tmp_path / "trace.jsonl"
        assert main(["decide", path, "--workers", "2",
                     "--trace", str(trace)]) == 1
        records = read_trace(str(trace))
        assert check_trace(records) == []
        lanes = {(r.get("attrs") or {}).get("lane")
                 for r in records if r.get("type") == "span"
                 and r["name"] == "shard"}
        assert lanes == {"shard-0", "shard-1"}

    def test_stats_flag_without_observability(self, bundle_path, capsys):
        path = bundle_path({("e0", "c1")})
        assert main(["rcdp", path, "--stats"]) == 1
        assert "valuations_examined" in capsys.readouterr().out


class TestTraceCommand:
    def test_check_valid_trace(self, bundle_path, tmp_path, capsys):
        path = bundle_path({("e0", "c1")})
        trace = tmp_path / "trace.jsonl"
        main(["decide", path, "--trace", str(trace)])
        capsys.readouterr()
        assert main(["trace", str(trace), "--check"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_renders_profile_by_default(self, bundle_path, tmp_path,
                                        capsys):
        path = bundle_path({("e0", "c1")})
        trace = tmp_path / "trace.jsonl"
        main(["decide", path, "--trace", str(trace)])
        capsys.readouterr()
        assert main(["trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "phase" in out and "decide_rcdp" in out

    def test_check_rejects_corrupt_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        assert main(["trace", str(bad), "--check"]) == 2
        assert "error" in capsys.readouterr().err

    def test_check_flags_invalid_span_tree(self, tmp_path, capsys):
        import json

        bad = tmp_path / "orphan.jsonl"
        records = [
            {"type": "header", "version": 1, "procedure": "rcdp",
             "command": None},
            {"type": "span", "id": 1, "parent": 99, "name": "analyze",
             "start": 0.0, "end": 1.0, "dur": 1.0, "ticks": {},
             "attrs": {}},
        ]
        bad.write_text("\n".join(json.dumps(r) for r in records) + "\n",
                       encoding="utf-8")
        assert main(["trace", str(bad), "--check"]) == 2
        assert "orphan" in capsys.readouterr().out
