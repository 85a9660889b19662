"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.errors import LoadGenError
from repro.loadgen import LoadSpec


class TestCLI:
    def test_demo_runs(self, capsys):
        assert main(["demo", "--domain", "ecommerce", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "correct" in out

    def test_ask_structured(self, capsys):
        code = main([
            "ask", "--domain", "ecommerce", "--seed", "3",
            "Find the total sales of all products in Q2.",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.strip()

    def test_stats(self, capsys):
        assert main(["stats", "--domain", "healthcare", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "graph:" in out and "tables:" in out

    def test_sql(self, capsys):
        code = main([
            "sql", "--domain", "ecommerce", "--seed", "3",
            "SELECT COUNT(*) AS n FROM products",
        ])
        assert code == 0
        assert "n" in capsys.readouterr().out

    def test_session_mode(self, capsys):
        import io

        from repro.cli import build_parser, cmd_session

        args = build_parser().parse_args(
            ["session", "--domain", "ecommerce", "--seed", "3"]
        )
        args._stdin = io.StringIO(
            "Find the total sales of all products in Q2.\n"
            "\n"
        )
        assert cmd_session(args) == 0
        out = capsys.readouterr().out
        assert out.strip()

    def test_load_rejects_the_ask_only_tenant_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["load", "--spec", "never_read.json", "--tenant", "x"])
        assert exit_info.value.code == 2
        assert "--tenant x" in capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read"),
        ("{not json", "cannot read"),
        ("[1, 2]", "expected a JSON object"),
    ])
    def test_bad_faults_file_exits_with_one_line(self, tmp_path, content,
                                                 message):
        plan = tmp_path / "plan.json"
        if content is not None:
            plan.write_text(content, encoding="utf-8")
        with pytest.raises(SystemExit, match=message):
            main(["ask", "How many products are there?",
                  "--faults", str(plan)])

    @pytest.mark.parametrize("flag, key, value", [
        ("--batch-size", "batch_size", 0),
        ("--session-budget", "session_budget", 0),
        ("--max-queue-depth", "max_queue_depth", 0),
        ("--shards", "shards", 0),
        ("--cache-policy", "cache_policy", "bogus"),
        ("--faults", "faults", {"retry": {"max_attempts": "many"}}),
        ("--faults", "faults", {"backends": {"slm": {"rate": "high"}}}),
        ("--faults", "faults", {"seed": 17, "fault_rate": 0.1}),
        ("--faults", "faults", {"backends": {"database": {"rate": 0.1}}}),
    ])
    def test_bad_stack_flag_exits_two_before_building(
            self, tmp_path, capsys, monkeypatch, flag, key, value):
        def build_stack(*args, **kwargs):
            raise AssertionError("a stack was built")

        monkeypatch.setattr("repro.cli.build_stack", build_stack)
        workload = tmp_path / "w.jsonl"
        workload.write_text('{"op": "ask", "question": "q"}',
                            encoding="utf-8")
        argument = str(value)
        if flag == "--faults":
            argument = str(tmp_path / "plan.json")
            (tmp_path / "plan.json").write_text(json.dumps(value),
                                                encoding="utf-8")
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--workload", str(workload), flag, argument])
        assert exit_info.value.code == 2
        # One line, and the text a load spec with the same value gets.
        with pytest.raises(LoadGenError) as spec_error:
            LoadSpec.from_dict({"name": "n", "domain": "ecommerce",
                                "asks": 1, key: value})
        assert capsys.readouterr().err == "error: %s\n" % spec_error.value

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_parser_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.domain == "ecommerce" and args.seed == 7
