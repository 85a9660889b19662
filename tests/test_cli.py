"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


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

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_parser_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.domain == "ecommerce" and args.seed == 7
