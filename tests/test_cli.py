import json

import numpy as np
import pytest

from gausskey import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_entangled_point(self, capsys):
        code, out, _ = run(capsys, "analyze", "--lambda", "1.5", "--cx", "1", "--cp", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["physical"] is True
        assert doc["nppt"] is True
        assert doc["individual_secure"] is True
        assert doc["coherent_ad_secure"] is True
        assert doc["rate_lb"] > 0
        assert set(doc) == {
            "lambda", "c_x", "c_p", "physical", "nppt", "eps_ab_at_best_x0",
            "eve_overlap", "individual_secure", "coherent_ad_secure", "rate_lb",
            "best_x0",
        }

    def test_unphysical_exits_2(self, capsys):
        code, out, err = run(capsys, "analyze", "--lambda", "1.5", "--cx", "1.3", "--cp", "1")
        assert code == 2
        assert "unphysical" in err
        assert out == ""

    def test_vacuum_point(self, capsys):
        code, out, _ = run(capsys, "analyze", "--lambda", "1", "--cx", "0", "--cp", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["nppt"] is False
        assert doc["rate_lb"] <= 0

    def test_missing_parameter_exits_1(self, capsys):
        code, _, err = run(capsys, "analyze", "--lambda", "1.5", "--cx", "1")
        assert code == 1
        assert "cp" in err

    def test_huge_lambda_does_not_overflow(self, capsys):
        code, out, _ = run(capsys, "analyze", "--lambda", "1e300", "--cx", "1", "--cp", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["physical"] is True and doc["nppt"] is False
        assert doc["rate_lb"] <= 0


class TestFrontier:
    def test_individual_matches_dashed(self, capsys):
        code, out, _ = run(
            capsys, "frontier", "--c-min", "0.5", "--c-max", "1.5", "--steps", "3",
            "--attack", "individual",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "c,lambda_star,lambda_solid,lambda_dashed"
        for line in lines[1:]:
            c, star, solid, dashed = map(float, line.split(","))
            assert abs(star - dashed) < 1e-5
            # columns carry 12 significant digits
            assert abs(dashed - (c + 1.0)) < 1e-10
            assert abs(solid - np.sqrt(1 + c * c)) < 1e-10

    def test_general_between_rails(self, capsys):
        code, out, _ = run(
            capsys, "frontier", "--c-min", "1.0", "--c-max", "1.5", "--steps", "2",
            "--attack", "general",
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            c, star, solid, dashed = map(float, line.split(","))
            assert solid < star < dashed

    def test_minimal_run_schema(self, capsys):
        code, out, _ = run(capsys, "frontier", "--c-min", "0.4", "--c-max", "0.8", "--steps", "2")
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 3

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "frontier", "--c-min", "0.5", "--c-max", "1.0", "--steps", "2",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc) == 2 and {"c", "lambda_star", "lambda_solid", "lambda_dashed"} == set(doc[0])

    def test_bad_range_exits_1(self, capsys):
        code, _, _ = run(capsys, "frontier", "--c-min", "2.0", "--c-max", "1.0")
        assert code == 1


SIM_ARGS = (
    "simulate", "--lambda", "1.5", "--cx", "1", "--cp", "1", "--x0", "1",
    "--pairs", "300000", "--block-n", "2", "--seed", "42",
)


class TestSimulate:
    def test_reference_run_schema(self, capsys):
        code, out, _ = run(capsys, *SIM_ARGS)
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {
            "accepted", "acceptance_rate", "eps_empirical", "eps_theory",
            "blocks", "blocks_kept", "eps_n_empirical", "eps_n_theory",
            "stderr_estimates",
        }
        assert abs(doc["eps_theory"] - 0.03917) < 1e-5

    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run(capsys, *SIM_ARGS)
        _, out2, _ = run(capsys, *SIM_ARGS)
        assert out1 == out2

    def test_byte_identical_across_workers(self, capsys):
        _, out1, _ = run(capsys, *SIM_ARGS, "--workers", "1")
        _, out2, _ = run(capsys, *SIM_ARGS, "--workers", "4")
        assert out1 == out2

    def test_empirical_matches_theory(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--lambda", "1.5", "--cx", "1", "--cp", "1", "--x0", "1",
            "--pairs", "10000000", "--seed", "7",
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["eps_empirical"] - doc["eps_theory"]) < 3 * doc["stderr_estimates"]["eps"]

    def test_block_one_passthrough(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--lambda", "1.5", "--cx", "1", "--cp", "1", "--x0", "1",
            "--pairs", "1000000", "--block-n", "1", "--seed", "3",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["eps_n_empirical"] == doc["eps_empirical"]
        assert doc["eps_n_theory"] == doc["eps_theory"]

    def test_unphysical_exits_2(self, capsys):
        code, _, _ = run(
            capsys, "simulate", "--lambda", "1.0", "--cx", "1", "--cp", "1", "--x0", "1",
        )
        assert code == 2

    def test_wide_window_warns_in_one_line(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--lambda", "1.5", "--cx", "1", "--cp", "1", "--x0", "1",
            "--window", "0.5", "--pairs", "100000",
        )
        assert code == 0 and json.loads(out)["accepted"] > 0
        assert err == "warning: window larger than x0/5; closed-form comparisons degrade\n"

    def test_unphysical_wide_window_gives_only_the_domain_error(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--lambda", "1.5", "--cx", "1.3", "--cp", "1", "--x0", "1",
            "--window", "0.5",
        )
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("domain error: unphysical")

    def test_too_many_pairs_exits_2_before_sampling(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--lambda", "1.5", "--cx", "1", "--cp", "1", "--x0", "1",
            "--pairs", str(10**13),
        )
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "pairs per run" in err


class TestDomainErrors:
    def test_exit_2_one_line(self, capsys):
        # (says "unphysical", argv)
        cases = [
            (True, ("analyze", "--lambda", "1.5", "--cx", "1.3", "--cp", "1")),
            (True, ("analyze", "--lambda", "1.0", "--cx", "1", "--cp", "1")),
            (False, ("analyze", "--lambda", "1.5", "--cx", "0.5", "--cp", "1")),
            (True, ("simulate", "--lambda", "1.0", "--cx", "1", "--cp", "1", "--x0", "1")),
            (False, ("simulate", "--lambda", "1.5", "--cx", "0.5", "--cp", "1", "--x0", "1")),
            (False, ("frontier", "--c-min", "0", "--c-max", "1")),
            (False, ("frontier", "--c-min", "-1", "--c-max", "1", "--format", "json")),
        ]
        for unphysical, argv in cases:
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert out == "" and len(err.strip().splitlines()) == 1, (argv, err)
            assert not unphysical or "unphysical" in err, (argv, err)

    def test_usage_errors_come_first(self, capsys):
        # a missing value or a bad worker count is exit 1 even on a bad state
        for argv in (
            ("simulate", "--lambda", "1.5", "--cx", "0.5", "--cp", "1"),
            ("simulate", "--lambda", "1.5", "--cx", "1.3", "--cp", "1", "--x0", "1",
             "--workers", "0"),
            ("analyze", "--cx", "1.3", "--cp", "1"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "" and len(err.strip().splitlines()) == 1, (argv, err)


class TestHugeThresholds:
    def test_exit_0_without_warnings(self, capsys):
        # cx = 0 (r = 0) and the exact pure boundary (q_same = 0) meet 0 * inf
        cases = [
            ("analyze", "--lambda", "1.5", "--cx", "1", "--cp", "1", "--x0-max", "1e200"),
            ("analyze", "--lambda", "1.5", "--cx", "0", "--cp", "0", "--x0-max", "1e200"),
            ("analyze", "--lambda", "1.25", "--cx", "0.75", "--cp", "0.75", "--x0-max", "1e200"),
            ("simulate", "--lambda", "400", "--cx", "399.9", "--cp", "0", "--x0", "30",
             "--window", "0.5", "--pairs", "200000"),
            ("simulate", "--lambda", "400", "--cx", "0", "--cp", "0", "--x0", "30",
             "--window", "0.5", "--pairs", "200000"),
        ]
        for argv in cases:
            code, out, err = run(capsys, *argv)
            assert code == 0 and err == "", (argv, err)
            assert all(np.isfinite(v) for v in json.loads(out).values() if isinstance(v, float))


class TestOracleCheckCommand:
    def test_quick_passes(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--level", "quick")
        assert code == 0
        assert out.strip().endswith("PASS")
        assert "FAIL" not in out


class TestConfigPrecedence:
    def test_config_supplies_missing_values(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda = 1.5\ncx = 1.0\ncp = 1.0\n# comment\n")
        code, out, _ = run(capsys, "analyze", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["nppt"] is True

    def test_flags_beat_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda=1.5\ncx=0.0\ncp=0.0\n")
        code, out, _ = run(capsys, "analyze", "--config", str(cfg), "--cx", "1", "--cp", "1")
        assert code == 0
        assert json.loads(out)["nppt"] is True

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        # config values pass the same type and choice checks as flags
        cases = [
            ("analyze", "bogus=1\n"),
            ("analyze", "lambda=abc\ncx=1\ncp=1\n"),
            ("analyze", "lambda=1.5\ncx=1\ncp=1\nseed=3\n"),
            ("oracle-check", "level=bogus\n"),
            ("frontier", "format=xml\n"),
            ("simulate", "lambda=1.5\ncx=1\ncp=1\nx0=1\nworkers=0\n"),
            ("analyze", None),  # missing file
        ]
        for i, (command, text) in enumerate(cases):
            cfg = tmp_path / f"run{i}.cfg"
            if text is not None:
                cfg.write_text(text)
            code, out, err = run(capsys, command, "--config", str(cfg))
            assert code == 1, (command, text)
            assert out == "" and len(err.strip().splitlines()) == 1, (command, text, err)


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    def test_no_state_leaks_between_calls(self, tmp_path, capsys):
        point = ("--lambda", "1.5", "--cx", "1", "--cp", "1")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda=1.5\ncx=0\ncp=0\nx0_max=2\n")
        first = run(capsys, "analyze", *point)
        sim = run(capsys, *SIM_ARGS, "--workers", "2")
        from_config = run(capsys, "analyze", "--config", str(cfg))
        bad = run(capsys, "analyze", *point, "--nonsense", "1")
        assert first[0] == sim[0] == from_config[0] == 0
        assert json.loads(from_config[1])["nppt"] is False
        assert bad[0] == 1 and bad[1] == ""
        # the same calls again give the same output; values from the config
        # or earlier flags are not remembered
        assert run(capsys, "analyze", *point) == first
        assert run(capsys, *SIM_ARGS, "--workers", "2") == sim
        assert run(capsys, "analyze", "--config", str(cfg)) == from_config
        code, _, err = run(capsys, "analyze", "--lambda", "1.5", "--cx", "1")
        assert code == 1 and "cp" in err
        code, out, _ = run(capsys, "simulate", *point, "--x0", "1", "--pairs", "300000",
                           "--block-n", "2", "--seed", "42")
        assert code == 0 and out == run(capsys, *SIM_ARGS)[1]


class TestOutputConventions:
    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "analyze", "--lambda", "1.5", "--cx", "1", "--cp", "1",
            "--out", str(target),
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["nppt"] is True

    def test_twelve_significant_digits(self, capsys):
        _, out, _ = run(capsys, "analyze", "--lambda", "1.5", "--cx", "1", "--cp", "1")
        val = json.loads(out)["eve_overlap"]
        assert val == float(f"{val:.12g}")

    def test_help_shows_defaults(self, capsys):
        defaults = {
            "analyze": ("5.0",),
            "frontier": ("0.1", "3.0", "30", "individual", "csv"),
            "simulate": ("0.01", "1000000", "2", "1", "12345"),
            "oracle-check": ("quick",),
        }
        for command, values in defaults.items():
            with pytest.raises(SystemExit) as exc:
                cli.main([command, "--help"])
            assert exc.value.code == 0
            text = " ".join(capsys.readouterr().out.split())
            for value in values:
                assert f"(default {value})" in text, (command, value)

    def test_unknown_flag_exits_1(self, tmp_path, capsys):
        point = ("--lambda", "1.5", "--cx", "1", "--cp", "1")
        cases = [
            ("analyze", "--nonsense", "1"),
            ("analyze", *point, "--attack", "individual"),
            ("analyze", *point, "--ne", "2"),
            ("analyze", *point, "--seed", "3"),
            ("analyze", *point, "--format", "json"),
            ("frontier", "--ne", "2"),
            ("oracle-check", "--seed", "3"),
            ("simulate", *point, "--x0", "1", "--workers", "0"),
            ("simulate", *point, "--x0", "1", "--workers", "-1"),
            ("analyze", *point, "--out", str(tmp_path / "missing" / "report.json")),
        ]
        for argv in cases:
            code, out, err = run(capsys, *argv)
            assert code == 1, argv
            assert out == "" and len(err.strip().splitlines()) == 1, (argv, err)
