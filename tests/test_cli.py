import argparse
import contextlib
import functools
import hashlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import traced_peak
from gausskey import cli
from gausskey.errors import IllConditioned


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_captured(*argv):
    """:func:`run` without the function-scoped ``capsys``, for use under ``@given``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestAnalyze:
    def test_vacuum_point(self, capsys):
        code, out, _ = run(capsys, "analyze", "--lambda", "1", "--cx", "0", "--cp", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["nppt"] is False
        assert doc["rate_lb"] <= 0

    def test_huge_lambda_does_not_overflow(self, capsys):
        code, out, _ = run(capsys, "analyze", "--lambda", "1e300", "--cx", "1", "--cp", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["physical"] is True and doc["nppt"] is False
        assert doc["rate_lb"] <= 0


class TestFrontier:
    def test_huge_steps_exits_1_before_allocating(self, capsys):
        # 10**13 points would be 80 TB; the cap is checked before any grid exists
        (code, out, err), peak = traced_peak(lambda: run(capsys, "frontier", "--steps", str(10**13)))
        assert code == 1 and out == ""
        assert err == "error: --steps must be between 2 and 1000000\n"
        assert peak < 2**20


SIM_ARGS = (
    "simulate", "--lambda", "1.5", "--cx", "1", "--cp", "1", "--x0", "1",
    "--pairs", "300000", "--block-n", "2", "--seed", "42",
)


class TestSimulate:
    @settings(derandomize=True, max_examples=20, deadline=None, database=None)
    @given(st.integers((1 << 18) + 1, 3 << 18), st.integers(0, 2**64 - 1))
    def test_byte_identical_across_workers_property(self, pairs, seed):
        # more than one chunk of 2^18 pairs, so two workers really split them
        argv = (*SIM_ARGS[:9], "--window", "0.05", "--pairs", str(pairs), "--seed", str(seed))
        one = run_captured(*argv, "--workers", "1")
        assert one[0] == 0 and one[2] == ""
        assert run_captured(*argv, "--workers", "2") == one

    def test_block_one_passthrough(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--lambda", "1.5", "--cx", "1", "--cp", "1", "--x0", "1",
            "--pairs", "1000000", "--block-n", "1", "--seed", "3",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["eps_n_empirical"] == doc["eps_empirical"]
        assert doc["eps_n_theory"] == doc["eps_theory"]

    def test_wide_window_warns_in_one_line(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--lambda", "1.5", "--cx", "1", "--cp", "1", "--x0", "1",
            "--window", "0.5", "--pairs", "100000",
        )
        assert code == 0 and json.loads(out)["accepted"] > 0
        assert err == "warning: window larger than x0/5; closed-form comparisons degrade\n"



class TestNumericalFailure:
    def test_other_package_errors_exit_3_in_one_line(self, capsys, monkeypatch):
        # any package error but InvalidInput is a numerical failure, not a domain error
        def ill(*args, **kwargs):
            raise IllConditioned("CM is numerically singular")

        monkeypatch.setattr(cli.security, "build_report", ill)
        code, out, err = run(capsys, "analyze", "--lambda", "1.5", "--cx", "1", "--cp", "1")
        assert (code, out, err) == (3, "", "numerical failure: CM is numerically singular\n")


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


_FRONTIER_HEAD = "c,lambda_star,lambda_solid,lambda_dashed\n"
_FRONTIER_RAILS = ("1.11803398875,1.5", "1.41421356237,2", "1.80277563773,2.5")


def _frontier_golden(*stars):
    rows = (f"{c},{star},{rails}" for c, star, rails in zip(("0.5", "1", "1.5"), stars, _FRONTIER_RAILS))
    return _FRONTIER_HEAD + "".join(row + "\n" for row in rows)


_POINT = ("--lambda", "1.5", "--cx", "1", "--cp", "1")

# (argv, exit code, stdout, stderr), recorded byte for byte
GOLDEN = [
    (
        ("analyze", "--lambda", "1.5", "--cx", "1", "--cp", "1"),
        0,
        '{\n  "lambda": 1.5,\n  "c_x": 1.0,\n  "c_p": 1.0,\n  "physical": true,\n'
        '  "nppt": true,\n  "eps_ab_at_best_x0": 0.00496752432579,\n'
        '  "eve_overlap": 0.718032201939,\n  "individual_secure": true,\n'
        '  "coherent_ad_secure": true,\n  "rate_lb": 0.340032784396,\n'
        '  "best_x0": 1.2869360152\n}\n',
        "",
    ),
    (
        ("analyze", "--lambda", "2", "--cx", "0.5", "--cp", "0.5"),
        0,
        '{\n  "lambda": 2.0,\n  "c_x": 0.5,\n  "c_p": 0.5,\n  "physical": true,\n'
        '  "nppt": false,\n  "eps_ab_at_best_x0": 0.499999999997,\n'
        '  "eve_overlap": 0.999999999945,\n  "individual_secure": false,\n'
        '  "coherent_ad_secure": false,\n  "rate_lb": -1.35900853324e-09,\n'
        '  "best_x0": 5e-06\n}\n',
        "",
    ),
    (
        ("analyze", "--lambda", "1.5", "--cx", "1.3", "--cp", "1"),
        2,
        "",
        "domain error: unphysical parameters SymmetricStateParams(lam=1.5, cx=1.3, cp=1.0)\n",
    ),
    (
        ("frontier", "--c-min", "0.5", "--c-max", "1.5", "--steps", "3", "--attack", "individual"),
        0,
        _frontier_golden("1.49999963573", "1.99999972068", "2.49999966754"),
        "",
    ),
    (
        ("frontier", "--c-min", "0.5", "--c-max", "1.5", "--steps", "3", "--attack", "coherent-ad"),
        0,
        _frontier_golden("1.35463795202", "1.80193780982", "2.27639936454"),
        "",
    ),
    (
        ("frontier", "--c-min", "0.5", "--c-max", "1.5", "--steps", "3", "--attack", "general"),
        0,
        _frontier_golden("1.32526458158", "1.76040557285", "2.22916442473"),
        "",
    ),
    (
        ("simulate", "--lambda", "1.5", "--cx", "1", "--cp", "1", "--x0", "1", "--window", "0.05",
         "--pairs", "200000", "--seed", "7"),
        0,
        '{\n  "accepted": 531,\n  "acceptance_rate": 0.002655,\n'
        '  "eps_empirical": 0.030131826742,\n  "eps_theory": 0.0391657227968,\n'
        '  "blocks": 265,\n  "blocks_kept": 251,\n'
        '  "eps_n_empirical": 0.00398406374502,\n  "eps_n_theory": 0.00165880108017,\n'
        '  "stderr_estimates": {\n    "eps": 0.00841840967068,\n'
        '    "eps_n": 0.00256861959234\n  }\n}\n',
        "",
    ),
    (
        ("simulate", "--lambda", "1.5", "--cx", "1", "--cp", "1", "--x0", "1", "--pairs", "100000",
         "--block-n", "100"),
        3,
        "",
        "only 9 pairs accepted, fewer than --block-n 100; enlarge --pairs or --window\n",
    ),
    # exit paths: a nonzero code, no stdout and one stderr line, all written by gausskey;
    # a usage error is exit 1 even on a bad state
    (("analyze", "--lambda", "1.5", "--cx", "1"), 1, "", "error: missing required value --cp\n"),
    (("analyze", "--cx", "1.3", "--cp", "1"), 1, "", "error: missing required value --lambda\n"),
    (("analyze", "--lambda", "1.0", "--cx", "1", "--cp", "1"), 2, "",
     "domain error: unphysical parameters SymmetricStateParams(lam=1.0, cx=1.0, cp=1.0)\n"),
    (("analyze", "--lambda", "1.5", "--cx", "0.5", "--cp", "1"), 2, "",
     "domain error: need lam >= 0 and cx >= cp >= 0\n"),
    # lam == cx with lam + cp overflowing once reached symmetric_exponents' division by lam - cx
    (("analyze", "--lambda", "1e308", "--cx", "1e308", "--cp", "1e308"), 2, "",
     "domain error: unphysical parameters SymmetricStateParams(lam=1e+308, cx=1e+308, cp=1e+308)\n"),
    # 1e-6 * x0_max underflows to 0, which once blamed a threshold never given
    (("analyze", *_POINT, "--x0-max", "1e-320"), 2, "",
     "domain error: x0_max=1e-320 leaves no positive search range [1e-6 x0_max, x0_max]\n"),
    (("analyze", *_POINT, "--x0-max", "-1"), 2, "", "domain error: x0_max must be finite and positive\n"),
    (("analyze", *_POINT, "--x0-max", "inf"), 2, "", "domain error: x0_max must be finite and positive\n"),
    (("analyze", *_POINT, "--x0-max", "nan"), 2, "", "domain error: x0_max must be finite and positive\n"),
    (("frontier", "--c-min", "2.0", "--c-max", "1.0"), 1, "", "error: --c-min must be below --c-max\n"),
    # one float apart: np.linspace repeats values, the grid is not the user's fault
    (("frontier", "--c-min", "1", "--c-max", "1.0000000000000002", "--steps", "30"), 1, "",
     "error: the --c-min..--c-max range holds fewer than --steps=30 distinct values\n"),
    (("frontier", "--c-min", "0", "--c-max", "1"), 2, "",
     "domain error: c grid must be 1-D, non-empty, finite, positive and strictly ascending\n"),
    (("frontier", "--c-min", "-1", "--c-max", "1", "--format", "json"), 2, "",
     "domain error: c grid must be 1-D, non-empty, finite, positive and strictly ascending\n"),
    # c * c overflows at 1e200, and above c ~ 1e12 the lower rail's margin reaches the upper rail
    (("frontier", "--c-min", "1", "--c-max", "1e200"), 2, "",
     "domain error: c = 3.44828e+198: the rails sqrt(1 + c^2) and c + 1 cannot be separated\n"),
    (("frontier", "--c-min", "1e9", "--c-max", "1e13", "--steps", "5"), 2, "",
     "domain error: c = 2.50075e+12: the rails sqrt(1 + c^2) and c + 1 cannot be separated\n"),
    # np.linspace would warn on an infinite bound, or on finite bounds whose difference overflows
    (("frontier", "--c-max", "inf"), 2, "",
     "domain error: --c-min, --c-max and their difference must be finite\n"),
    (("frontier", "--c-min=-inf", "--c-max", "1"), 2, "",
     "domain error: --c-min, --c-max and their difference must be finite\n"),
    (("frontier", "--c-min=-1e308", "--c-max", "1e308"), 2, "",
     "domain error: --c-min, --c-max and their difference must be finite\n"),
    (("simulate", "--lambda", "1.5", "--cx", "0.5", "--cp", "1"), 1, "",
     "error: missing required value --x0\n"),
    (("simulate", "--lambda", "1.5", "--cx", "1.3", "--cp", "1", "--x0", "1", "--workers", "0"), 1, "",
     "error: --workers must be at least 1\n"),
    (("simulate", *_POINT, "--x0", "1", "--workers", "0"), 1, "", "error: --workers must be at least 1\n"),
    (("simulate", *_POINT, "--x0", "1", "--workers", "-1"), 1, "", "error: --workers must be at least 1\n"),
    (("simulate", "--lambda", "1.0", "--cx", "1", "--cp", "1", "--x0", "1"), 2, "",
     "domain error: unphysical parameters SymmetricStateParams(lam=1.0, cx=1.0, cp=1.0)\n"),
    (("simulate", "--lambda", "1.5", "--cx", "0.5", "--cp", "1", "--x0", "1"), 2, "",
     "domain error: need lam >= 0 and cx >= cp >= 0\n"),
    # the wide-window warning is held back, so the error stays one line
    (("simulate", "--lambda", "1.5", "--cx", "1.3", "--cp", "1", "--x0", "1", "--window", "0.5"), 2, "",
     "domain error: unphysical parameters SymmetricStateParams(lam=1.5, cx=1.3, cp=1.0)\n"),
    (("simulate", "--lambda", "1e308", "--cx", "1e308", "--cp", "1e308", "--x0", "1"), 2, "",
     "domain error: unphysical parameters SymmetricStateParams(lam=1e+308, cx=1e+308, cp=1e+308)\n"),
    # inf is positive: the fault is that it is not finite
    (("simulate", *_POINT, "--x0", "inf"), 2, "", "domain error: x0 must be finite and positive\n"),
    (("simulate", *_POINT, "--x0", "nan"), 2, "", "domain error: x0 must be finite and positive\n"),
    (("simulate", *_POINT, "--x0", "1", "--window", "inf"), 2, "",
     "domain error: window must be finite and positive\n"),
    (("simulate", *_POINT, "--x0", "1", "--window", "nan"), 2, "",
     "domain error: window must be finite and positive\n"),
    # 10**13 pairs: the cap is checked before any pair is drawn
    (("simulate", *_POINT, "--x0", "1", "--pairs", str(10**13)), 2, "",
     "domain error: at most 274877906944 pairs per run\n"),
    # x0 and window near 1e200: no pair lands in the window, and the window
    # arithmetic must not overflow on the way
    (("simulate", *_POINT, "--x0", "1e200", "--window", "1e199", "--pairs", "1000"), 3, "",
     "no pairs accepted; enlarge --pairs or --window\n"),
    # a state within ulps of the NPPT rail, where comparing rounded exponents
    # once printed "individual_secure": true beside "nppt": false; these bytes
    # are the same under numpy's AVX-512, AVX2 and baseline loops
    (
        ("analyze", "--lambda", "1.5812821272936601", "--cx", "0.6660786459516252",
         "--cp", "0.4886289409950008"),
        0,
        '{\n  "lambda": 1.58128212729,\n  "c_x": 0.666078645952,\n  "c_p": 0.488628940995,\n'
        '  "physical": true,\n  "nppt": false,\n  "eps_ab_at_best_x0": 8.62348935724e-15,\n'
        '  "eve_overlap": 8.62348935724e-15,\n  "individual_secure": false,\n'
        '  "coherent_ad_secure": false,\n  "rate_lb": -8.30779889327e-13,\n'
        '  "best_x0": 4.9999958738\n}\n',
        "",
    ),
    # frontier's list of flat objects, written by json's own indent=2
    (
        ("frontier", "--c-min", "0.5", "--c-max", "1.0", "--steps", "2", "--format", "json"),
        0,
        '[\n  {\n    "c": 0.5,\n    "lambda_star": 1.49999963573,\n    "lambda_solid": 1.11803398875,\n'
        '    "lambda_dashed": 1.5\n  },\n  {\n    "c": 1.0,\n    "lambda_star": 1.99999972068,\n'
        '    "lambda_solid": 1.41421356237,\n    "lambda_dashed": 2.0\n  }\n]\n',
        "",
    ),
]

# SHA-256 of `frontier --attack A` stdout at default arguments: the whole
# 30-point CSV, bit for bit.  These attacks' frontiers use only float arithmetic
# and math.sqrt; general is left out, as its rate searches' rounding decides two
# of its rows
FRONTIER_DIGESTS = {
    "individual": "536f48ebc6b05add840a4a167275cbb070ee6406b1f32fd9924b9e299870dedf",
    "finite-coherent": "536f48ebc6b05add840a4a167275cbb070ee6406b1f32fd9924b9e299870dedf",
    "coherent-ad": "30e834de3aade407092c3654bde2bbe967ba38ca9425829de1aac7a322edf77a",
}

# usage errors worded by argparse, whose wording varies across Python versions:
# each is exit 1, no stdout and one stderr line that starts "error: "
USAGE_ARGVS = [
    (),
    ("nope",),
    ("analyze", "--nonsense", "1"),
    ("analyze", *_POINT, "--attack", "individual"),
    ("analyze", *_POINT, "--ne", "2"),
    ("analyze", *_POINT, "--seed", "3"),
    ("analyze", *_POINT, "--format", "json"),
    ("frontier", "--ne", "2"),
    ("oracle-check", "--seed", "3"),
]


class TestGoldenOutput:
    @pytest.mark.parametrize("argv, code, out, err", GOLDEN, ids=[f"row{i}" for i in range(len(GOLDEN))])
    def test_byte_for_byte(self, capsys, argv, code, out, err):
        assert run(capsys, *argv) == (code, out, err)

    @pytest.mark.parametrize("attack", FRONTIER_DIGESTS)
    def test_default_frontier_digest(self, capsys, attack):
        code, out, err = run(capsys, "frontier", "--attack", attack)
        assert (code, err, hashlib.sha256(out.encode()).hexdigest()) == (0, "", FRONTIER_DIGESTS[attack])

    def test_rows_are_distinct_and_exits_one_line(self):
        assert len({argv for argv, *_ in GOLDEN}) == len(GOLDEN)
        for argv, code, out, err in GOLDEN:
            assert code == 0 or (out == "" and err.count("\n") == 1 and err.endswith("\n")), argv


class TestOracleCheckCommand:
    def test_quick_passes(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--level", "quick")
        assert code == 0
        assert out.strip().endswith("PASS")
        assert "FAIL" not in out

    def test_full_passes(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--level", "full")
        lines = out.splitlines()
        assert code == 0
        assert all(line.startswith("ok   ") for line in lines[:-1])
        assert [line[5:].split(":")[0] for line in lines[:-1]] == [
            "vacuum wavefunction",
            "displaced overlap magnitude",
            "overlap phase convention",
            "squeezed X variance",
            "thermal-purification conditioning",
            "grid refinement stability",
            "4-mode adversary overlap",
            "4-mode conditional CM",
            "4-mode conditional DV",
            "reduced-state spectrum",
            "reduced-state entropy",
        ]
        assert lines[-1] == "PASS"

    def test_full_traced_peak(self, capsys):
        # the full 41^4 grid alone would be 43 MiB
        code, peak = traced_peak(lambda: cli.main(["oracle-check", "--level", "full"]))
        assert code == 0 and capsys.readouterr().out.endswith("PASS\n")
        assert peak <= 4 * 2**20


class TestConfigPrecedence:
    def test_config_supplies_missing_values(self, tmp_path, capsys):
        # only a line that starts with # is a comment: the --out value keeps its #
        target = tmp_path / "a#1.json"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"lambda = 1.5\ncx = 1.0\ncp = 1.0\n# comment\n  # comment\nout = {target}\n")
        assert run(capsys, "analyze", "--config", str(cfg)) == (0, "", "")
        assert json.loads(target.read_text())["nppt"] is True

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
            # only a whole line is a comment: the value here is "1 # note"
            ("analyze", "lambda=1.5\ncx=1 # note\ncp=1\n"),
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
        # the --out case's message holds its tmp path, so it is not in USAGE_ARGVS
        missing = ("analyze", *_POINT, "--out", str(tmp_path / "missing" / "report.json"))
        for argv in [*USAGE_ARGVS, missing]:
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "", argv
            assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)


# extreme, non-finite and malformed spellings of a number
_ODD_NUMBERS = (
    "nan", "inf", "-inf", "1e308", "-1e308", "1e400", "5e-324", "1e-320", "-0", "0", "1e6",
    "2.5", "", " ", "abc", "1,5", "0x10", "1_000", "--", "-1",
)
# ordinary values, mostly valid and physical, so that draws get past the parse
_PLAIN = {
    "--lambda": ("1.5", "2", "3"), "--cx": ("1", "0.5"), "--cp": ("0.5", "0"),
    "--window": ("0.05", "0.3"), "--block-n": ("1", "2", "3"), "--seed": ("7", "12345"),
}
# (command, flag) -> values within the run-time budget: at most 2 workers,
# 10^5 pairs and 5 frontier steps; an odd value there is a malformed one
_BUDGET = {
    ("simulate", "--workers"): st.integers(-1, 2),
    ("simulate", "--pairs"): st.sampled_from((20_000, 100_000)) | st.integers(-2, 10**5),
    ("frontier", "--steps"): st.integers(2, 5) | st.integers(-2, 1),
}
_MALFORMED_INTS = st.sampled_from(("1e5", "2.5", "nan", "", "abc", "0x10", "--"))
# flags every draw carries: the state, so that draws get past the missing
# value check, and the costly counts, so that none falls back to its default
_ALWAYS = {
    "analyze": ("--lambda", "--cx", "--cp"),
    "simulate": ("--lambda", "--cx", "--cp", "--x0", "--pairs"),
    "frontier": ("--steps",),
}
_CONFIGS = {
    "empty.cfg": b"",
    "binary.cfg": b"\xff\xfe\x00lambda=1\n",
    "no-equals.cfg": b"lambda 1.5\n",
    "unknown-key.cfg": b"nonsense=1\n",
    "empty-key.cfg": b"=1\n",
    "help.cfg": b"help=1\n",
    "malformed.cfg": b"lambda=abc\ncx=nan\ncp=\n",
    "extreme.cfg": b"lambda=1e308\ncx=1e308\ncp=1e307\nx0=1e-320\nx0_max=1e400\n",
    "non-finite.cfg": b"lambda=inf\ncx=-inf\ncp=nan\nc_max=inf\n",
    "valid.cfg": b"lambda=1.5\ncx=1\ncp=1\nx0=1\nworkers=2\n",
    "nested.cfg": b"config=nested.cfg\n",
}


def _flag_table():
    """Per subcommand, each option of the real parser with its value type and choices."""
    return {
        name: {
            a.option_strings[-1]: (a.type, a.choices)
            for a in sp._actions
            if a.option_strings and a.dest != "help"
        }
        for name, sp in cli.build_parser().commands.items()
    }


_TABLES = _flag_table()


def _value(command, flag, kind, choices, odd, paths):
    """The strategy for one flag's value: ordinary, or odd when ``odd``;
    ``paths[flag]`` for a flag that takes a file."""
    if (command, flag) in _BUDGET:
        return _MALFORMED_INTS if odd else _BUDGET[command, flag].map(str)
    if choices:
        return st.sampled_from([*choices, "bogus", ""] if odd else choices)
    plain = st.sampled_from(_PLAIN.get(flag, ("0.5", "1", "2")))
    if kind is float:
        return st.sampled_from(_ODD_NUMBERS) | st.floats().map(repr) if odd else plain
    if kind is int:
        return st.sampled_from(_ODD_NUMBERS) | st.integers(-(2**70), 2**70).map(str) if odd else plain
    return paths[flag]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory of bad and good ``--config`` files, shared by every draw."""
    root = tmp_path_factory.mktemp("fuzz")
    for name, body in _CONFIGS.items():
        (root / name).write_bytes(body)
    return root


class TestFuzz:
    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(st.data())
    def test_exit_code_and_one_stderr_line(self, fuzz_dir, data):
        command = data.draw(st.sampled_from(sorted(_TABLES)))
        flags = _TABLES[command]
        extra = data.draw(st.lists(st.sampled_from(sorted(flags)), max_size=3, unique=True))
        chosen = list(dict.fromkeys(_ALWAYS.get(command, ()) + tuple(extra)))
        odd = data.draw(st.sets(st.sampled_from(chosen), max_size=2)) if chosen else set()
        # outputs go beside the config files, never over them
        names = {
            "--config": [*_CONFIGS, "missing.cfg", "."],
            "--out": ["out.txt", "missing/out.txt", "."],
        }
        paths = {flag: st.sampled_from(n).map(lambda name: str(fuzz_dir / name)) for flag, n in names.items()}
        argv = [command]
        for flag in chosen:
            argv += [flag, data.draw(_value(command, flag, *flags[flag], flag in odd, paths))]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_captured(*argv)
        lines = err.splitlines() + [str(w.message) for w in caught]
        assert code in (0, 1, 2, 3), argv
        assert len(lines) <= 1 and "Traceback" not in err, (argv, lines)


class TestConfigKeys:
    @pytest.mark.parametrize("line, message", [
        ("config=other.cfg", "key 'config' is not allowed in a config file"),
        ("=1", "unknown key ''"),
        ("help=1", "unknown key 'help'"),
        ("lam=1.5", "unknown key 'lam'"),  # argparse would take it as an abbreviation
    ], ids=["config", "empty", "help", "prefix"])
    def test_key_must_name_a_flag_exactly(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"cx=1\ncp = 1\n{line}\n")
        assert run(capsys, "analyze", "--config", str(cfg)) == (1, "", f"error: {cfg}:3: {message}\n")


# the first 8 rows; later ones include argvs the plain pass declines by design
# (--c-min=-inf, --workers -1)
_ROUTE_ARGVS = [argv for argv, *_ in GOLDEN[:8]] + [("oracle-check", "--level", "full")]


def _refuse(self, *args, **kwargs):
    raise LookupError("argparse reached")


class TestParseRoute:
    """Well-formed argvs take the plain pass; argparse parses only the rest."""

    @pytest.mark.parametrize("argv", _ROUTE_ARGVS)
    def test_well_formed_argv_skips_argparse(self, argv, monkeypatch):
        want = vars(cli.build_parser().parse_args(list(argv)))
        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", _refuse)
        assert vars(cli._parse(list(argv))) == want

    @pytest.mark.parametrize("argv", [
        ("analyze", "--lam", "1.5"),
        ("analyze", "-h"),
        ("analyze", "--cx", "abc"),
        ("frontier", "--steps", "-1"),
    ])
    def test_declined_argv_goes_through_the_full_parser(self, argv, monkeypatch):
        # argparse is reached, and the top-level parser reaches a subparser
        # through parse_known_args, never through its parse_args
        want = _parse_outcome(cli.build_parser().parse_args, argv)
        reached = []
        parse_known_args = argparse.ArgumentParser.parse_known_args
        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                            lambda self, *a, **k: reached.append(self) or parse_known_args(self, *a, **k))
        for sp in cli._parser().commands.values():
            monkeypatch.setattr(sp, "parse_args", functools.partial(_refuse, sp))
        assert _parse_outcome(cli._parse, argv) == want
        assert reached


def _parse_outcome(parse, argv):
    """What parsing ``argv`` gives: a namespace, a usage error or an exit with help text."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            args = parse(list(argv))
    except cli._UsageError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()
    # by repr: a NaN value is not equal to itself
    return "args", repr(sorted(vars(args).items()))


_PARITY_VALUES = (
    "-1", " -2", "--", "-", "-x", "", " ", "abc", "nan", "1e400", "0x10", "1_000", "bogus", "2.5", "3",
    *sorted({c for table in _TABLES.values() for _, choices in table.values() if choices for c in choices}),
)
_PARITY_ODD_FLAGS = ("--lam", "--nope", "-h", "--", "x")


@st.composite
def _argvs(draw):
    """A subcommand, then up to four pieces: mostly one of its flags as
    ``--f v`` or ``--f=v``, so that some argvs are well formed, and otherwise
    an odd token or a flag as ``--f v``, ``--f=v`` or a bare ``--f``."""
    command = draw(st.sampled_from(sorted(_TABLES)))
    flags = sorted(_TABLES[command])
    plain = st.sampled_from([(flag, form) for flag in flags for form in ("pair", "joined")])
    odd = st.sampled_from([
        (flag, form) for flag in [*flags, *_PARITY_ODD_FLAGS] for form in ("pair", "joined", "bare")
    ])
    argv = [command]
    for _ in range(draw(st.integers(0, 4))):
        flag, form = draw(plain if draw(st.integers(0, 3)) else odd)
        value = draw(st.sampled_from(_PARITY_VALUES))
        argv += {"pair": [flag, value], "joined": [f"{flag}={value}"], "bare": [flag]}[form]
    return argv


@pytest.fixture(scope="module")
def full_parser():
    return cli.build_parser()


class TestPlainPassParity:
    """``cli._parse`` reads a leading subcommand's argv in a plain pass and
    sends every argv that pass declines, or that names no subcommand, to the
    full parser; every outcome (namespace, usage error, or help text and exit
    code) must be the full parser's."""

    @pytest.mark.parametrize("argv", [
        # well formed
        ("analyze", *_POINT),
        ("analyze", "--lam", "1.5", "--cx=1", "--cp", "-1", "--x0-max", "2"),
        ("analyze", "--config", "run.cfg", "--cx", "1"),
        ("analyze", "--lambda=1.5", "--cx=1", "--config", "run.cfg", "--cp", "1", "--out", "r.json"),
        ("frontier",),
        ("frontier", "--c-min", "0.5", "--c-max", "1.5", "--steps", "3", "--attack", "general",
         "--format", "json"),
        ("simulate", *_POINT, "--x0", "1", "--window", "0.05", "--pairs", "1000",
         "--block-n", "3", "--workers", "2", "--seed", "7", "--config", "run.cfg"),
        ("oracle-check",),
        ("oracle-check", "--level", "full", "--out", "o.txt"),
        # usage errors
        (),
        ("nope",),
        ("nope", *_POINT),
        ("--lambda", "1.5"),
        ("analyze", "--nonsense", "1"),
        ("analyze", *_POINT, "extra"),
        ("analyze", "--cx", "abc"),
        ("frontier", "--attack", "bogus"),
        ("simulate", *_POINT, "--pairs", "1e6"),
        ("oracle-check", "--level"),
        # help
        ("--help",),
        ("-h", "analyze"),
        ("analyze", "--help"),
        ("frontier", *_POINT[:2], "-h"),
        ("simulate", "--help"),
        ("oracle-check", "--help"),
    ])
    def test_listed_argv_same_outcome(self, full_parser, argv):
        assert _parse_outcome(cli._parse, argv) == _parse_outcome(full_parser.parse_args, argv)

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(argv=_argvs())
    @example(argv=["analyze", "--out=--"])  # argparse stores out=[]
    @example(argv=["frontier", "--out", "-x"])  # argparse reads -x as an option
    def test_same_outcome_as_the_full_parser(self, full_parser, argv):
        assert _parse_outcome(cli._parse, argv) == _parse_outcome(full_parser.parse_args, argv)
