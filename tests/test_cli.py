"""CLI surface: formats, determinism, exit codes, and flag handling."""

import hashlib
import importlib
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from exle import cli, radial, thresholds
from exle.errors import (
    BudgetError,
    ConfigurationError,
    DiagnosticError,
    DomainError,
    NumericalError,
)
from exle.thresholds import threshold_rows

# sha256 of `exle thresholds --grid 1.1:6:0.1` (1275 pairs), as written by
# the one-pair-at-a-time table that preceded threshold_rows.
TABLE_11_6_SHA256 = "18b52b84237c4c01b93d94ce995c1fd4459516ae4cb2bfe010fa1ba7f2410eb1"
ROOTS_22_ROW = "3.41421356237,6.82842712475,6.82842712475,15.6568542495,15.6568542495,0"
# The last digit of improvement flips if the bracket-midpoint arithmetic of
# largest_root_L moves by one ulp.
ROOTS_101_166_ROW = (
    "20.0532167758,40.2993773523,4.25578447979,10.4708175988,10.5115689596,0.0407513607689"
)
ROOTS_101_20_ROW = (
    "2.12732974001,4.91544928291,5.37627265319,11.3070676126,12.7525453064,1.44547769381"
)
ROOTS_100_5000_ROW = (
    "200.476165537,401.443784337,4.01524876144,10.0206664721,10.0304975229,0.00983105075113"
)
# Adjacent floats near s0 ~ 4e4 are 7.3e-12 apart, wider than the root
# bracket width; the scalar root loop exited 1 here.
ROOTS_10000_ROW = "19999.4999875,39998.999975,4.0003000275,10.000600055,10.000600055,0"
# `exle partial` rows, as written by the scalar root loop that preceded the
# single array path.
PARTIAL_ROWS = (
    ("2", "2", "16", "16,15.6568542495,0.343145750508,0.392166572009"),
    ("1.5", "4", "20", "20,14.1293906774,5.87060932258,6.52289924732"),
)
# sha256 of (branch CSV, summary JSON) of `exle continue` on two rays: the
# fold-subcritical ray, and a ray at N=20 whose first rows take the flux
# form and whose fold solve falls back to bisection.  Both were taken with
# the walk starting at the torsion load, every power of the reaction formed
# as exp(c log1p(w)), and a Picard step at roundoff accepted.
CONTINUE_PINS = (
    pytest.param(
        ("--p", "2", "--theta", "2", "--dim", "3", "--nodes", "256"),
        "4f6c7ee0beb60f3df9a2fbb2197dcc1651c6f0ee62e74837f5153027a7f35778",
        "582daacbe600bcdfcfe2b30f4c580be5a7e6d539cdd846440fc8658ef8db7a9e",
        id="p2-theta2-dim3",
    ),
    pytest.param(
        ("--p", "1.5", "--theta", "4", "--sigma", "1.8823529411764706", "--dim", "20",
         "--nodes", "256"),
        "09bc2d18897faece21f977fa3e0ea529637da8b6fcc042d821c6b2eef9a1f80a",
        "4c7b10191679cfde328f3b05d80abcae4cbc6917aa5862740542ccce4643f9c1",
        id="p1.5-theta4-dim20",
    ),
)

# sha256 of (branch CSV, summary JSON) of `exle continue --p 2 --theta 2
# --nodes 64 --bracket-tol 1e-12` with a trial budget (radial._TRIAL_BUDGET)
# of <steps>, which exits 4 with a partial branch: after the first walk load the bracket is open (lambda_hi
# null); after 4 loads (2 walk, 2 certification) both ends are set, 0.280
# apart.  Taken when the CONTINUE_PINS were; the summaries again when the
# energy integral came to form its powers as exp(c log1p(w)), which moved
# observed_C_s in its last digits.
PARTIAL_PINS = (
    pytest.param(
        "1",
        "0cf70c9425716a962bbf6f9882b9df2390e82dc057291132e4d51495410d8188",
        "e88298eaa4c6bf68957957bd0d39faeae010c9e965ad7c94c59500594ab8161d",
        id="open-bracket",
    ),
    pytest.param(
        "4",
        "3550b15bc8fa078ae78ba014cf8347ac82d291bd763e153453c5f6a1ffd82c9e",
        "d1a293e828e523c00f0aef07118b83894fa2be48a646c1ffc503ea09b3c192f6",
        id="closed-bracket",
    ),
)

# sha256 of the branch CSV of the singular ray in TestContinue, where the
# fold solve falls back to bisection; taken when the CONTINUE_PINS were.
FALLBACK_CSV_SHA256 = "334ecdd4e0a155567c64175d9975f2f6a1d33bed4eb455d5f9d2ec6ba26a2a4a"
# sha256 of `exle <command> --help` at 80 columns (Python 3.11's argparse),
# taken while the required flags were still checked outside the table;
# `continue` re-pinned when the --nodes help came to name the interval count,
# and again when its Newton --tol went; roots, thresholds, partial and
# continue when the root width --tol and --max-steps went; all five when
# --config went.
HELP_SHA256 = {
    "roots": "f3e4027e6422d5d6e205c9d4e3fc151ff0bb30546aa6ce0e11d46e89eb5fce4e",
    "thresholds": "0c61f57f5b33c775918d7dea52521e7bbfc0314c6c9d14aaf3d3ace16bd2e330",
    "continue": "855686e4f620d27106edd899c9565b6fade9e1fb2148caabc904f4477aa1fb0b",
    "verify": "c3aa517e89a82c0070447af9bfc1637e257fe93f8f9d736538bc603a95422063",
    "partial": "9d21a5206581f24a1eebe167516cf0747fba6222e1d2a670676b34896f1dc306",
}
# The required flags of each command, in the order they are reported, and
# a valid value for each.
REQUIRED_FLAGS = {
    "roots": ("p", "theta"),
    "thresholds": ("grid",),
    "continue": ("p", "theta"),
    "verify": ("p", "theta"),
    "partial": ("p", "theta", "dim"),
}
REQUIRED_VALUES = {"p": "2", "theta": "2", "dim": "5", "grid": "1.1:2:0.1"}
# `exle verify --p 2 --theta 3 --samples 100 --seed 1`, as the per-sample
# loops wrote it, with the rescale residual normalized by the monomials of H.
VERIFY_23_STDOUT = """\
residual rescale 4.937e-16 PASS
residual value_at_2t0 1.360e-16 PASS
residual value_at_p_plus_1 0.000e+00 PASS
sign negative_at_2 PASS
sign negative_at_p_plus_1 PASS
sign negative_at_mid PASS
sign mid_below_root PASS
equivalence_scan disagreements 0 of 100 PASS
residual scaling_identity 1.388e-16 PASS
RESULT PASS
"""


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSurface:
    @pytest.mark.parametrize(
        "exc, code",
        [
            (DomainError("bad pair"), 2),
            (ConfigurationError("bad key"), 2),
            (NumericalError("no bracket"), 1),
            (DiagnosticError("too few points"), 1),
            (BudgetError("budget of 3 solves exhausted"), 4),
            (OSError("disk full"), 3),
        ],
    )
    def test_error_class_sets_the_exit_code(self, capsys, monkeypatch, exc, code):
        def raising(args):
            raise exc

        monkeypatch.setitem(cli._HANDLERS, "roots", raising)
        assert run(["roots"], capsys) == (code, "", f"error: {exc}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["continue", "--nodes", "64", "--dim", str(10**400)], "dim must be a finite real number >= 1"),
            (["partial", "--dim", str(10**400)], "dim must be at most the largest float"),
            (["continue", "--nodes", str(10**400)], "m must be below"),
            (["continue", "--nodes", str(2**63)], "m must be below"),
            (["verify", "--samples", str(10**400)], "sample_count must be at most"),
            (["verify", "--samples", str(2**63)], "sample_count must be at most"),
            (["thresholds", "--grid", "0:1e10:1"], "grid has too many values"),
        ],
        ids=["continue-dim", "partial-dim", "nodes-10e400", "nodes-2e63", "samples-10e400",
             "samples-2e63", "grid-pairs"],
    )
    def test_count_beyond_float_or_array_range_exits_2(self, tmp_path, capsys, argv, message):
        # Each raised OverflowError, ValueError or IndexError, a traceback
        # and exit 1, or (the grid) built a list of 1e10 floats; every one
        # of them fails before anything is allocated.
        if argv[0] != "thresholds":
            argv = [argv[0], "--p", "2", "--theta", "2", *argv[1:]]
        if argv[0] == "continue":
            argv += ["--out", str(tmp_path / "b.csv")]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", sorted(HELP_SHA256))
    def test_help_bytes_pinned(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as info:
            cli.main([command, "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[command]

    def test_continue_defaults_are_the_library_defaults(self):
        # cli writes them out so that building the parser loads no radial.
        defaults = {key: default for key, _, default, _ in cli._OPTIONS["continue"]}
        library = inspect.signature(radial.continue_ray).parameters["bracket_tol"]
        assert library.kind is inspect.Parameter.KEYWORD_ONLY
        assert defaults["bracket_tol"] == library.default

    def test_verify_samples_default_is_the_library_default(self):
        defaults = {key: default for key, _, default, _ in cli._OPTIONS["verify"]}
        library = inspect.signature(thresholds.check_polynomial_identities)
        assert defaults["samples"] is library.parameters["sample_count"].default
        assert defaults["samples"] is thresholds._SAMPLE_COUNT

    @pytest.mark.parametrize("command", sorted(REQUIRED_FLAGS))
    def test_removed_knobs_are_unrecognized(self, tmp_path, capsys, command):
        # The root-bracket width and the trial budget are constants now
        # (thresholds._ROOT_TOL, radial._TRIAL_BUDGET), and flags are the
        # only input: none of these is a flag of any command.
        argv = [command]
        if command in ("thresholds", "continue"):
            argv += ["--out", str(tmp_path / "b.csv")]
        for key in REQUIRED_FLAGS[command]:
            argv += ["--" + key, REQUIRED_VALUES[key]]
        for flag, value in (
            ("--tol", "1e-12"), ("--max-steps", "4"), ("--config", str(tmp_path / "c.json")),
        ):
            with pytest.raises(SystemExit) as info:
                cli.main(argv + [flag, value])
            assert info.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_flag_values_are_typed(self, tmp_path, capsys):
        # Each value converts by its option's type, or exits 2 before any
        # file is written.
        out = ["--out", str(tmp_path / "b.csv")]
        for argv, flag, kind in (
            (["continue", "--p", "2", "--theta", "2", "--nodes", "abc", *out], "--nodes", "int"),
            (["roots", "--p", "[2]", "--theta", "2"], "--p", "float"),
            (["verify", "--p", "2", "--theta", "3", "--samples", "2.5"], "--samples", "int"),
            (["continue", "--p", "2", "--theta", "2", "--dim", "True", *out], "--dim", "int"),
        ):
            with pytest.raises(SystemExit) as info:
                cli.main(argv)
            assert info.value.code == 2
            assert f"argument {flag}: invalid {kind} value" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, flag", [(c, f) for c, flags in REQUIRED_FLAGS.items() for f in flags]
    )
    def test_missing_required_flag_is_named(self, capsys, command, flag):
        argv = [command]
        for key in REQUIRED_FLAGS[command]:
            if key != flag:
                argv += ["--" + key, REQUIRED_VALUES[key]]
        assert run(argv, capsys) == (2, "", f"error: {command} requires --{flag}\n")

    @pytest.mark.parametrize("command", sorted(REQUIRED_FLAGS))
    def test_first_missing_flag_in_table_order(self, capsys, command):
        first = REQUIRED_FLAGS[command][0]
        assert run([command], capsys) == (2, "", f"error: {command} requires --{first}\n")


class TestRoots:
    def test_symmetric_pair_exact_bytes(self, capsys):
        for p, theta, row in (
            ("2", "2", ROOTS_22_ROW),
            ("10.1", "16.6", ROOTS_101_166_ROW),
            ("1.01", "20", ROOTS_101_20_ROW),
            ("100", "5000", ROOTS_100_5000_ROW),
            ("10000", "10000", ROOTS_10000_ROW),
        ):
            code, out, err = run(["roots", "--p", p, "--theta", theta], capsys)
            assert code == 0
            assert out == "t0,s0,x0,n_cowan,n_new,improvement\n" + row + "\n"
            assert err == ""

    def test_degenerate_pair_exits_2(self, capsys):
        code, out, err = run(["roots", "--p", "1", "--theta", "1"], capsys)
        assert code == 2
        assert "p*theta must exceed 1" in err
        assert out == ""

    def test_exponent_past_square_overflow_exits_2(self, capsys):
        code, out, err = run(["roots", "--p", "1.5", "--theta", "1e200"], capsys)
        assert code == 2
        assert "exponents must not exceed" in err
        assert out == ""

    def test_smaller_exponent_past_bound_exits_2(self, capsys):
        # These exited 1: no sign change below 2^60, and L(2) = nan.
        for p, theta in (("1e60", "1e60"), ("1e100", "1e150")):
            code, out, err = run(["roots", "--p", p, "--theta", theta], capsys)
            assert code == 2
            assert "the smaller exponent must not exceed 2.8823e+17" in err
            assert out == ""

    def test_missing_flag_exits_2(self, capsys):
        code, _, err = run(["roots", "--p", "2"], capsys)
        assert code == 2
        assert "--theta" in err

    def test_canonical_note_on_stderr_only(self, capsys):
        code, out_fwd, err = run(["roots", "--p", "3", "--theta", "2"], capsys)
        assert code == 0
        assert "canonical order" in err
        code, out_rev, err = run(["roots", "--p", "2", "--theta", "3"], capsys)
        assert code == 0
        assert err == ""
        assert out_fwd == out_rev


class TestThresholds:
    def test_grid_row_count_and_order(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code, _, _ = run(["thresholds", "--grid", "1.1:2:0.1", "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "p,theta,t0,s0,x0,n_cowan,n_new,improvement"
        assert len(lines) == 1 + 55  # 10 values, upper triangle with diagonal
        keys = [tuple(map(float, ln.split(",")[:2])) for ln in lines[1:]]
        assert keys == sorted(keys)
        assert all(p <= th for p, th in keys)

    def test_byte_identical_across_runs(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(["thresholds", "--grid", "1.5:3:0.5", "--out", str(a)], capsys)
        run(["thresholds", "--grid", "1.5:3:0.5", "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_when_no_out(self, tmp_path, capsysbinary):
        code = cli.main(["thresholds", "--grid", "2:3:1"])
        out = capsysbinary.readouterr().out
        assert code == 0
        assert out.startswith(b"p,theta,")
        assert len(out.splitlines()) == 4  # header + (2,2) (2,3) (3,3)
        assert out.endswith(b"\n")
        path = tmp_path / "t.csv"
        assert cli.main(["thresholds", "--grid", "2:3:1", "--out", str(path)]) == 0
        assert path.read_bytes() == out

    def test_table_bytes_pinned(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code, _, _ = run(["thresholds", "--grid", "1.1:6:0.1", "--out", str(out)], capsys)
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == TABLE_11_6_SHA256

    def test_blocks_do_not_change_bytes(self, tmp_path, capsys, monkeypatch):
        whole = tmp_path / "whole.csv"
        run(["thresholds", "--grid", "1.1:3:0.1", "--out", str(whole)], capsys)
        monkeypatch.setattr(cli, "_TABLE_BLOCK", 7)  # 210 pairs: 30 blocks
        monkeypatch.setattr(cli, "_TABLE_CHUNK", 5)  # 42 chunks, across the blocks
        blocks = tmp_path / "blocks.csv"
        code, _, _ = run(["thresholds", "--grid", "1.1:3:0.1", "--out", str(blocks)], capsys)
        assert code == 0
        assert blocks.read_bytes() == whole.read_bytes()
        code, out, _ = run(["thresholds", "--grid", "1.1:3:0.1"], capsys)
        assert code == 0
        assert out.encode() == whole.read_bytes()

    def test_failing_last_block_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # 4 grid values, 10 pairs, blocks of 3: only the last pair,
        # (3e17, 3e17), has a smaller exponent past 2^58.
        monkeypatch.setattr(cli, "_TABLE_BLOCK", 3)
        out = tmp_path / "t.csv"
        for dest in (["--out", str(out)], []):
            code, stdout, err = run(["thresholds", "--grid", "1.5:3e17:1e17", *dest], capsys)
            assert code == 2
            assert "the smaller exponent must not exceed 2.8823e+17, got (3e+17, 3e+17)" in err
            assert stdout == ""
        assert not out.exists()

    def test_table_text_is_never_held_whole(self, tmp_path, capsys):
        # The traced peak may grow by less than 100 B per pair; the whole
        # table text is about 100 B per pair on its own.
        peaks = []
        for grid in ("1.1:10:0.1", "1.1:30:0.1"):  # 4095 and 42195 pairs
            tracemalloc.start()
            try:
                code, _, _ = run(
                    ["thresholds", "--grid", grid, "--out", str(tmp_path / "t.csv")], capsys
                )
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
        assert (peaks[1] - peaks[0]) / (42195 - 4095) < 100

    def test_formatting_transients_stay_small(self, tmp_path, capsys):
        # 18 145 pairs.  The table keeps s0 alone (8 B a pair); past it the
        # traced peak is 0.64 MB with 512-row chunks and int32 pair indices
        # (0.88 MB when all six columns were kept, 48 B a pair).  A small
        # table first pays the one-time allocations of a first run (0.18 MB
        # in a fresh interpreter).
        run(["thresholds", "--grid", "2:3:1", "--out", str(tmp_path / "t.csv")], capsys)
        tracemalloc.start()
        try:
            code, _, _ = run(
                ["thresholds", "--grid", "1.1:20:0.1", "--out", str(tmp_path / "t.csv")], capsys
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak - 8 * 18145 < 0.8e6

    def test_bad_grid_exits_2(self, capsys):
        for bad in (
            "1.1:0.9:0.1", "abc", "1:2", "1:2:-0.5", "1:inf:1", "1.5:2:inf", "nan:2:0.1",
            "1.1:1e300:1e-300",  # a value count past any float
        ):
            code, _, err = run(["thresholds", "--grid", bad], capsys)
            assert code == 2
            assert "grid" in err

    def test_invalid_pair_exits_2(self, capsys):
        for grid, message in (
            ("0.5:2:0.5", "exponents must satisfy p >= 1 and theta >= 1, got (0.5, 0.5)"),
            ("1:2:0.5", "p*theta must exceed 1"),
        ):
            code, out, err = run(["thresholds", "--grid", grid], capsys)
            assert code == 2
            assert err == f"error: {message}\n"
            assert out == ""

    def test_exponent_past_square_overflow_exits_2(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(
                ["thresholds", "--grid", "1.5:1e200:1e199", "--out", str(out)], capsys
            )
        assert code == 2
        assert err == "error: exponents must not exceed 1.34078e+154, got (1.5, 1e+199)\n"
        assert not out.exists()

    def test_unreachable_width_leaves_no_file(self, tmp_path, capsys):
        # Exponents of 1e18 would put the root of the energy quartic past
        # 2^60, so the pair is outside the domain.
        out = tmp_path / "t.csv"
        code, _, err = run(["thresholds", "--grid", "1e18:2e18:1e18", "--out", str(out)], capsys)
        assert code == 2
        assert "the smaller exponent must not exceed 2.8823e+17" in err
        assert not out.exists()

    def test_unwritable_out_exits_3(self, capsys):
        code, _, err = run(
            ["thresholds", "--grid", "2:3:1", "--out", "/nonexistent_dir/x.csv"], capsys
        )
        assert code == 3
        assert "error" in err


class TestConfigFile:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        # No command reads a config file, so each key that one rejected as
        # unknown is now an unrecognized flag.  max-iter and blowup-cap were
        # the Picard knobs of continue, eigen-tol the tolerance of its mu1
        # power iteration, lambda-init and growth its search for the first
        # load without a solution.
        out = ["--out", str(tmp_path / "b.csv")]
        for command, flag, value in (
            ("roots", "--bogus", "1"),
            ("continue", "--max-iter", "4"),
            ("continue", "--blowup-cap", "1e12"),
            ("continue", "--eigen-tol", "1e-9"),
            ("continue", "--lambda-init", "0.1"),
            ("continue", "--growth", "2"),
        ):
            argv = [command, "--p", "2", "--theta", "3"]
            if command == "continue":
                argv += out
            with pytest.raises(SystemExit) as info:
                cli.main(argv + [flag, value])
            assert info.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestVerify:
    def test_passes_for_valid_pair(self, capsys):
        # At theta = 1e153 the closed forms overflowed to inf when their
        # products were formed before the division by (theta + 1)^2; at
        # 1.3e154 stability_product squared q + 1 and read 0.
        for argv in (
            ["--p", "2", "--theta", "3", "--samples", "100", "--seed", "1"],
            ["--p", "1.5", "--theta", "1e153"],
            ["--p", "1.5", "--theta", "1.3e154"],
        ):
            code, out, _ = run(["verify", *argv], capsys)
            assert code == 0
            assert "RESULT PASS" in out
            assert "equivalence_scan disagreements 0" in out
            assert "FAIL" not in out

    @pytest.mark.parametrize(
        "p, theta", [("1", "1.001"), ("1.0001", "1.0001"), ("1", "1.0000001")]
    )
    def test_passes_near_p_theta_one(self, capsys, p, theta):
        # k = (theta + 1) / (p theta - 1) is large there.  The rescale
        # residual, normalized by the monomials of L at s instead of those of
        # H at k s (k^4 times larger), read 6.4e-3 to 5.6e13 and failed.
        code, out, _ = run(["verify", "--p", p, "--theta", theta], capsys)
        assert code == 0
        assert out.splitlines()[-1] == "RESULT PASS"

    def test_stdout_pinned(self, capsys):
        argv = ["verify", "--p", "2", "--theta", "3", "--samples", "100", "--seed", "1"]
        assert run(argv, capsys) == (0, VERIFY_23_STDOUT, "")

    def test_unevaluated_identity_fails(self, capsys, monkeypatch):
        # A nan residual read 0.000e+00 PASS, as did every overflowing eval_H.
        import exle.thresholds as thresholds_mod

        monkeypatch.setattr(thresholds_mod, "eval_H", lambda e, x: np.full_like(x, np.nan))
        code, out, _ = run(["verify", "--p", "2", "--theta", "3"], capsys)
        assert code == 1
        assert out.splitlines()[0] == "residual rescale nan FAIL"
        assert out.splitlines()[-1] == "RESULT FAIL worst rescale nan"

    def test_nan_residual_is_the_worst_failure(self, capsys, monkeypatch):
        # With rescale failing by a number and value_at_2t0 by nan, the
        # worst failure depended on the order of the checks.
        import exle.thresholds as thresholds_mod

        real = thresholds_mod.eval_H
        monkeypatch.setattr(thresholds_mod, "eval_H", lambda e, x: real(e, x) + 1e-3)
        monkeypatch.setattr(thresholds_mod, "eval_t0", lambda e: np.nan)
        code, out, _ = run(["verify", "--p", "2", "--theta", "3"], capsys)
        assert code == 1
        assert out.splitlines()[0].endswith(" FAIL")
        assert out.splitlines()[-1] == "RESULT FAIL worst value_at_2t0 nan"

    def test_symmetric_pair_reports_split_identity(self, capsys):
        code, out, _ = run(["verify", "--p", "2", "--theta", "2"], capsys)
        assert code == 0
        assert "symmetric_split" in out

    def test_tampered_polynomial_fails(self, capsys, monkeypatch):
        # negative control: breaking one evaluation route must flip the
        # rescale identity check and the exit code
        import exle.thresholds as thresholds_mod

        real = thresholds_mod.eval_H
        monkeypatch.setattr(
            thresholds_mod, "eval_H", lambda e, x: real(e, x) + 1e-3
        )
        code, out, _ = run(["verify", "--p", "2", "--theta", "3"], capsys)
        assert code == 1
        assert "RESULT FAIL worst" in out
        assert "rescale" in out

    def test_exponent_past_square_overflow_exits_2(self, capsys):
        code, out, err = run(["verify", "--p", "1.5", "--theta", "1e200"], capsys)
        assert code == 2
        assert "exponents must not exceed" in err
        assert out == ""

    def test_samples_validated(self, capsys):
        code, out, err = run(["verify", "--p", "2", "--theta", "3", "--samples", "0"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: sample_count must be >= 1, got 0\n"

    def test_negative_seed_exits_2(self, capsys):
        # default_rng raised ValueError, which exited 1 with a traceback.
        code, out, err = run(["verify", "--p", "2", "--theta", "3", "--seed", "-1"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: seed must be >= 0, got -1\n"


class TestPartial:
    def test_bounds_row(self, capsys):
        code, out, _ = run(["partial", "--p", "2", "--theta", "2", "--dim", "16"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "dim,n_new,bound,bound_proof_form"
        dim, n_new, bound, proof = lines[1].split(",")
        assert dim == "16"
        assert float(n_new) == pytest.approx(15.65685424949238, abs=1e-9)
        assert float(bound) == pytest.approx(16.0 - 15.65685424949238, abs=1e-9)
        assert float(proof) > float(bound)
        for p, theta, dim, row in PARTIAL_ROWS:
            code, out, err = run(["partial", "--p", p, "--theta", theta, "--dim", dim], capsys)
            assert code == 0
            assert out == "dim,n_new,bound,bound_proof_form\n" + row + "\n"
            assert err == ""

    def test_exponent_past_square_overflow_exits_2(self, capsys):
        argv = ["partial", "--p", "1.5", "--theta", "1e200", "--dim", "16"]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert "exponents must not exceed" in err
        assert out == ""

    def test_one_root_solve(self, capsys, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return threshold_rows(*args, **kwargs)

        monkeypatch.setattr(thresholds, "threshold_rows", counted)
        code, out, _ = run(["partial", "--p", "1.5", "--theta", "4", "--dim", "20"], capsys)
        assert code == 0
        assert out == "dim,n_new,bound,bound_proof_form\n" + PARTIAL_ROWS[1][3] + "\n"
        assert len(calls) == 1

    def test_everything_regular_below_threshold(self, capsys):
        code, out, _ = run(["partial", "--p", "2", "--theta", "2", "--dim", "10"], capsys)
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert float(row[2]) == 0.0
        assert float(row[3]) == 0.0


class TestContinue:
    def test_branch_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "branch.csv"
        argv = [
            "continue", "--p", "2", "--theta", "2", "--sigma", "1",
            "--dim", "3", "--nodes", "64", "--out", str(out),
        ]
        code, _, _ = run(argv, capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "lambda,gamma,sup_u,sup_v,mu1,souplet_margin,energy_J2,iterations"
        )
        # the torsion load and two certification loads
        assert len(lines) == 1 + 3
        first = lines[1].split(",")
        assert len(first) == 8
        summary = json.loads((tmp_path / "branch.summary.json").read_text())
        assert summary["bracket_rel_width"] <= 1e-4
        assert summary["mu1_min"] >= 1.0 - 1e-6
        # 3 points are too few for the tail fit: undecided
        assert summary["bounded_looking"] is None
        assert summary["budget_exhausted"] is False
        assert 2.2 < summary["lambda_lo"] < summary["lambda_hi"] < 2.5
        # stable key order in the written file
        raw = (tmp_path / "branch.summary.json").read_text()
        keys = [ln.split('"')[1] for ln in raw.splitlines() if ln.startswith('  "')]
        assert keys == sorted(keys)
        # determinism
        out2 = tmp_path / "branch2.csv"
        run(argv[:-1] + [str(out2)], capsys)
        assert out.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("flags,csv_sha256,summary_sha256", CONTINUE_PINS)
    def test_branch_bytes_pinned(self, tmp_path, capsys, flags, csv_sha256, summary_sha256):
        out = tmp_path / "branch.csv"
        code, _, err = run(["continue", *flags, "--out", str(out)], capsys)
        assert code == 0
        assert err == ""
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha256
        summary = tmp_path / "branch.summary.json"
        assert hashlib.sha256(summary.read_bytes()).hexdigest() == summary_sha256

    @pytest.mark.parametrize("steps,csv_sha256,summary_sha256", PARTIAL_PINS)
    def test_partial_branch_bytes_pinned(
        self, tmp_path, capsys, monkeypatch, steps, csv_sha256, summary_sha256
    ):
        monkeypatch.setattr(radial, "_TRIAL_BUDGET", int(steps))
        out = tmp_path / "branch.csv"
        argv = [
            "continue", "--p", "2", "--theta", "2", "--nodes", "64", "--bracket-tol", "1e-12",
            "--out", str(out),
        ]
        code, _, err = run(argv, capsys)
        assert (code, err) == (4, f"error: continuation budget of {steps} solves exhausted\n")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha256
        summary = tmp_path / "branch.summary.json"
        assert hashlib.sha256(summary.read_bytes()).hexdigest() == summary_sha256

    def test_fallback_ray_keeps_its_bytes(self, tmp_path, capsys):
        # On the singular ray sigma = b/a of (1.5, 4) at N = 20 the fold solve
        # runs out of iterations, and bisection closes the bracket.
        out = tmp_path / "branch.csv"
        argv = [
            "continue", "--p", "1.5", "--theta", "4", "--sigma", "1.8823529411764706",
            "--dim", "20", "--nodes", "512", "--out", str(out),
        ]
        code, _, err = run(argv, capsys)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == FALLBACK_CSV_SHA256
        summary = json.loads((tmp_path / "branch.summary.json").read_text())
        assert summary["lambda_fold"] is None

    def test_budget_exhaustion_preserves_partial(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(radial, "_TRIAL_BUDGET", 1)
        out = tmp_path / "partial.csv"
        argv = [
            "continue", "--p", "2", "--theta", "2", "--nodes", "64",
            "--dim", "3", "--out", str(out),
        ]
        code, _, err = run(argv, capsys)
        assert code == 4
        assert err == "error: continuation budget of 1 solves exhausted\n"
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 1
        summary = json.loads((tmp_path / "partial.summary.json").read_text())
        assert summary["budget_exhausted"] is True
        assert summary["lambda_hi"] is None

    def test_subnormal_load_exits_2(self, tmp_path, capsys):
        # The torsion load of this ray is subnormal (about 3e-323): the
        # branch was computed from underflowed states, with mu1 = 0.
        out = tmp_path / "branch.csv"
        argv = [
            "continue", "--p", "1e65", "--theta", "1", "--sigma", "1e261",
            "--nodes", "64", "--out", str(out),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(argv, capsys)
        assert code == 2
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert "must be at least" in errors[0]
        assert not out.exists()
        assert not (tmp_path / "branch.summary.json").exists()

    def test_huge_p_at_a_tiny_load_reaches_the_fold(self, tmp_path, capsys):
        # After one Newton iteration max v is 3e-101 and p v is 0.30: a power
        # taken as (v + 1) ** p rounded v + 1 to 1, lost a factor e^0.30, and
        # the next Picard step went negative at the certified torsion load.
        mpmath = pytest.importorskip("mpmath")
        out = tmp_path / "branch.csv"
        argv = ["continue", "--p", "1e100", "--theta", "1", "--sigma", "1e-200", "--nodes", "64"]
        code, _, err = run(argv + ["--out", str(out)], capsys)
        assert code == 0
        assert err == "# note: canonical order (p, theta) = (1, 1e+100) used for threshold quantities\n"
        pair = thresholds.ExponentPair(1e100, 1.0)
        grid = radial.RadialGrid.uniform(3, 64)
        first = radial.continue_ray(pair, 1e-200, grid).points[0]
        # -Lap w - F(w) with F at 50 digits, against the size of its terms;
        # 1 + v needs 101 digits, so the powers go through log1p there too.
        with mpmath.workdps(50):
            lap = grid.laplacian.to_dense()
            loads = (mpmath.mpf(first.lam), mpmath.mpf(first.gam))
            worst = size = mpmath.mpf(0)
            for i in range(grid.m):
                for row, (load, expo) in enumerate(zip(loads, (pair.p, pair.theta))):
                    f = load * mpmath.exp(expo * mpmath.log1p(first.state[1 - row, i]))
                    terms = [mpmath.mpf(a) * mpmath.mpf(x) for a, x in zip(lap[i], first.state[row]) if a]
                    worst = max(worst, abs(mpmath.fsum(terms) - f))
                    size = max(size, mpmath.fsum(abs(t) for t in terms) + f)
        assert worst <= (grid.m + 1) * np.finfo(float).eps * size

    def test_tiny_sigma_computes_only_what_it_writes(self, tmp_path, capsys):
        # An energy integral that no output read overflowed on this ray
        # and warned; pytest turns each RuntimeWarning into an error.
        out = tmp_path / "branch.csv"
        argv = ["continue", "--p", "2", "--theta", "2", "--sigma", "1e-300", "--nodes", "64"]
        code, _, err = run(argv + ["--out", str(out)], capsys)
        assert code == 0
        assert err == ""
        assert len(out.read_text().splitlines()) > 1

    def test_newton_budget_exhaustion_exits_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(radial, "_NEWTON_BUDGET", 1)
        out = tmp_path / "b.csv"
        argv = ["continue", "--p", "2", "--theta", "2", "--nodes", "64", "--out", str(out)]
        code, _, err = run(argv, capsys)
        assert code == 4
        assert err.startswith("error: Newton budget of 1 iterations exhausted at lam=")
        summary = json.loads((tmp_path / "b.summary.json").read_text())
        assert summary["budget_exhausted"] is True
        assert summary["lambda_hi"] is None

    @pytest.mark.parametrize(
        "flags",
        [
            "--p 1.01 --theta 20 --sigma 8.336866576787306 --dim 12 --nodes 512 "
            "--bracket-tol 1e-8",
            "--p 1.5 --theta 4 --sigma 1.8823529411764706 --dim 12 --nodes 256 "
            "--bracket-tol 1e-12",
        ],
        ids=["p1.01-theta20-N12", "p1.5-theta4-N12"],
    )
    def test_newton_reaches_the_fold(self, tmp_path, flags):
        assert cli.main(["continue", *flags.split(), "--out", str(tmp_path / "b.csv")]) == 0

    def test_eigen_tol_flag_exits_2(self, tmp_path, capsys):
        # mu1 comes from a direct eigen-solve; its power-iteration knob is
        # gone, and so are the first trial load and the growth factor
        for flag, value in (("--eigen-tol", "1e-10"), ("--lambda-init", "0.01"), ("--growth", "3")):
            argv = ["continue", "--p", "2", "--theta", "2", flag, value]
            with pytest.raises(SystemExit) as info:
                cli.main(argv + ["--out", str(tmp_path / "b.csv")])
            assert info.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
            assert not (tmp_path / "b.csv").exists()

    def test_nonpositive_tol_exits_2(self, tmp_path, capsys):
        # continue has no Newton --tol any more (each solve stops at its own
        # roundoff): --tol 0 is an unrecognized flag and writes no branch
        argv = [
            "continue", "--p", "2", "--theta", "2", "--nodes", "16", "--tol", "0",
            "--out", str(tmp_path / "b.csv"),
        ]
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()

    def test_nan_bracket_tol_exits_2(self, tmp_path, capsys):
        # nan > 0 is false: nan is not a positive width
        argv = [
            "continue", "--p", "2", "--theta", "2", "--nodes", "16", "--bracket-tol", "nan",
            "--out", str(tmp_path / "b.csv"),
        ]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert "bracket_tol must be positive" in err
        assert not (tmp_path / "b.csv").exists()


    def test_bad_energy_exponent_exits_2_before_the_branch(self, tmp_path, capsys, monkeypatch):
        # s = 2.5 is below p + 1 = 3; it failed only after the whole branch.
        # s = inf wrote nan energies and a NaN into the summary JSON.
        def forbidden(*args, **kwargs):
            raise AssertionError("continue_ray called")

        monkeypatch.setattr(cli, "continue_ray", forbidden)
        out = tmp_path / "b.csv"
        for s in ("inf", "nan", "2.5"):
            argv = ["continue", "--p", "2", "--theta", "2", "--s", s, "--out", str(out)]
            code, _, err = run(argv, capsys)
            assert code == 2
            assert "s must be finite and exceed p+1 = 3" in err
            assert list(tmp_path.iterdir()) == []


def child_env(**env):
    """This process's environment plus env; OPENBLAS_NUM_THREADS is set
    only when given (this process may have set it)."""
    # The child must import the same package as this process, installed or
    # found through pytest's pythonpath setting.
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return {**base, "PYTHONPATH": path, **env}


def run_child(*args, **env):
    """Run python with args in child_env(**env)."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=child_env(**env)
    )


def test_package_import_loads_no_numpy():
    proc = run_child("-c", "import sys, exle; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_lazy_namespace_resolves_every_public_name():
    code = (
        "import exle\n"
        "missing = [n for n in exle.__all__ if n not in dir(exle)]\n"
        "values = [getattr(exle, n) for n in exle.__all__]\n"
        "from exle import RadialGrid, threshold_rows\n"
        "try:\n"
        "    exle.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(missing, len(values), exc)\n"
    )
    proc = run_child("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] 35 module 'exle' has no attribute 'no_such_name'\n"


CLI_THREADS = (
    "import os, exle.cli\n"
    "status = dict(ln.split(':', 1) for ln in open('/proc/self/status'))\n"
    "print(status['Threads'].strip(), os.environ.get('OPENBLAS_NUM_THREADS'))\n"
)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
def test_cli_import_runs_one_blas_thread():
    proc = run_child("-c", CLI_THREADS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 1\n"


def test_cli_keeps_the_callers_blas_threads():
    code = "import os, exle.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    proc = run_child("-c", code, OPENBLAS_NUM_THREADS="3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "3\n"


def test_cli_after_numpy_leaves_blas_threads_unset():
    # numpy has read the variable already; setting it would change nothing.
    code = "import os, numpy, exle.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    proc = run_child("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "None\n"


def test_console_script_entry_point():
    # The `exle` script an install writes calls this function.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["exle"]
    module, _, attr = target.partition(":")
    assert (module, attr) == ("exle.cli", "console_main")
    assert getattr(importlib.import_module(module), attr) is cli.console_main


def test_console_script_installed():
    proc = run_child("-m", "exle.cli", "roots", "--p", "2", "--theta", "2")
    assert proc.returncode == 0
    assert ROOTS_22_ROW in proc.stdout
    assert proc.stderr == ""


def buffered_env():
    """child_env() with stdout block-buffered on a pipe."""
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_console_exit_writes_what_main_writes(capsysbinary):
    # console_main ends the process with os._exit; what stdout holds in its
    # buffer then (the table is 19 kB, over two 8 kB buffers) must be
    # flushed first.
    argv = ["thresholds", "--grid", "1.1:3:0.1"]
    assert cli.main(argv) == 0
    expected = capsysbinary.readouterr().out
    proc = subprocess.run(
        [sys.executable, "-m", "exle.cli", *argv], capture_output=True, env=buffered_env()
    )
    assert proc.returncode == 0
    assert proc.stdout == expected
    assert proc.stderr == b""


@pytest.mark.parametrize(
    "argv, err",
    [
        (["thresholds", "--grid", "1:2:0.5"], "error: p*theta must exceed 1\n"),
        (
            ["thresholds", "--bogus"],
            "usage: exle [-h] {roots,thresholds,continue,verify,partial} ...\n"
            "exle: error: unrecognized arguments: --bogus\n",
        ),
        (
            ["continue", "--p", "2", "--theta", "2", "--config", "c.json"],
            "usage: exle [-h] {roots,thresholds,continue,verify,partial} ...\n"
            "exle: error: unrecognized arguments: --config c.json\n",
        ),
    ],
    ids=["domain-error", "bad-flag", "config"],
)
def test_console_error_exits_2(argv, err):
    proc = run_child("-m", "exle.cli", *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == err


@pytest.mark.skipif(os.name != "posix", reason="needs setrlimit")
@pytest.mark.parametrize("spec", ["1.5:1e8:1", "1.5:2e5:1"])
def test_grid_past_memory_exits_2(spec):
    # In a child capped at a 1 GiB address space both died with a
    # MemoryError traceback and exit 1: the first building a list of 1e8
    # floats, the second the 37 GiB n x n mask of np.triu_indices.
    resource = pytest.importorskip("resource")

    def cap():
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        limit = 1 << 30 if hard == resource.RLIM_INFINITY else min(hard, 1 << 30)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

    proc = subprocess.run(
        [sys.executable, "-m", "exle.cli", "thresholds", "--grid", spec],
        capture_output=True, text=True, env=child_env(), preexec_fn=cap,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: grid has too many values: {spec!r}\n"


BROKEN_PIPE_AT_EXIT = (
    "Exception ignored in: <_io.TextIOWrapper name='<stdout>' mode='w' encoding='utf-8'>\n"
    "BrokenPipeError: [Errno 32] Broken pipe\n"
)


@pytest.mark.skipif(os.name != "posix", reason="needs EPIPE on a pipe")
@pytest.mark.parametrize(
    "unbuffered, code, err",
    [
        # Each write fails in main, which reports it as an I/O error.
        (True, 3, "error: [Errno 32] Broken pipe\n"),
        # The row waits in the buffer; the flush at exit fails, and the
        # interpreter's teardown reports it with its own status, 120.
        (False, 120, BROKEN_PIPE_AT_EXIT),
    ],
    ids=["unbuffered", "buffered"],
)
def test_closed_stdout_pipe(unbuffered, code, err):
    env = buffered_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "exle.cli", "roots", "--p", "2", "--theta", "2"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == code
    assert proc.stderr == err


CONTINUE_LAYERS = ("exle.radial", "exle._cyclic", "exle.diagnostics")


def test_only_continue_loads_its_layers(tmp_path):
    table = tmp_path / "t.csv"
    branch = tmp_path / "b.csv"
    code = (
        "import sys, exle.cli\n"
        f"layers = {CONTINUE_LAYERS!r}\n"
        "for argv in (\n"
        f"    ['thresholds', '--grid', '1.1:2:0.1', '--out', {str(table)!r}],\n"
        "    ['roots', '--p', '2', '--theta', '3'],\n"
        "    ['verify', '--p', '2', '--theta', '3', '--samples', '10'],\n"
        "    ['partial', '--p', '2', '--theta', '3', '--dim', '16'],\n"
        "):\n"
        "    assert exle.cli.main(argv) == 0, argv\n"
        "print([m for m in layers if m in sys.modules])\n"
        "code = exle.cli.main(['continue', '--p', '2', '--theta', '2', '--nodes', '32',\n"
        f"                      '--out', {str(branch)!r}])\n"
        "print(code, [m for m in layers if m in sys.modules])\n"
    )
    proc = run_child("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["[]", f"0 {list(CONTINUE_LAYERS)}"]


def test_continue_names_resolve_before_any_command():
    code = (
        "import exle.cli, exle.diagnostics, exle.radial\n"
        "names = sorted(exle.cli._CONTINUE_NAMES)\n"
        "homes = [exle.diagnostics if m == 'diagnostics' else exle.radial\n"
        "         for m in map(exle._HOME.get, names)]\n"
        "print(all(getattr(exle.cli, n) is getattr(h, n) for n, h in zip(names, homes)))\n"
        "try:\n"
        "    exle.cli.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    proc = run_child("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\nmodule 'exle.cli' has no attribute 'no_such_name'\n"
    proc = run_child("-c", "import exle.cli; print(exle.cli.souplet_check.__module__)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "exle.diagnostics\n"


def test_wrapper_set_before_loading_is_the_one_continue_runs(tmp_path):
    # Set in a fresh process, before radial was ever loaded: binding the
    # other names must leave it in place.
    branch = tmp_path / "b.csv"
    code = (
        "import sys, exle.cli\n"
        "calls = []\n"
        "def wrapper(*args, **kwargs):\n"
        "    calls.append(args)\n"
        "    return sys.modules['exle.radial'].continue_ray(*args, **kwargs)\n"
        "exle.cli.continue_ray = wrapper\n"
        "code = exle.cli.main(['continue', '--p', '2', '--theta', '2', '--nodes', '32',\n"
        f"                      '--out', {str(branch)!r}])\n"
        "print(code, len(calls), exle.cli.continue_ray is wrapper)\n"
    )
    proc = run_child("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 1 True\n"


def test_import_leaves_scipy_linalg_unloaded(tmp_path):
    proc = run_child("-c", "import sys, exle.cli; print('scipy.linalg' in sys.modules)")
    assert proc.returncode == 0
    assert proc.stdout == "False\n"
    # continue too: the radial solves and mu1 are numpy kernels, and scipy
    # is only a test extra.
    out = tmp_path / "b.csv"
    code = (
        "import sys, exle.cli\n"
        f"code = exle.cli.main(['continue', '--p', '2', '--theta', '2', '--nodes', '64', '--out', {str(out)!r}])\n"
        "print(code, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = run_child("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 []\n"
    assert out.exists()
