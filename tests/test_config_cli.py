import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mflow
from mflow.cli import build_parser, main
from mflow.config import instance_from_doc, load_json, resolve_instance

INSTANCE_DOC = {
    "name": "custom1d",
    "A": {"tag": "quadratic", "b": [0.0]},
    "B": {"tag": "quadratic", "b": [1.0]},
    "L": [[1.0]],
    "gamma": 0.5,
    "mu": 0.5,
    "w": {"p": [0.0], "v": [0.0]},
    "x0": {"p": [0.0], "v": [0.0]},
    "z": [0.5, -0.5],
}


class TestConfig:
    def test_instance_from_doc(self):
        named = instance_from_doc(INSTANCE_DOC)
        assert named.tag == "custom1d"
        assert named.cap is not None
        assert np.array_equal(named.z, [0.5, -0.5])

    def test_missing_key(self):
        doc = {k: v for k, v in INSTANCE_DOC.items() if k != "gamma"}
        with pytest.raises(ValueError, match="gamma"):
            instance_from_doc(doc)

    def test_bad_z_shape(self):
        doc = dict(INSTANCE_DOC, z=[0.5])
        with pytest.raises(ValueError, match="'z'"):
            instance_from_doc(doc)

    def test_non_numeric_z(self):
        for bad in (["a", "b"], [float("nan"), 0.0], [0.5, float("inf")]):
            with pytest.raises(ValueError, match="bad solution 'z'"):
                instance_from_doc(dict(INSTANCE_DOC, z=bad))

    def test_floor_fraction(self):
        named = instance_from_doc(dict(INSTANCE_DOC, floor_fraction=0.5))
        assert named.cap.r == pytest.approx(0.5 * 0.5)
        # an integer beyond the float range raises OverflowError in float()
        for bad in (1.5, "abc", 10**400):
            with pytest.raises(ValueError, match="floor_fraction"):
                instance_from_doc(dict(INSTANCE_DOC, floor_fraction=bad))
        # the anchor is the solution: no cap, and the fraction is never used
        at_z = {"p": [0.5], "v": [-0.5]}
        doc = dict(INSTANCE_DOC, w=at_z, x0=at_z, floor_fraction=1.5)
        assert instance_from_doc(doc).cap is None

    def test_overflowing_cap_is_named(self, tmp_path, capsys):
        # ||w - z||^2 overflows: the cap says so, and the floor fraction is not blamed
        doc = dict(INSTANCE_DOC, w={"p": [1e200], "v": [0.0]})
        with pytest.raises(ValueError, match="overflows") as info:
            instance_from_doc(doc)
        assert "floor_fraction" not in str(info.value)
        path = tmp_path / "far.json"
        path.write_text(json.dumps(doc))
        assert main(["check", "--instance", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "overflows" in err, err
        assert "floor_fraction" not in err

    def test_malformed_fraction_is_named_when_the_gap_overflows(self):
        doc = dict(INSTANCE_DOC, w={"p": [1e200], "v": [0.0]}, floor_fraction="abc")
        with pytest.raises(ValueError, match="bad floor_fraction 'abc'"):
            instance_from_doc(doc)

    def test_wrong_solution(self):
        with pytest.raises(ValueError, match="fixed-point residual"):
            instance_from_doc(dict(INSTANCE_DOC, z=[0.4, -0.5]))

    def test_json_error_is_line_precise(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "A": [1,\n}')
        with pytest.raises(ValueError, match=r"bad\.json:3:1"):
            load_json(bad)

    def test_resolve_builtin_and_file(self, tmp_path):
        named = resolve_instance("quadratic1d")
        assert named.tag == "quadratic1d"
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(INSTANCE_DOC))
        named = resolve_instance(str(path))
        assert named.tag == "custom1d"
        with pytest.raises(ValueError, match="built-ins"):
            resolve_instance("nope")


# a command line, and the work it does before writing to --out
SOLVE_WORK = (["solve", "--instance", "quadratic1d", "--max-iter", "5"], "mflow.dynamics.solve")
CHECK_WORK = (
    ["check", "--instance", "quadratic1d", "--samples", "16"],
    "mflow.diagnostics.sample_cap",
)


@pytest.mark.parametrize(
    "argv, work, under, reason",
    [
        (*SOLVE_WORK, "", "File exists"),
        (*CHECK_WORK, "", "File exists"),
        (*SOLVE_WORK, "sub", "Not a directory"),
        (*CHECK_WORK, "sub", "Not a directory"),
    ],
    ids=["solve", "check", "solve_under_file", "check_under_file"],
)
def test_out_naming_a_file_exit_one(tmp_path, capsys, monkeypatch, argv, work, under, reason):
    # the output directory cannot be made, and that is reported before the command's work
    def refuse(*args, **kwargs):
        raise AssertionError(f"{work} ran before --out was checked")

    monkeypatch.setattr(work, refuse)
    taken = tmp_path / "taken"
    taken.write_text("kept")
    out = taken / under if under else taken
    code = main(argv + ["--out", str(out)])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert lines == [f"error: output directory {str(out)!r}: {reason}"]
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert taken.read_text() == "kept"


@pytest.mark.parametrize("name", ["sub/run", "../escaped", "nul\0name"], ids=["sub", "up", "nul"])
@pytest.mark.parametrize(
    "argv",
    [["solve", "--max-iter", "5"], ["integrate", "--lambda", "0.5"], ["check", "--samples", "16"]],
    ids=["solve", "integrate", "check"],
)
def test_name_with_a_separator_exit_one(tmp_path, capsys, argv, name):
    # the name prefixes every output file; one with a separator would leave --out
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(dict(INSTANCE_DOC, name=name)))
    code = main(argv + ["--instance", str(path), "--out", str(tmp_path / "out")])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "doc.json" in lines[0] and "'name'" in lines[0]
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--instance", "quadratic3x2", "--seed", "-1"],
        ["solve", "--instance", "quadratic1d", "--tol-residual", "nan"],
        ["integrate", "--instance", "lens-drift", "--lambda", "1", "--t-final", "nan"],
        ["integrate", "--instance", "lens-drift", "--lambda", "1", "--t-final", "inf"],
        ["integrate", "--instance", "lens-drift", "--lambda", "1e-10", "--t-final", "1e300"],
        ["project", "[0,0]", "[1,0]", "[1]"],
        ["solve", "--instance", "quadratic1d", "--max-iter", "0"],
        ["check", "--instance", "quadratic3x2", "--samples", "0"],
        ["integrate", "--instance", "lens-drift", "--lambda", "0.2,1.5"],
    ],
    ids=[
        "seed_negative",
        "tol_residual_nan",
        "t_final_nan",
        "t_final_inf",
        "t_final_over_lambda_inf",
        "project_dimension",
        "max_iter_zero",
        "samples_zero",
        "lambda_list_out_of_range",
    ],
)
def test_bad_numeric_argument_exit_one(tmp_path, capsys, argv):
    # the library rejects most of these; the CLI reports its ValueError as one line
    if argv[0] != "project":
        argv = argv + ["--out", str(tmp_path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
    # nothing is written: integrate tests every step size before its first run
    assert not list(tmp_path.iterdir())


def test_seed_is_an_option_of_check_only(capsys):
    parser = build_parser()
    assert parser.parse_args(["check", "--instance", "quadratic1d", "--seed", "5"]).seed == 5
    for command in (["solve"], ["integrate", "--lambda", "0.5"]):
        with pytest.raises(SystemExit):
            parser.parse_args([*command, "--instance", "quadratic1d", "--seed", "5"])
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag", [["--mode", "euler"], ["--lambda", "0.5"]], ids=["mode", "lambda"]
)
def test_solve_has_no_step_size_option(capsys, flag):
    # the Euler relaxation of an instance is 'integrate'; solve runs the discrete scheme
    with pytest.raises(SystemExit):
        build_parser().parse_args(["solve", "--instance", "quadratic3x2", *flag])
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_check_has_no_tolerance_option(capsys):
    # the checks' tolerance is GEOM_TOL; an absolute tolerance is no option
    with pytest.raises(SystemExit):
        build_parser().parse_args(["check", "--instance", "lens-drift", "--tol", "1e-9"])
    assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--instance", "quadratic1d", "--tol-step", "1e-9"],
        ["integrate", "--instance", "quadratic3x2", "--lambda", "0.5", "--x0", "[0,0]"],
    ],
    ids=["solve_tol_step", "integrate_x0"],
)
def test_deleted_options_exit_one(tmp_path, capsys, argv):
    # solve's step tolerance is the library's default; an integrate run starts at
    # the instance's own x0
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["solve", "integrate", "check"])
def test_config_is_no_option(tmp_path, capsys, command):
    # run settings are flags only; no run document is read
    run = tmp_path / "run.json"
    run.write_text(json.dumps({"instance": "quadratic1d", "out": str(tmp_path / "out")}))
    lam = ["--lambda", "0.5"] if command == "integrate" else []
    argv = [command, *lam, "--instance", "quadratic1d", "--config", str(run)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert f"unrecognized arguments: --config {run}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


@pytest.mark.parametrize("command", ["solve", "integrate", "check"])
def test_missing_instance_exit_one(tmp_path, capsys, command):
    assert main([command, "--out", str(tmp_path)]) == 1
    assert "the following arguments are required: --instance" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--instance", "quadratic1d", "--max-iter", "abc"],
        ["check", "--samples", "1.5"],
        ["bogus"],
    ],
    ids=["max_iter_not_int", "samples_not_int", "unknown_command"],
)
def test_malformed_command_line_exit_one(capsys, argv):
    # argparse's own status 2 would read as an exhausted budget or a failed check
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: mflow")


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_check_calls_share_no_parsed_state(tmp_path, capsys):
    def check(name, *flags):
        out = tmp_path / name
        code = main(["check", "--instance", "quadratic3x2", "--out", str(out), *flags])
        return code, capsys.readouterr().out, (out / "quadratic3x2_checks.json").read_bytes()

    reference = check("reference", "--samples", "512", "--seed", "0")
    other = check("other", "--samples", "32", "--seed", "3")
    defaults = check("defaults")
    assert other != reference
    assert defaults == reference


# One step overflows: L maps the resolvent of A, of size 1e308, beyond the
# largest double.
OVERFLOW_DOC = {
    "name": "ovf",
    "A": {"tag": "quadratic", "b": [1e308]},
    "B": {"tag": "quadratic", "b": [-1e308]},
    "L": [[1e3]],
    "gamma": 0.5,
    "mu": 0.5,
    "w": {"p": [0], "v": [0]},
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_step_raises_non_finite(tmp_path):
    path = tmp_path / "ovf.json"
    path.write_text(json.dumps(OVERFLOW_DOC))
    with pytest.raises(mflow.NonFiniteError):
        mflow.solve(resolve_instance(str(path)).instance, max_iter=1)


@pytest.mark.parametrize(
    "run",
    [
        lambda inst: mflow.solve(inst, max_iter=50),
        lambda inst: mflow.integrate_field(mflow.build_field(inst), inst.x0.flat, 0.5, 20),
    ],
    ids=["solve", "integrate_field"],
)
def test_overflowing_step_raises_from_every_run(tmp_path, run):
    path = tmp_path / "ovf.json"
    path.write_text(json.dumps(OVERFLOW_DOC))
    with pytest.raises(mflow.NonFiniteError, match="the step from iterate"):
        run(resolve_instance(str(path)).instance)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--max-iter", "50"],
        ["integrate", "--lambda", "0.5", "--t-final", "20"],
    ],
    ids=["solve", "integrate"],
)
def test_overflowing_step_exit_three(tmp_path, capsys, argv):
    path = tmp_path / "ovf.json"
    path.write_text(json.dumps(OVERFLOW_DOC))
    code = main(argv + ["--instance", str(path), "--out", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err.startswith("breakdown:")


@pytest.mark.parametrize(
    "doc",
    [dict(INSTANCE_DOC, z=[0.4, -0.5]), dict(OVERFLOW_DOC, z=[1, 1])],
    ids=["off-solution", "overflowing-residual"],
)
@pytest.mark.parametrize("command", ["solve", "check"])
def test_wrong_solution_exit_one(tmp_path, capsys, doc, command):
    path = tmp_path / "wrong_z.json"
    path.write_text(json.dumps(doc))
    code = main([command, "--instance", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "wrong_z.json" in err and "residual" in err


# The coupling is so strong that the field overflows on the cap: L* maps the
# dual Yosida value b*, of size about 1e300, beyond the largest double.  The
# solution is (p, v) = (c / (1 + c^2), -1 / (1 + c^2)) for L = [[c]].
STRONG_COUPLING_DOC = dict(
    INSTANCE_DOC, name="strong", L=[[1e300]], z=[1e-300, 0.0], w={"p": [1.0], "v": [0.0]}
)


def test_check_non_finite_field_exit_three(tmp_path, capsys):
    path = tmp_path / "strong.json"
    path.write_text(json.dumps(STRONG_COUPLING_DOC))
    argv = ["check", "--instance", str(path), "--samples", "16", "--out", str(tmp_path)]
    code = main(argv)
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("breakdown:"), lines


def run_mflow(argv, cwd):
    """``python -m mflow`` in a fresh interpreter; numpy warnings reach its stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(mflow.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "mflow", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=300,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--max-iter", "50"],
        ["integrate", "--lambda", "0.5", "--t-final", "20"],
    ],
    ids=["solve", "integrate"],
)
def test_overflowing_step_stderr_is_one_breakdown_line(tmp_path, argv):
    path = tmp_path / "ovf.json"
    path.write_text(json.dumps(OVERFLOW_DOC))
    run = run_mflow(argv + ["--instance", str(path), "--out", str(tmp_path)], tmp_path)
    assert run.returncode == 3
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("breakdown:"), run.stderr


@pytest.mark.parametrize("tag, code", [("lasso3x2", 0), ("lens-drift", 2)])
def test_check_writes_no_stderr(tmp_path, tag, code):
    # the row kernels evaluate the branches they discard; no warning may leak
    argv = ["check", "--instance", tag, "--samples", "512", "--out", str(tmp_path)]
    run = run_mflow(argv, tmp_path)
    assert run.returncode == code
    assert run.stderr == ""


def test_check_runs_without_scipy(tmp_path):
    # a None entry in sys.modules makes every import of scipy raise ImportError
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from mflow import builtin_tags\n"
        "from mflow.cli import main\n"
        "argv = ['check', '--samples', '64', '--instance']\n"
        "print({tag: main(argv + [tag, '--out', tag]) for tag in builtin_tags()})"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(mflow.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert run.stderr == ""
    codes = {tag: 2 if tag == "lens-drift" else 0 for tag in mflow.builtin_tags()}
    assert run.stdout.splitlines()[-1] == repr(codes)


class TestProjectCommand:
    def test_case_iii(self, capsys):
        code = main(["project", "[0,0]", "[1,0]", "[1,1]"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["case"] == "iii"
        assert out["projection"] == pytest.approx([1.0, 1.0])

    def test_degenerate_first_cut(self, capsys):
        code = main(["project", "[0,0]", "[0,0]", "[1,1]"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["projection"] == pytest.approx([1.0, 1.0])

    def test_collinear_case_i(self, capsys):
        code = main(["project", "[0,0]", "[1,0]", "[2,0]"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["case"] == "i"
        assert out["projection"] == pytest.approx([2.0, 0.0])

    def test_empty_intersection_exit_code(self, capsys):
        code = main(["project", "[0,0]", "[1,0]", "[0.5,0]"])
        err = capsys.readouterr().err
        assert code == 3
        assert "empty intersection" in err

    def test_malformed_point(self, capsys):
        code = main(["project", "[0,0]", "oops", "[1,1]"])
        assert code == 1

    def test_overflowing_difference_is_a_breakdown(self, capsys):
        # w - b overflows, so Q is not finite
        code = main(["project", "[1e308, 0]", "[-1e308, 0]", "[0, 0]"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("breakdown:"), lines

    def test_overflowing_gram_entry_prints_only_the_result(self, capsys):
        # ||w - b||^2 overflows; Q recomputes it from differences scaled by a power of two
        code = main(["project", "[1e170, 0]", "[0, 0]", "[-1e170, -1e170]"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        out = json.loads(captured.out)
        assert out["case"] == "ii"
        assert out["projection"] == pytest.approx([-5e169, -1.5e170], rel=1e-15)


class TestSolveCommand:
    def test_converged_run_exit_zero(self, tmp_path, capsys):
        code = main(
            [
                "solve",
                "--instance",
                "quadratic1d",
                "--tol-residual",
                "1e-7",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        summary = json.loads((tmp_path / "quadratic1d_summary.json").read_text())
        assert summary["termination"] == "residual"
        assert summary["final_error"] <= 1e-6
        assert (tmp_path / "quadratic1d_trajectory.csv").exists()

    def test_summary_keys_and_run_fields(self, tmp_path):
        argv = ["solve", "--instance", "quadratic1d", "--max-iter", "20", "--out", str(tmp_path)]
        main(argv)
        summary = json.loads((tmp_path / "quadratic1d_summary.json").read_text())
        assert list(summary) == [
            "label",
            "mode",
            "lambda",
            "termination",
            "iterations",
            "final_point",
            "final_residual",
            "final_norm_to_w",
            "final_error",
        ]
        assert (summary["label"], summary["mode"], summary["lambda"]) == (
            "quadratic1d",
            "discrete",
            None,
        )

    def test_budget_exhausted_exit_two(self, tmp_path):
        code = main(
            ["solve", "--instance", "quadratic1d", "--max-iter", "1", "--out", str(tmp_path)]
        )
        assert code == 2

    def test_corrupted_config_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": ')
        code = main(["solve", "--instance", str(bad), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "bad.json:1" in err

    def test_raw_field_instance_rejected(self, tmp_path):
        code = main(["solve", "--instance", "lens-drift", "--out", str(tmp_path)])
        assert code == 1

    def test_nonfinite_coupling_map_exit_one(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(dict(INSTANCE_DOC, L=[[float("nan")]])))
        code = main(["solve", "--instance", str(path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "finite" in err

    @pytest.mark.parametrize("value", [float("nan"), 0.0, -1.0], ids=["nan", "zero", "negative"])
    @pytest.mark.parametrize(
        "block, key",
        [({"tag": "l1"}, "weight"), ({"tag": "ball", "center": [0.0]}, "radius")],
        ids=["l1", "ball"],
    )
    def test_nonpositive_block_parameter_exit_one(self, tmp_path, capsys, block, key, value):
        # without a z, no oracle check stands between the parameter and the first step
        doc = {k: v for k, v in INSTANCE_DOC.items() if k != "z"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc | {"B": block | {key: value}}))
        code = main(["solve", "--instance", str(path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{block['tag']} {key} must be positive, got {value}" in err

    def test_deterministic_output_bytes(self, tmp_path):
        args = ["solve", "--instance", "quadratic3x2", "--max-iter", "200"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "quadratic3x2_trajectory.csv").read_bytes()
        b = (tmp_path / "b" / "quadratic3x2_trajectory.csv").read_bytes()
        assert a == b


class TestIntegrateCommand:
    def test_order_table_on_drift_fixture(self, tmp_path, capsys):
        code = main(
            [
                "integrate",
                "--instance",
                "lens-drift",
                "--lambda",
                "0.2,0.1,0.05",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        rows = json.loads((tmp_path / "lens-drift_order_table.json").read_text())
        assert len(rows) == 3
        ratios = [row["error_ratio"] for row in rows[1:]]
        for ratio in ratios:
            assert 0.4 <= ratio <= 0.6

    def test_unit_step_matches_discrete_solve_bytes(self, tmp_path):
        # euler at unit step and the discrete scheme must emit identical
        # point columns
        main(
            [
                "solve",
                "--instance",
                "quadratic1d",
                "--max-iter",
                "100",
                "--out",
                str(tmp_path / "d"),
            ]
        )
        main(
            [
                "integrate",
                "--instance",
                "quadratic1d",
                "--lambda",
                "1.0",
                "--t-final",
                "100",
                "--out",
                str(tmp_path / "e"),
            ]
        )
        d_rows = (tmp_path / "d" / "quadratic1d_trajectory.csv").read_text().splitlines()
        e_rows = (tmp_path / "e" / "quadratic1d_lam1.csv").read_text().splitlines()
        assert len(d_rows) == len(e_rows) == 102
        for dr, er in zip(d_rows[1:], e_rows[1:]):
            d_cols = dr.split(",")
            e_cols = er.split(",")
            assert d_cols[1:3] == e_cols[1:3]

    def test_step_sizes_sharing_a_file_name_exit_one(self, tmp_path, capsys):
        # both print as 0.1, so both runs would write lens-drift_lam0.1.csv
        argv = ["integrate", "--instance", "lens-drift", "--lambda", "0.1,0.1000001"]
        assert main(argv + ["--out", str(tmp_path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "0.1 and 0.1000001" in lines[0] and "lens-drift_lam0.1.csv" in lines[0]
        assert not list(tmp_path.iterdir())

    def test_empty_lambda_list_exit_one(self, tmp_path):
        code = main(
            ["integrate", "--instance", "lens-drift", "--lambda", "", "--out", str(tmp_path)]
        )
        assert code == 1

    def test_lambda_out_of_range(self, tmp_path):
        code = main(
            [
                "integrate",
                "--instance",
                "lens-drift",
                "--lambda",
                "1.5",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 1


class TestCheckCommand:
    @pytest.mark.parametrize("tag", ["quadratic1d", "quadratic3x2", "lasso1d", "lasso3x2"])
    def test_reports_are_strict_json(self, tmp_path, tag):
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        argv = ["check", "--instance", tag, "--samples", "64", "--out", str(tmp_path)]
        assert main(argv) == 0
        text = (tmp_path / f"{tag}_checks.json").read_text()
        reports = json.loads(text, parse_constant=reject)
        assert [r["name"] for r in reports] == [
            "unique_zero",
            "cap_invariance",
            "outward_drift",
            "projection_stationarity",
            "projection_range",
        ]

    def test_drift_fixture_fails_invariance(self, tmp_path, capsys):
        code = main(
            ["check", "--instance", "lens-drift", "--seed", "0", "--out", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 2
        assert "cap_invariance  FAIL" in out
        assert "unique_zero     PASS" in out
        reports = json.loads((tmp_path / "lens-drift_checks.json").read_text())
        inv = next(r for r in reports if r["name"] == "cap_invariance")
        south = np.array([0.0, -1.0])
        assert any(
            np.linalg.norm(np.array(v["point"]) - south) < 0.1
            for v in inv["violations"]
        )

    def test_branching_fixture_all_pass(self, tmp_path, capsys):
        code = main(
            ["check", "--instance", "box-flow", "--seed", "0", "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_splitting_instance_all_pass(self, tmp_path, capsys):
        code = main(
            [
                "check",
                "--instance",
                "quadratic1d",
                "--samples",
                "128",
                "--seed",
                "1",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        reports = json.loads((tmp_path / "quadratic1d_checks.json").read_text())
        assert {r["name"] for r in reports} >= {
            "unique_zero",
            "cap_invariance",
            "outward_drift",
            "projection_stationarity",
        }
