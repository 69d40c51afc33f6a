import contextlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stratumlab import cli
from stratumlab.errors import SchemaError
from stratumlab.fileio import (
    canonical_json,
    matrix_payload,
    parse_matrix_payload,
    read_matrix,
    write_matrix,
)
from stratumlab.states import AlgebraDescriptor, full_algebra, maximally_mixed


def _payload(**overrides):
    base = {
        "schema_version": "1",
        "alg": [2],
        "re": [[0.5, 0.0], [0.0, 0.5]],
        "im": [[0.0, 0.0], [0.0, 0.0]],
    }
    base.update(overrides)
    return base


def test_canonical_json_is_sorted_and_newline_terminated():
    text = canonical_json({"b": 1, "a": 2})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    # byte-identical for identical payloads regardless of insertion order
    assert canonical_json({"x": [1, 2], "y": None}) == canonical_json({"y": None, "x": [1, 2]})
    with pytest.raises(ValueError):
        canonical_json({"bad": float("nan")})


def test_matrix_round_trip(tmp_path):
    alg = AlgebraDescriptor((1, 2))
    m = np.array(
        [[0.5, 0, 0], [0, 0.25, 0.1 + 0.2j], [0, 0.1 - 0.2j, 0.25]], dtype=complex
    )
    path = tmp_path / "m.json"
    write_matrix(str(path), m, alg)
    got, got_alg = read_matrix(str(path))
    assert got_alg == alg
    np.testing.assert_array_equal(got, m)
    # writing what was read reproduces the file byte for byte
    again = tmp_path / "m2.json"
    write_matrix(str(again), got, got_alg)
    assert path.read_bytes() == again.read_bytes()


def test_parse_rejects_structural_problems():
    with pytest.raises(SchemaError):
        parse_matrix_payload([1, 2, 3])
    with pytest.raises(SchemaError, match="missing keys"):
        parse_matrix_payload({"schema_version": "1", "alg": [2]})
    with pytest.raises(SchemaError, match="schema_version"):
        parse_matrix_payload(_payload(schema_version="2"))
    for bad_alg in ([], [0], [2.0], [True], "2"):
        with pytest.raises(SchemaError, match="alg"):
            parse_matrix_payload(_payload(alg=bad_alg))
    with pytest.raises(SchemaError):
        parse_matrix_payload(_payload(re=[[0.5, 0.0]]))  # wrong row count
    with pytest.raises(SchemaError):
        parse_matrix_payload(_payload(re=[[0.5], [0.0, 0.5]]))  # ragged
    with pytest.raises(SchemaError, match="not a number"):
        parse_matrix_payload(_payload(re=[[0.5, "x"], [0.0, 0.5]]))
    with pytest.raises(SchemaError, match="not a number"):
        parse_matrix_payload(_payload(im=[[0.0, 0.0], [True, 0.0]]))
    with pytest.raises(SchemaError, match="diagonal imaginary"):
        parse_matrix_payload(_payload(im=[[1e-10, 0.0], [0.0, 0.0]]))
    for bad in (float("nan"), float("inf"), -float("inf"), 10**400):
        with pytest.raises(SchemaError, match="not a finite number"):
            parse_matrix_payload(_payload(im=[[0.0, bad], [0.0, 0.0]]))


def test_read_matrix_wraps_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError, match="invalid JSON"):
        read_matrix(str(path))


def test_matrix_payload_structure():
    alg = AlgebraDescriptor((2,))
    p = matrix_payload(np.array([[0.5, 1j], [-1j, 0.5]]), alg)
    assert p["schema_version"] == "1"
    assert p["alg"] == [2]
    assert p["re"] == [[0.5, 0.0], [0.0, 0.5]]
    assert p["im"] == [[0.0, 1.0], [-1.0, 0.0]]


@pytest.fixture()
def mm3_file(tmp_path):
    alg = full_algebra(3)
    path = tmp_path / "mm3.json"
    write_matrix(str(path), maximally_mixed(alg).matrix, alg)
    return str(path)


def test_cli_classify(mm3_file, capsys):
    assert cli.main(["classify", mm3_file]) == 0
    out = capsys.readouterr()
    report = json.loads(out.out)
    assert report["command"] == "classify"
    # the echo holds exactly the options classify takes, at their defaults
    assert report["config"] == {"tol_rank": 1e-9, "cluster_tol": 1e-8, "out": None}
    assert report["alg"] == [3]
    assert report["rank_per_block"] == [3]
    assert report["total_rank"] == 3
    assert report["stratum_dim"] == 8
    assert report["orbit_signature"] == [[3]]
    assert report["orbit_dim"] == 0
    assert report["isotropy_dim"] == 9
    assert not report["is_pure"]
    assert "# elapsed" in out.err


def test_cli_classify_out_file(mm3_file, tmp_path, capsys):
    dest = tmp_path / "report.json"
    assert cli.main(["classify", mm3_file, "--out", str(dest)]) == 0
    assert capsys.readouterr().out == ""
    report = json.loads(dest.read_text())
    assert report["total_rank"] == 3
    assert report["config"]["out"] == str(dest)


def test_cli_exit_2_on_validation(tmp_path, capsys):
    alg = full_algebra(2)
    path = tmp_path / "trace.json"
    write_matrix(str(path), np.diag([0.7, 0.7]).astype(complex), alg)
    assert cli.main(["classify", str(path)]) == 2
    err = json.loads(capsys.readouterr().err.split("# elapsed")[0])
    assert err["error"] == "TraceNotOne"
    assert err["exit_code"] == 2


def test_cli_exit_1_on_schema_and_io(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert cli.main(["classify", str(bad)]) == 1
    assert cli.main(["classify", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()


def test_cli_exit_1_on_usage_error(capsys):
    assert cli.main(["no-such-command"]) == 1
    assert cli.main(["verify", "no-such-suite"]) == 1
    capsys.readouterr()


def test_cli_exit_3_on_ambiguous_rank(tmp_path, capsys):
    alg = full_algebra(2)
    path = tmp_path / "gray.json"
    write_matrix(str(path), np.diag([1.0 - 5e-9, 5e-9]).astype(complex), alg)
    assert cli.main(["classify", str(path)]) == 3
    err = json.loads(capsys.readouterr().err.split("# elapsed")[0])
    assert err["error"] == "AmbiguousRank"
    assert err["exit_code"] == 3


def test_cli_nan_payload_fails_closed(tmp_path):
    # json accepts the NaN literal; it must stop at the schema, not crash in
    # a solver further down
    path = tmp_path / "nan.json"
    path.write_text(
        '{"schema_version":"1","alg":[1,1],"re":[[NaN,0],[0,0.5]],"im":[[0,0],[0,0]]}'
    )
    run = subprocess.run(
        [sys.executable, "-m", "stratumlab", "classify", str(path)],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 1
    assert run.stdout == ""
    text, elapsed = run.stderr.split("# elapsed")
    err = json.loads(text)
    assert text == canonical_json(err)
    assert err["error"] == "SchemaError"
    assert err["exit_code"] == 1
    assert "\n" not in elapsed.rstrip("\n")


def test_cli_exit_3_on_solver_failure(mm3_file, capsys, monkeypatch):
    def diverge(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli, "orbit_dim", diverge)
    assert cli.main(["classify", mm3_file]) == 3
    err = json.loads(capsys.readouterr().err.split("# elapsed")[0])
    assert err["error"] == "LinAlgError"
    assert err["exit_code"] == 3


def test_cli_env_overrides(mm3_file, capsys, monkeypatch):
    monkeypatch.setenv("STRATUMLAB_TOL_RANK", "1e-6")
    assert cli.main(["classify", mm3_file]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["tol_rank"] == 1e-6
    # an explicit flag wins over the environment
    assert cli.main(["classify", mm3_file, "--tol-rank", "1e-7"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["tol_rank"] == 1e-7


def test_cli_env_bad_cast(mm3_file, capsys, monkeypatch):
    monkeypatch.setenv("STRATUMLAB_TOL_RANK", "not-a-float")
    assert cli.main(["classify", mm3_file]) == 1
    err = json.loads(capsys.readouterr().err.split("# elapsed")[0])
    assert err["error"] == "SchemaError"


def test_cli_format_mismatch(mm3_file, capsys):
    assert cli.main(["classify", mm3_file, "--format", "csv"]) == 1
    assert cli.main(["demo", "simplex", "--resolution", "3", "--format", "json"]) == 1
    capsys.readouterr()


def test_cli_chart_worked_example(tmp_path, capsys):
    alg = full_algebra(3)
    center = tmp_path / "center.json"
    point = tmp_path / "point.json"
    write_matrix(str(center), np.diag([0.5, 0.5, 0.0]).astype(complex), alg)
    write_matrix(str(point), np.diag([0.49, 0.49, 0.02]).astype(complex), alg)
    assert cli.main(["chart", str(center), str(point)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["gap_a"] == pytest.approx(0.5)
    assert report["epsilon"] == pytest.approx(0.125)
    assert report["contour_radius"] == pytest.approx(0.25)
    assert report["center_rank"] == 2
    assert report["alpha"] == pytest.approx(0.02, abs=1e-14)
    assert report["round_trip_error"] <= 1e-12
    kp = np.array(report["kernel_projector"]["re"]) + 1j * np.array(
        report["kernel_projector"]["im"]
    )
    np.testing.assert_allclose(kp, np.diag([0.0, 0.0, 1.0]), atol=1e-12)


def test_cli_chart_exit_codes(tmp_path, capsys):
    alg3 = full_algebra(3)
    center = tmp_path / "c.json"
    write_matrix(str(center), np.diag([0.5, 0.5, 0.0]).astype(complex), alg3)
    other = tmp_path / "other.json"
    write_matrix(
        str(other), np.diag([0.5, 0.25, 0.25]).astype(complex), AlgebraDescriptor((1, 2))
    )
    assert cli.main(["chart", str(center), str(other)]) == 1  # different algebras
    banded = tmp_path / "banded.json"
    write_matrix(str(banded), np.diag([0.4, 0.3, 0.3]).astype(complex), alg3)
    assert cli.main(["chart", str(center), str(banded)]) == 3  # eigenvalue in the band
    capsys.readouterr()


def test_cli_verify_exit_4_on_failed_suite(capsys, monkeypatch):
    monkeypatch.setitem(cli.SUITES, "always-fail", lambda **kw: {"passed": False})
    assert cli.main(["verify", "always-fail"]) == 4
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"] == {"passed": False}
    # a suite without a row takes the seed; its signature gives no default
    assert payload["config"] == {"seed": None, "out": None}


def test_cli_verify_join_small(capsys):
    assert cli.main(["verify", "join", "--samples", "20"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["passed"] is True
    assert payload["report"]["samples"] == 20
    assert payload["config"] == {"seed": 0, "samples": 20, "out": None}


def test_cli_verify_echoes_the_suites_own_defaults(capsys):
    # an option left unset is not passed; the echo shows the suite's default
    assert cli.main(["verify", "whitney"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"] == {"seed": 0, "trials": 10, "max_dim": 3, "out": None}
    assert (payload["report"]["trials"], payload["report"]["max_dim"]) == (10, 3)


def test_cli_demo_simplex_rows(capsys):
    assert cli.main(["demo", "simplex", "--resolution", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "p1,p2,p3,p4,rank_per_block,total_rank,stratum_dim"
    # compositions of 6 into 4 nonnegative parts
    assert len(lines) == 1 + 84
    first = lines[1].split(",")
    assert first[:4] == ["0.0", "0.0", "0.0", "1.0"]
    assert first[4] == "0;0;0;1"
    assert first[5:] == ["1", "0"]


def test_cli_demo_resolution_guard(capsys):
    assert cli.main(["demo", "bloch", "--resolution", "1"]) == 1
    capsys.readouterr()


def test_cli_subprocess_end_to_end(mm3_file):
    run = subprocess.run(
        [sys.executable, "-m", "stratumlab", "classify", mm3_file],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0
    assert json.loads(run.stdout)["total_rank"] == 3
    assert "# elapsed" in run.stderr


def test_cli_subprocess_demo_deterministic():
    cmd = [sys.executable, "-m", "stratumlab", "demo", "bloch", "--resolution", "5"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert len(first.stdout.decode().splitlines()) == 1 + 5**3


def test_cli_subprocess_env_passthrough(mm3_file):
    import os

    env = dict(os.environ, STRATUMLAB_TOL_RANK="1e-6")
    run = subprocess.run(
        [sys.executable, "-m", "stratumlab", "classify", mm3_file],
        capture_output=True,
        text=True,
        env=env,
    )
    assert run.returncode == 0
    assert json.loads(run.stdout)["config"]["tol_rank"] == 1e-6


def _single_error(err: str, code: int) -> dict:
    """stderr must hold exactly one canonical-JSON error, then the timing line."""
    text, elapsed = err.split("# elapsed")
    payload = json.loads(text)
    assert text == canonical_json(payload)
    assert set(payload) == {"error", "message", "exit_code"}
    assert payload["exit_code"] == code
    assert "\n" not in elapsed.rstrip("\n")
    return payload


@pytest.fixture(scope="module")
def chart_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("chart")
    alg = full_algebra(2)
    center, point, state = root / "c.json", root / "p.json", root / "s.json"
    write_matrix(str(center), np.diag([1.0, 0.0]).astype(complex), alg)
    write_matrix(str(point), np.diag([0.99, 0.01]).astype(complex), alg)
    write_matrix(str(state), np.diag([0.7, 0.3]).astype(complex), alg)
    return str(center), str(point), str(state)


BAD_OPTIONS = [
    # (command, option, value); every one used to crash, exit 2 or pass
    ("classify", "tol-rank", v) for v in ("0", "inf", "nan", "-1")
] + [
    ("classify", "cluster-tol", v) for v in ("nan", "inf", "-1", "0")
] + [
    ("chart", "epsilon", "nan"),
    ("projector-equiv", "nodes", "0"),
    ("whitney", "max-dim", "1"),
    ("join", "samples", "-3"),
    ("whitney", "trials", "0"),
    ("join", "seed", "-1"),
    ("demo", "resolution", "1"),
]


def _argv(command, chart_files):
    center, point, state = chart_files
    return {
        "classify": ["classify", state],
        "chart": ["chart", center, point],
        "demo": ["demo", "bloch"],
    }.get(command, ["verify", command])


@pytest.mark.parametrize("command,option,value", BAD_OPTIONS)
def test_cli_rejects_bad_numeric_options(command, option, value, chart_files, capsys, monkeypatch):
    argv = _argv(command, chart_files)
    assert cli.main(argv + [f"--{option}={value}"]) == 1
    err = _single_error(capsys.readouterr().err, 1)
    assert err["error"] == "SchemaError"
    assert f"--{option}" in err["message"]
    # the environment route is checked the same way
    monkeypatch.setenv("STRATUMLAB_" + option.upper().replace("-", "_"), value)
    assert cli.main(argv) == 1
    assert _single_error(capsys.readouterr().err, 1)["error"] == "SchemaError"


def test_cli_maps_refused_arguments_to_exit_1(chart_files, capsys):
    center, point, state = chart_files
    # a finite tolerance that declares every eigenvalue zero
    assert cli.main(["classify", state, "--tol-rank", "1e300"]) == 1
    assert _single_error(capsys.readouterr().err, 1)["error"] == "ValueError"
    # epsilon beyond the center's spectral gap
    assert cli.main(["chart", center, point, "--epsilon", "10"]) == 1
    assert _single_error(capsys.readouterr().err, 1)["error"] == "ValueError"
    # a tolerance that leaves the chart's center without a positive eigenvalue
    assert cli.main(["chart", center, point, "--tol-rank", "1e300"]) == 1
    assert _single_error(capsys.readouterr().err, 1)["error"] == "ValueError"


def test_cli_usage_errors_print_one_json_error(chart_files, capsys):
    usage_errors = [
        ("classify", ["--nodes", "abc"]),  # an option classify does not take
        ("classify", ["--no-such-option"]),
        ("classify", ["--samples", "abc"]),
        ("join", ["--samples", "abc"]),  # a value argparse cannot convert
        ("classify", ["--format", "xml"]),  # outside the option's choices
        ("chart", ["--nodes", "64"]),
        (None, []),  # no subcommand
        # a verify flag the chosen suite does not take
        ("join", ["--samples", "3", "--max-dim", "1"]),
        ("whitney", ["--samples", "3"]),
        # an option of another command
        ("join", ["--tol-rank", "5"]),
        ("chart", ["--cluster-tol", "1e-8"]),
        ("classify", ["--seed", "3"]),
    ]
    for command, tail in usage_errors:
        argv = [] if command is None else _argv(command, chart_files) + tail
        code, out, err = _run_cli(argv)
        assert code == 1, argv
        assert out == ""
        assert _single_error(err, 1)["error"] == "SchemaError"
    for suite, flag in (("join", "--max-dim"), ("whitney", "--samples")):
        code, out, err = _run_cli(["verify", suite, flag, "3"])
        assert code == 1
        assert flag in _single_error(err, 1)["message"]
    for argv in (["--help"], ["chart", "--help"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert "usage: stratumlab" in capsys.readouterr().out


def test_cli_ignores_the_environment_of_options_it_does_not_take(chart_files, monkeypatch):
    center, point, state = chart_files
    runs = (["classify", state], ["chart", center, point], ["demo", "bloch", "--resolution", "5"])
    plain = [_run_cli(argv) for argv in runs]
    monkeypatch.setenv("STRATUMLAB_NODES", "8")
    monkeypatch.setenv("STRATUMLAB_TRIALS", "0")
    for argv, (code, out, _) in zip(runs, plain):
        assert code == 0, argv
        got_code, got_out, _ = _run_cli(argv)
        assert (got_code, got_out) == (0, out), argv


def test_cli_checks_options_before_reading_files(chart_files, tmp_path, monkeypatch):
    # the center fails validation (exit 2) once read; the bad option must
    # stop the run first
    center = tmp_path / "trace.json"
    write_matrix(str(center), np.diag([0.7, 0.0]).astype(complex), full_algebra(2))
    argv = ["chart", str(center), chart_files[1]]
    code, out, err = _run_cli(argv + ["--epsilon", "nan"])
    assert (code, out) == (1, "")
    payload = _single_error(err, 1)
    assert payload["error"] == "SchemaError"
    assert "--epsilon" in payload["message"]
    monkeypatch.setenv("STRATUMLAB_EPSILON", "nan")
    code, _, err = _run_cli(argv)
    assert code == 1
    assert "STRATUMLAB_EPSILON" in _single_error(err, 1)["message"]


COMMAND_FLAGS = {
    ("classify",): {"tol-rank", "cluster-tol"},
    ("chart",): {"tol-rank", "epsilon"},
    ("verify", "whitney"): {"seed", "trials", "max-dim"},
    ("verify", "frontier"): {"seed", "samples"},
    ("verify", "join"): {"seed", "samples"},
    ("verify", "orbit-census"): {"seed", "samples", "cluster-tol"},
    ("verify", "projector-equiv"): {"seed", "samples", "nodes"},
    ("demo", "bloch"): {"tol-rank", "cluster-tol", "resolution"},
    ("demo", "cone"): {"tol-rank", "cluster-tol", "resolution"},
    ("demo", "simplex"): {"tol-rank", "resolution"},
}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS), ids="-".join)
def test_cli_help_lists_exactly_the_commands_flags(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--([a-z][a-z-]*)", capsys.readouterr().out))
    assert listed == COMMAND_FLAGS[command] | {"help", "out"}


def test_suites_refuse_vacuous_sizes():
    from stratumlab import verify

    for call in (
        lambda: verify.suite_whitney(max_dim=1),
        lambda: verify.suite_whitney(trials=0),
        lambda: verify.suite_frontier(samples=0),
        lambda: verify.suite_join(samples=-3),
        lambda: verify.suite_orbit_census(draws=0),
        lambda: verify.suite_projector_equiv(samples=0),
    ):
        with pytest.raises(ValueError, match="must be at least"):
            call()


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=5),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=4)
    ),
    max_leaves=12,
)


@st.composite
def mutated_payloads(draw):
    """A valid 3x3 state payload with one part broken or replaced."""
    payload = {
        "schema_version": "1",
        "alg": [1, 2],
        "re": [[0.5, 0.0, 0.0], [0.0, 0.25, 0.1], [0.0, 0.1, 0.25]],
        "im": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.2], [0.0, -0.2, 0.0]],
    }
    key = draw(st.sampled_from(sorted(payload)))
    how = draw(st.sampled_from(["drop", "replace", "entry", "scale"]))
    if how == "drop":
        del payload[key]
    elif how == "replace" or key in ("schema_version", "alg"):
        payload[key] = draw(JSON_VALUES)
    elif how == "entry":
        r, c = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        payload[key][r][c] = draw(st.one_of(JSON_SCALARS, st.floats(-2.0, 2.0)))
    else:
        factor = draw(st.floats(allow_nan=True, allow_infinity=True))
        payload[key] = [[factor * x for x in row] for row in payload[key]]
    return payload


def _is_valid_state(payload) -> bool:
    from stratumlab.errors import StratumLabError
    from stratumlab.states import validate_density

    try:
        validate_density(*parse_matrix_payload(payload))
    except (StratumLabError, ValueError):
        return False
    return True


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(mutated_payloads())
def test_fuzz_matrix_payloads_fail_closed(payload):
    # the parser either returns a matrix or raises SchemaError, nothing else
    try:
        parse_matrix_payload(payload)
    except SchemaError:
        pass
    assume(not _is_valid_state(payload))
    with tempfile.TemporaryDirectory() as root:
        path = f"{root}/state.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        code, out, err = _run_cli(["classify", path])
    assert code in (1, 2, 3)
    assert out == ""
    _single_error(err, code)


NUMERIC_OPTIONS = {
    # option: (strategy of values outside its domain, commands taking it)
    "tol-rank": (st.floats(max_value=0.0) | st.sampled_from([math.nan, math.inf]), ["classify"]),
    "cluster-tol": (st.floats(max_value=0.0) | st.sampled_from([math.nan, math.inf]),
                    ["classify", "demo"]),
    "epsilon": (st.floats(max_value=0.0) | st.sampled_from([math.nan, math.inf]), ["chart"]),
    "nodes": (st.integers(max_value=15), ["projector-equiv"]),
    "samples": (st.integers(max_value=0), ["join", "frontier", "orbit-census"]),
    "trials": (st.integers(max_value=0), ["whitney"]),
    "max-dim": (st.integers(max_value=1), ["whitney"]),
    "resolution": (st.integers(max_value=1), ["demo"]),
    "seed": (st.integers(max_value=-1), ["join", "frontier"]),
}


@st.composite
def bad_option_calls(draw):
    option = draw(st.sampled_from(sorted(NUMERIC_OPTIONS)))
    values, commands = NUMERIC_OPTIONS[option]
    return option, draw(values), draw(st.sampled_from(commands))


@settings(max_examples=120, deadline=None)
@given(bad_option_calls())
def test_fuzz_numeric_options_fail_closed(call):
    option, value, command = call
    with tempfile.TemporaryDirectory() as root:
        alg = full_algebra(2)
        center, point = f"{root}/c.json", f"{root}/p.json"
        write_matrix(center, np.diag([1.0, 0.0]).astype(complex), alg)
        write_matrix(point, np.diag([0.99, 0.01]).astype(complex), alg)
        argv = _argv(command, (center, point, point))
        code, out, err = _run_cli(argv + [f"--{option}={value!r}"])
    assert code in (1, 2, 3)
    assert out == ""
    _single_error(err, code)
