import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from quditgates import make_x, make_z, gate_power
from quditgates.cli import main
from quditgates.formats import matrix_from_json, matrix_to_json


@pytest.fixture()
def runner():
    return CliRunner()


def test_gates_x_json_matches_library(runner):
    result = runner.invoke(main, ["gates", "--dim", "4", "--gate", "X", "--power", "1",
                                  "--format", "json"])
    assert result.exit_code == 0
    assert np.array_equal(matrix_from_json(result.stdout), make_x(4))


def test_gates_z_squared(runner):
    result = runner.invoke(main, ["gates", "--dim", "4", "--gate", "Z", "--power", "2",
                                  "--format", "json"])
    assert result.exit_code == 0
    m = matrix_from_json(result.stdout)
    assert np.allclose(m, np.diag([1.0, -1.0, 1.0, -1.0]), atol=1e-12)


def test_gates_x_fourth_power_is_identity(runner):
    result = runner.invoke(main, ["gates", "--dim", "4", "--gate", "X", "--power", "4",
                                  "--format", "json"])
    assert result.exit_code == 0
    assert np.allclose(matrix_from_json(result.stdout), np.eye(4), atol=1e-12)


@pytest.mark.parametrize("gate, dim, power, want", [
    ("Z", 4, 10**18, np.eye(4)),
    ("X", 4, 10**18 + 1, make_x(4)),
    ("Y", 4, 10**18, np.eye(4)),
    ("Z", 3, -(10**18) + 2, make_z(3)),
])
def test_gates_huge_power_is_exact(runner, gate, dim, power, want):
    result = runner.invoke(main, ["gates", "--dim", str(dim), "--gate", gate,
                                  "--power", str(power), "--format", "json"])
    assert result.exit_code == 0
    assert np.array_equal(matrix_from_json(result.stdout), want)


def test_gates_text_output(runner):
    result = runner.invoke(main, ["gates", "--gate", "X"])
    assert result.exit_code == 0
    assert len(result.stdout.splitlines()) == 4


def test_gates_bad_flag_is_usage_error(runner):
    result = runner.invoke(main, ["gates", "--gate", "Q"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["gates", "--no-such-flag"])
    assert result.exit_code == 2


def test_synth_random_unitary_deterministic(runner):
    args = ["synth", "random-unitary", "--dim", "4", "--seed", "7"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.stdout == second.stdout
    other = runner.invoke(main, ["synth", "random-unitary", "--dim", "4", "--seed", "8"])
    assert other.stdout != first.stdout


def test_synth_decompose_identity(runner, tmp_path):
    path = tmp_path / "identity.json"
    path.write_text(matrix_to_json(np.eye(4)))
    result = runner.invoke(main, ["synth", "decompose", "--in", str(path)])
    assert result.exit_code == 0
    data = json.loads(result.stdout)
    assert data["h_re"][0][0] == pytest.approx(1.0)
    flat = np.array(data["h_re"]) + 1j * np.array(data["h_im"])
    flat[0, 0] = 0.0
    assert np.abs(flat).max() < 1e-12


def test_synth_round_trip_verify(runner, tmp_path):
    unitary = runner.invoke(main, ["synth", "random-unitary", "--seed", "5"])
    path = tmp_path / "u.json"
    path.write_text(unitary.stdout)
    coeffs = runner.invoke(main, ["synth", "decompose", "--in", str(path), "--verify"])
    assert coeffs.exit_code == 0
    cpath = tmp_path / "h.json"
    cpath.write_text(coeffs.stdout)
    rebuilt = runner.invoke(main, ["synth", "reconstruct", "--in", str(cpath), "--verify"])
    assert rebuilt.exit_code == 0
    assert np.allclose(
        matrix_from_json(rebuilt.stdout), matrix_from_json(unitary.stdout), atol=1e-10
    )


@pytest.mark.parametrize("args", [
    ["gates", "--gate", "X"],
    ["synth", "random-unitary"],
])
def test_dimension_too_large_to_allocate_exits_4(runner, args):
    # the dense 10^7 x 10^7 complex matrix (1.4 PiB) is refused at once
    result = runner.invoke(main, [*args, "--dim", "10000000"])
    assert result.exit_code == 4
    assert result.stderr.startswith("error: --dim 10000000:")


def test_too_large_dimension_fails_before_allocating_index_vectors():
    # a 10^7-entry index vector and its (l + a) % d temporaries take ~80 MB
    # when they come before the dense matrix that cannot be allocated
    code = (
        "import resource, sys\n"
        "from quditgates.cli import main\n"
        "try:\n"
        "    main(['gates', '--gate', 'X', '--dim', '10000000'])\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    code, max_rss_kib = proc.stdout.split()
    assert code == "4"
    assert int(max_rss_kib) < 80 * 1024


def test_synth_requires_input_file(runner):
    result = runner.invoke(main, ["synth", "decompose"])
    assert result.exit_code == 2


def test_synth_malformed_file_exits_3(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 4, "re": [[1]]}')
    result = runner.invoke(main, ["synth", "decompose", "--in", str(path)])
    assert result.exit_code == 3
    assert "im" in result.stderr or "re" in result.stderr


def test_synth_missing_file_exits_3(runner, tmp_path):
    result = runner.invoke(main, ["synth", "decompose", "--in", str(tmp_path / "no.json")])
    assert result.exit_code == 3


def test_synth_non_finite_matrix_exits_4(runner, tmp_path):
    path = tmp_path / "inf.json"
    path.write_text(
        '{"dim": 2, "re": [[Infinity, 0.0], [0.0, 0.0]],'
        ' "im": [[0.0, 0.0], [0.0, 0.0]]}'
    )
    result = runner.invoke(main, ["synth", "decompose", "--in", str(path)])
    assert result.exit_code == 4
    assert "non-finite" in result.stderr


def test_sim_ideal_x(runner):
    result = runner.invoke(main, ["sim", "--gate", "X", "--visibility", "1", "--shots", "0",
                                  "--format", "json"])
    assert result.exit_code == 0
    data = json.loads(result.stdout)
    assert data["oam_labels"] == [-2, -1, 0, 1]
    assert data["mean_efficiency"] == pytest.approx(1.0)
    assert data["superposition_visibility"] == pytest.approx(1.0)
    assert np.array_equal(np.array(data["probabilities"]), np.roll(np.eye(4), 1, axis=1))


def test_sim_x2_swaps_parities(runner):
    result = runner.invoke(main, ["sim", "--gate", "X2", "--visibility", "1",
                                  "--format", "json"])
    assert result.exit_code == 0
    probs = np.array(json.loads(result.stdout)["probabilities"])
    assert np.array_equal(probs, gate_power(np.roll(np.eye(4), 1, axis=1), 2))
    assert "superposition_visibility" not in json.loads(result.stdout)


def test_sim_sampled_counts_reproducible(runner):
    args = ["sim", "--gate", "X", "--visibility", "0.8", "--shots", "1000",
            "--seed", "7", "--format", "json"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.stdout == second.stdout
    counts = np.array(json.loads(first.stdout)["counts"])
    assert counts.sum() == 4000


def test_sim_csv_output(runner):
    result = runner.invoke(main, ["sim", "--gate", "X", "--format", "csv"])
    assert result.exit_code == 0
    assert result.stdout.splitlines()[0] == "input\\output,-2,-1,0,1"
    assert "mean efficiency" in result.stderr


def test_sim_text_heatmap_uses_oam_labels(runner):
    result = runner.invoke(main, ["sim", "--gate", "Xdg"])
    assert result.exit_code == 0
    assert "input\\output" in result.stdout
    assert "-2" in result.stdout
    assert "mean efficiency: 1.0000" in result.stdout


def test_sim_visibility_out_of_range_is_usage_error(runner):
    result = runner.invoke(main, ["sim", "--gate", "X", "--visibility", "1.5"])
    assert result.exit_code == 2


def test_out_file_writing(runner, tmp_path):
    target = tmp_path / "x.json"
    result = runner.invoke(main, ["gates", "--gate", "X", "--format", "json",
                                  "--out", str(target)])
    assert result.exit_code == 0
    assert np.array_equal(matrix_from_json(target.read_text()), make_x(4))
    assert make_z(4) is not None  # imported symbols exercised
