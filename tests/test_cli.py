import math
import subprocess
import sys
from pathlib import Path

import pytest

import boskit.cli as cli
from boskit.circuit import Circuit, GateSpec
from boskit.engine import prob_fn
from boskit.gates import GateType

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden"

HOM_EXACT = prob_fn(Circuit(2, (GateSpec(GateType.MIXER, (0, 1),
                                         (math.pi / 4, 0.0)),)), (1, 1))


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "boskit", *args],
                          capture_output=True, text=True, cwd=cwd)


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def test_check_ok():
    proc = run_cli("check", fixture("hom.bosc"), fixture("hom.bosin"))
    assert proc.returncode == 0
    assert proc.stdout == "OK\n"


def test_check_reports_duplicate_modes():
    proc = run_cli("check", fixture("dup_modes.bosc"), fixture("hom.bosin"))
    assert proc.returncode == 2
    assert "R2" in proc.stdout
    assert "gate 0" in proc.stdout


def test_check_malformed_document_is_a_parse_error():
    proc = run_cli("check", fixture("malformed.bosc"), fixture("hom.bosin"))
    assert proc.returncode == 1
    assert "error:" in proc.stderr


@pytest.mark.parametrize("deep", ["circuit", "input"])
def test_deeply_nested_document_is_a_parse_error(deep, tmp_path, capsys):
    nested = tmp_path / "deep.json"
    nested.write_text("[" * 200_000, encoding="utf-8")
    args = {"circuit": fixture("hom.bosc"), "input": fixture("hom.bosin"), deep: str(nested)}
    assert cli.main(["check", args["circuit"], args["input"]]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {deep} document is nested too deeply\n"


def test_missing_file_is_a_parse_error():
    proc = run_cli("check", fixture("nope.bosc"), fixture("hom.bosin"))
    assert proc.returncode == 1


def test_eval_missing_input_is_a_usage_error():
    proc = run_cli("eval", fixture("hom.bosc"))
    assert proc.returncode == 1
    assert "required: input" in proc.stderr
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--help"])
    assert exc.value.code == 0


def test_sample_non_integer_shots_is_a_usage_error():
    proc = run_cli("sample", fixture("hom.bosc"), fixture("hom.bosin"),
                   "--shots", "abc")
    assert proc.returncode == 1
    assert "invalid int value: 'abc'" in proc.stderr


@pytest.mark.parametrize("argv, checks", [
    (["check", fixture("hom.bosc"), fixture("hom.bosin")], 1),
    (["eval", fixture("hom.bosc"), fixture("hom.bosin")], 1),
    (["sample", fixture("hom.bosc"), fixture("hom.bosin"), "--shots", "5"], 1),
    # one check_static per training pair
    (["optimize", fixture("template.bosc"), fixture("classifier_pairs.json"),
      "--iters", "1"], 2),
])
def test_circuit_rules_run_once_per_use(check_calls, capsys, argv, checks):
    assert cli.main(argv) == 0
    assert len(check_calls) == checks


def test_eval_golden(tmp_path):
    out = tmp_path / "out.bospmf"
    proc = run_cli("eval", fixture("hom.bosc"), fixture("hom.bosin"),
                   "--out", str(out))
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "eval_stdout.txt").read_text()
    assert out.read_bytes() == (GOLDEN / "hom.bospmf").read_bytes()


def test_eval_identity_circuit(tmp_path):
    circuit = tmp_path / "id.bosc"
    circuit.write_text('{"modes": 2, "posn": [], "config": []}')
    proc = run_cli("eval", str(circuit), fixture("single.bosin"))
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "P[1,0] = 1"


def test_eval_threshold_can_empty_the_support():
    proc = run_cli("eval", fixture("hom.bosc"), fixture("hom.bosin"),
                   "--threshold", "0.6")
    assert proc.returncode == 0
    assert "retained mass = 0 over 0 states" in proc.stdout


def test_eval_rejects_threshold_outside_unit_interval():
    for threshold in ("1.5", "nan"):
        proc = run_cli("eval", fixture("hom.bosc"), fixture("hom.bosin"),
                       "--threshold", threshold)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: threshold must lie in [0, 1)")


def test_eval_semantic_violation_exits_2():
    proc = run_cli("eval", fixture("dup_modes.bosc"), fixture("hom.bosin"))
    assert proc.returncode == 2
    assert "R2" in proc.stderr


def test_eval_enumeration_cap_exits_3():
    proc = run_cli("eval", fixture("wide.bosc"), fixture("wide.bosin"))
    assert proc.returncode == 3
    assert "cap" in proc.stderr


def test_sample_golden_and_deterministic(tmp_path):
    out1 = tmp_path / "a.boshots"
    out2 = tmp_path / "b.boshots"
    for out in (out1, out2):
        proc = run_cli("sample", fixture("hom.bosc"), fixture("hom.bosin"),
                       "--shots", "20", "--seed", "7", "--out", str(out))
        assert proc.returncode == 0
        assert proc.stdout == ""
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() == (GOLDEN / "hom_seed7.boshots").read_bytes()


def test_lossy_goldens(tmp_path):
    # 3 modes, MG then MGL1 then MGL2: pins loss-mode compression and the
    # marginal fold byte for byte
    args = (fixture("lossy.bosc"), fixture("lossy.bosin"))
    pmf, shots = tmp_path / "lossy.bospmf", tmp_path / "lossy.boshots"
    assert cli.main(["eval", *args, "--out", str(pmf)]) == 0
    assert cli.main(["sample", *args, "--shots", "1000", "--seed", "7",
                     "--out", str(shots)]) == 0
    assert pmf.read_bytes() == (GOLDEN / "lossy.bospmf").read_bytes()
    assert shots.read_bytes() == (GOLDEN / "lossy_seed7.boshots").read_bytes()


@pytest.mark.parametrize("step", ["nan", "inf"])
def test_optimize_rejects_non_finite_step(step, capsys):
    code = cli.main(["optimize", fixture("template.bosc"),
                     fixture("transmit_pairs.json"), "--step", step])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: step_size must be finite and positive, got {step}\n"


def test_sample_without_out_prints_shots():
    proc = run_cli("sample", fixture("hom.bosc"), fixture("hom.bosin"),
                   "--shots", "5", "--seed", "7")
    assert proc.returncode == 0
    assert proc.stdout == "".join(
        line + "\n" for line in
        (GOLDEN / "hom_seed7.boshots").read_text().splitlines()[:5])


def test_sample_degenerate_pmf_gives_constant_shots(tmp_path):
    circuit = tmp_path / "id.bosc"
    circuit.write_text('{"modes": 2, "posn": [], "config": []}')
    proc = run_cli("sample", str(circuit), fixture("single.bosin"),
                   "--shots", "25", "--seed", "99")
    assert proc.returncode == 0
    assert proc.stdout == "1,0\n" * 25


def test_sample_large_run_tracks_exact_pmf(tmp_path):
    from boskit.engine import distance_tv
    out = tmp_path / "big.boshots"
    proc = run_cli("sample", fixture("hom.bosc"), fixture("hom.bosin"),
                   "--shots", "100000", "--seed", "42", "--out", str(out))
    assert proc.returncode == 0
    counts = {}
    for line in out.read_text().splitlines():
        state = tuple(int(x) for x in line.split(","))
        counts[state] = counts.get(state, 0) + 1
    empirical = {s: c / 100_000 for s, c in counts.items()}
    assert distance_tv(empirical, HOM_EXACT) < 0.02


def test_optimize_golden(tmp_path):
    learned = tmp_path / "learned.bosc"
    trace = tmp_path / "trace.csv"
    proc = run_cli("optimize", fixture("template.bosc"),
                   fixture("transmit_pairs.json"),
                   "--iters", "200", "--seed", "7",
                   "--out", str(learned), "--trace", str(trace))
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "optimize_stdout.txt").read_text()
    assert learned.read_bytes() == (GOLDEN / "learned.bosc").read_bytes()
    assert trace.read_bytes() == (GOLDEN / "trace.csv").read_bytes()


def test_optimize_classifier_runs(tmp_path):
    learned = tmp_path / "learned.bosc"
    proc = run_cli("optimize", fixture("template.bosc"),
                   fixture("classifier_pairs.json"),
                   "--iters", "300", "--seed", "11", "--out", str(learned))
    assert proc.returncode == 0
    loss = float(proc.stdout.split("=")[1].split("after")[0])
    assert loss < 0.02
    assert learned.exists()


def test_optimize_structure_runs(tmp_path):
    learned = tmp_path / "learned.bosc"
    proc = run_cli("optimize-structure", fixture("transmit_pairs.json"),
                   "--modes", "2", "--max-gates", "1", "--restarts", "4",
                   "--iters", "80", "--seed", "5", "--out", str(learned))
    assert proc.returncode == 0
    assert learned.exists()


@pytest.mark.parametrize("flag, code, line", [
    ("--modes", 2, "R1: input has 2 mode(s) but the circuit has 1"),
    ("--max-gates", 1, "error: n_gates_max must be a non-negative integer below 2**53"),
])
def test_optimize_structure_refuses_a_count_past_the_double_range(flag, code, line, capsys):
    counts = {"--modes": "2", "--max-gates": "1", flag: "1" + "0" * 400}
    argv = ["optimize-structure", fixture("transmit_pairs.json"), "--iters", "2"]
    for name, value in counts.items():
        argv += [name, value]
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(line) and err.count("\n") == 1
    assert "Traceback" not in err


def test_optimize_rejects_bad_pairs(tmp_path):
    pairs = tmp_path / "pairs.json"
    pairs.write_text('[{"input": [1, 0]}]')
    proc = run_cli("optimize", fixture("template.bosc"), str(pairs))
    assert proc.returncode == 1


def test_non_finite_loss_exits_4(monkeypatch, capsys):
    def explode(problem):
        raise cli.NonFiniteObjectiveError("objective evaluated to nan")

    monkeypatch.setattr(cli, "opt_config", explode)
    code = cli.main(["optimize", fixture("template.bosc"),
                     fixture("transmit_pairs.json")])
    assert code == 4
    assert "nan" in capsys.readouterr().err
