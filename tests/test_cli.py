import csv
import dataclasses
import io
import itertools
import json
import os
import types

import pytest

from cutplan.cli import _CI_PRESETS, _FULL_PRESETS, main
from cutplan.fixtures import chain3, ising_chain
from cutplan.qasm import CircuitIR, GateApp, parse_qasm_file, to_qasm

from conftest import best_feasible_log_overhead, max_log_overhead_oracle
from cutplan.clustering import run_pipeline
from cutplan.graph import build_cut_graph


@pytest.fixture
def circuits_dir(tmp_path):
    d = tmp_path / "circuits"
    d.mkdir()
    for width in (8, 12, 16):
        path = d / f"ising_n{width}.qasm"
        path.write_text(to_qasm(ising_chain(width, seed=width)))
    return d


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_partition_table(capsys, circuits_dir):
    path = str(circuits_dir / "ising_n12.qasm")
    code, out, err = run_cli(capsys, "partition", path, "--max-qubits", "6",
                             "--format", "table")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("step")]
    assert [l.split()[0] for l in lines] == ["step1", "step2"]
    assert "L_Q" in out and "L_D" in out and "R" in out and "time" in out


def test_partition_infeasible_cap(capsys, circuits_dir):
    path = str(circuits_dir / "ising_n8.qasm")
    code, out, err = run_cli(capsys, "partition", path, "--max-qubits", "0")
    assert code == 2
    assert "infeasible qubit cap" in err
    assert out == ""


def test_partition_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.qasm"
    bad.write_text("qreg q[2]; cx q[0] q[1];")
    code, out, err = run_cli(capsys, "partition", str(bad))
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("param", ["(" * 400 + "1" + ")" * 400, "-" * 2000 + "1"])
def test_partition_deeply_nested_parameter_fails_cleanly(capsys, tmp_path, param):
    bad = tmp_path / "nested.qasm"
    bad.write_text(f"OPENQASM 2.0;\nqreg q[2];\nrz({param}) q[0];\n")
    code, out, err = run_cli(capsys, "partition", str(bad))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "line 3: parameter expression nested" in err
    assert "Traceback" not in err


def test_partition_json_optimal_on_chain3(capsys, tmp_path):
    path = tmp_path / "chain3.qasm"
    path.write_text(to_qasm(chain3()))
    code, out, _ = run_cli(capsys, "partition", str(path), "--max-qubits", "2",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    optimum = best_feasible_log_overhead(build_cut_graph(chain3()), 2)
    assert payload["report"]["lq"] == pytest.approx(optimum)
    assert payload["report"]["r"] == 2
    assert {s["stage"] for s in payload["stages"]} == {"step1", "step2"}
    expected = run_pipeline(build_cut_graph(chain3()), 2).stages
    for stage, metrics in zip(payload["stages"], expected):
        assert stage["gain_evals"] == metrics.gain_evals > 0
        assert stage["lq_trace"] == list(metrics.lq_trace)
    step1, step2 = payload["stages"]
    assert step1["lq_trace"] == []  # stage 1 tracks modularity, not overhead
    assert step2["lq_trace"][-1] == pytest.approx(step2["lq"])


def test_partition_restarts_never_raise_lq(capsys, tmp_path):
    """On this chain a random-order stage-2 run finds a lower plan than the
    weighted one; the best of three is kept."""
    path = tmp_path / "c.qasm"
    path.write_text(to_qasm(ising_chain(20, seed=20)))
    lq = {}
    for flags in ((), ("--restarts", "3", "--seed", "1")):
        code, out, err = run_cli(capsys, "partition", str(path), "-D", "6", "--format", "json",
                                 *flags)
        assert code == 0, err
        lq[flags] = json.loads(out)["stages"][1]["lq"]
    assert lq["--restarts", "3", "--seed", "1"] <= lq[()]


def test_order_is_no_longer_a_flag_or_a_config_key(capsys, tmp_path):
    path = tmp_path / "c.qasm"
    path.write_text(to_qasm(chain3()))
    with pytest.raises(SystemExit) as exc:
        main(["partition", str(path), "--order", "random"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --order random" in capsys.readouterr().err
    config = tmp_path / "cfg.json"
    config.write_text('{"order": "random"}')
    code, out, err = run_cli(capsys, "partition", str(path), "--config", str(config))
    assert code == 1 and out == ""
    assert err == "error: bad config file: unknown key(s) order\n"


@pytest.mark.parametrize("circuit, cap, returned", [
    (chain3(), 2, "stages"),
    # cap 1 keeps the two wires apart: the two-stage plan cuts the five
    # gates and two wires (R 4, lq 12.25), the wire partition only the five
    # gates (ln 2 + 5 ln 9 = 11.68)
    (CircuitIR(2, tuple(GateApp("cx", (0, 1)) for _ in range(5))), 1, "wires"),
])
def test_partition_json_names_the_returned_candidate(capsys, tmp_path, circuit, cap, returned):
    path = tmp_path / "c.qasm"
    path.write_text(to_qasm(circuit))
    code, out, _ = run_cli(capsys, "partition", str(path), "-D", str(cap), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    step1, step2 = payload["stages"]
    assert "returned" not in step1 and "wire_lq" not in step1
    assert step2["returned"] == returned
    graph = build_cut_graph(circuit)
    wires = dict(enumerate(graph.mask))
    assert step2["wire_lq"] == pytest.approx(max_log_overhead_oracle(graph, wires), abs=1e-9)
    assert (step2["lq"] == step2["wire_lq"]) == (returned == "wires")
    assert payload["report"]["lq"] == step2["lq"]


@pytest.mark.parametrize("eps, message", [
    ("1e-160", "shot budget of partition 0"),   # the budget exceeds the largest float
    ("1e-200", "shot budget of partition 0"),   # eps ** 2 underflows to zero
    ("inf", "eps must be finite and positive"),
    ("nan", "eps must be finite and positive"),
])
def test_partition_extreme_eps_fails_cleanly(capsys, tmp_path, eps, message):
    path = tmp_path / "chain3.qasm"
    path.write_text(to_qasm(chain3()))
    code, out, err = run_cli(capsys, "partition", str(path), "-D", "2",
                             "--format", "json", "--eps", eps)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("fmt", ["table", "csv", "dot"])
def test_partition_formats_without_budgets_take_an_overflowing_eps(capsys, tmp_path, fmt):
    """Only the JSON output shows shot budgets, so no other format builds
    them, and a budget that overflows a float cannot fail it."""
    path = tmp_path / "chain3.qasm"
    path.write_text(to_qasm(chain3()))
    plain = run_cli(capsys, "partition", str(path), "-D", "2", "--format", fmt)
    code, out, err = run_cli(capsys, "partition", str(path), "-D", "2",
                             "--format", fmt, "--eps", "1e-200")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == len(plain[1].splitlines()) > 1
    assert out.splitlines()[0] == plain[1].splitlines()[0]
    if fmt == "dot":
        assert out == plain[1]


def test_bench_takes_an_overflowing_eps(capsys, circuits_dir):
    code, out, err = run_cli(capsys, "bench", str(circuits_dir), "-D", "2",
                             "--eps", "1e-200", "--jobs", "1")
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3 and all(row["error"] == "" and row["lq"] for row in rows)


def test_bench_rejects_a_bad_eps_before_any_file_runs(capsys, circuits_dir):
    code, out, err = run_cli(capsys, "bench", str(circuits_dir), "--eps", "nan")
    assert (code, out, err) == (1, "", "error: eps must be finite and positive, got nan\n")


def test_partition_eps_whose_square_overflows(capsys, tmp_path):
    """At eps = 1e200, ``eps ** 2`` overflows and every partition's budget
    is below one shot: the plan succeeds with one shot per partition."""
    path = tmp_path / "ising_n6.qasm"
    path.write_text(to_qasm(ising_chain(6, seed=6)))
    code, out, err = run_cli(capsys, "partition", str(path), "--max-qubits", "3",
                             "--format", "json", "--eps", "1e200")
    assert code == 0, err
    report = json.loads(out)["report"]
    assert report["eps"] == 1e200 and report["r"] >= 2
    assert report["n_c"] == [1] * report["r"] and report["n_total"] == report["r"]


def test_partition_overflowing_budget_fails_cleanly(capsys, tmp_path, monkeypatch):
    """The benchmark's seed-1 random-matching plan 7 (92 wires, 39 layers)
    at cap 16: 92 partitions with a worst log overhead of 802 nats, so the
    worst shot budget at eps 0.01, about 1e348, overflows a float."""
    monkeypatch.syspath_prepend(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from perfbench.gen import random_matching_qasm

    path = tmp_path / "wide.qasm"
    path.write_text(random_matching_qasm(92, 39, 1344573433))
    code, out, err = run_cli(capsys, "partition", str(path), "-D", "16",
                             "--format", "json", "--eps", "0.01")
    assert code == 1
    assert out == ""
    assert err.startswith("error: the shot budget of partition ")


def test_partition_json_stable_except_timing(capsys, tmp_path):
    path = tmp_path / "c.qasm"
    path.write_text(to_qasm(ising_chain(14, seed=3)))
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "partition", str(path), "-D", "6",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        for stage in payload["stages"]:
            stage.pop("wall_time_s")
        outputs.append(json.dumps(payload, sort_keys=True))
    assert outputs[0] == outputs[1]


def test_partition_dot(capsys, tmp_path):
    path = tmp_path / "chain3.qasm"
    path.write_text(to_qasm(chain3()))
    code, out, _ = run_cli(capsys, "partition", str(path), "-D", "2",
                           "--format", "dot")
    assert code == 0
    assert out.startswith("graph cutgraph {")
    assert "g0_0" in out and "cluster=" in out


def test_bench_csv(capsys, circuits_dir):
    code, out, _ = run_cli(capsys, "bench", str(circuits_dir), "-D", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,lq,n_space,n_time,l_tot,r,wall_time_s,error"
    assert len(lines) == 4
    names = [l.split(",")[0] for l in lines[1:]]
    assert names == sorted(names)
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[-1] == ""  # no errors
        assert float(fields[1]) > 0


def test_bench_isolates_bad_files(capsys, circuits_dir):
    (circuits_dir / "broken.qasm").write_text("qreg q[2]; nonsense q[0];")
    code, out, _ = run_cli(capsys, "bench", str(circuits_dir), "-D", "6")
    assert code == 0
    rows = {l.split(",")[0]: l for l in out.strip().splitlines()[1:]}
    assert rows["broken"].split(",")[1] == ""
    assert "nonsense" in rows["broken"]
    assert rows["ising_n8"].split(",")[1] != ""


def test_bench_empty_dir(capsys, tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    code, out, err = run_cli(capsys, "bench", str(empty))
    assert code == 1
    assert "no circuits found" in err


def test_bench_path_that_is_not_a_directory(capsys, tmp_path):
    path = tmp_path / "c.qasm"
    path.write_text(to_qasm(chain3()))
    code, out, err = run_cli(capsys, "bench", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: [Errno 20] Not a directory: ")
    code, out, err = run_cli(capsys, "bench", str(tmp_path / "missing"))
    assert (code, out) == (1, "")
    assert err.startswith("error: [Errno 2] No such file or directory: ")


def test_bench_infeasible_cap(capsys, circuits_dir):
    code, out, err = run_cli(capsys, "bench", str(circuits_dir), "-D", "0")
    assert (code, out, err) == (2, "", "error: infeasible qubit cap 0\n")


def test_bench_all_bad(capsys, tmp_path):
    d = tmp_path / "bad"
    d.mkdir()
    (d / "x.qasm").write_text("definitely not qasm ;;;")
    code, out, err = run_cli(capsys, "bench", str(d))
    assert code == 1


def test_verify_ci_scale(capsys):
    code, out, err = run_cli(capsys, "verify", "--repetitions", "4", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["presets"]) == 2
    for preset in payload["presets"]:
        assert preset["within_bound"]
        assert preset["std"] <= preset["eps"]
    assert "pass" in err
    walls = [line.rsplit("wall=", 1)[1] for line in err.splitlines()
             if line.startswith("preset")]
    assert len(walls) == 2 and all(w.endswith("s") and float(w[:-1]) >= 0 for w in walls)


def test_verify_json_has_exactly_the_preset_keys(capsys):
    """Each preset is its label plus the summary's JSON, no more and no fewer."""
    code, out, _ = run_cli(capsys, "verify", "--repetitions", "2", "--seed", "1")
    assert code == 0
    presets = json.loads(out)["presets"]
    assert [preset["label"] for preset in presets] == [1, 2]
    assert all(set(preset) == {"label", "partitions", "eps", "repetitions", "n_total", "std",
                               "mean_error", "within_bound", "errors", "exact_std_over_eps",
                               "exact_within_bound"} for preset in presets)


def test_verify_deterministic(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "verify", "--repetitions", "3", "--seed", "7")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_verify_errors_csv(capsys, tmp_path):
    target = tmp_path / "errors.csv"
    code, _, _ = run_cli(capsys, "verify", "--repetitions", "3", "--seed", "1",
                         "--errors-csv", str(target))
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "preset,repetition,error"
    assert len(lines) == 1 + 2 * 3


def test_partition_and_errors_csv_bytes(capsys, tmp_path, monkeypatch, circuits_dir):
    """Both CSV outputs, byte for byte: ``.6f`` weights, ``repr`` errors and
    newline line ends; the planner's clock is stopped so the times are 0."""
    import cutplan.clustering

    monkeypatch.setattr(cutplan.clustering, "time",
                        types.SimpleNamespace(perf_counter=lambda: 0.0))
    code, out, _ = run_cli(capsys, "partition", str(circuits_dir / "ising_n12.qasm"),
                           "--max-qubits", "6", "--format", "csv")
    assert code == 0
    assert out == ("stage,lq,ld,r,wall_time_s\n"
                   "step1,9.416378,5.545177,6,0.0000\n"
                   "step2,5.087596,4.394449,2,0.0000\n")
    target = tmp_path / "errors.csv"
    code, _, _ = run_cli(capsys, "verify", "--repetitions", "2", "--seed", "1",
                         "--errors-csv", str(target))
    assert code == 0
    assert target.read_bytes() == (b"preset,repetition,error\n"
                                   b"1,0,0.009052690340628538\n"
                                   b"1,1,-0.019305977245511922\n"
                                   b"2,0,0.013283631362363945\n"
                                   b"2,1,0.00668265436313141\n")


def test_verify_fails_when_the_exact_std_exceeds_eps(capsys, monkeypatch):
    """Each preset reports its largest exact std / eps, and an exact std
    above eps fails ``verify`` even when the observed one is within it."""
    import cutplan.cutsim.experiment as experiment

    code, out, _ = run_cli(capsys, "verify", "--repetitions", "2", "--seed", "1")
    assert code == 0
    for preset in json.loads(out)["presets"]:
        assert 0.0 < preset["exact_std_over_eps"] <= 1.0 and preset["exact_within_bound"]
    exact_moments = experiment.exact_moments
    monkeypatch.setattr(experiment, "exact_moments", lambda *args: dataclasses.replace(
        exact_moments(*args), variance=1.0))
    code, out, err = run_cli(capsys, "verify", "--repetitions", "2", "--seed", "1")
    assert code == 1
    for preset in json.loads(out)["presets"]:
        assert preset["within_bound"] and not preset["exact_within_bound"]
        assert preset["exact_std_over_eps"] == 1.0 / preset["eps"]
    assert "FAIL" in err and err.endswith("error: exact standard deviation exceeded eps\n")


def test_verify_fails_when_the_observed_std_exceeds_eps(capsys, monkeypatch):
    """Sampled errors spread wider than eps fail ``verify`` even when every
    exact std is within it."""
    import cutplan.cutsim.experiment as experiment

    cut_estimate, offsets = experiment.cut_estimate, itertools.cycle((1.0, -1.0))

    def spread_estimate(*args, **kwargs):
        run = cut_estimate(*args, **kwargs)
        return dataclasses.replace(run, estimate=run.estimate + next(offsets))

    monkeypatch.setattr(experiment, "cut_estimate", spread_estimate)
    code, out, err = run_cli(capsys, "verify", "--repetitions", "2", "--seed", "1")
    assert code == 1
    for preset in json.loads(out)["presets"]:
        assert preset["std"] > preset["eps"] and not preset["within_bound"]
        assert preset["exact_within_bound"]
    assert "FAIL" in err and err.endswith("error: observed standard deviation exceeded eps\n")


def test_verify_unwritable_errors_csv_fails_first(capsys, tmp_path, monkeypatch):
    import cutplan.cutsim

    def no_preset(config):
        raise AssertionError("a preset ran")

    monkeypatch.setattr(cutplan.cutsim, "variance_experiment", no_preset)
    target = tmp_path / "missing" / "errors.csv"
    code, out, err = run_cli(capsys, "verify", "--errors-csv", str(target))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "missing" in err


def test_fixtures_roundtrip(capsys, tmp_path):
    """Each file holds exactly ``to_qasm`` of its chain, at the default and
    at a given depth and seed, and parses back to the same columns."""
    for flags, depth, seed in (((), 1, 0), (("--depth", "2", "--seed", "5"), 2, 5)):
        out_dir = tmp_path / f"fx{depth}"
        code, out, _ = run_cli(capsys, "fixtures", "--out", str(out_dir),
                               "--widths", "8,10", *flags)
        assert code == 0
        written = sorted(os.listdir(out_dir))
        assert written == ["ising_n10.qasm", "ising_n8.qasm"]
        assert out.split() == [str(out_dir / "ising_n8.qasm"), str(out_dir / "ising_n10.qasm")]
        for width in (8, 10):
            path = out_dir / f"ising_n{width}.qasm"
            circuit = ising_chain(width, depth=depth, seed=seed)
            assert path.read_bytes() == to_qasm(circuit).encode()
            back = parse_qasm_file(str(path))
            assert back.name == circuit.name
            assert (back.num_qubits, back.kind, back.qubits, back.params) == (
                circuit.num_qubits, circuit.kind, circuit.qubits, circuit.params)


@pytest.mark.parametrize("widths, message", [
    ("4,1", "width must be >= 2, got 1"),
    ("4,x", "--widths must be comma-separated integers, got '4,x'"),
])
def test_fixtures_checks_every_width_before_writing(capsys, tmp_path, widths, message):
    """``4,1`` wrote ``ising_n4.qasm`` before failing on width 1, and ``4,x``
    failed with int()'s message, which names no flag."""
    out_dir = tmp_path / "fx"
    code, out, err = run_cli(capsys, "fixtures", "--out", str(out_dir), "--widths", widths)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not out_dir.exists()


def test_config_file_defaults(capsys, tmp_path, circuits_dir):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"max_qubits": 6, "format": "csv"}))
    path = str(circuits_dir / "ising_n12.qasm")
    code, out, _ = run_cli(capsys, "partition", path, "--config", str(config))
    assert code == 0
    assert out.splitlines()[0] == "stage,lq,ld,r,wall_time_s"
    # explicit flag beats the config value
    code, out2, _ = run_cli(capsys, "partition", path, "--config", str(config),
                            "--format", "table")
    assert "stage,lq" not in out2
    # ... in every spelling argparse accepts
    config.write_text(json.dumps({"max_qubits": 4, "format": "json"}))
    code, out, _ = run_cli(capsys, "partition", path, "--config", str(config))
    assert code == 0 and json.loads(out)["max_qubits"] == 4
    for flag in (["-D30"], ["-D", "30"], ["--max-qubits=30"], ["--max-qubits", "30"]):
        code, out, _ = run_cli(capsys, "partition", path, *flag, "--config", str(config))
        assert code == 0
        assert json.loads(out)["max_qubits"] == 30, flag


@pytest.mark.parametrize("content, command", [pytest.param(c, cmd, id=c) for c, cmd in [
    ('{"max_qubit": 4}', "partition"), ('{"config": "x.json"}', "partition"),
    ('[4]', "partition"), ('{"max_qubits": 4', "partition"),
    # a value must be one the flag itself takes
    ('{"max_qubits": 4.5}', "partition"), ('{"max_qubits": true}', "partition"),
    ('{"max_qubits": "x"}', "partition"), ('{"max_qubits": null}', "partition"),
    ('{"restarts": 2.5, "seed": 1}', "partition"), ('{"format": "xml"}', "partition"),
    ('{"eps": "small"}', "partition"), ('{"full": "no"}', "verify"), ('{"full": 1}', "verify"),
]])
def test_bad_config_file_fails_cleanly(capsys, tmp_path, circuits_dir, content, command):
    config = tmp_path / "cfg.json"
    config.write_text(content)
    target = [str(circuits_dir / "ising_n8.qasm")] if command == "partition" else []
    code, out, err = run_cli(capsys, command, *target, "--config", str(config))
    assert code == 1
    assert out == "" and err.startswith("error: bad config file: ")


def test_config_store_true_flag_takes_only_a_json_bool(capsys, tmp_path):
    """A JSON bool picks the presets as ``--full`` would; any other value is
    refused, with the flag and the value named."""
    config = tmp_path / "cfg.json"
    for full, presets in ((False, _CI_PRESETS), (True, _FULL_PRESETS)):
        config.write_text(json.dumps({"full": full}))
        code, out, err = run_cli(capsys, "verify", "--repetitions", "2", "--config", str(config))
        assert code == 0, err
        assert len(json.loads(out)["presets"]) == len(presets)
    for value in (1, "true"):
        config.write_text(json.dumps({"full": value}))
        code, out, err = run_cli(capsys, "verify", "--config", str(config))
        assert code == 1 and out == ""
        assert err == f"error: bad config file: --full does not take {json.dumps(value)}\n"


def test_config_values_in_every_form_the_flag_takes(capsys, tmp_path, circuits_dir):
    """Strings are parsed as on the command line, and JSON numbers of the
    flag's type (an int for a float flag too) become that type."""
    config = tmp_path / "cfg.json"
    path = str(circuits_dir / "ising_n8.qasm")
    for content in ('{"max_qubits": "4", "eps": "0.5", "format": "json"}',
                    '{"max_qubits": 4, "eps": 0.5, "format": "json"}',
                    '{"max_qubits": 4, "eps": 1, "format": "json", "restarts": 2}'):
        config.write_text(content)
        code, out, err = run_cli(capsys, "partition", path, "--config", str(config))
        assert code == 0, err
        payload = json.loads(out)
        assert payload["max_qubits"] == 4 and type(payload["max_qubits"]) is int
        assert type(payload["report"]["eps"]) is float


def test_bad_knob_values_fail_cleanly(capsys, tmp_path):
    path = tmp_path / "c.qasm"
    path.write_text(to_qasm(ising_chain(8, seed=1)))
    code, _, err = run_cli(capsys, "partition", str(path), "--seed", "1", "--restarts", "0")
    assert code == 1 and "restarts" in err
    for reps in ("0", "1"):
        code, _, err = run_cli(capsys, "verify", "--repetitions", reps)
        assert code == 1 and "repetition" in err
    code, _, err = run_cli(capsys, "fixtures", "--out", str(tmp_path / "fx"),
                           "--widths", "1")
    assert code == 1
    for depth in ("0", "-1"):
        code, out, err = run_cli(capsys, "fixtures", "--out", str(tmp_path / "fx"),
                                 "--depth", depth)
        assert code == 1 and out == ""
        assert err == f"error: depth must be >= 1, got {depth}\n"
    for command in (("fixtures", "--out", str(tmp_path / "fx")), ("verify",)):
        code, out, err = run_cli(capsys, *command, "--seed", "-1")
        assert code == 1 and out == ""
        assert err == "error: --seed must not be negative, got -1\n"
    for jobs in ("0", "-1"):
        code, out, err = run_cli(capsys, "bench", str(tmp_path), "--jobs", jobs)
        assert code == 1 and out == ""
        assert err == f"error: --jobs must be at least 1, got {jobs}\n"


def test_bench_csv_names_and_errors_with_commas(capsys, tmp_path):
    """Fields holding commas are quoted: every row keeps 8 fields, names
    round-trip, and a directory of failing files still exits 1."""
    d = tmp_path / "commas"
    d.mkdir()
    (d / "a,b.qasm").write_text(to_qasm(chain3()))
    (d / "bad,x.qasm").write_text("qreg q[2];\ngate g(t, t) a { }\n")
    code, out, _ = run_cli(capsys, "bench", str(d), "-D", "2", "--jobs", "1")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "lq", "n_space", "n_time", "l_tot", "r", "wall_time_s", "error"]
    assert all(len(row) == 8 for row in rows)
    assert [row[0] for row in rows[1:]] == ["a,b", "bad,x"]
    assert rows[1][1] != "" and rows[1][7] == ""
    assert rows[2][1:7] == [""] * 6
    assert rows[2][7].startswith("line 2: gate definition names must be distinct identifiers "
                                 "separated by ','")
    (d / "a,b.qasm").unlink()
    code, out, err = run_cli(capsys, "bench", str(d), "--jobs", "1")
    assert code == 1
    assert err == "error: no circuit processed successfully\n"
