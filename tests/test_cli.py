"""Tests for the command-line interface."""

import pytest

from repro.cli import main

WAT = """
(module
  (func (export "fib") (param $n i32) (result i32)
    (if (result i32) (i32.lt_s (local.get $n) (i32.const 2))
      (then (local.get $n))
      (else (i32.add
        (call 0 (i32.sub (local.get $n) (i32.const 1)))
        (call 0 (i32.sub (local.get $n) (i32.const 2))))))))
"""

MINIC = "int twice(int x) { return 2 * x; }"


@pytest.fixture
def wat_file(tmp_path):
    path = tmp_path / "fib.wat"
    path.write_text(WAT)
    return str(path)


@pytest.fixture
def minic_file(tmp_path):
    path = tmp_path / "twice.mc"
    path.write_text(MINIC)
    return str(path)


def test_run_command(wat_file, capsys):
    assert main(["run", wat_file, "--invoke", "fib", "--args", "10"]) == 0
    out = capsys.readouterr().out
    assert "result: 55" in out
    assert "instructions executed:" in out


def test_run_with_top_instructions(wat_file, capsys):
    main(["run", wat_file, "--invoke", "fib", "--args", "8", "--top", "3"])
    out = capsys.readouterr().out
    assert "hottest instructions:" in out


def test_instrument_command_roundtrips(wat_file, tmp_path, capsys):
    out_path = tmp_path / "instrumented.wat"
    assert main(["instrument", wat_file, "-o", str(out_path)]) == 0
    from repro.wasm.interpreter import Instance
    from repro.wasm.validate import validate
    from repro.wasm.wat_parser import parse_wat

    module = parse_wat(out_path.read_text())
    validate(module)
    instance = Instance(module)
    assert instance.invoke("fib", 10) == 55
    assert instance.global_value("__acctee_counter") > 0


def test_instrument_to_stdout(wat_file, capsys):
    assert main(["instrument", wat_file, "--level", "naive"]) == 0
    out = capsys.readouterr().out
    assert "global.set" in out


def test_meter_command(wat_file, capsys):
    assert main(["meter", wat_file, "--invoke", "fib", "--args", "10"]) == 0
    out = capsys.readouterr().out
    assert "native" in out and "wasm-sgx-hw" in out


def test_run_minic_source(minic_file, capsys):
    assert main(["run", minic_file, "--invoke", "twice", "--args", "21"]) == 0
    assert "result: 42" in capsys.readouterr().out


def test_sandbox_command(minic_file, capsys):
    assert main(["sandbox", minic_file, "--invoke", "twice", "--args", "4"]) == 0
    out = capsys.readouterr().out
    assert "result: 8" in out
    assert "log verifies: True" in out
    assert "invoice:" in out


def test_float_args_parsed(tmp_path, capsys):
    path = tmp_path / "s.mc"
    path.write_text("double s(double x) { return sqrt(x); }")
    main(["run", str(path), "--invoke", "s", "--args", "6.25"])
    assert "result: 2.5" in capsys.readouterr().out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


TRAP_WAT = '(module (func (export "main") (result i32) unreachable))'


def test_run_trap_is_one_stderr_line(tmp_path, capsys):
    path = tmp_path / "trap.wat"
    path.write_text(TRAP_WAT)
    assert main(["run", str(path), "--invoke", "main"]) == 1
    err = capsys.readouterr().err
    assert err == "trap: unreachable executed\n"


def test_snapshot_trap_is_one_stderr_line(tmp_path, capsys):
    path = tmp_path / "trap.wat"
    path.write_text(TRAP_WAT)
    assert main([
        "snapshot", str(path), "--invoke", "main", "--at", "1000",
        "--out", str(tmp_path / "trap.snap"),
    ]) == 1
    assert capsys.readouterr().err == "trap: unreachable executed\n"
    assert not (tmp_path / "trap.snap").exists()


@pytest.mark.parametrize(
    "name, source, message",
    [
        ("missing.wat", None, "No such file or directory"),
        ("unparsable.wat", "(module (func", "unbalanced"),
        ("invalid.wat", '(module (func (export "m") (result i32) (i32.add)))',
         "stack underflow"),
        ("unlinked.wat",
         '(module (import "env" "f" (func)) (func (export "m") (result i32) i32.const 1))',
         "unresolved import env.f"),
        ("broken.mc", "int f( { return 1; }", "expected"),
    ],
)
def test_bad_module_is_one_error_line(tmp_path, capsys, name, source, message):
    path = tmp_path / name
    if source is not None:
        path.write_text(source)
    assert main(["run", str(path), "--invoke", "m"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_sandbox_export_and_verify_log(minic_file, tmp_path, capsys):
    log_path = tmp_path / "log.json"
    assert main([
        "sandbox", minic_file, "--invoke", "twice", "--args", "3",
        "--export-log", str(log_path),
    ]) == 0
    assert log_path.exists()
    assert main(["verify-log", str(log_path)]) == 0
    out = capsys.readouterr().out
    assert "log verifies: True" in out


def test_verify_log_detects_tampering(minic_file, tmp_path, capsys):
    import json

    log_path = tmp_path / "log.json"
    main([
        "sandbox", minic_file, "--invoke", "twice", "--args", "3",
        "--export-log", str(log_path),
    ])
    data = json.loads(log_path.read_text())
    data["entries"][0]["vector"]["weighted_instructions"] = 10**9
    log_path.write_text(json.dumps(data))
    assert main(["verify-log", str(log_path)]) == 1


def test_verify_log_json_output(minic_file, tmp_path, capsys):
    import json

    log_path = tmp_path / "log.json"
    main([
        "sandbox", minic_file, "--invoke", "twice", "--args", "3",
        "--export-log", str(log_path),
    ])
    capsys.readouterr()
    assert main(["verify-log", str(log_path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["entries"] == 1
    assert report["totals"]["weighted_instructions"] > 0

    data = json.loads(log_path.read_text())
    data["entries"][0]["vector"]["weighted_instructions"] = 10**9
    log_path.write_text(json.dumps(data))
    assert main(["verify-log", str(log_path), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False


def test_sandbox_reports_cache_stats(minic_file, capsys):
    assert main(["sandbox", minic_file, "--invoke", "twice", "--args", "4"]) == 0
    out = capsys.readouterr().out
    assert "instrumentation cache:" in out
    assert "1 misses" in out


def test_serve_command(capsys):
    assert main([
        "serve", "--workers", "2", "--pool", "thread",
        "--requests", "6", "--kernels", "trisolv,atax",
    ]) == 0
    out = capsys.readouterr().out
    assert "epoch verifies offline: True" in out
    assert "receipts" in out


def test_loadtest_command_writes_report(tmp_path, capsys):
    import json

    out_path = tmp_path / "bench.json"
    assert main([
        "loadtest", "--workers", "1,2", "--requests", "4", "--pool", "thread",
        "--backend", "wasm", "--kernels", "trisolv", "--out", str(out_path),
    ]) == 0
    report = json.loads(out_path.read_text())
    assert report["benchmark"] == "metering-gateway-loadtest"
    assert report["worker_counts"] == [1, 2]
    sweep = report["sweeps"]["wasm"]["sweep"]
    assert all(point["epoch_ok"] for point in sweep)
    assert all(
        point["quota_rejection"]["code"] == "instruction-budget-exhausted"
        for point in sweep
    )
    assert report["sweeps"]["wasm"]["serial_totals_match"] is True
