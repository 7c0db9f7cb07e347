"""Command line: exit codes for bad input and for a time limit without a
design, and what reaches fd 1 and fd 2."""

import logging
import re

import pytest

from conftest import deep_path, triangle
from cprsnp import cli
from cprsnp.engine import FORMULATIONS, EngineOptions
from cprsnp.formulations import Design
from cprsnp.graph import (
    MAX_ARCS,
    MAX_CAPACITY,
    MAX_COST,
    MAX_VERTICES,
    Instance,
    augment,
)
from cprsnp.instances import generate, write_design, write_instance
from cprsnp.verify import SCENARIO_GUARD


@pytest.mark.parametrize(
    "arc", ["a 1 3 nan 1", "a 1 3 inf 1", "a 1 3 2 nan", "a 1 3 2 inf"]
)
def test_non_finite_number_exits_with_input_error(tmp_path, capsys, arc):
    text = write_instance(triangle())
    assert "a 1 3 2 1" in text
    path = tmp_path / "bad.txt"
    path.write_text(text.replace("a 1 3 2 1", arc), encoding="utf-8")
    assert cli.main(["solve", "--instance", str(path)]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not finite" in captured.err


@pytest.mark.parametrize("formulation", FORMULATIONS)
def test_solve_writes_only_the_report_to_stdout(tmp_path, capfd, formulation):
    # file-descriptor capture: native solver output would show up here too
    path = tmp_path / "small.txt"
    path.write_text(
        write_instance(generate(7, 2, 14, "random", seed=1, k=1, kp=1)),
        encoding="utf-8",
    )
    outs = []
    for _ in range(2):
        argv = ["solve", "--instance", str(path), "--formulation", formulation]
        assert cli.main(argv) == cli.EXIT_OK
        out, err = capfd.readouterr()
        assert re.fullmatch(r"time \d+\.\ds\n", err)
        lines = out.splitlines()
        status = [i for i, line in enumerate(lines) if line.startswith("status=")]
        assert len(status) == 1
        at = status[0]
        assert lines[at] == "status=Optimal cost=59 gap=0.0000"
        assert at >= 1
        for line in lines[:at]:
            assert re.fullmatch(
                rf"formulation={formulation} iter=\d+ master_obj=\S+ sep_value=\S+ "
                r"rows_added=\d+ cols_added=\d+",
                line,
            )
        design = lines[at + 1 :]
        assert design
        for line in design:
            assert re.fullmatch(r"[yp] \d+ \d+", line)
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("formulation", FORMULATIONS)
def test_zero_arc_instance_solves_from_its_file(tmp_path, capsys, formulation):
    # no terminals and no arcs: the empty design is optimal at cost 0
    path = tmp_path / "empty.txt"
    path.write_text(write_instance(Instance(2, (), 0, (), 0, 0)), encoding="utf-8")
    argv = ["solve", "--instance", str(path), "--formulation", formulation]
    assert cli.main(argv) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "status=Optimal cost=0 gap=0.0000"


def test_capacity_above_the_bound_exits_with_input_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text(
        write_instance(triangle()).replace("a 1 3 2 1", "a 1 3 2 1e30"),
        encoding="utf-8",
    )
    assert cli.main(["solve", "--instance", str(path)]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"line 5: capacity exceeds {MAX_CAPACITY}" in captured.err


@pytest.mark.parametrize("cost", ["1e21", str(MAX_COST + 1)])
def test_cost_above_the_bound_exits_with_input_error(tmp_path, capsys, cost):
    # HiGHS reads objective coefficients of 1e20 and above as infinite
    path = tmp_path / "bad.txt"
    path.write_text(
        write_instance(triangle()).replace("a 1 2 1 1", f"a 1 2 {cost} 1"),
        encoding="utf-8",
    )
    assert cli.main(["solve", "--instance", str(path)]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"line 4: cost exceeds {MAX_COST}" in captured.err


@pytest.mark.parametrize("formulation", FORMULATIONS)
def test_cost_at_the_bound_solves(tmp_path, capsys, formulation):
    # one failure without protection needs all three arcs
    path = tmp_path / "dear.txt"
    path.write_text(
        write_instance(triangle()).replace("a 1 2 1 1", f"a 1 2 {MAX_COST} 1"),
        encoding="utf-8",
    )
    argv = ["solve", "--instance", str(path), "--formulation", formulation]
    assert cli.main(argv) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "status=Optimal " in out
    assert out.endswith("y 1 2\ny 1 3\ny 2 3\n")


def test_cost_at_the_bound_prints_exactly(tmp_path, capsys, caplog):
    # MAX_COST + 2 + 1 needs ten digits; six significant ones rounded it
    path = tmp_path / "dear.txt"
    path.write_text(
        write_instance(triangle()).replace("a 1 2 1 1", f"a 1 2 {MAX_COST} 1"),
        encoding="utf-8",
    )
    caplog.set_level(logging.INFO, logger="cprsnp.engine")
    assert cli.main(["solve", "--instance", str(path)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "status=Optimal cost=2147483650 gap=0.0000\n" in out
    assert "cost=2147483650 gap=0.0000 iterations=" in caplog.text


@pytest.mark.parametrize("formulation", ["cutset", "bilevel"])
def test_cost_at_the_bound_logs_exactly(tmp_path, capsys, formulation):
    # the closing record's bound is the proven cost; :g printed 2.14748e+09
    path = tmp_path / "dear.txt"
    path.write_text(
        write_instance(triangle()).replace("a 1 2 1 1", f"a 1 2 {MAX_COST} 1"),
        encoding="utf-8",
    )
    argv = ["solve", "--instance", str(path), "--formulation", formulation]
    assert cli.main(argv) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("status=Optimal cost=2147483650 gap=0.0000")
    assert " master_obj=2147483650 sep_value=none " in lines[at - 1]


def test_gen_above_the_arc_bound_exits_with_input_error(capsys):
    # 65536 vertices have room for about 4.29e9 arcs; the arc bound stops
    # the generator before it draws anything
    argv = ["gen", "--nodes", "65536", "--terminals", "1",
            "--arcs", str(MAX_ARCS + 1)]
    assert cli.main(argv) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: arc count {MAX_ARCS + 1} exceeds {MAX_ARCS}\n"


def test_gen_above_the_vertex_bound_exits_with_input_error(capsys):
    argv = ["gen", "--nodes", str(MAX_VERTICES + 1), "--terminals", "1",
            "--arcs", str(MAX_VERTICES)]
    assert cli.main(argv) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: vertex count {MAX_VERTICES + 1} exceeds {MAX_VERTICES}\n"
    )


@pytest.mark.parametrize("capacity", ["-2", "3000000000"])
def test_gen_uniform_capacity_out_of_range_exits_with_input_error(
    capsys, capacity
):
    argv = ["gen", "--nodes", "3", "--terminals", "1", "--arcs", "3",
            "--uniform-capacity", capacity]
    assert cli.main(argv) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: uniform capacity {capacity} must be in 0..{MAX_CAPACITY}\n"
    )


@pytest.mark.parametrize(
    "text, needle",
    [
        # a 45-byte header that asked for 2e9 vertices
        (
            "p cprsnp 2000000000 1\nr 1\nt 2\na 1 2 1 1\nb 0 0\n",
            f"line 1: vertex count 2000000000 exceeds {MAX_VERTICES}",
        ),
        # inputs of the kind the parser fuzz tests draw
        (
            "p cprsnp 3 2\nr 1\nt 3\na 1 2 1 1\na 9" + "9" * 5000 + " 3 1 1\n",
            "line 5: vertex '999",
        ),
        ("\x0bp cprsnp 3 1_0\n\u2028r 1\n", "missing b line"),
    ],
)
def test_malformed_instance_exits_with_input_error(tmp_path, capsys, text, needle):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["solve", "--instance", str(path)]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert needle in captured.err


def test_verify_beyond_the_enumeration_guard_exits_with_input_error(
    tmp_path, capsys
):
    # every arc selected at k=5: C(90, 5) = 43,949,268 failure sets
    inst = generate(20, 5, 90, "uniform", seed=7, k=5, kp=0)
    aug = augment(inst)
    instance, design = tmp_path / "i.txt", tmp_path / "d.txt"
    instance.write_text(write_instance(inst), encoding="utf-8")
    design.write_text(
        write_design(Design.canonical(aug, aug.initial_arcs), aug), encoding="utf-8"
    )
    argv = ["verify", "--instance", str(instance), "--design", str(design)]
    assert cli.main(argv) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: 43949268 failure sets exceed the brute-force guard {SCENARIO_GUARD}\n"
    )


def test_verify_a_path_deeper_than_the_recursion_limit(tmp_path, capsys):
    inst = deep_path()
    aug = augment(inst)
    instance, design = tmp_path / "i.txt", tmp_path / "d.txt"
    instance.write_text(write_instance(inst), encoding="utf-8")
    design.write_text(
        write_design(Design.canonical(aug, aug.initial_arcs), aug), encoding="utf-8"
    )
    argv = ["verify", "--instance", str(instance), "--design", str(design)]
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out == "verified: design survives any 0 failures\n"


def test_time_limit_without_incumbent_exits_2_with_no_design(tmp_path, capsys):
    # at k=3 the probe takes the MIP route (C(90, 3) failure sets),
    # which a zero budget stops before any incumbent
    path = tmp_path / "i.txt"
    path.write_text(
        write_instance(generate(20, 5, 90, "uniform", seed=7, k=3, kp=0)),
        encoding="utf-8",
    )
    design = tmp_path / "design.txt"
    argv = ["solve", "--instance", str(path), "--time-limit", "0",
            "--design-out", str(design)]
    assert cli.main(argv) == cli.EXIT_TIME_LIMIT
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == "status=Feasible cost=none gap=none"
    assert re.fullmatch(r"time \d+\.\ds\n", captured.err)
    assert not design.exists()


@pytest.mark.parametrize("limit", ["nan", "-1", "-inf"])
@pytest.mark.parametrize("command", ["solve", "bench"])
def test_bad_time_limit_exits_with_input_error(tmp_path, capsys, command, limit):
    # every "elapsed > nan" is False, so a NaN limit would remove the limit
    path = tmp_path / "tri.txt"
    path.write_text(write_instance(triangle()), encoding="utf-8")
    target = ["--instance", str(path)] if command == "solve" else ["--dir", str(tmp_path)]
    argv = [command, *target, f"--time-limit={limit}"]
    assert cli.main(argv) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --time-limit: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_time_limit_default_is_the_engine_default(command):
    target = ["--instance", "x"] if command == "solve" else ["--dir", "x"]
    args = cli._build_parser().parse_args([command, *target])
    assert args.time_limit == EngineOptions().time_limit_s


def test_infinite_time_limit_means_no_limit(tmp_path, capsys):
    path = tmp_path / "tri.txt"
    path.write_text(write_instance(triangle()), encoding="utf-8")
    argv = ["solve", "--instance", str(path), "--time-limit", "inf"]
    assert cli.main(argv) == cli.EXIT_OK
    assert "status=Optimal cost=4 gap=0.0000" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("command", ["solve", "verify", "verify-instance", "bench"])
def test_non_utf8_file_exits_with_input_error(tmp_path, capsys, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"p cprsnp 3 2\n\xff\n")
    good = tmp_path / "good.txt"
    good.write_text(write_instance(triangle()), encoding="utf-8")
    argv = {
        "solve": ["solve", "--instance", str(bad)],
        "verify": ["verify", "--instance", str(good), "--design", str(bad)],
        "verify-instance": ["verify", "--instance", str(bad), "--design", str(good)],
        "bench": ["bench", "--dir", str(tmp_path)],
    }[command]
    assert cli.main(argv) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert str(bad) in captured.err
    assert str(good) not in captured.err


@pytest.mark.parametrize("flags", [["--kp-min", "1", "--kp-max", "1"], ["--kp-max", "1"]])
def test_bench_kp_flags_need_a_k_flag(tmp_path, capsys, flags):
    (tmp_path / "tri.txt").write_text(write_instance(triangle()), encoding="utf-8")
    assert cli.main(["bench", "--dir", str(tmp_path), *flags]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "flags, budgets",
    [
        (["--k-min", "1"], {("1", "0")}),
        (["--k-max", "1", "--kp-max", "1"], {("1", "1")}),
        (["--k-min", "1", "--kp-min", "0", "--kp-max", "1"], {("1", "0"), ("1", "1")}),
    ],
)
def test_bench_missing_kp_bound_takes_the_other(tmp_path, flags, budgets):
    instances = tmp_path / "instances"
    instances.mkdir()
    (instances / "tri.txt").write_text(write_instance(triangle()), encoding="utf-8")
    report = tmp_path / "report.csv"
    argv = ["bench", "--dir", str(instances), "--formulations", "cutset"]
    assert cli.main([*argv, *flags, "--out", str(report)]) == cli.EXIT_OK
    rows = report.read_text(encoding="utf-8").splitlines()[1:]
    assert {tuple(row.split(",")[1:3]) for row in rows} == budgets


@pytest.mark.parametrize(
    "names, message",
    [
        ("", "no formulation to run"),
        (",", "no formulation to run"),
        ("cutset,cutset", "formulation 'cutset' listed twice"),
        ("flow,bilevel,flow", "formulation 'flow' listed twice"),
    ],
)
def test_bench_rejects_an_empty_or_repeated_formulation_list(
    tmp_path, capsys, names, message
):
    (tmp_path / "tri.txt").write_text(write_instance(triangle()), encoding="utf-8")
    report = tmp_path / "report.csv"
    argv = ["bench", "--dir", str(tmp_path), "--formulations", names]
    assert cli.main([*argv, "--out", str(report)]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not report.exists()
