"""Command-line behaviour: subcommand output, exit codes, file side effects."""

import csv
import io
import json

import numpy as np
import pytest

import typeforge.cli as cli
from typeforge.bench import BenchCase, _reduce, read_stats_csv
from typeforge.guidelines import GuidelineCase, judge, read_verdicts_csv


def _write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def vector_spec(tmp_path):
    return _write_json(tmp_path, "vector.json", {
        "kind": "vector", "count": 2, "blocklen": 3, "stride": 5,
        "inner": {"kind": "base", "base": "int"},
    })


@pytest.fixture
def tiled_spec(tmp_path):
    return _write_json(tmp_path, "tiled.json",
                       {"id": "tiled", "n": 8, "A": 2, "variant": 1})


# --- inspection subcommands ---------------------------------------------


def test_flatten_tree_spec(vector_spec, capsys):
    assert cli.main(["flatten", "--spec", vector_spec]) == 0
    assert json.loads(capsys.readouterr().out) == [[0, 12], [20, 12]]


def test_flatten_layout_uses_natural_count(tiled_spec, capsys):
    assert cli.main(["flatten", "--spec", tiled_spec]) == 0
    segments = json.loads(capsys.readouterr().out)
    assert segments == [[0, 8], [16, 8], [32, 8], [48, 8]]


def test_flatten_count_override(vector_spec, capsys):
    assert cli.main(["flatten", "--spec", vector_spec, "--count", "2"]) == 0
    assert json.loads(capsys.readouterr().out) == [
        [0, 12], [20, 24], [52, 12],
    ]


def test_normalize_reports_the_rewrite(tmp_path, capsys):
    spec = _write_json(tmp_path, "vectile.json",
                       {"id": "vector_tiled", "n": 30, "A": 3, "variant": 1})
    assert cli.main(["normalize", "--spec", spec]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["changed"] is True
    assert "fuse-nested-vectors" in report["passes"]
    assert report["output"]["kind"] == "vector"
    assert report["output"]["count"] == 10
    assert report["output_cost"] < report["input_cost"]


def test_normalize_stable_description(vector_spec, capsys):
    assert cli.main(["normalize", "--spec", vector_spec]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["changed"] is False
    assert report["passes"] == []
    assert report["input_cost"] == report["output_cost"]


def test_equiv_accepts_matching_layouts(tmp_path, capsys):
    lhs = _write_json(tmp_path, "contig.json", {
        "kind": "contiguous", "count": 2,
        "inner": {"kind": "base", "base": "int"},
    })
    rhs = _write_json(tmp_path, "int.json", {"kind": "base", "base": "int"})
    code = cli.main(["equiv", "--lhs", lhs, "--rhs", rhs,
                     "--count", "1", "--count", "2"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "equivalent"


def test_equiv_rejects_gapped_vs_dense(vector_spec, tmp_path, capsys):
    rhs = _write_json(tmp_path, "dense.json", {
        "kind": "contiguous", "count": 6,
        "inner": {"kind": "base", "base": "int"},
    })
    code = cli.main(["equiv", "--lhs", vector_spec, "--rhs", rhs])
    assert code == 2
    assert capsys.readouterr().out.strip() == "not equivalent"


def test_pack_is_seed_deterministic(tiled_spec, capsys):
    assert cli.main(["pack", "--spec", tiled_spec, "--seed", "7"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert cli.main(["pack", "--spec", tiled_spec, "--seed", "7"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert first == second
    assert first["m_bytes"] == 32
    assert len(first["payload_hex"]) == 64
    assert cli.main(["pack", "--spec", tiled_spec, "--seed", "8"]) == 0
    assert json.loads(capsys.readouterr().out) != first


def test_pack_region_covers_payload_below_resized_lower_bound(tmp_path, capsys):
    # payload at [-4, 0) and [4, 8) per instance, bounds [0, 8): the region
    # window starts at byte -4 and spans 28 bytes for three instances
    spec = _write_json(tmp_path, "resized.json", {
        "kind": "resized", "lb": 0, "extent": 8,
        "inner": {"kind": "indexed", "blocks": [[1, -1], [1, 1]],
                  "inner": {"kind": "base", "base": "int"}},
    })
    assert cli.main(["pack", "--spec", spec, "--count", "3", "--seed", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    region = np.random.default_rng(5).bytes(28)
    expected = b"".join(region[i : i + 4] for i in (0, 8, 8, 16, 16, 24))
    assert out["m_bytes"] == 24
    assert out["payload_hex"] == expected.hex()


# --- failure modes ------------------------------------------------------


def test_missing_spec_file_fails(tmp_path, capsys):
    assert cli.main(["flatten", "--spec", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_json_fails(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["flatten", "--spec", str(bad)]) == 1


def test_spec_without_kind_or_id_fails(tmp_path, capsys):
    assert cli.main(["flatten", "--spec", _write_json(tmp_path, "x.json", {"a": 1})]) == 1


@pytest.mark.parametrize("field, value", [("B", "x"), ("S1", [2]), ("A1", "one")])
def test_layout_with_a_non_integer_parameter_fails(tmp_path, capsys, field, value):
    spec = _write_json(tmp_path, "explicit.json", {
        "id": "tiled", "n": 8, "A": 2, "variant": "explicit",
        "B": 9, "A1": 1, "A2": 3, "B1": 5, "B2": 6, field: value})
    assert cli.main(["flatten", "--spec", spec]) == 1
    assert capsys.readouterr().err.startswith("error: bad layout spec JSON:")


@pytest.mark.parametrize("command", ["flatten", "normalize", "pack"])
def test_tree_with_a_deep_negative_count_fails(tmp_path, capsys, command):
    spec = _write_json(tmp_path, "deep.json", {
        "kind": "contiguous", "count": 2, "inner": {
            "kind": "vector", "count": 3, "blocklen": 1, "stride": 2, "inner": {
                "kind": "contiguous", "count": -4,
                "inner": {"kind": "base", "base": "int"}}}})
    assert cli.main([command, "--spec", spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: contiguous count must be >= 0, got -4\n"


@pytest.mark.parametrize("command", ["flatten", "normalize", "pack"])
def test_tree_nested_too_deeply_fails(tmp_path, capsys, command):
    # 3000 levels of contiguous nodes, deeper than the JSON decoder recurses
    text = '{"kind":"contiguous","count":1,"inner":' * 3000 + \
        '{"kind":"base","base":"int"}' + "}" * 3000
    spec = tmp_path / "deep.json"
    spec.write_text(text)
    assert cli.main([command, "--spec", str(spec)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: description nested too deeply: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("exc, line", [
    (MemoryError("cannot allocate 745 GiB"), "error: out of memory cannot allocate 745 GiB"),
    (MemoryError(), "error: out of memory"),
])
def test_out_of_memory_is_an_execution_failure(tiled_spec, monkeypatch, capsys, exc, line):
    # raised, not provoked: whether a huge allocation fails at once depends
    # on the host's overcommit policy
    def exhausted(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_pack", exhausted)
    assert cli.main(["pack", "--spec", tiled_spec]) == 1
    assert capsys.readouterr().err == line + "\n"


def test_unknown_experiment_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--experiment", "mosaic"])
    assert exc.value.code == 2


def test_parallel_flag_is_rejected(tmp_path, capsys):
    code = cli.main(["run", "--experiment", "rowcol", "--parallel",
                     "--out", str(tmp_path)])
    assert code == 2
    assert "sequential" in capsys.readouterr().err


# --- experiment runs ----------------------------------------------------


def test_run_writes_bench_and_verdict_csvs(tmp_path, fake_clock, capsys):
    out = tmp_path / "results"
    code = cli.main([
        "run", "--experiment", "pack_unpack", "--A", "2", "--m", "160",
        "--r", "1", "--nrep", "2", "--out", str(out),
    ], clock=fake_clock)
    assert code == 0
    stats = read_stats_csv(str(out / "pack_unpack_bench.csv"))
    assert [row["case_id"] for row in stats] == [
        "pack_unpack/A2/m160/typed",
        "pack_unpack/A2/m160/packed",
    ]
    verdicts = read_verdicts_csv(str(out / "pack_unpack_verdicts.csv"))
    assert [row["guideline"] for row in verdicts] == ["G2_PACK_SEND", "G3_RECV_UNPACK"]
    assert all(row["violated"] == "false" for row in verdicts)
    assert not (out / "pack_unpack_raw.json").exists()


def test_run_raw_sidecar(tmp_path, fake_clock):
    out = tmp_path / "results"
    code = cli.main([
        "run", "--experiment", "basic_layouts", "--A", "2", "--m", "160",
        "--r", "2", "--nrep", "3", "--raw", "--out", str(out),
    ], clock=fake_clock)
    assert code == 0
    raw = json.loads((out / "basic_layouts_raw.json").read_text())
    assert len(raw) == 4
    assert raw[0]["case_id"] == "basic_layouts/v1/tiled/A2/m160"
    assert len(raw[0]["runs"]) == 2
    assert all(len(run) == 3 for run in raw[0]["runs"])


def test_n_counts_elements_and_m_counts_bytes(tmp_path, fake_clock):
    out = tmp_path / "results"
    common = ["--A", "2", "--r", "1", "--nrep", "1", "--out", str(out)]
    assert cli.main(["run", "--experiment", "contig", "--n", "160", *common],
                    clock=fake_clock) == 0
    contig = read_stats_csv(str(out / "contig_bench.csv"))
    assert contig[0]["case_id"] == "contig/tiled/A2/n160/typed-count"
    assert {row["m_bytes"] for row in contig} == {"640"}
    assert cli.main(["run", "--experiment", "rowcol", "--m", "40", *common],
                    clock=fake_clock) == 0
    rowcol = read_stats_csv(str(out / "rowcol_bench.csv"))
    assert rowcol[0]["case_id"] == "rowcol/A2/m40/rowcol_fully_indexed"
    assert {row["m_bytes"] for row in rowcol} == {"40"}  # 10 elements


def test_n_and_m_are_mutually_exclusive(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--experiment", "contig", "--n", "160", "--m", "640",
                  "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_env_var_overrides_out_flag(tmp_path, fake_clock, monkeypatch):
    decoy = tmp_path / "decoy"
    target = tmp_path / "target"
    monkeypatch.setenv("TYPEFORGE_OUT", str(target))
    code = cli.main([
        "run", "--experiment", "rowcol", "--A", "2", "--n", "6",
        "--r", "1", "--nrep", "1", "--out", str(decoy),
    ], clock=fake_clock)
    assert code == 0
    assert (target / "rowcol_bench.csv").exists()
    assert not decoy.exists()


def test_run_exit_code_on_violation(tmp_path, monkeypatch, capsys):
    lhs = BenchCase("slow/typed", None, 0, "raw", "compiled", "inmem", 8)
    rhs = BenchCase("slow/packed", None, 0, "raw", "compiled", "inmem", 8)
    verdict = judge(
        GuidelineCase("G2_PACK_SEND", "slow", "no_slower", lhs, rhs, 1.10),
        _reduce(lhs, 1, [(3.0,)]),
        _reduce(rhs, 1, [(1.0,)]),
    )
    assert verdict.violated

    class Canned:
        stats = [verdict.lhs_stats, verdict.rhs_stats]
        verdicts = [verdict]

    monkeypatch.setattr(cli, "run_experiment", lambda plan, clock=None: Canned())
    code = cli.main(["run", "--experiment", "pack_unpack", "--out", str(tmp_path)])
    assert code == 3
    assert "violation: G2_PACK_SEND" in capsys.readouterr().out
    rows = read_verdicts_csv(str(tmp_path / "pack_unpack_verdicts.csv"))
    assert rows[0]["violated"] == "true"


def test_unset_run_flags_leave_the_plan_defaults(tmp_path, monkeypatch):
    from typeforge.experiments import ExperimentResult, make_plan

    plans = []

    def record(plan, clock=None):
        plans.append(plan)
        return ExperimentResult(plan)

    monkeypatch.setattr(cli, "run_experiment", record)
    assert cli.main(["run", "--experiment", "contig", "--out", str(tmp_path)]) == 0
    assert plans == [make_plan("contig")]


@pytest.mark.parametrize("command", [
    ["flatten", "--spec", "x.json"],
    ["normalize", "--spec", "x.json"],
    ["equiv", "--lhs", "x.json", "--rhs", "y.json"],
    ["report", "x.csv"],
])
def test_only_pack_and_run_take_a_seed(command):
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--seed", "1"])
    assert exc.value.code == 2


# --- report -------------------------------------------------------------


def _report_lines(args, capsys):
    assert cli.main(["report", *args]) == 0
    return list(csv.DictReader(io.StringIO(capsys.readouterr().out)))


def test_report_ratios_against_group_reference(tmp_path, fake_clock, capsys):
    out = tmp_path / "results"
    cli.main([
        "run", "--experiment", "tiled_het", "--A", "1", "--m", "150",
        "--r", "1", "--nrep", "2", "--out", str(out),
    ], clock=fake_clock)
    capsys.readouterr()
    path = str(out / "tiled_het_bench.csv")
    rows = _report_lines([path], capsys)
    assert [r["case_id"] for r in rows] == [
        "tiled_het/contig_bytes/A1/m150",
        "tiled_het/tiled_het/A1/m150",
    ]
    assert rows[0]["ratio_vs_ref"] == "1.000000"
    assert rows[1]["ratio_vs_ref"] == "1.000000"
    again = _report_lines([path], capsys)
    assert again == rows


def test_report_groups_by_size_and_blocklen(tmp_path, capsys):
    def stat(case_id, a, m, mean):
        case = BenchCase(case_id, None, 0, "raw", "compiled", "inmem", m, A=a)
        return _reduce(case, 1, [(mean,)])

    from typeforge.bench import write_stats_csv

    path = tmp_path / "bench.csv"
    write_stats_csv(str(path), [
        stat("g2/ref", 2, 64, 0.002),
        stat("g2/alt", 2, 64, 0.003),
        stat("g1/ref", 1, 32, 0.004),
    ])
    rows = _report_lines([str(path)], capsys)
    assert [(r["case_id"], r["ratio_vs_ref"]) for r in rows] == [
        ("g1/ref", "1.000000"),
        ("g2/ref", "1.000000"),
        ("g2/alt", "1.500000"),
    ]
