"""Timing harness: schedules, reduction, determinism and output files."""

import json
import multiprocessing
import sys
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import typeforge.bench as bench
import typeforge.typecore as typecore
from conftest import FakeClock
from treegen import datatypes
from typeforge.bench import (
    BenchCase,
    RunStats,
    echo_session,
    nrep_schedule,
    read_stats_csv,
    run_case,
    run_pair,
    write_raw_json,
    write_stats_csv,
)
from typeforge.experiments import make_plan, run_experiment
from typeforge.transport import PeerClosed
from typeforge.typecore import (
    Base,
    BaseKind,
    Contiguous,
    Indexed,
    Resized,
    Vector,
    commit,
)

INT = Base(BaseKind.INT)


def _case(case_id="c", variant="raw", m_bytes=64, datatype=None, count=0, **kw):
    defaults = dict(engine="compiled", transport="inmem", A=None, spec_json="")
    defaults.update(kw)
    return BenchCase(case_id, datatype, count, variant, "compiled",
                     defaults["transport"], m_bytes, defaults["A"], defaults["spec_json"])


# --- repetition schedule ------------------------------------------------


@pytest.mark.parametrize(
    "m_bytes,expected",
    [
        (1, 100),
        (3200, 100),
        (32_000, 100),
        (32_001, 50),
        (320_000, 50),
        (320_001, 20),
        (2_560_000, 20),
    ],
)
def test_nrep_schedule_boundaries(m_bytes, expected):
    assert nrep_schedule(m_bytes) == expected


# --- reduction ----------------------------------------------------------


def test_median_ignores_outlier_repetition():
    stats = bench._reduce(_case(), 3, [(1.0, 2.0, 100.0)])
    assert stats.run_medians == (2.0,)
    assert stats.mean_s == stats.min_s == stats.max_s == 2.0


def test_mean_min_max_over_run_medians():
    stats = bench._reduce(_case(), 1, [(2.0,), (4.0,)])
    assert stats.run_medians == (2.0, 4.0)
    assert (stats.mean_s, stats.min_s, stats.max_s) == (3.0, 2.0, 4.0)


@given(
    st.lists(
        st.lists(st.floats(1e-9, 1.0, allow_nan=False), min_size=1, max_size=15),
        min_size=1,
        max_size=7,
    )
)
def test_reduction_matches_numpy(per_run):
    stats = bench._reduce(_case(), len(per_run[0]), [tuple(s) for s in per_run])
    medians = [float(np.median(s)) for s in per_run]
    assert stats.run_medians == pytest.approx(medians, rel=1e-12)
    assert stats.mean_s == pytest.approx(float(np.mean(medians)), rel=1e-12)
    assert stats.min_s == pytest.approx(min(medians), rel=1e-12)
    assert stats.max_s == pytest.approx(max(medians), rel=1e-12)


# --- measuring cases ----------------------------------------------------


def test_run_case_shapes_and_consistency(fake_clock):
    case = _case(variant="typed", datatype=Vector(4, 2, 4, INT), count=3, m_bytes=96)
    stats = run_case(case, r=4, nrep=6, clock=fake_clock)
    assert stats.r == 4 and stats.nrep == 6
    assert len(stats.raw_samples) == 4
    assert all(len(run) == 6 for run in stats.raw_samples)
    assert len(stats.run_medians) == 4
    assert stats.min_s <= stats.mean_s <= stats.max_s


def test_constant_clock_collapses_the_spread(fake_clock):
    stats = run_case(_case(m_bytes=128), r=3, nrep=5, clock=fake_clock)
    assert stats.mean_s == stats.min_s == stats.max_s == fake_clock.step
    assert all(s == fake_clock.step for run in stats.raw_samples for s in run)


def test_fake_clock_runs_are_reproducible():
    case = _case(variant="typed", datatype=Contiguous(32, INT), count=2, m_bytes=256)
    first = run_case(case, r=3, nrep=4, clock=FakeClock())
    second = run_case(case, r=3, nrep=4, clock=FakeClock())
    assert first == second


def test_nrep_defaults_follow_message_size(fake_clock):
    small = run_case(_case(m_bytes=1000), r=1, clock=fake_clock)
    assert small.nrep == 100
    big = run_case(_case(m_bytes=400_000), r=1, clock=fake_clock)
    assert big.nrep == 20


def test_negative_offset_layouts_are_measurable(fake_clock):
    case = _case(variant="typed", datatype=Vector(2, 1, -2, INT), count=1, m_bytes=8)
    stats = run_case(case, r=1, nrep=2, clock=fake_clock)
    assert stats.nrep == 2


def test_run_pair_interleaves_single_repetitions(monkeypatch, fake_clock):
    import threading

    order = []
    real = bench._one_rep

    def spy(ep, case, region, eng, clock):
        if threading.current_thread() is threading.main_thread():
            order.append(case.case_id)
        return real(ep, case, region, eng, clock)

    monkeypatch.setattr(bench, "_one_rep", spy)
    a, b = _case("a"), _case("b")
    run_pair(a, b, r=2, nrep=2, warmups=1, clock=fake_clock)
    # each run: 1 warmup + 2 timed reps per case, strictly alternating
    assert order == ["a", "b"] * 6


def test_run_pair_matches_run_case_reduction(fake_clock):
    a, b = _case("a"), _case("b")
    pa, pb = run_pair(a, b, r=2, nrep=3, clock=FakeClock())
    sa = run_case(a, r=2, nrep=3, clock=FakeClock())
    assert pa.run_medians == sa.run_medians
    assert pa.mean_s == sa.mean_s == pb.mean_s


def test_run_pair_keeps_per_case_schedules(fake_clock):
    sa, sb = run_pair(
        _case("small", m_bytes=1000),
        _case("big", m_bytes=321_000),
        r=1,
        clock=fake_clock,
    )
    assert (sa.nrep, sb.nrep) == (100, 20)
    forced_a, forced_b = run_pair(
        _case("small", m_bytes=1000),
        _case("big", m_bytes=321_000),
        r=1,
        nrep=4,
        clock=fake_clock,
    )
    assert (forced_a.nrep, forced_b.nrep) == (4, 4)


def test_tcp_with_injected_clock_stays_in_process(fake_clock):
    case = _case(transport="tcp", m_bytes=64)
    stats = run_case(case, r=1, nrep=2, clock=fake_clock)
    assert stats.mean_s == fake_clock.step


def test_tcp_with_real_clock_uses_an_echo_process():
    case = _case(transport="tcp", m_bytes=64)
    stats = run_case(case, r=1, nrep=2)
    assert stats.mean_s > 0.0


def test_case_validation():
    with pytest.raises(ValueError):
        BenchCase("x", None, 0, "streamed", "compiled", "inmem", 8)
    with pytest.raises(ValueError):
        BenchCase("x", None, 0, "typed", "compiled", "inmem", 8)
    BenchCase("x", None, 0, "raw", "compiled", "inmem", 8)


# --- output files -------------------------------------------------------


def _stats_fixture() -> list[RunStats]:
    return [
        bench._reduce(
            _case("alpha", m_bytes=3200, A=10, spec_json='{"id":"tiled"}'),
            2,
            [(0.001, 0.003), (0.002, 0.002)],
        ),
        bench._reduce(_case("beta", m_bytes=64), 1, [(0.5,)]),
    ]


def test_stats_csv_format(tmp_path):
    path = tmp_path / "bench.csv"
    write_stats_csv(str(path), _stats_fixture())
    text = path.read_text().splitlines()
    assert text[0] == "case_id,spec_json,variant,engine,transport,m_bytes,A,r,nrep,mean_s,min_s,max_s"
    rows = read_stats_csv(str(path))
    assert rows[0]["case_id"] == "alpha"
    assert rows[0]["spec_json"] == '{"id":"tiled"}'
    assert rows[0]["A"] == "10"
    assert rows[0]["mean_s"] == "0.002000000"
    assert rows[1]["A"] == ""
    assert rows[1]["max_s"] == "0.500000000"


def test_raw_json_sidecar(tmp_path):
    path = tmp_path / "raw.json"
    write_raw_json(str(path), _stats_fixture())
    payload = json.loads(path.read_text())
    assert [entry["case_id"] for entry in payload] == ["alpha", "beta"]
    assert payload[0]["r"] == 2
    assert payload[0]["nrep"] == 2
    assert payload[0]["runs"] == [[0.001, 0.003], [0.002, 0.002]]

def test_stats_csv_survives_very_large_spec_fields(tmp_path):
    blocks = ", ".join("[1, %d]" % (3 * i) for i in range(20_000))
    huge = '{"kind": "indexed", "blocks": [%s]}' % blocks
    assert len(huge) > 131_072
    stats = bench._reduce(_case("wide", spec_json=huge), 1, [(0.001,)])
    path = tmp_path / "wide.csv"
    write_stats_csv(str(path), [stats])
    rows = read_stats_csv(str(path))
    assert rows[0]["spec_json"] == huge


# --- one scheduler --------------------------------------------------------


def test_region_covers_payload_below_resized_lower_bound(fake_clock):
    t = Resized(0, 8, Indexed(((1, -1), (1, 1)), INT))
    for variant in ("typed", "packed"):
        case = _case(variant=variant, datatype=t, count=3, m_bytes=24)
        assert run_case(case, r=1, nrep=2, clock=fake_clock).nrep == 2


@given(datatypes(), st.integers(0, 3), st.sampled_from(("typed", "packed")),
       st.sampled_from(("compiled", "interpreted")))
def test_random_trees_are_measurable(t, count, variant, engine):
    ct = commit(t)
    case = BenchCase("tree", ct, count, variant, engine, "inmem", ct.size * count)
    stats = run_case(case, r=1, nrep=1, clock=FakeClock())
    assert len(stats.raw_samples[0]) == 1


def test_echo_failure_is_raised_to_the_caller(monkeypatch, fake_clock):
    import threading

    class EchoBroke(RuntimeError):
        pass

    real = bench._one_rep

    def failing(ep, case, region, eng, clock):
        if threading.current_thread() is not threading.main_thread():
            raise EchoBroke("echo side failed")
        return real(ep, case, region, eng, clock)

    monkeypatch.setattr(bench, "_one_rep", failing)
    with pytest.raises(EchoBroke):
        run_case(_case(), r=2, nrep=2, clock=fake_clock)


def _exit_before_connecting(*args):
    sys.exit(3)


def test_echo_process_that_dies_before_connecting_is_reported_at_once(monkeypatch):
    monkeypatch.setattr(bench, "_echo_process_main", _exit_before_connecting)
    started = time.monotonic()
    with pytest.raises(PeerClosed, match="exited with code 3"):
        run_case(_case(transport="tcp", m_bytes=64), r=1, nrep=2)
    assert time.monotonic() - started < 5.0


def _echo_with_broken_prepare(port, jobs):
    """Echo process body whose echo side cannot prepare its cases."""

    def broken(*args):
        raise RuntimeError("no region for this case")

    bench._prepare = broken
    bench._echo_process_main(port, jobs)


def test_echo_process_reports_its_cause(monkeypatch):
    monkeypatch.setattr(bench, "_echo_process_main", _echo_with_broken_prepare)
    started = time.monotonic()
    with pytest.raises(PeerClosed, match="exited with code 1: "
                                         "RuntimeError: no region for this case"):
        run_case(_case(transport="tcp", m_bytes=64), r=1, nrep=2)
    assert time.monotonic() - started < 5.0
    assert multiprocessing.active_children() == []


def test_committed_cases_are_not_committed_again(monkeypatch, fake_clock):
    a = commit(Vector(4, 2, 4, INT))
    b = commit(Contiguous(32, INT))
    calls = []
    real = typecore._layout

    def counting(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(typecore, "_layout", counting)
    run_pair(
        _case("a", variant="typed", datatype=a, count=4, m_bytes=a.size * 4),
        _case("b", variant="packed", datatype=b, count=1, m_bytes=b.size),
        r=2, nrep=2, clock=fake_clock,
    )
    assert calls == []


def _regions(cases) -> list:
    """One party's region of each case (each party prepares its own)."""
    return [region for _, region, _ in bench._prepare([cases], 1)[0]]


def _typed(case_id, built_or_ct, count, variant="typed"):
    ct = getattr(built_or_ct, "committed", built_or_ct)
    return _case(case_id, variant=variant, datatype=ct, count=count,
                 m_bytes=ct.size * count)


def test_pairs_with_one_window_share_one_region(fake_clock):
    from typeforge.layouts import LayoutSpec, build, build_alternatives

    tiled = build(LayoutSpec(id="tiled", n=400, A=2))
    wrapper = commit(Contiguous(tiled.count, tiled.datatype))
    rowcol = build_alternatives(LayoutSpec(id="rowcol_fully_indexed", n=100, A=10))
    pairs = {
        "G1": [_typed("count", tiled, tiled.count), _typed("wrapper", wrapper, 1)],
        "G2": [_typed("typed", tiled, tiled.count),
               _typed("packed", tiled, tiled.count, variant="packed")],
        "G4_ALT": [_typed(m.spec.id, m, m.count) for m in rowcol],
    }
    for name, cases in pairs.items():
        regions = _regions(cases)
        assert all(r is regions[0] for r in regions), name
        stats = run_pair(cases[0], cases[1], r=1, nrep=2, clock=fake_clock)
        assert [s.nrep for s in stats] == [2, 2]


def test_cases_with_different_windows_get_regions_of_their_own():
    from typeforge.layouts import LayoutSpec, build_alternatives

    block, indexed = build_alternatives(LayoutSpec(id="block_indexed", n=400, A=2))
    assert (typecore.window(block.committed, block.count)
            != typecore.window(indexed.committed, indexed.count))
    raw = _case("raw", m_bytes=block.committed.size * block.count)
    cases = [_typed("block", block, block.count), _typed("indexed", indexed, indexed.count), raw]
    assert len({id(r) for r in _regions(cases)}) == 3


def test_seeded_bytes_are_a_pure_function_of_seed_and_length():
    for n in (0, 1, 13, 64, 1001):
        drawn = bench._seeded_bytes(3, n)
        assert drawn.dtype == np.uint8 and len(drawn) == n
        assert drawn.tobytes() == bench._seeded_bytes(3, n).tobytes()
    assert bench._seeded_bytes(3, 1001).tobytes() != bench._seeded_bytes(4, 1001).tobytes()


@pytest.mark.parametrize("transport", ["inmem", "tcp"])
def test_echo_party_draws_no_bytes(monkeypatch, fake_clock, transport):
    v = commit(Vector(4, 2, 4, INT))
    cases = (_case("raw", transport=transport, m_bytes=64),
             _case("typed", variant="typed", datatype=v, count=2, m_bytes=v.size * 2,
                   transport=transport))
    real = bench._seeded_bytes

    def refuse(seed, n):
        raise AssertionError("the echo party drew bytes")

    monkeypatch.setattr(bench, "_seeded_bytes", refuse)
    echo = [region for _, region, _ in bench._prepare([cases])[0]]
    assert not any(echo[0]) and not echo[1].any()

    # the ping party draws once for the raw case and once for the typed
    # case's window; any further draw is the echo party's
    draws = []

    def ping_only(seed, n):
        if len(draws) == 2:
            refuse(seed, n)
        draws.append((seed, n))
        return real(seed, n)

    monkeypatch.setattr(bench, "_seeded_bytes", ping_only)
    run_pair(*cases, r=2, nrep=2, clock=fake_clock)
    assert draws == [(1, 64), (1, v.size * 2)]


@pytest.mark.parametrize("transport", ["inmem", "tcp"])
@pytest.mark.parametrize("variant", ["typed", "packed", "raw"])
def test_ping_region_keeps_its_payload_through_the_echo(monkeypatch, fake_clock,
                                                        transport, variant):
    v = commit(Vector(100, 2, 4, INT))
    case = _case("v", variant=variant, datatype=v, count=3, m_bytes=v.size * 3,
                 transport=transport)
    real = bench._prepare
    filled = []

    def keeping(groups, seed=None):
        sides = real(groups, seed)
        if seed is not None:
            filled.extend((region, bytes(region)) for _, region, _ in sides[0])
        return sides

    monkeypatch.setattr(bench, "_prepare", keeping)
    # an odd number of round trips, so an echo that returned its own bytes
    # first and the ping's after would leave its own in the region
    run_case(case, r=1, nrep=2, clock=fake_clock)
    [(region, before)] = filled
    assert any(before)
    # the echo side starts zeroed, so only the ping's own payload, echoed
    # byte for byte, leaves the region as it was filled
    assert bytes(region) == before


def test_pair_needs_one_transport(fake_clock):
    with pytest.raises(ValueError, match="one transport"):
        run_pair(_case("a"), _case("b", transport="tcp"), r=1, nrep=1, clock=fake_clock)


def test_tcp_pair_with_real_clock_interleaves_in_one_echo_process():
    v = commit(Vector(4, 2, 4, INT))
    sa, sb = run_pair(
        _case("raw", transport="tcp", m_bytes=64),
        _case("typed", variant="typed", datatype=v, count=2, m_bytes=v.size * 2,
              transport="tcp"),
        r=1, nrep=2,
    )
    assert [len(run) for run in sa.raw_samples] == [2]
    assert [len(run) for run in sb.raw_samples] == [2]
    assert sa.mean_s > 0.0 and sb.mean_s > 0.0


# --- echo sessions ----------------------------------------------------------


@pytest.fixture
def starts(monkeypatch):
    """Processes started while the test runs, in order."""
    started = []
    real = multiprocessing.process.BaseProcess.start

    def counting(proc):
        started.append(proc)
        real(proc)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting)
    return started


def _tcp_raw():
    return _case(transport="tcp", m_bytes=64)


def test_real_clock_tcp_experiment_starts_one_echo_process(starts):
    plan = make_plan("basic_layouts", A_values=(10,), sizes=(3200,), r=1, nrep=1,
                     transport="tcp")
    result = run_experiment(plan)
    assert len(result.stats) > 1
    assert len(starts) == 1
    assert multiprocessing.active_children() == []


def test_real_clock_tcp_family_experiment_starts_one_echo_process(starts):
    plan = make_plan("block_indexed", A_values=(2,), sizes=(3200,), r=1, nrep=1,
                     transport="tcp")
    result = run_experiment(plan)
    assert len(result.verdicts) == 3
    assert len(starts) == 1
    assert multiprocessing.active_children() == []


def test_lone_run_case_is_a_session_of_one_job(starts):
    assert run_case(_tcp_raw(), r=2, nrep=2).r == 2
    assert len(starts) == 1
    assert multiprocessing.active_children() == []


def test_measurements_in_one_session_share_its_process(starts):
    with echo_session() as echo:
        with echo_session() as inner:
            assert inner is echo
            run_case(_tcp_raw(), r=1, nrep=1)
        run_pair(_tcp_raw(), _case("b", transport="tcp", m_bytes=100), r=2, nrep=1)
        assert len(multiprocessing.active_children()) == 1
    assert len(starts) == 1
    assert multiprocessing.active_children() == []


def test_session_starts_afresh_after_an_echo_failure(monkeypatch, starts):
    real = bench._echo_process_main
    with echo_session():
        run_case(_tcp_raw(), r=1, nrep=1)
        (child,) = multiprocessing.active_children()
        child.kill()
        child.join()
        with pytest.raises(PeerClosed, match="exited with code -9"):
            run_case(_tcp_raw(), r=1, nrep=1)
        assert multiprocessing.active_children() == []

        monkeypatch.setattr(bench, "_echo_process_main", _echo_with_broken_prepare)
        with pytest.raises(PeerClosed, match="RuntimeError: no region"):
            run_case(_tcp_raw(), r=1, nrep=1)
        assert multiprocessing.active_children() == []

        monkeypatch.setattr(bench, "_echo_process_main", real)
        assert run_case(_tcp_raw(), r=1, nrep=2).nrep == 2
    assert len(starts) == 3
    assert multiprocessing.active_children() == []


def test_ping_side_failure_stops_the_echo_process(monkeypatch, starts):
    class PingBroke(RuntimeError):
        pass

    def failing(*args):
        raise PingBroke("ping side failed")

    with echo_session():
        run_case(_tcp_raw(), r=1, nrep=1)
        monkeypatch.setattr(bench, "_one_rep", failing)
        with pytest.raises(PingBroke):
            run_case(_tcp_raw(), r=1, nrep=1)
        assert multiprocessing.active_children() == []
    assert len(starts) == 1


@pytest.mark.parametrize("transport,clock", [("inmem", None), ("tcp", FakeClock())])
def test_thread_echo_experiments_start_no_process(starts, transport, clock):
    plan = make_plan("basic_layouts", A_values=(10,), sizes=(3200,), r=1, nrep=1,
                     transport=transport)
    assert run_experiment(plan, clock=clock).stats
    assert starts == []
