"""Harness: runner, comparison, overhead, prediction, tables, CLI."""

import pytest

from repro.apps import registry
from repro.apps.example import LINE_A, build_example, optimal_speedup_fraction
from repro.apps.swaptions import LINE_ZERO, build_swaptions
from repro.core.config import CozConfig
from repro.harness.comparison import compare_builds, measure_runtimes
from repro.harness.overhead import measure_overhead
from repro.harness.prediction import accuracy_study
from repro.harness.runner import profile_app
from repro.harness.tables import render_figure9, render_table3
from repro.sim.clock import MS


def test_measure_runtimes_independent_seeds():
    spec = build_example(rounds=5)
    times = measure_runtimes(spec.build, runs=3)
    assert len(times) == 3
    assert all(t > 0 for t in times)


def test_measure_runtimes_missing_output_degrades_with_warning(monkeypatch):
    """An executor output lost after retry exhaustion degrades, not KeyError."""
    from repro.harness import comparison
    from repro.harness.parallel import ParallelExecutionWarning

    spec = build_example(rounds=5)
    real = comparison.execute_tasks

    def lossy(tasks, **kw):
        return [o for o in real(tasks, **kw) if o.index != 2]

    monkeypatch.setattr(comparison, "execute_tasks", lossy)
    with pytest.warns(ParallelExecutionWarning, match="run 2 produced no output"):
        times = measure_runtimes(spec.build, runs=4)
    assert len(times) == 3


def test_measure_runtimes_short_journal_resumed_with_more_runs(
    monkeypatch, tmp_path
):
    """A journal recorded for fewer runs + a dead executor degrades cleanly."""
    from repro.harness import comparison
    from repro.harness.journal import SessionJournal
    from repro.harness.parallel import ParallelExecutionWarning

    spec = build_example(rounds=5)
    path = str(tmp_path / "runs.jsonl")
    fingerprint = {"kind": "test-runtimes", "app": "example"}

    jr = SessionJournal.create(path, fingerprint)
    try:
        assert len(measure_runtimes(spec.build, runs=2, journal=jr)) == 2
    finally:
        jr.close()

    # resume against a larger run count while the executor produces nothing
    # (as after retry exhaustion): the journal covers runs 0-1 only
    monkeypatch.setattr(comparison, "execute_tasks", lambda tasks, **kw: [])
    jr = SessionJournal.resume(path, fingerprint)
    try:
        with pytest.warns(ParallelExecutionWarning, match="2 of 4 runs failed"):
            times = measure_runtimes(spec.build, runs=4, journal=jr)
    finally:
        jr.close()
    assert len(times) == 2


def test_compare_builds_detects_real_speedup():
    base = build_example(rounds=8)
    opt = registry.build("example", rounds=8, line_speedups={LINE_A: 0.0})
    cmp_result = compare_builds("example", base.build, opt.build, runs=4)
    assert cmp_result.speedup_pct == pytest.approx(
        100 * optimal_speedup_fraction(), abs=1.0
    )
    assert "example" in cmp_result.row()


def test_profile_app_merges_runs():
    spec = build_example(rounds=40)
    cfg = CozConfig(scope=spec.scope, experiment_duration_ns=MS(40))
    out = profile_app(spec, runs=3, coz_config=cfg)
    assert len(out.data.runs) == 3
    assert out.experiment_count > 3
    assert len(out.run_results) == 3


def test_serial_run_results_hold_no_engine():
    """A serial session's runs come home as RunOutputs, like pooled ones:
    each run result is a summary and keeps no engine alive."""
    spec = build_example(rounds=20)
    out = profile_app(spec, runs=2, coz_config=CozConfig(scope=spec.scope), jobs=1)
    assert len(out.run_results) == 2
    assert all(r.engine is None for r in out.run_results)
    assert all(r.sample_count > 0 for r in out.run_results)


def test_overhead_breakdown_components_nonnegative():
    spec = build_swaptions(n_iters=60)
    b = measure_overhead(spec, runs=1)
    assert b.baseline_ns > 0
    assert b.startup_pct >= 0
    assert b.total_pct >= b.startup_pct
    assert "swaptions" in b.row()


def test_accuracy_study_on_swaptions_zero_loop():
    """Focused §4.3-style check: prediction ~ realized for a simple line."""
    spec = build_swaptions(False, n_iters=250)
    cfg = CozConfig(
        experiment_duration_ns=MS(25),
        speedup_schedule=[0, 90],
    )
    res = accuracy_study(
        spec, LINE_ZERO, line_speedup_pct=90,
        coz_config=cfg, profile_runs=4, timing_runs=2,
    )
    assert res.realized == pytest.approx(0.089, abs=0.01)  # 162/1840
    assert res.predicted == pytest.approx(res.realized, abs=0.04)
    assert res.error_pp < 4.0
    assert "swaptions" in res.row()


def test_render_tables_smoke():
    base = build_example(rounds=5)
    opt = registry.build("example", rounds=5, line_speedups={LINE_A: 0.5})
    cmp_result = compare_builds("example", base.build, opt.build, runs=2)
    out = render_table3([cmp_result])
    assert "example" in out and "Speedup" in out

    b = measure_overhead(build_swaptions(n_iters=40), runs=1)
    fig9 = render_figure9([b])
    assert "MEAN" in fig9


def test_cli_list_and_profile(capsys):
    from repro.cli import main

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "dedup" in out and "example" in out

    assert main([
        "profile", "example", "--runs", "2", "--experiment-ms", "60",
        "--speedup-step", "50", "--graphs", "1",
    ]) == 0
    out = capsys.readouterr().out
    assert "Causal profile" in out
    assert "example.cpp" in out


class _ClosedPipe:
    """A stdout whose reader has gone away (``coz-sim ... | head``)."""

    def __init__(self, fail_on):
        self.fail_on = fail_on

    def write(self, text):
        if self.fail_on == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        if self.fail_on == "flush":
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("fail_on", ["write", "flush"])
def test_cli_exits_quietly_on_a_closed_pipe(monkeypatch, capsys, fail_on):
    from repro.cli import main

    monkeypatch.setattr("sys.stdout", _ClosedPipe(fail_on))
    assert main(["list"]) == 1
    assert capsys.readouterr().err == ""


def test_cli_compare(capsys):
    from repro.cli import main

    assert main(["compare", "swaptions", "--runs", "2"]) == 0
    out = capsys.readouterr().out
    assert "swaptions" in out and "%" in out


@pytest.mark.parametrize("argv", [
    "profile example --speedup-step 0",
    "profile example --speedup-step 200",
    "profile example --runs 0",
    "profile example --experiment-ms 0",
    "profile example --experiment-ms nan",
    "profile example --budget 0",
    "profile example --chaos 2",
    "overhead example --runs 0",
    "compare ferret --runs 0",
    "profile example --top -1",
    "profile example --graphs -1",
    "diff --top -1",
])
def test_cli_rejects_out_of_range_numbers(capsys, argv):
    """Bad numeric flags stop in argparse (exit 2, usage message), before
    any planner, config or statistics code sees them."""
    from repro.cli import main

    option = next(word for word in argv.split() if word.startswith("--"))
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: " in err and "Traceback" not in err


def test_cli_rejects_unknown_app():
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["profile", "nosuchapp"])


def test_cli_overhead_and_coz_output(capsys, tmp_path):
    from repro.cli import main

    assert main(["overhead", "blackscholes", "--runs", "1"]) == 0
    out = capsys.readouterr().out
    assert "startup=" in out and "delays=" in out

    target = str(tmp_path / "profile.coz")
    assert main([
        "profile", "example", "--runs", "1", "--experiment-ms", "60",
        "--speedup-step", "50", "--coz-output", target,
    ]) == 0
    capsys.readouterr()
    with open(target) as f:
        content = f.read()
    assert content.startswith("startup\ttime=")
    assert "experiment\tselected=" in content
