"""Ablations of the design choices DESIGN.md calls out.

1. minimal vs naive delay scheme (§3.4.3): both produce correct speedup
   measurements for a single-executor line, but the naive scheme inserts far
   more delay (higher overhead) when several threads run the line;
2. phase correction on/off (eq. 8): correction scales down speedups of lines
   that only run during part of the execution;
3. interference model on/off: without it, the spin barrier costs almost
   nothing — the fluidanimate/streamcluster case studies need it.
"""


from benchmarks.conftest import run_once
from repro.apps.fluidanimate import build_fluidanimate
from repro.core.config import CozConfig
from repro.core.progress import ProgressPoint
from repro.harness.runner import profile_program
from repro.sim import MS, US, Join, Program, Progress, Scope, SimConfig, Spawn, Work, line

HOT = line("hot.c:1")
COLD = line("cold.c:1")


def _symmetric_program(n_threads=4, rounds=300):
    """Every thread runs the HOT line equally — the minimal-delay scheme's
    best case (no pauses needed at all)."""

    def make(seed=0):
        def main(t):
            def worker(t2):
                for _ in range(rounds):
                    yield Work(HOT, US(200))
                    yield Progress("tick")

            ws = []
            for i in range(n_threads):
                ws.append((yield Spawn(worker)))
            for w in ws:
                yield Join(w)

        cfg = SimConfig(seed=seed, cores=n_threads + 1, sample_period_ns=US(100))
        return Program(main, config=cfg)

    return make


def test_ablation_minimal_vs_naive_delays(benchmark):
    def run_mode(minimal):
        outcome = profile_program(
            _symmetric_program(),
            [ProgressPoint("tick")],
            "tick",
            runs=4,
            coz_config=CozConfig(
                scope=Scope.all_main(),
                fixed_line=HOT,
                speedup_schedule=[0, 50],
                experiment_duration_ns=MS(20),
                minimal_delays=minimal,
            ),
        )
        total_delay = sum(r.delay_ns for r in outcome.run_results)
        total_runtime = sum(r.runtime_ns for r in outcome.run_results)
        return total_delay / total_runtime

    results = run_once(
        benchmark, lambda: (run_mode(True), run_mode(False))
    )
    minimal_ratio, naive_ratio = results
    print()
    print(f"inserted delay / runtime: minimal={100*minimal_ratio:.1f}% "
          f"naive={100*naive_ratio:.1f}%")
    # §3.4.3: with every thread running the line, the minimal scheme inserts
    # almost nothing while the naive scheme pauses everyone constantly
    assert naive_ratio > 3 * minimal_ratio
    assert naive_ratio > 0.10


def test_ablation_phase_correction(benchmark):
    """A line that runs in only part of the execution gets its measured
    speedup scaled by ~t_A/T (eq. 8)."""

    def make(seed=0):
        def main(t):
            def worker(t2):
                # phase A: the hot line runs (1/4 of the execution)
                for _ in range(100):
                    yield Work(HOT, US(200))
                    yield Progress("tick")
                # phase B: only cold code
                for _ in range(300):
                    yield Work(COLD, US(200))
                    yield Progress("tick")

            a = yield Spawn(worker)
            b = yield Spawn(worker)
            yield Join(a)
            yield Join(b)

        return Program(main, config=SimConfig(seed=seed, cores=4, sample_period_ns=US(100)))

    def regen():
        from repro.core.profile_data import build_line_profile

        # Selection must be sampling-driven (scope restricted to the hot
        # file): experiments on HOT then only start while HOT is actually
        # running — the phased-selection bias eq. 8 corrects for.  A
        # fixed_line override would start experiments during phase B too,
        # hiding the bias.
        outcome = profile_program(
            make,
            [ProgressPoint("tick")],
            "tick",
            runs=8,
            coz_config=CozConfig(
                scope=Scope.only("hot.c"),
                speedup_schedule=[0, 60],
                experiment_duration_ns=MS(8),
            ),
        )
        raw = build_line_profile(outcome.data, HOT, "tick", phase_correction=False)
        corrected = build_line_profile(outcome.data, HOT, "tick", phase_correction=True)
        return raw, corrected

    raw, corrected = run_once(benchmark, regen)
    print()
    print(f"phase factor: {corrected.phase_factor:.2f} "
          f"(line active ~25% of the run)")
    print(f"raw@60: {100*raw.point_at(60).program_speedup:+.1f}%  "
          f"corrected@60: {100*corrected.point_at(60).program_speedup:+.1f}%")
    assert corrected.phase_factor < 0.6
    assert corrected.point_at(60).program_speedup < raw.point_at(60).program_speedup


def test_ablation_interference_model(benchmark):
    """Without the cache-coherence interference model, the spin barrier is
    nearly free and the fluidanimate case study collapses."""

    def regen():
        def speedup(coeff):
            base_spec = build_fluidanimate(False, n_phases=80, interference_coeff=coeff)
            opt_spec = build_fluidanimate(True, n_phases=80, interference_coeff=coeff)
            a = base_spec.build(0).run().runtime_ns
            b = opt_spec.build(0).run().runtime_ns
            return (a - b) / a

        return speedup(0.62), speedup(0.0)

    with_model, without_model = run_once(benchmark, regen)
    print()
    print(f"barrier-replacement speedup: with interference {100*with_model:.1f}%, "
          f"without {100*without_model:.1f}%")
    assert with_model > 0.25
    assert without_model < 0.15
