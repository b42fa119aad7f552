"""Profile combination rules (§2 'Producing a causal profile')."""

import hashlib
import random

import pytest

from repro.core.experiment import ExperimentResult
from repro.core.profile_data import (
    ProfileData,
    RunFailure,
    RunInfo,
    build_causal_profile,
    build_line_profile,
)
from repro.sim.clock import MS
from repro.sim.source import line
from repro.stats.bootstrap import bootstrap_pair_se

L = line("x.c:1")
L2 = line("x.c:2")
A1 = line("alpha.c:10")
A2 = line("alpha.c:999")
B7 = line("beta.c:7")


def exp(src, pct, visits, eff_ms, delay_count=0, delay_ns=0, s_obs=10, start=0):
    dur = MS(eff_ms) + delay_count * delay_ns
    return ExperimentResult(
        line=src,
        speedup_pct=pct,
        delay_ns=delay_ns,
        start_ns=start,
        end_ns=start + dur,
        delay_count=delay_count,
        selected_samples=s_obs,
        visits={"p": visits},
    )


def data_with(experiments, runtime_ms=1000, line_samples=None):
    d = ProfileData()
    for e in experiments:
        d.add_experiment(e)
    info = RunInfo(runtime_ns=MS(runtime_ms), total_delay_ns=0)
    if line_samples:
        info.line_samples.update(line_samples)
    d.add_run(info)
    return d


def test_effective_duration_subtracts_delays():
    e = exp(L, 50, 10, eff_ms=10, delay_count=4, delay_ns=MS(1))
    assert e.duration_ns == MS(14)
    assert e.inserted_delay_ns == MS(4)
    assert e.effective_ns == MS(10)


def test_line_without_baseline_discarded():
    d = data_with([exp(L, 25, 10, 10), exp(L, 50, 10, 10)])
    assert build_line_profile(d, L, "p") is None


def test_program_speedup_from_periods():
    d = data_with(
        [exp(L, 0, 10, 10), exp(L, 50, 10, 8)],
        line_samples={L: 100},
    )
    lp = build_line_profile(d, L, "p", phase_correction=False)
    pt = lp.point_at(50)
    # period went 1.0 -> 0.8 ms/visit: 20% program speedup
    assert pt.program_speedup == pytest.approx(0.20)


def test_same_variable_experiments_combine_by_summing():
    d = data_with(
        [
            exp(L, 0, 10, 10),
            exp(L, 50, 5, 5),   # period 1.0
            exp(L, 50, 15, 7),  # period 0.466; combined (5+7)/(5+15) = 0.6
        ],
        line_samples={L: 100},
    )
    lp = build_line_profile(d, L, "p", phase_correction=False)
    assert lp.point_at(50).program_speedup == pytest.approx(0.4)
    assert lp.point_at(50).n_experiments == 2


def test_min_speedup_amounts_filter():
    exps = [exp(L, 0, 10, 10), exp(L, 25, 10, 9)]
    exps += [exp(L2, pct, 10, 10 - pct // 25) for pct in (0, 25, 50, 75, 100)]
    d = data_with(exps, line_samples={L: 50, L2: 50})
    profile = build_causal_profile(d, "p", min_speedup_amounts=5)
    assert profile.get(L) is None       # only 2 distinct speedups
    assert profile.get(L2) is not None  # 5 distinct speedups


def test_ranking_by_slope():
    exps = []
    for pct, eff in ((0, 10), (50, 5)):        # strong line: 50% at half
        exps.append(exp(L, pct, 10, eff))
    for pct, eff in ((0, 10), (50, 10)):       # flat line
        exps.append(exp(L2, pct, 10, eff))
    d = data_with(exps, line_samples={L: 50, L2: 50})
    profile = build_causal_profile(d, "p", min_speedup_amounts=2,
                                   phase_correction=False)
    ranked = profile.ranked()
    assert [lp.line for lp in ranked] == [L, L2]
    assert ranked[0].slope > ranked[1].slope


def test_contention_detection():
    exps = [exp(L, 0, 10, 10), exp(L, 50, 10, 14)]  # slowdown!
    d = data_with(exps, line_samples={L: 50})
    profile = build_causal_profile(d, "p", min_speedup_amounts=2,
                                   phase_correction=False)
    lp = profile.get(L)
    assert lp.is_contended()
    assert profile.contended() == [lp]


def test_phase_correction_scales_down_phased_lines():
    """A line sampled only 10% of the run gets its speedup scaled by ~t_A/T."""
    exps = [
        exp(L, 0, 10, 10, s_obs=100),
        exp(L, 50, 10, 8, s_obs=100),
    ]
    # line active only 36ms of a 360ms run (sample density matches exps)
    d = data_with(exps, runtime_ms=360, line_samples={L: 200})
    raw = build_line_profile(d, L, "p", phase_correction=False)
    corrected = build_line_profile(d, L, "p", phase_correction=True)
    assert corrected.phase_factor < 1.0
    assert corrected.point_at(50).program_speedup < raw.point_at(50).program_speedup
    # factor = (t_obs/s_obs) * (s/T) = (18ms/200) * (200/360ms) = 0.05
    assert corrected.phase_factor == pytest.approx(0.05, rel=0.05)


def test_phase_correction_capped_at_one():
    exps = [exp(L, 0, 10, 10, s_obs=5), exp(L, 50, 10, 8, s_obs=5)]
    d = data_with(exps, runtime_ms=20, line_samples={L: 1000})
    lp = build_line_profile(d, L, "p", phase_correction=True)
    assert lp.phase_factor == 1.0


def test_merge_accumulates_runs():
    d1 = data_with([exp(L, 0, 10, 10)], line_samples={L: 10})
    d2 = data_with([exp(L, 50, 10, 8)], line_samples={L: 10})
    d1.merge(d2)
    assert len(d1.experiments) == 2
    assert len(d1.runs) == 2
    assert d1.total_line_samples(L) == 20


def test_progress_names_and_lines_enumeration():
    d = data_with([exp(L, 0, 10, 10), exp(L2, 0, 5, 10)])
    assert d.progress_names() == ["p"]
    assert d.lines() == [L, L2]


# -- wire format (cross-process result transfer) -----------------------------------

def test_json_round_trip_is_lossless():
    d = data_with(
        [exp(L, 0, 10, 10, delay_count=3, delay_ns=MS(1)), exp(L2, 50, 5, 8)],
        runtime_ms=360,
        line_samples={L: 200, L2: 17},
    )
    d.experiments[0].counts_before = {"p": 4}
    d.experiments[0].counts_after = {"p": 14}
    restored = ProfileData.from_json(d.to_json())
    assert restored == d
    assert restored.experiments == d.experiments
    assert restored.runs == d.runs
    assert restored.total_line_samples(L) == 200


def test_merge_after_round_trip_equals_direct_merge():
    d1 = data_with([exp(L, 0, 10, 10)], line_samples={L: 10})
    d2 = data_with([exp(L, 50, 10, 8)], line_samples={L: 10})
    direct = ProfileData()
    direct.merge(data_with([exp(L, 0, 10, 10)], line_samples={L: 10}))
    direct.merge(data_with([exp(L, 50, 10, 8)], line_samples={L: 10}))
    via_wire = ProfileData()
    via_wire.merge(ProfileData.from_json(d1.to_json()))
    via_wire.merge(ProfileData.from_json(d2.to_json()))
    assert via_wire == direct
    lp_direct = build_line_profile(direct, L, "p", phase_correction=False)
    lp_wire = build_line_profile(via_wire, L, "p", phase_correction=False)
    assert lp_wire.point_at(50).program_speedup == lp_direct.point_at(50).program_speedup


def test_from_json_rejects_unknown_wire_version():
    d = data_with([exp(L, 0, 10, 10)])
    doc = d.to_json().replace(
        f'"version": {ProfileData.WIRE_VERSION}', '"version": 99'
    )
    with pytest.raises(ValueError, match="wire version"):
        ProfileData.from_json(doc)


def test_from_json_rejects_wire_version_1():
    # the pre-table layout (inline [file, lineno] pairs, no "lines") is
    # not read: every writer has emitted version 2 since the table came in
    import json

    d = data_with([exp(L, 0, 10, 10), exp(L2, 0, 5, 10)], line_samples={L: 7})
    doc = json.loads(d.to_json())
    table = doc.pop("lines")
    doc["version"] = 1
    for e in doc["experiments"]:
        e["line"] = table[e["line"]]
    for r in doc["runs"]:
        r["line_samples"] = [table[i] + [n] for i, n in r["line_samples"]]
    with pytest.raises(ValueError, match="unsupported ProfileData wire version: 1"):
        ProfileData.from_json(json.dumps(doc))


def test_from_bytes_rejects_garbage():
    with pytest.raises(ValueError):
        ProfileData.from_bytes(b"definitely not a profile document")
    with pytest.raises(ValueError):
        ProfileData.from_bytes(b"\xff\xfe not UTF-8")


def multi_file_data():
    """Experiments and runs over three lines in two files."""
    d = data_with(
        [exp(A1, 0, 5, 10, delay_count=3, delay_ns=1000),
         exp(A1, 50, 5, 10, start=MS(20)),
         exp(A2, 25, 5, 10, start=MS(40))],
        line_samples={A2: 40, A1: 120},
    )
    run = RunInfo(runtime_ns=MS(990), total_delay_ns=0)
    run.line_samples.update({B7: 9})
    d.add_run(run)
    return d


def assert_wire_identity(data):
    decoded = ProfileData.from_bytes(data.to_bytes())
    assert decoded.to_json() == data.to_json()
    assert decoded == data


def test_to_bytes_is_the_json_document():
    d = multi_file_data()
    assert d.to_bytes() == d.to_json().encode()
    assert_wire_identity(d)


def test_round_trip_empty_profile():
    assert_wire_identity(ProfileData())


def test_round_trip_with_failures():
    import json

    d = multi_file_data()
    d.add_failure(RunFailure(
        index=2, seed=7, error_type="ThreadCrashFault",
        message="injected crash on thread 3", virtual_ns=MS(12),
    ))
    d.add_failure(RunFailure(index=3, seed=8, error_type="WorkerHungError", message=""))
    assert "failures" in json.loads(d.to_json())  # degraded sessions keep them
    assert_wire_identity(d)


def test_round_trip_huge_ints():
    # counters past 64 bits survive: JSON integers are unbounded
    d = multi_file_data()
    run = RunInfo(runtime_ns=2 ** 67, total_delay_ns=0)
    run.line_samples.update({A1: 2 ** 70})
    d.add_run(run)
    assert_wire_identity(d)


def test_interned_indices_do_not_leak_across_documents():
    # each document's line table is local (indices dense from 0, first-
    # encounter order), whatever another document or the process-global
    # intern table saw first
    import json

    a = multi_file_data()
    b = ProfileData()
    b.add_experiment(exp(B7, 0, 5, 10))
    b.add_experiment(exp(A1, 75, 5, 10, start=MS(30)))
    a.to_bytes()  # a's lines first
    doc_b = json.loads(b.to_json())
    assert doc_b["lines"] == [["beta.c", 7], ["alpha.c", 10]]
    assert [e["line"] for e in doc_b["experiments"]] == [0, 1]
    assert_wire_identity(b)
    assert_wire_identity(a)


def test_wire_v2_interns_lines_in_shared_table():
    import json

    d = data_with(
        [exp(L, 0, 10, 10), exp(L, 50, 10, 8), exp(L2, 0, 5, 10)],
        line_samples={L: 7, L2: 3},
    )
    doc = json.loads(d.to_json())
    assert doc["version"] == ProfileData.WIRE_VERSION
    assert [L.file, L.lineno] in doc["lines"]
    # three experiments over two lines share two table slots
    assert len(doc["lines"]) == 2
    assert all(isinstance(e["line"], int) for e in doc["experiments"])
    assert all(
        isinstance(i, int) for r in doc["runs"] for i, _n in r["line_samples"]
    )
    assert ProfileData.from_json(json.dumps(doc)) == d


def test_profile_data_equality_semantics():
    d1 = data_with([exp(L, 0, 10, 10)], line_samples={L: 10})
    d2 = data_with([exp(L, 0, 10, 10)], line_samples={L: 10})
    assert d1 == d2
    d2.add_experiment(exp(L, 50, 10, 8))
    assert d1 != d2
    assert d1 != "not profile data"


# -- pinned analysis output ------------------------------------------------------------


def _pinned_data():
    """Deterministic profile data covering every shape the bootstrap meets:
    singleton groups, group sizes that are powers of two and 2^k+1 (the
    sizes whose index draws reject the most words), a zero-visit point and
    a baseline with a zero-visit experiment (resamples with no visits)."""
    rng = random.Random(2024)
    shapes = {
        line("pin.c:1"): {0: 9, 10: 1, 20: 2, 30: 4, 40: 5, 50: 8, 60: 17},
        line("pin.c:2"): {0: 16, 25: 3, 50: 1, 75: 9, 100: 32},
        line("pin.c:3"): {0: 2, 5: 33, 15: 1, 35: 2, 45: 3},
    }
    exps = []
    for src, groups in shapes.items():
        sparse = src.lineno == 3
        for pct, n in groups.items():
            for _ in range(n):
                delay_ns = pct * 10_000
                count = rng.randint(0, 40)
                dur = rng.randint(MS(2), MS(20)) + count * delay_ns
                start = rng.randint(0, MS(900))
                exps.append(
                    ExperimentResult(
                        line=src,
                        speedup_pct=pct,
                        delay_ns=delay_ns,
                        start_ns=start,
                        end_ns=start + dur,
                        delay_count=count,
                        selected_samples=rng.randint(0, 30),
                        visits={"p": rng.randint(0, 3) if sparse else rng.randint(5, 60)},
                    )
                )
    rng.shuffle(exps)
    d = ProfileData()
    for e in exps:
        d.add_experiment(e)
    for r in range(3):
        info = RunInfo(runtime_ns=MS(1000 + r), total_delay_ns=MS(r * 7))
        info.line_samples.update({src: rng.randint(50, 400) for src in shapes})
        d.add_run(info)
    return d


def test_causal_profile_output_is_pinned():
    """Every point's speedup, SE, counts, and each line's phase factor and
    slope, bit for bit.  The digest was recorded before the bootstrap
    moved from resampling experiment objects to resampling index columns;
    any change to the draw stream or the SE arithmetic changes it."""
    d = _pinned_data()
    baseline = [e for e in d.experiments if e.line == line("pin.c:3") and e.speedup_pct == 0]
    assert sorted(e.visits["p"] for e in baseline) == [0, 2]  # some resamples see no visits
    profile = build_causal_profile(d, "p", min_speedup_amounts=2)
    rows = [
        (
            str(lp.line),
            lp.phase_factor,
            lp.slope,
            [
                (p.speedup_pct, p.program_speedup, p.se, p.n_experiments, p.visits)
                for p in lp.points
            ],
        )
        for lp in profile.lines
    ]
    assert [len(r[3]) for r in rows] == [7, 5, 4]  # pin.c:3 at 15% has no visits
    assert rows[0][3][1] == (10, 0.05588332616845959, 0.012324439099018177, 1, 29)
    assert (
        hashlib.sha256(repr(rows).encode()).hexdigest()
        == "851a6f2210de923efa9b219b839e02648ecef677e67060af6f2c37ef32f81b50"
    )


def test_line_profile_equality_ignores_cached_regression():
    d = data_with(
        [exp(L, 0, 10, 10), exp(L, 25, 10, 9), exp(L, 50, 10, 8)],
        line_samples={L: 100},
    )
    a = build_line_profile(d, L, "p", phase_correction=False)
    b = build_line_profile(d, L, "p", phase_correction=False)
    assert a == b
    assert a.slope > 0  # caches the regression on ``a`` only
    assert a == b


def test_point_se_matches_resampling_experiment_objects():
    """The column bootstrap equals resampling ``ExperimentResult`` objects
    with ``bootstrap_pair_se`` and recombining them, bit for bit."""

    def speedup(base, group):
        def period(g):
            visits = sum(e.visits.get("p", 0) for e in g)
            eff = sum(e.effective_ns for e in g)
            return eff / visits if visits > 0 and eff > 0 else None

        p0, ps = period(base), period(group)
        return None if p0 is None or ps is None else 1.0 - ps / p0

    d = _pinned_data()
    for src in d.lines():
        lp = build_line_profile(d, src, "p", phase_correction=False, seed=7)
        by_pct = {}
        for e in d.experiments:
            if e.line == src:
                by_pct.setdefault(e.speedup_pct, []).append(e)
        for p in lp.points:
            ref = bootstrap_pair_se(
                by_pct[0], by_pct[p.speedup_pct], speedup, n_boot=200,
                seed=7 + p.speedup_pct,
            )
            assert p.se == ref
