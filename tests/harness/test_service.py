"""Profiling service: admission control, dedup, degradation, healthz.

Unit tests drive the tenant machinery and job deadlines with the shared
``fake_clock`` fixture (no sleeps); the integration tests run a real
in-process daemon over a real Unix socket in a tmp state dir, with
sessions kept tiny (2 runs, 10 ms experiments).
"""

import socket as socket_mod
import warnings

import pytest

from repro.harness import JournalError
from repro.harness.journal import SessionJournal
from repro.harness.service import (
    AdmissionController,
    CircuitBreaker,
    JobSpec,
    ResultStore,
    ServiceClient,
    ServiceConfig,
    ServiceDaemon,
    TenantPolicy,
    TokenBucket,
    WireError,
    job_fingerprint,
)
from repro.sim.errors import (
    RunFaultedError,
    ServiceError,
    ServiceOverloadError,
)

needs_unix_sockets = pytest.mark.skipif(
    not hasattr(socket_mod, "AF_UNIX"),
    reason="no AF_UNIX sockets on this platform",
)


def _spec(**kw) -> JobSpec:
    base = dict(tenant="t", app="example", runs=2, experiment_ms=10.0)
    base.update(kw)
    return JobSpec(**base)


# -- wire ---------------------------------------------------------------------


def test_jobspec_roundtrip_and_validation():
    spec = _spec(chaos=0.5, planner="adaptive", budget=4, deadline_s=2.0)
    assert JobSpec.from_wire(spec.to_wire()) == spec
    with pytest.raises(WireError):
        JobSpec(tenant="", app="example")
    with pytest.raises(WireError):
        JobSpec(tenant="t", app="example", runs=0)
    with pytest.raises(WireError):
        JobSpec(tenant="t", app="example", deadline_s=-1.0)
    with pytest.raises(WireError):
        JobSpec.from_wire({"tenant": "t", "app": "example", "bogus": 1})


def test_fingerprint_excludes_admission_knobs():
    # tenant and deadline are admission inputs, not work: any combination
    # of them is the same job, so it dedups and cache-hits across tenants
    fp = job_fingerprint(_spec())
    assert job_fingerprint(_spec(tenant="other")) == fp
    assert job_fingerprint(_spec(deadline_s=5.0)) == fp
    # everything that shapes results changes the fingerprint
    assert job_fingerprint(_spec(runs=3)) != fp
    assert job_fingerprint(_spec(base_seed=7)) != fp
    assert job_fingerprint(_spec(chaos=0.5)) != fp
    assert job_fingerprint(_spec(planner="adaptive")) != fp


# -- tenants ------------------------------------------------------------------


def test_token_bucket_refills_on_fake_clock(fake_clock):
    bucket = TokenBucket(rate_per_s=2.0, burst=2)
    assert bucket.try_take() and bucket.try_take()
    assert not bucket.try_take()  # burst exhausted, no time passed
    fake_clock.advance(0.5)  # refills one token at 2/s
    assert bucket.try_take()
    assert not bucket.try_take()
    fake_clock.advance(10.0)  # refill clamps at burst
    assert bucket.tokens == pytest.approx(2.0)


def test_breaker_opens_after_threshold_and_recloses_after_healthy_probe(fake_clock):
    breaker = CircuitBreaker(threshold=3, cooldown_s=30.0)
    for _ in range(2):
        breaker.record_failure()
    assert breaker.state == "closed" and breaker.allow()
    breaker.record_failure()
    assert breaker.state == "open" and not breaker.allow()
    fake_clock.advance(29.0)
    assert not breaker.allow()  # still cooling down
    fake_clock.advance(1.5)
    assert breaker.allow()  # the half-open probe
    assert breaker.state == "half-open"
    assert not breaker.allow()  # only one probe at a time
    breaker.record_success()
    assert breaker.state == "closed" and breaker.allow()


def test_breaker_failed_probe_reopens_for_another_cooldown(fake_clock):
    breaker = CircuitBreaker(threshold=1, cooldown_s=10.0)
    breaker.record_failure()
    fake_clock.advance(10.0)
    assert breaker.allow()
    breaker.record_failure()  # probe failed
    assert breaker.state == "open"
    fake_clock.advance(9.0)
    assert not breaker.allow()
    fake_clock.advance(1.5)
    assert breaker.allow()


def test_admission_sheds_are_typed_and_counted(fake_clock):
    ctl = AdmissionController(
        TenantPolicy(max_queue_depth=1, rate_per_s=1.0, burst=1,
                     breaker_threshold=1, breaker_cooldown_s=60.0),
    )
    state = ctl.tenant("alice")
    # over quota
    state.active = 1
    with pytest.raises(ServiceOverloadError) as exc:
        ctl.check_capacity(state)
    assert exc.value.reason == "queue-depth" and exc.value.tenant == "alice"
    assert isinstance(exc.value, ServiceError)
    assert isinstance(exc.value, RunFaultedError)  # environmental taxonomy
    # over rate
    state.active = 0
    ctl.check_capacity(state)  # consumes the single burst token
    with pytest.raises(ServiceOverloadError) as exc:
        ctl.check_capacity(state)
    assert exc.value.reason == "rate-limit"
    # breaker
    state.breaker.record_failure()
    with pytest.raises(ServiceOverloadError) as exc:
        ctl.check_breaker(state)
    assert exc.value.reason == "circuit-breaker"
    snap = ctl.snapshot()["alice"]
    assert snap["shed_queue_depth"] == 1
    assert snap["shed_rate_limit"] == 1
    assert snap["shed_circuit_breaker"] == 1
    assert snap["shed_total"] == 3


# -- admission races (no sockets: daemon used as a library, never started) ----


def _lib_daemon(tmp_path, **policy_kw):
    """A daemon instance for unit-testing submit/settle without start()."""
    policy = TenantPolicy(**{
        "rate_per_s": 1000.0, "burst": 1000, **policy_kw,
    })
    config = ServiceConfig(state_dir=str(tmp_path / "state"), workers=1,
                           policy=policy)
    return ServiceDaemon(config)


def test_duplicate_during_journal_fsync_coalesces_not_double_enqueues(tmp_path):
    """Regression: the dedup check and the enqueue were not atomic — a
    duplicate arriving while the first submission was fsync'ing the queue
    journal passed the in-flight check too and enqueued a second execution
    of the same session journal.  The fingerprint is now reserved inside
    the admission critical section, so the duplicate coalesces."""
    d = _lib_daemon(tmp_path)
    dup = {}
    real_journal = d._journal_event

    def racing_journal(doc):
        if doc.get("kind") == "submit" and not dup:
            # a second tenant submits the same work mid-fsync
            dup.update(d.submit(_spec(tenant="bob")))
        real_journal(doc)

    d._journal_event = racing_journal
    first = d.submit(_spec(tenant="alice"))
    assert dup.get("dedup") is True
    assert dup["job_id"] == first["job_id"]
    assert d.queue.depth == 1  # one runnable job, not two
    job = d.queue.by_id[first["job_id"]]
    assert sorted(job.tenants) == ["alice", "bob"]


def test_submission_during_settle_does_not_coalesce_or_leak_quota(tmp_path):
    """Regression: _settle decremented tenant quota, then journaled the
    terminal event, and only afterwards dropped the dedup index entry — a
    submit in that window coalesced onto the settled job and incremented
    an active count nothing would ever decrement."""
    d = _lib_daemon(tmp_path)
    spec = _spec(tenant="alice")
    first = d.submit(spec)
    job = d.queue.by_id[first["job_id"]]
    racer = {}
    real_journal = d._journal_event

    def racing_journal(doc):
        real_journal(doc)
        if doc.get("kind") == "terminal":
            racer.update(d.submit(spec))

    d._journal_event = racing_journal
    d._settle(job, "failed", error={"error": "X", "message": "boom"})
    # the racing submit got a fresh job, not a coalesce onto the corpse
    assert "dedup" not in racer
    assert racer["job_id"] != first["job_id"]
    # quota is exact: the settled job released its slot, the new job holds one
    assert d.admission.tenant("alice").active == 1


def test_half_open_probe_released_on_cache_hit_and_capacity_shed(tmp_path, fake_clock):
    """Regression: a half-open probe that resolved as a cache hit or was
    shed by quota/rate never fed the breaker, so every later allow()
    returned False and the tenant was quarantined forever."""
    d = _lib_daemon(tmp_path,
                    max_queue_depth=1, breaker_threshold=1,
                    breaker_cooldown_s=10.0)
    spec = _spec()
    state = d.admission.tenant(spec.tenant)
    state.breaker.record_failure()  # open
    fake_clock.advance(10.0)

    # probe admitted, then shed on queue depth: the slot must come back
    state.active = 1
    with pytest.raises(ServiceOverloadError) as exc:
        d.submit(spec)
    assert exc.value.reason == "queue-depth"
    assert state.breaker.state == "open"
    state.active = 0

    # probe admitted, then served from the result cache: same story
    d.results.put(job_fingerprint(spec), {"state": "done"})
    r = d.submit(spec)
    assert r["cached"]
    assert state.breaker.state == "open"

    # the cooldown already elapsed, so the tenant is NOT stuck: the next
    # genuinely-new submission is re-admitted as a fresh probe
    fresh = _spec(base_seed=99)
    accepted = d.submit(fresh)
    assert accepted["ok"]
    assert state.breaker.state == "half-open"


def test_shed_probe_job_releases_slot_instead_of_wedging_breaker(tmp_path, fake_clock):
    """A probe job that terminates without a health verdict (deadline
    shed) must return its slot: shed is not evidence either way."""
    d = _lib_daemon(tmp_path, breaker_threshold=1, breaker_cooldown_s=10.0)
    spec = _spec(deadline_s=30.0)
    state = d.admission.tenant(spec.tenant)
    state.breaker.record_failure()
    fake_clock.advance(10.0)
    accepted = d.submit(spec)  # the half-open probe job
    assert accepted["ok"] and state.breaker.state == "half-open"
    job = d.queue.by_id[accepted["job_id"]]
    d._settle(job, "shed", breaker_failure=False, shed_reason="deadline")
    assert state.breaker.state == "open"
    again = d.submit(_spec(base_seed=77))
    assert again["ok"] and state.breaker.state == "half-open"


def test_recovered_job_rearms_deadline(tmp_path):
    """Regression: _recover rebuilt the Job from the journaled spec but
    never re-armed deadline_monotonic, so a deadline-carrying job ran
    unbounded after a daemon restart."""
    first = _lib_daemon(tmp_path, default_deadline_s=45.0)
    explicit = _spec(deadline_s=30.0)
    defaulted = _spec(base_seed=7)  # no deadline of its own: policy applies
    for spec in (explicit, defaulted):
        first._journal_event({
            "kind": "submit",
            "fingerprint": job_fingerprint(spec),
            "spec": spec.to_wire(),
            "tenants": [spec.tenant],
        })
    second = _lib_daemon(tmp_path, default_deadline_s=45.0)
    second._recover()
    jobs = {j.fingerprint: j for j in second.queue.jobs()}
    assert all(j.recovered for j in jobs.values())
    assert jobs[job_fingerprint(explicit)].deadline_monotonic is not None
    assert jobs[job_fingerprint(defaulted)].deadline_monotonic is not None


def test_deadline_expired_in_queue_is_shed(tmp_path, fake_clock):
    d = _lib_daemon(tmp_path)
    accepted = d.submit(_spec(deadline_s=30.0))
    fake_clock.advance(30.0)  # the whole budget passes while queued
    d._execute_job(d.queue.take(timeout=0))
    job = d.queue.by_id[accepted["job_id"]]
    assert job.state == "shed"
    assert job.error["error"] == "DeadlineExceededError"
    assert d.status()["tenants"]["t"]["shed_deadline"] == 1


def test_deadline_expired_mid_session_sheds_a_partial_result(
    tmp_path, fake_clock, monkeypatch
):
    d = _lib_daemon(tmp_path)
    accepted = d.submit(_spec(deadline_s=30.0))
    record_run = SessionJournal.record_run

    def record_then_expire(journal, *args):
        record_run(journal, *args)
        fake_clock.advance(30.0)  # the budget runs out after the first run

    monkeypatch.setattr(SessionJournal, "record_run", record_then_expire)
    d._execute_job(d.queue.take(timeout=0))
    job = d.queue.by_id[accepted["job_id"]]
    assert job.state == "shed" and job.error is None
    assert job.result["partial"]
    assert len(job.result["profile_data"]["runs"]) == 1
    # partial results are never cached: a resubmit must finish the job
    assert d.results.get(job.fingerprint) is None
    assert d.status()["tenants"]["t"]["shed_deadline"] == 1


def test_queue_journal_torn_tail_keeps_later_submits_recoverable(tmp_path):
    """Regression: a restart over a queue.jsonl with a torn final event
    appended the next submit onto the fragment, so replay skipped it and
    a job accepted after the restart was lost by the next kill."""
    import os as _os

    first = _lib_daemon(tmp_path)
    first.submit(_spec())  # accepted, then the daemon is SIGKILLed ...
    with open(_os.path.join(first.config.state_dir, "queue.jsonl"), "a") as fh:
        fh.write('{"kind":"terminal","finger')  # ... mid-append
    second = _lib_daemon(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the torn-tail warning
        second._recover()
    assert second._recovered_jobs == 1
    second.submit(_spec(base_seed=7))  # accepted, then killed again
    third = _lib_daemon(tmp_path)
    third._recover()
    recovered = {j.fingerprint for j in third.queue.jobs() if j.recovered}
    assert recovered == {job_fingerprint(_spec()), job_fingerprint(_spec(base_seed=7))}


def test_queue_journal_mid_file_corruption_refuses_recovery(tmp_path):
    import os as _os

    first = _lib_daemon(tmp_path)
    first.submit(_spec())
    path = _os.path.join(first.config.state_dir, "queue.jsonl")
    with open(path, "a") as fh:
        fh.write("GARBAGE\n")
    first.submit(_spec(base_seed=7))
    with pytest.raises(JournalError, match="corrupt at line 2"):
        _lib_daemon(tmp_path)._recover()


# -- result store -------------------------------------------------------------


def test_result_store_memory_and_disk_roundtrip(tmp_path):
    store = ResultStore(str(tmp_path / "results"))
    assert store.get("aa" * 32) is None
    doc = {"schema": "service-result/v1", "x": 1}
    store.put("aa" * 32, doc)
    assert store.get("aa" * 32) == doc
    # a second store over the same dir reads it cold from disk
    again = ResultStore(str(tmp_path / "results"))
    assert again.get("aa" * 32) == doc
    assert again.hits == 1 and store.misses == 1


def test_result_store_lru_evicts_memory_not_disk(tmp_path):
    store = ResultStore(str(tmp_path / "results"), memory_cap=2)
    for i in range(4):
        store.put(f"{i:02d}" * 32, {"i": i})
    assert len(store._memory) == 2
    # evicted entries still resolve via disk
    assert store.get("00" * 32) == {"i": 0}


def _profile_doc():
    """A small but complete service-result document with real profile data."""
    import json as _json

    from repro.core.experiment import ExperimentResult
    from repro.core.profile_data import ProfileData, RunFailure, RunInfo
    from repro.sim.source import line as _line

    data = ProfileData()
    data.add_experiment(ExperimentResult(
        line=_line("svc.c:3"), speedup_pct=0, delay_ns=0, start_ns=0,
        end_ns=10_000_000, delay_count=0, selected_samples=4,
        visits={"p": 6},
    ))
    run = RunInfo(runtime_ns=50_000_000, total_delay_ns=0)
    run.line_samples.update({_line("svc.c:3"): 11})
    data.add_run(run)
    data.add_failure(RunFailure(
        index=1, seed=1, error_type="ThreadCrashFault", message="shed",
    ))
    return {
        "schema": "service-result/v1",
        "fingerprint": "cc" * 32,
        "state": "degraded",
        "degraded": True,
        "failures": [f.to_dict() for f in data.failures],
        "profile_data": _json.loads(data.to_json()),
    }


def test_result_store_binary_container_round_trips_profiles(tmp_path):
    """A result carrying profile data is stored as exactly one canonical
    <fp>.json (there is no separate binary container any more), and a cold
    store reads back the same bytes and the same profile."""
    import json as _json
    import os as _os

    from repro.core.profile_data import ProfileData

    directory = str(tmp_path / "results")
    doc = _profile_doc()
    fp = doc["fingerprint"]
    store = ResultStore(directory)
    store.put(fp, doc)
    assert _os.listdir(directory) == [f"{fp}.json"]
    canonical = _json.dumps(doc, sort_keys=True, separators=(",", ":"))
    with open(_os.path.join(directory, f"{fp}.json"), "rb") as fh:
        assert fh.read() == canonical.encode("utf-8")
    got = ResultStore(directory).get(fp)
    assert _json.dumps(got, sort_keys=True, separators=(",", ":")) == canonical
    assert (
        ProfileData.from_json(_json.dumps(got["profile_data"])).to_json()
        == ProfileData.from_json(_json.dumps(doc["profile_data"])).to_json()
    )


def test_result_store_doc_without_profile_falls_back_to_json(tmp_path):
    """A document with no profile payload takes the same single-file path:
    one canonical <fp>.json, read back equal by a cold store."""
    import json as _json
    import os as _os

    directory = str(tmp_path / "results")
    doc = {"schema": "service-result/v1", "state": "done"}
    store = ResultStore(directory)
    store.put("dd" * 32, doc)
    assert _os.listdir(directory) == [f"{'dd' * 32}.json"]
    with open(_os.path.join(directory, f"{'dd' * 32}.json"), "rb") as fh:
        assert fh.read() == _json.dumps(
            doc, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
    assert ResultStore(directory).get("dd" * 32) == doc


def test_result_store_reads_legacy_json_only_files(tmp_path):
    import json as _json
    import os as _os

    doc = _profile_doc()
    directory = str(tmp_path / "results")
    _os.makedirs(directory)
    # an older daemon wrote only the JSON file
    with open(_os.path.join(directory, f"{doc['fingerprint']}.json"), "w") as f:
        _json.dump(doc, f, sort_keys=True)
    store = ResultStore(directory)
    got = store.get(doc["fingerprint"])
    assert _json.dumps(got, sort_keys=True) == _json.dumps(doc, sort_keys=True)


# -- daemon integration -------------------------------------------------------


@pytest.fixture
def daemon(tmp_path):
    daemons = []

    def start(**kw):
        policy = kw.pop("policy", TenantPolicy(rate_per_s=1000.0, burst=1000))
        config = ServiceConfig(
            state_dir=str(tmp_path / "state"),
            workers=kw.pop("workers", 2),
            policy=policy,
            **kw,
        )
        d = ServiceDaemon(config)
        d.start()
        daemons.append(d)
        client = ServiceClient(config.sock)
        assert client.wait_until_ready(10.0)
        return d, client

    yield start
    for d in daemons:
        d.stop()


@needs_unix_sockets
def test_duplicate_concurrent_submissions_execute_once(daemon):
    d, client = daemon()
    first = client.submit(_spec(tenant="alice"))
    second = client.submit(_spec(tenant="bob"))  # same work, other tenant
    assert second["dedup"] and second["job_id"] == first["job_id"]
    done = client.wait(first["job_id"], timeout_s=60.0)
    assert done["ok"] and done["job"]["state"] == "done"
    assert done["job"]["dedup_count"] == 1
    assert sorted(done["job"]["tenants"]) == ["alice", "bob"]
    status = client.status()["status"]
    assert status["cache"]["dedup_coalesced"] == 1
    # exactly one session journal exists: the job ran once
    assert status["jobs"]["total"] == 1


@needs_unix_sockets
def test_completed_job_serves_from_result_cache(daemon):
    d, client = daemon()
    first = client.submit(_spec(), wait_s=60.0)
    assert first["ok"] and first["result"]["state"] == "done"
    again = client.submit(_spec())
    assert again["cached"] and again["result"] == first["result"]
    status = client.status()["status"]
    assert status["cache"]["result_hits"] == 1


@needs_unix_sockets
def test_queue_depth_quota_sheds_with_typed_error(daemon):
    d, client = daemon(policy=TenantPolicy(
        max_queue_depth=1, rate_per_s=1000.0, burst=1000,
    ), workers=1)
    accepted = client.submit(_spec(tenant="alice"))
    assert accepted["ok"]
    shed = client.submit(_spec(tenant="alice", base_seed=50))
    assert not shed["ok"]
    assert shed["error"] == "ServiceOverloadError"
    assert shed["reason"] == "queue-depth" and shed["tenant"] == "alice"
    # another tenant is not starved by alice's full queue
    other = client.submit(_spec(tenant="bob", base_seed=60))
    assert other["ok"]
    client.wait(accepted["job_id"], timeout_s=60.0)
    client.wait(other["job_id"], timeout_s=60.0)


@needs_unix_sockets
def test_rate_limit_sheds(daemon):
    d, client = daemon(policy=TenantPolicy(
        max_queue_depth=100, rate_per_s=0.001, burst=1,
    ))
    first = client.submit(_spec(tenant="alice"))
    assert first["ok"]
    shed = client.submit(_spec(tenant="alice", base_seed=50))
    assert not shed["ok"] and shed["reason"] == "rate-limit"


@needs_unix_sockets
def test_chaos_tenant_degrades_without_starving_clean_tenant(daemon):
    d, client = daemon()
    # full-intensity chaos: every run injects a fault, session degrades
    chaos = client.submit(_spec(tenant="mallory", chaos=1.0))
    clean = client.submit(_spec(tenant="alice", base_seed=200))
    chaos_done = client.wait(chaos["job_id"], timeout_s=60.0)
    clean_done = client.wait(clean["job_id"], timeout_s=60.0)
    assert chaos_done["job"]["state"] == "degraded"
    assert chaos_done["result"]["degraded"]
    assert len(chaos_done["result"]["failures"]) == 2
    assert clean_done["job"]["state"] == "done"
    assert not clean_done["result"]["degraded"]
    status = client.status()["status"]
    assert status["tenants"]["mallory"]["degraded"] == 1
    assert status["tenants"]["alice"]["degraded"] == 0
    assert status["tenants"]["mallory"]["breaker"] == "closed"  # 1 < threshold


@needs_unix_sockets
def test_breaker_quarantines_chaos_tenant_then_probe_recovers(daemon):
    d, client = daemon(policy=TenantPolicy(
        max_queue_depth=100, rate_per_s=1000.0, burst=1000,
        breaker_threshold=2, breaker_cooldown_s=3600.0,
    ))
    for seed in (0, 100):
        r = client.submit(_spec(tenant="mallory", chaos=1.0, base_seed=seed),
                          wait_s=60.0)
        assert r["job"]["state"] == "degraded"
    # threshold reached: mallory is quarantined, even for cached results
    shed = client.submit(_spec(tenant="mallory", chaos=1.0))
    assert not shed["ok"] and shed["reason"] == "circuit-breaker"
    status = client.status()["status"]
    assert status["tenants"]["mallory"]["breaker"] == "open"
    assert status["status"] == "degraded"  # an open breaker degrades healthz
    # a clean tenant keeps its workers the whole time
    clean = client.submit(_spec(tenant="alice", base_seed=300), wait_s=60.0)
    assert clean["ok"] and clean["job"]["state"] == "done"
    # force the cooldown to expire: the next submission is the half-open
    # probe, and its clean completion re-closes the breaker
    mallory = d.admission.tenant("mallory")
    mallory.breaker._opened_at = -10_000.0
    probe = client.submit(_spec(tenant="mallory", base_seed=400), wait_s=60.0)
    assert probe["ok"] and probe["job"]["state"] == "done"
    assert client.status()["status"]["tenants"]["mallory"]["breaker"] == "closed"


@needs_unix_sockets
def test_healthz_shape_and_worker_accounting(daemon):
    d, client = daemon(workers=3)
    status = client.status()["status"]
    assert status["schema"] == "service-status/v1"
    assert status["status"] == "ok"
    assert status["workers"] == {"configured": 3, "alive": 3, "busy": 0}
    for key in ("depth", "running", "latency_avg_s", "latency_p95_s"):
        assert key in status["queue"]
    for key in ("result_hits", "result_misses", "hit_rate", "dedup_coalesced"):
        assert key in status["cache"]
    assert status["uptime_s"] >= 0


@needs_unix_sockets
def test_wire_version_mismatch_refused(daemon):
    d, client = daemon()
    bad = client._call({"op": "ping", "wire": 999})
    # the dict literal's own "wire" key wins over the client default
    assert not bad["ok"] and bad["error"] == "WireError"


@needs_unix_sockets
def test_unknown_app_is_a_typed_wire_failure(daemon):
    d, client = daemon()
    r = client.submit(_spec(app="no-such-app"))
    assert not r["ok"] and r["error"] == "UnknownAppError"
