"""Unit tests of the cluster scheduling state machine (no sockets).

Time is injected, so lease expiry, exclusion and retry exhaustion are
exercised deterministically without sleeping.
"""

import pytest

from repro import SparkXDConfig
from repro.cluster.plan import PlanFailed, SweepPlan
from repro.pipeline import ArtifactStore, default_stages

CONFIG = SparkXDConfig.small()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_plan(grid=None, store=None, **kwargs):
    clock = FakeClock()
    kwargs.setdefault("lease_timeout", 10.0)
    plan = SweepPlan(
        CONFIG, grid or {}, store if store is not None else ArtifactStore(),
        clock=clock, **kwargs,
    )
    return plan, clock


def finish(plan, job, worker="w"):
    """Deposit the target artifact and complete the job."""
    plan.store.put(job.stage, job.digest, f"artifact-{job.job_id}")
    assert plan.complete(worker, job.job_id)


class TestPlanConstruction:
    def test_single_point_builds_full_chain(self):
        plan, _ = make_plan({})
        stages = [job.stage for job in plan.jobs.values()]
        assert sorted(stages) == sorted(
            s.name for s in default_stages()
        )

    def test_training_jobs_dedupe_across_dram_points(self):
        plan, _ = make_plan({"voltages": [(1.325,), (1.025,)]})
        by_stage = {}
        for job in plan.jobs.values():
            by_stage.setdefault(job.stage, []).append(job)
        # one shared training chain, one dram-eval job per grid point
        assert len(by_stage["train-baseline"]) == 1
        assert len(by_stage["fault-aware-train"]) == 1
        assert len(by_stage["tolerance-analysis"]) == 1
        assert len(by_stage["dram-eval"]) == 2

    def test_each_seed_gets_its_own_chain(self):
        plan, _ = make_plan({"seed": [1, 2]})
        stages = [job.stage for job in plan.jobs.values()]
        assert stages.count("train-baseline") == 2

    def test_cached_artifacts_need_no_job(self):
        store = ArtifactStore()
        chain = default_stages()
        for stage in chain[:-1]:
            store.put(stage.name, stage.cache_key(CONFIG), "cached")
        plan, _ = make_plan({}, store=store)
        assert [job.stage for job in plan.jobs.values()] == ["dram-eval"]
        (job,) = plan.jobs.values()
        assert not job.deps  # upstream artifacts exist, nothing to wait on

    def test_fully_cached_plan_is_done_immediately(self):
        store = ArtifactStore()
        for stage in default_stages():
            store.put(stage.name, stage.cache_key(CONFIG), "cached")
        plan, _ = make_plan({}, store=store)
        assert plan.done

    def test_validation(self):
        with pytest.raises(ValueError):
            make_plan({}, lease_timeout=0.0)
        with pytest.raises(ValueError):
            make_plan({}, max_attempts=0)


class TestLeasing:
    def test_dependency_order(self):
        plan, _ = make_plan({})
        first = plan.lease("w1")
        assert first.stage == "train-baseline"
        # The rest of the chain is blocked on it.
        assert plan.lease("w2") is None
        finish(plan, first, "w1")
        assert plan.lease("w2").stage == "fault-aware-train"

    def test_chain_progression_to_done(self):
        plan, _ = make_plan({})
        for _ in range(len(plan.jobs)):
            job = plan.lease("w")
            assert job is not None
            finish(plan, job)
        assert plan.done
        assert plan.lease("w") is None

    def test_heartbeat_extends_lease(self):
        plan, clock = make_plan({})
        job = plan.lease("w")
        clock.advance(8.0)
        assert plan.heartbeat("w", job.job_id)
        clock.advance(8.0)  # 16s total, but renewed at t=8
        assert plan.expire_leases() == []
        assert plan.jobs[job.job_id].state == "leased"

    def test_heartbeat_from_non_holder_is_rejected(self):
        plan, _ = make_plan({})
        job = plan.lease("w1")
        assert not plan.heartbeat("w2", job.job_id)
        assert not plan.heartbeat("w1", "no-such-job")


class TestLeaseExpiry:
    def test_expiry_requeues_with_exclusion(self):
        plan, clock = make_plan({})
        job = plan.lease("dying")
        clock.advance(10.1)
        assert plan.expire_leases() == [job.job_id]
        requeued = plan.jobs[job.job_id]
        assert requeued.state == "pending"
        assert "dying" in requeued.excluded

    def test_excluded_worker_skipped_when_peer_is_live(self):
        plan, clock = make_plan({})
        job = plan.lease("dying")
        plan.lease("healthy")  # registers as live (gets nothing: blocked)
        clock.advance(10.1)
        plan.expire_leases()
        # The excluded worker cannot reclaim it while a healthy peer is
        # around...
        assert plan.lease("dying") is None
        # ...and the healthy peer picks it up.
        retaken = plan.lease("healthy")
        assert retaken is not None
        assert retaken.job_id == job.job_id
        assert retaken.worker == "healthy"

    def test_exclusion_relaxes_when_it_would_deadlock(self):
        plan, clock = make_plan({})
        job = plan.lease("only-worker")
        clock.advance(10.1)
        plan.expire_leases()
        # Sole worker of the cluster: exclusion must not starve the job.
        retaken = plan.lease("only-worker")
        assert retaken is not None and retaken.job_id == job.job_id

    def test_bounded_retries_fail_the_plan(self):
        plan, clock = make_plan({}, max_attempts=2)
        for attempt in range(2):
            job = plan.lease(f"w{attempt}")
            assert job is not None
            clock.advance(10.1)
            plan.expire_leases()
        assert plan.failed
        assert job.job_id in plan.failure
        with pytest.raises(PlanFailed):
            plan.raise_on_failure()
        assert plan.lease("w-late") is None


class TestCompletion:
    def test_duplicate_completion_is_idempotent(self):
        plan, _ = make_plan({})
        job = plan.lease("w1")
        finish(plan, job, "w1")
        # Same worker again, and a worker that never held the lease:
        assert plan.complete("w1", job.job_id)
        assert plan.complete("w2", job.job_id)
        assert plan.jobs[job.job_id].state == "done"
        # Stats are kept from the first completion only.
        assert plan.jobs[job.job_id].stats["worker"] == "w1"

    def test_expired_holder_completion_still_counts(self):
        plan, clock = make_plan({})
        job = plan.lease("slow")
        clock.advance(10.1)
        plan.expire_leases()
        # The slow worker finished anyway and pushed the artifact.
        finish(plan, job, "slow")
        assert plan.jobs[job.job_id].state == "done"

    def test_completion_without_artifact_requeues(self):
        plan, _ = make_plan({})
        job = plan.lease("liar")
        assert not plan.complete("liar", job.job_id)  # nothing pushed
        requeued = plan.jobs[job.job_id]
        assert requeued.state == "pending"
        assert "liar" in requeued.excluded

    def test_unknown_job_completion_is_rejected(self):
        plan, _ = make_plan({})
        assert not plan.complete("w", "bogus:job")

    def test_stale_artifactless_completion_spares_current_holder(self):
        plan, clock = make_plan({})
        job = plan.lease("slow")
        clock.advance(10.1)
        plan.expire_leases()
        retaken = plan.lease("current")
        assert retaken.job_id == job.job_id
        # The ex-holder reports completion but its artifact never
        # arrived (e.g. pruned from a shared store): the current
        # holder's live lease must survive, exactly like fail().
        assert not plan.complete("slow", job.job_id)
        assert plan.jobs[job.job_id].state == "leased"
        assert plan.jobs[job.job_id].worker == "current"

    def test_fail_requeues_with_exclusion(self):
        plan, _ = make_plan({})
        job = plan.lease("crashy")
        plan.fail("crashy", job.job_id, "boom")
        requeued = plan.jobs[job.job_id]
        assert requeued.state == "pending"
        assert "crashy" in requeued.excluded
        assert requeued.error == "boom"

    def test_stale_fail_report_is_ignored(self):
        plan, clock = make_plan({})
        job = plan.lease("w1")
        clock.advance(10.1)
        plan.expire_leases()
        retaken = plan.lease("w2")
        assert retaken.job_id == job.job_id
        plan.fail("w1", job.job_id, "late report")  # w1 no longer holds it
        assert plan.jobs[job.job_id].state == "leased"
        assert plan.jobs[job.job_id].worker == "w2"


class TestWorkerSlots:
    def test_slots_are_stable_first_contact_order(self):
        plan, _ = make_plan({})
        assert plan.registry.slot("a") == 0
        assert plan.registry.slot("b") == 1
        assert plan.registry.slot("a") == 0


class _PrefixCollidingStage:
    """Stage whose fingerprints share a 16-hex-char prefix per seed."""

    name = "collide"

    def cache_key(self, config) -> str:
        return "a" * 16 + f"{config.seed:048x}"


class TestJobKeyCollisions:
    def test_shared_16_char_prefix_builds_distinct_jobs(self, monkeypatch):
        """Regression: jobs were keyed by digest[:16], silently aliasing
        distinct fingerprints onto one job — the second config's
        artifact was never computed."""
        monkeypatch.setattr(
            "repro.cluster.plan.default_stages",
            lambda: (_PrefixCollidingStage(),),
        )
        plan, _ = make_plan({"seed": [1, 2]})
        digests = sorted(job.digest for job in plan.jobs.values())
        assert len(digests) == 2  # one job per fingerprint, not per prefix
        assert digests[0] != digests[1]
        assert digests[0][:16] == digests[1][:16]  # the collision is real
        # Both jobs are independently leasable and completable.
        first = plan.lease("w")
        second = plan.lease("w")
        assert {first.digest, second.digest} == set(digests)
        finish(plan, first)
        finish(plan, second)
        assert plan.done

    def test_job_id_uses_full_digest(self):
        plan, _ = make_plan({})
        for job in plan.jobs.values():
            assert job.job_id == f"{job.stage}:{job.digest}"
            assert len(job.digest) == 64  # sha256 hex, untruncated
            assert job.short_id == f"{job.stage}:{job.digest[:16]}"
            assert plan.job_for(job.stage, job.digest) is job


class TestWorkerAges:
    def test_ages_track_last_contact(self):
        plan, clock = make_plan({})
        plan.lease("w1")
        clock.advance(5.0)
        plan.lease("w2")
        clock.advance(2.0)
        ages = plan.registry.ages()
        assert ages["w1"] == pytest.approx(7.0)
        assert ages["w2"] == pytest.approx(2.0)


class TestAffinity:
    """Grants follow creation order; held upstream artifacts (the peer
    routing table) never steer them."""

    GRID = {"seed": [1, 2], "voltages": [(1.325,), (1.175,), (1.025,)]}

    def _drain_training(self, plan):
        """Complete both training chains; returns per-seed upstream keys.

        Completion is holder-agnostic, so the 6 training jobs (3 stages
        x 2 seeds) are finished directly — leaving every dram-eval job
        ready at once, where only the grant order decides.
        """
        training = sorted(
            (j for j in plan.jobs.values() if j.stage != "dram-eval"),
            key=lambda j: j.depth,
        )
        assert len(training) == 6
        for job in training:
            finish(plan, job, "w-train")
        upstream = {}
        for job in plan.jobs.values():
            if job.stage == "dram-eval":
                upstream.setdefault(job.config.seed, list(job.upstream))
        return upstream

    def test_no_holdings_falls_back_to_creation_order(self):
        plan, _ = make_plan(self.GRID)
        upstream = self._drain_training(plan)
        first_seed = sorted(upstream)[0]
        job = plan.lease("w2")  # nothing reported
        assert job.config.seed == first_seed

    def test_reported_holdings_never_reorder_grants(self):
        plan, _ = make_plan(self.GRID)
        upstream = self._drain_training(plan)
        seeds = sorted(upstream)
        # w2 holds the LATER seed's chain; its dram jobs still wait
        # behind the first seed's in creation order.
        plan.registry.set_holdings("w2", upstream[seeds[1]])
        job = plan.lease("w2")
        assert job.stage == "dram-eval"
        assert job.config.seed == seeds[0]

    def test_upstream_keys_cover_the_chain_prefix(self):
        plan, _ = make_plan({})
        by_depth = sorted(plan.jobs.values(), key=lambda j: j.depth)
        for i, job in enumerate(by_depth):
            assert len(job.upstream) == i
            for (stage_name, digest), dep_job in zip(job.upstream, by_depth):
                assert (stage_name, digest) == (dep_job.stage, dep_job.digest)


class TestJournal:
    def _journal(self, tmp_path, resume=True):
        from repro.cluster.journal import SweepJournal

        return SweepJournal(tmp_path / "journal.jsonl", resume=resume)

    def test_done_jobs_replay_without_re_lease(self, tmp_path):
        store = ArtifactStore()
        journal = self._journal(tmp_path)
        plan, _ = make_plan({}, store=store, journal=journal)
        first = plan.lease("w1")
        finish(plan, first, "w1")
        journal.close()

        # "Crash": rebuild from the same journal + store.
        resumed, _ = make_plan({}, store=store, journal=self._journal(tmp_path))
        replayed = resumed.jobs[first.job_id]
        assert replayed.state == "done"
        assert replayed.attempts == 0  # never re-leased
        assert replayed.worker == "w1"
        assert replayed.stats["worker"] == "w1"
        assert resumed.replayed_done == 1
        # The next lease continues the chain, not the done job.
        next_job = resumed.lease("w2")
        assert next_job.job_id != first.job_id
        assert first.job_id in next_job.deps

    def test_done_without_artifact_is_not_replayed(self, tmp_path):
        store = ArtifactStore()
        journal = self._journal(tmp_path)
        plan, _ = make_plan({}, store=store, journal=journal)
        job = plan.lease("w1")
        finish(plan, job, "w1")
        journal.close()

        # The artifact vanished (fresh in-memory store): the job must
        # run again — the store, not the journal, owns the bytes.
        resumed, _ = make_plan(
            {}, store=ArtifactStore(), journal=self._journal(tmp_path)
        )
        assert resumed.jobs[job.job_id].state == "pending"
        assert resumed.replayed_done == 0
        assert resumed.lease("w2").job_id == job.job_id

    def test_journal_of_a_different_sweep_is_refused(self, tmp_path):
        from repro.cluster.journal import JournalMismatch

        journal = self._journal(tmp_path)
        plan, _ = make_plan({}, journal=journal)
        journal.close()
        with pytest.raises(JournalMismatch):
            make_plan({"seed": [1, 2]}, journal=self._journal(tmp_path))

    def test_existing_journal_requires_resume(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.append({"event": "plan"})
        journal.close()
        with pytest.raises(ValueError, match="resume"):
            self._journal(tmp_path, resume=False)

    def test_truncated_tail_line_is_tolerated(self, tmp_path):
        store = ArtifactStore()
        journal = self._journal(tmp_path)
        plan, _ = make_plan({}, store=store, journal=journal)
        first = plan.lease("w1")
        finish(plan, first, "w1")
        second = plan.lease("w1")
        finish(plan, second, "w1")
        journal.close()

        # Simulate a crash mid-write: chop the final line in half.
        path = tmp_path / "journal.jsonl"
        text = path.read_text()
        path.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])

        journal2 = self._journal(tmp_path)
        resumed, _ = make_plan({}, store=store, journal=journal2)
        # The intact done event replays; the truncated one is dropped
        # (its artifact is still in the store, so nothing recomputes —
        # the job is simply eligible for a no-op re-lease cycle).
        assert resumed.jobs[first.job_id].state == "done"
        journal2.close()

        # Appending after a torn tail must not glue the new event onto
        # the partial line: the second life's plan header (and every
        # later event) survives a further replay intact.
        import json

        events = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line.strip() and self._is_json(line)
        ]
        assert [e["event"] for e in events].count("plan") == 2
        third, _ = make_plan({}, store=store, journal=self._journal(tmp_path))
        assert third.jobs[first.job_id].state == "done"

    @staticmethod
    def _is_json(line):
        import json

        try:
            json.loads(line)
            return True
        except json.JSONDecodeError:
            return False

    def test_transitions_are_journaled(self, tmp_path):
        import json

        store = ArtifactStore()
        journal = self._journal(tmp_path)
        plan, clock = make_plan({}, store=store, journal=journal)
        job = plan.lease("w1")
        clock.advance(10.1)
        plan.expire_leases()  # requeue
        retaken = plan.lease("w1")  # sole worker reclaims
        finish(plan, retaken, "w1")
        journal.close()

        events = [
            json.loads(line)
            for line in (tmp_path / "journal.jsonl").read_text().splitlines()
        ]
        kinds = [e["event"] for e in events]
        assert kinds == ["plan", "lease", "requeue", "lease", "done"]
        assert events[0]["plan_id"] == plan.plan_id
        assert events[-1]["digest"] == job.digest
