"""End-to-end tests for the service-layer matrix result cache.

Covers the PR-5 acceptance criteria: resubmitting an identical
``submit-matrix`` to a live or restarted server returns a byte-identical
payload without re-evaluating kernel pairs (asserted via the engine cache
counters), extended corpora reuse the cached prefix, identical in-flight
submissions coalesce onto one job, and the cache is observable over the
wire (``cache-stats``) and bypassable (``use_cache=False``).
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.api import AnalysisSession, make_spec
from repro.service import AnalysisServer
from repro.service.protocol import (
    CacheStatsRequest,
    ResultRequest,
    SubmitAnalyzeRequest,
    SubmitMatrixRequest,
    check_response,
    dump_message,
    encode_corpus,
)
from repro.strings.tokens import Token, WeightedString

SPEC = make_spec("kast", cut_weight=2)


@pytest.fixture(scope="module")
def strings():
    with AnalysisSession() as session:
        return session.corpus(small=True, seed=7)


@pytest.fixture
def server(tmp_path):
    with AnalysisServer(state_dir=str(tmp_path / "state")) as live:
        yield live


def submit(server, strings, **options):
    response = check_response(
        server.handle(
            SubmitMatrixRequest(
                spec=SPEC.to_dict(), strings=tuple(encode_corpus(strings)), **options
            ).to_payload()
        )
    )
    return response


def wait_result(server, job_id, wait=120.0):
    return check_response(
        server.handle(ResultRequest(job_id=job_id, wait=wait).to_payload())
    )


def canonical(payload):
    return json.dumps(payload, sort_keys=True)


def pair_counters(server):
    info = server.session.engine(SPEC).cache_info()
    return info["pair_hits"], info["pair_misses"]


class TestLiveResubmission:
    def test_identical_resubmission_is_a_byte_identical_hit(self, server, strings):
        corpus = strings[:8]
        first = wait_result(server, submit(server, corpus)["job_id"])
        counters = pair_counters(server)
        second = wait_result(server, submit(server, corpus)["job_id"])
        assert first.get("cache") == "miss"
        assert second.get("cache") == "hit"
        assert canonical(first["payload"]) == canonical(second["payload"])
        # No kernel-pair work at all: the engine caches were never consulted.
        assert pair_counters(server) == counters

    def test_sharded_resubmission_hits_too(self, server, strings):
        corpus = strings[:8]
        first = wait_result(server, submit(server, corpus, shards=3)["job_id"])
        counters = pair_counters(server)
        second = wait_result(server, submit(server, corpus, shards=3)["job_id"])
        assert second.get("cache") == "hit"
        assert canonical(first["payload"]) == canonical(second["payload"])
        assert pair_counters(server) == counters

    def test_use_cache_false_bypasses_but_stays_identical(self, server, strings):
        corpus = strings[:8]
        first = wait_result(server, submit(server, corpus)["job_id"])
        bypassed = wait_result(server, submit(server, corpus, use_cache=False)["job_id"])
        assert bypassed.get("cache") == "bypass"
        assert canonical(first["payload"]) == canonical(bypassed["payload"])

    def test_status_carries_the_cache_outcome(self, server, strings):
        from repro.service.protocol import StatusRequest

        job_id = submit(server, strings[:6])["job_id"]
        wait_result(server, job_id)
        status = check_response(server.handle(StatusRequest(job_id=job_id).to_payload()))
        assert status.get("cache") == "miss"


class TestRestartResubmission:
    def test_restarted_server_serves_from_cache_with_a_cold_engine(self, tmp_path, strings):
        corpus = strings[:8]
        state_dir = str(tmp_path / "state")
        with AnalysisServer(state_dir=state_dir) as first_server:
            original = wait_result(first_server, submit(first_server, corpus)["job_id"])
        with AnalysisServer(state_dir=state_dir) as second_server:
            again = wait_result(second_server, submit(second_server, corpus)["job_id"])
            assert again.get("cache") == "hit"
            # A freshly started server: zero pair evaluations ever happened.
            assert pair_counters(second_server) == (0, 0)
        assert canonical(original["payload"]) == canonical(again["payload"])

    def test_extended_corpus_reuses_cached_prefix_after_restart(self, tmp_path, strings):
        state_dir = str(tmp_path / "state")
        with AnalysisServer(state_dir=state_dir) as first_server:
            wait_result(first_server, submit(first_server, strings[:8])["job_id"])
        with AnalysisServer(state_dir=state_dir) as second_server:
            extended = wait_result(second_server, submit(second_server, strings[:12])["job_id"])
            hits, misses = pair_counters(second_server)
            assert extended.get("cache") == "extended"
            # Only pairs touching the four appended strings were evaluated:
            # at most 8+9+10+11 = 38 of the 66 total index pairs.
            assert 0 < hits + misses <= 38
        # Bit-identical to a cold full computation.
        with AnalysisSession() as cold:
            cold_strings = cold.corpus(small=True, seed=7)[:12]
            matrix = cold.matrix(SPEC, cold_strings)
            reference = cold.engine(SPEC).matrix_payload(matrix, cold_strings)
        assert canonical(reference) == canonical(extended["payload"])


class TestDistributedPrefixReuse:
    def test_distributed_job_skips_blocks_covered_by_the_cache(self, tmp_path, strings):
        created_blocks = []
        with AnalysisServer(state_dir=str(tmp_path / "state")) as server:
            wait_result(server, submit(server, strings[:8])["job_id"])

            original_create = server.store.create

            def counting_create(kind, *args, **kwargs):
                record = original_create(kind, *args, **kwargs)
                if kind == "block":
                    created_blocks.append(record.options)
                return record

            server.store.create = counting_create
            extended = wait_result(
                server, submit(server, strings[:12], shards=3, distributed=True)["job_id"]
            )
        assert extended.get("cache") == "extended"
        # Blocks: (0,4), (4,8), (8,12).  The three pairs fully inside the
        # cached 8-string prefix are skipped; only pairs touching (8,12)
        # become leasable records.
        assert len(created_blocks) == 3
        assert all(tuple(options["second"]) == (8, 12) for options in created_blocks)
        # And the result equals a cold full computation bit for bit.
        with AnalysisSession() as cold:
            cold_strings = cold.corpus(small=True, seed=7)[:12]
            matrix = cold.matrix(SPEC, cold_strings)
            reference = cold.engine(SPEC).matrix_payload(matrix, cold_strings)
        assert canonical(reference) == canonical(extended["payload"])

    def test_distributed_exact_hit_creates_no_blocks(self, tmp_path, strings):
        created = []
        with AnalysisServer(state_dir=str(tmp_path / "state")) as server:
            wait_result(server, submit(server, strings[:8])["job_id"])
            original_create = server.store.create
            server.store.create = lambda kind, *a, **k: (
                created.append(kind) if kind == "block" else None,
                original_create(kind, *a, **k),
            )[1]
            hit = wait_result(
                server, submit(server, strings[:8], shards=2, distributed=True)["job_id"]
            )
        assert hit.get("cache") == "hit"
        assert created == []


class TestAnalyzeProbesOnce:
    def test_analyze_job_probes_the_matrix_cache_once(self, server, strings):
        def analyze():
            response = check_response(
                server.handle(
                    SubmitAnalyzeRequest(
                        spec=SPEC.to_dict(), strings=tuple(encode_corpus(strings))
                    ).to_payload()
                )
            )
            return wait_result(server, response["job_id"])

        cold = analyze()
        counters = server.session.matrix_cache.counters()
        assert cold.get("cache") == "miss"
        assert (counters["hits"], counters["misses"]) == (0, 1)
        warm = analyze()
        counters = server.session.matrix_cache.counters()
        assert warm.get("cache") == "hit"
        assert (counters["hits"], counters["misses"]) == (1, 1)
        assert canonical(cold["payload"]) == canonical(warm["payload"])


#: ``(submit options, cached prefix length before a restart or None,
#: expected cache outcome)`` of every way a matrix job reaches a payload.
GRAM_PATHS = {
    "shards-1": (dict(shards=1), None, "miss"),
    "shards-3-in-process": (dict(shards=3), None, "miss"),
    "shards-3-distributed": (dict(shards=3, distributed=True), None, "miss"),
    "exact-hit-after-restart": (dict(shards=1), "all", "hit"),
    "prefix-extended-after-restart": (dict(shards=1), 5, "extended"),
    "prefix-extended-after-restart-distributed": (dict(shards=3, distributed=True), 5, "extended"),
    "use-cache-false": (dict(use_cache=False), None, "bypass"),
}


class TestOneGramPath:
    """Every matrix-job path yields the bytes of the in-process payload."""

    @pytest.fixture(scope="class")
    def corpus(self, strings):
        duplicate = WeightedString(strings[2].tokens, name="duplicate-of-2", label=strings[2].label)
        single = WeightedString([Token("open", 4096)], name="single-token", label=strings[0].label)
        return [*strings[:6], duplicate, single]

    @pytest.fixture(scope="class")
    def reference(self, corpus):
        with AnalysisSession() as session:
            matrix = session.matrix(SPEC, corpus)
            return dump_message(session.engine(SPEC).matrix_payload(matrix, corpus))

    @pytest.mark.parametrize("path", sorted(GRAM_PATHS))
    def test_payload_bytes_equal_in_process_payload(self, tmp_path, corpus, reference, path):
        options, cached, expected = GRAM_PATHS[path]
        state_dir = str(tmp_path / "state")
        if cached is not None:
            prefix = corpus if cached == "all" else corpus[:cached]
            with AnalysisServer(state_dir=state_dir) as first_server:
                wait_result(first_server, submit(first_server, prefix)["job_id"])
        with AnalysisServer(state_dir=state_dir) as server:
            result = wait_result(server, submit(server, corpus, **options)["job_id"])
        assert result.get("cache") == expected
        assert dump_message(result["payload"]) == reference


class TestCoalescing:
    def test_identical_inflight_submissions_share_one_job(self, tmp_path, strings):
        corpus = strings[:6]
        with AnalysisServer(state_dir=str(tmp_path / "state"), max_job_workers=1) as server:
            release = threading.Event()
            server.session.submit_work("blocker", lambda: release.wait(30))
            try:
                first = submit(server, corpus)
                second = submit(server, corpus)
                third = submit(server, corpus, normalized=False)  # different work
            finally:
                release.set()
            assert second["job_id"] == first["job_id"]
            assert second.get("coalesced") is True
            assert third["job_id"] != first["job_id"]
            assert not third.get("coalesced")
            payload = wait_result(server, first["job_id"])
            assert payload["payload"]["normalized"] is True
            wait_result(server, third["job_id"])

    def test_every_coalesced_waiter_can_fetch_with_forget(self, tmp_path, strings):
        # Regression: all coalesced clients poll with forget=True (the
        # default client path); the record must survive until the LAST
        # waiter collected it.
        corpus = strings[:6]
        with AnalysisServer(state_dir=str(tmp_path / "state"), max_job_workers=1) as server:
            release = threading.Event()
            server.session.submit_work("blocker", lambda: release.wait(30))
            try:
                job_id = submit(server, corpus)["job_id"]
                coalesced = submit(server, corpus)
                assert coalesced["job_id"] == job_id and coalesced["coalesced"] is True
            finally:
                release.set()
            first = check_response(
                server.handle(ResultRequest(job_id=job_id, wait=120, forget=True).to_payload())
            )
            second = check_response(
                server.handle(ResultRequest(job_id=job_id, wait=10, forget=True).to_payload())
            )
            assert canonical(first["payload"]) == canonical(second["payload"])
            # Only the last waiter's fetch actually dropped the record.
            with pytest.raises(KeyError):
                server.store.get(job_id)

    def test_finished_job_is_not_coalesced_onto(self, server, strings):
        corpus = strings[:6]
        first = submit(server, corpus)
        wait_result(server, first["job_id"])
        again = submit(server, corpus)
        assert again["job_id"] != first["job_id"]
        assert wait_result(server, again["job_id"]).get("cache") == "hit"


class TestCacheStats:
    def test_stats_track_hits_and_stores(self, server, strings):
        corpus = strings[:6]
        stats = check_response(server.handle(CacheStatsRequest().to_payload()))
        assert stats["enabled"] is True
        assert stats["entries"] == 0
        wait_result(server, submit(server, corpus)["job_id"])
        wait_result(server, submit(server, corpus)["job_id"])
        stats = check_response(server.handle(CacheStatsRequest().to_payload()))
        assert stats["entries"] == 1
        assert stats["stores"] == 1
        assert stats["hits"] == 1

    def test_disabled_cache_reports_disabled(self, tmp_path, strings):
        with AnalysisServer(
            state_dir=str(tmp_path / "state"), result_cache=False, pair_store=False
        ) as server:
            stats = check_response(server.handle(CacheStatsRequest().to_payload()))
            assert stats["enabled"] is False
            assert stats["pair_store"] == {"enabled": False}
            # The model store rides on the state dir and is always present
            # (empty here) — only the cache layers have an off switch.
            assert stats["models"]["enabled"] is True
            assert stats["models"]["models"] == 0
            # Jobs still run, stamped as bypass.
            done = wait_result(server, submit(server, strings[:5])["job_id"])
            assert done.get("cache") is None or done.get("cache") == "bypass"

    def test_stats_report_the_pair_store_section(self, server, strings):
        wait_result(server, submit(server, strings[:5])["job_id"])
        stats = check_response(server.handle(CacheStatsRequest().to_payload()))
        section = stats["pair_store"]
        assert section["enabled"] is True
        # 10 off-diagonal pairs + 5 self values, all novel on a cold store.
        assert section["entries"] == 15
        assert section["puts"] == 15
        assert section["invalid"] == 0

    def test_maintenance_sweep_enforces_the_lru_bound(self, tmp_path, strings):
        with AnalysisServer(
            state_dir=str(tmp_path / "state"), max_cache_entries=1, gc_interval=3600
        ) as server:
            wait_result(server, submit(server, strings[:4])["job_id"])
            wait_result(server, submit(server, strings[:6])["job_id"])
            # store() self-enforces the bound; the maintenance tick would too.
            assert server.matrix_cache.stats()["entries"] == 1
            server._maintenance_tick()
            assert server.matrix_cache.stats()["entries"] == 1
