"""Resource teardown and per-request trace instrumentation."""

from __future__ import annotations

import pytest

from repro.core.client import DHnswClient
from repro.serving.trace import TraceContext, span
from repro.telemetry import render_trace


def make_client(deployment, name, **overrides):
    config = deployment.config.replace(**overrides)
    return DHnswClient(deployment.layout, deployment.meta, config,
                       cost_model=deployment.effective_cost_model,
                       name=name)


class TestTeardown:
    def test_close_is_idempotent(self, built_deployment, small_dataset):
        client = make_client(built_deployment, "td1")
        client.search_batch(small_dataset.queries[:4], k=5)
        client.close()
        assert client.ctx._observer_token is None
        client.close()  # second close must be a no-op, not an error
        client.close()

    def test_close_without_any_search(self, built_deployment):
        client = make_client(built_deployment, "td2")
        client.close()

    def test_context_manager_closes_on_exception(self, built_deployment,
                                                 small_dataset):
        with pytest.raises(RuntimeError, match="boom"):
            with make_client(built_deployment, "td3") as client:
                client.search_batch(small_dataset.queries[:4], k=5)
                assert client.ctx._observer_token is not None
                raise RuntimeError("boom")
        # __exit__ ran despite the raise: the grace-period pin is gone.
        assert client.ctx._observer_token is None


class TestTraceContext:
    def test_span_helper_tolerates_no_trace(self):
        with span(None, "fetch"):
            pass  # must be a no-op nullcontext

    def test_same_stage_accumulates(self):
        trace = TraceContext(request_id=1)
        with trace.stage("compute"):
            pass
        with trace.stage("compute"):
            pass
        report = {stage.name: stage for stage in trace.report()}
        assert report["compute"].calls == 2

    def test_search_batch_attaches_stage_costs(self, built_deployment,
                                               small_dataset):
        client = make_client(built_deployment, "tr1")
        try:
            result = client.search_batch(small_dataset.queries[:8], k=10)
        finally:
            client.close()
        trace = result.trace
        assert trace is not None
        stages = {stage.name: stage for stage in trace.report()}
        for name in ("route", "plan", "fetch", "decode", "compute", "merge"):
            assert name in stages, f"missing stage {name!r}"
        # Cold batch: the fetch stage moved every cluster byte.
        assert stages["fetch"].bytes_read > 0
        assert stages["compute"].sim_us > 0.0
        # Stage-attributed simulated time never exceeds the batch total
        # (route/plan/merge are free in the cost model; fetch+decode+compute
        # are the charged phases).
        assert trace.total_sim_us <= result.breakdown.total_us + 1e-6

    def test_pipelined_trace_attributes_decode_and_compute(
            self, built_deployment, small_dataset):
        client = make_client(built_deployment, "tr2", pipeline_waves=True)
        try:
            result = client.search_batch(small_dataset.queries[:12], k=10)
        finally:
            client.close()
        assert result.overlap_saved_us > 0.0
        stages = {stage.name: stage for stage in result.trace.report()}
        assert stages["decode"].sim_us > 0.0
        assert stages["compute"].sim_us > 0.0

    def test_render_trace_format(self, built_deployment, small_dataset):
        client = make_client(built_deployment, "tr3")
        try:
            result = client.search_batch(small_dataset.queries[:4], k=5)
        finally:
            client.close()
        text = render_trace(result.trace)
        assert text.startswith("=== request #")
        for name in ("fetch", "compute", "total"):
            assert name in text

    def test_request_ids_increment(self, built_deployment, small_dataset):
        client = make_client(built_deployment, "tr4")
        try:
            first = client.search_batch(small_dataset.queries[:2], k=5)
            second = client.search_batch(small_dataset.queries[:2], k=5)
        finally:
            client.close()
        assert second.trace.request_id == first.trace.request_id + 1


class TestEfSearchDefault:
    """Without ``ef_search`` a search uses the paper's ``2k`` beam."""

    def test_config_default_matches_explicit_argument(self, built_deployment,
                                                      small_dataset):
        import numpy as np

        queries = small_dataset.queries[:6]
        defaulted = make_client(built_deployment, "ef1")
        explicit = make_client(built_deployment, "ef2")
        try:
            from_default = defaulted.search_batch(queries, k=10)
            from_arg = explicit.search_batch(queries, k=10, ef_search=20)
            for one, other in zip(from_default.results, from_arg.results):
                np.testing.assert_array_equal(one.ids, other.ids)
            assert from_default.sub_evals == from_arg.sub_evals
        finally:
            defaulted.close()
            explicit.close()

    def test_explicit_argument_overrides_config(self, built_deployment):
        client = make_client(built_deployment, "ef3")
        try:
            assert client.engine.resolve_ef(10, 64) == 64
            # Never below k, whatever the source.
            assert client.engine.resolve_ef(100, 5) == 100
        finally:
            client.close()

    def test_two_k_rule_without_config(self, built_deployment):
        client = make_client(built_deployment, "ef4")
        try:
            assert client.engine.resolve_ef(10, None) == 20
        finally:
            client.close()
