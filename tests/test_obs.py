"""The unified observability subsystem: spans, metrics, exporters.

Covers the tracer's determinism contract (seed-derived ids, balanced
B/E by construction, byte-identical JSONL for a fixed seed), the typed
metrics registry and its compatibility facade over ``SimStats`` link
accounting, every export sink plus its own validator/linter, the
non-perturbation guarantee (tracing never changes CC/rounds), and the
``repro-agg obs`` CLI verb.
"""

import json
import random

import pytest

from repro.analysis import run_protocol
from repro.cli import main
from repro.core.params import AGG_PHASES, VERI_PHASES, params_for
from repro.graphs import grid_graph
from repro.obs import ObsCapture, MetricsRegistry, merge_counter_tree
from repro.obs import export as obs_export
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.obs.spans import SpanTracer

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Never leak an activated tracer/registry across tests."""
    yield
    obs_spans.deactivate()
    obs_metrics.deactivate()


# --------------------------------------------------------------------- #
# span tracer
# --------------------------------------------------------------------- #


class TestSpanTracer:
    def test_ids_are_seed_derived(self):
        a, b = SpanTracer(seed=7), SpanTracer(seed=7)
        assert a.trace_id == b.trace_id
        assert a.begin("x") == b.begin("x")
        assert SpanTracer(seed=8).trace_id != a.trace_id

    def test_rejects_unknown_detail(self):
        with pytest.raises(ValueError):
            SpanTracer(detail="verbose")

    def test_parent_child_nesting(self):
        tr = SpanTracer()
        outer = tr.begin("outer", round=0)
        inner = tr.begin("inner", round=1)
        tr.end(round=2)
        tr.end(round=3)
        spans = {s["sid"]: s for s in tr.spans}
        assert spans[inner]["parent"] == outer
        assert spans[outer]["parent"] is None
        assert spans[outer]["t0"] == 0 and spans[outer]["t1"] == 3

    def test_tracks_are_independent(self):
        tr = SpanTracer()
        a = tr.begin("a", tid=1, round=0)
        b = tr.begin("b", tid=2, round=0)
        tr.end(tid=1, round=5)
        tr.end(tid=2, round=5)
        spans = {s["sid"]: s for s in tr.spans}
        # Different tids never nest into each other.
        assert spans[a]["parent"] is None
        assert spans[b]["parent"] is None

    def test_unmatched_end_is_tolerated(self):
        tr = SpanTracer()
        assert tr.end(round=3) is None

    def test_end_never_precedes_begin(self):
        tr = SpanTracer()
        tr.begin("x", round=10)
        span = tr.end(round=2)  # clock regression: clamp, don't invert
        assert span["t1"] >= span["t0"]

    def test_close_all_balances_aborted_runs(self):
        tr = SpanTracer()
        tr.begin("outer", round=0)
        tr.begin("inner", round=4)
        assert tr.close_all() == 2
        assert all(s["t1"] is not None for s in tr.spans)
        doc = obs_export.chrome_trace(tr)
        assert obs_export.validate_chrome_trace(doc) == []

    def test_max_round_high_water(self):
        tr = SpanTracer()
        tr.begin("x", round=0)
        tr.event("tick", round=42)
        tr.end()  # no round: closes at the high-water mark
        assert tr.spans[0]["t1"] == 42

    def test_process_groups(self):
        tr = SpanTracer()
        pid = tr.push_process("unit-a")
        sid = tr.begin("work", round=0)
        tr.end(round=1)
        tr.pop_process()
        sid2 = tr.begin("after", round=1)
        tr.end(round=2)
        spans = {s["sid"]: s for s in tr.spans}
        assert pid >= 2 and tr.processes[pid] == "unit-a"
        assert spans[sid]["pid"] == pid
        assert spans[sid2]["pid"] == 0

    def test_span_context_manager(self):
        tr = SpanTracer()
        with tr.span("block", round=0):
            tr.event("inside", round=7)
        assert tr.spans[0]["t1"] == 7

    def test_activation_sets_module_guards(self):
        assert not obs_spans.enabled
        obs_spans.activate(SpanTracer(detail="messages"))
        assert obs_spans.enabled and obs_spans.messages
        obs_spans.activate(SpanTracer(detail="off"))
        assert not obs_spans.enabled and not obs_spans.messages
        assert obs_spans.active() is not None
        obs_spans.deactivate()
        assert obs_spans.active() is None


# --------------------------------------------------------------------- #
# metrics registry
# --------------------------------------------------------------------- #


class TestMetricsRegistry:
    def test_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total")
        c.inc(protocol="a")
        c.inc(2, protocol="a")
        c.inc(protocol="b")
        assert c.samples() == [
            ("hits_total", (("protocol", "a"),), 3),
            ("hits_total", (("protocol", "b"),), 1),
        ]

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_last_write_wins(self):
        g = MetricsRegistry().gauge("g")
        g.set(1)
        g.set(5)
        assert g.samples() == [("g", (), 5)]

    def test_histogram_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 100.0):
            h.observe(v)
        samples = dict(
            ((name, labels), value) for name, labels, value in h.samples()
        )
        assert samples[("h_bucket", (("le", "1"),))] == 1
        assert samples[("h_bucket", (("le", "10"),))] == 2
        assert samples[("h_bucket", (("le", "+Inf"),))] == 3
        assert samples[("h_count", ())] == 3
        assert samples[("h_sum", ())] == 105.5

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=(5.0, 1.0))
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            reg.histogram("h", buckets=(1.0, 3.0))

    def test_kind_conflicts_are_errors(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_sample_order_ignores_recording_order(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("m").inc(link="1>2")
        a.counter("m").inc(link="0>1")
        b.counter("m").inc(link="0>1")
        b.counter("m").inc(link="1>2")
        assert a.as_samples() == b.as_samples()

    def test_record_run_facade(self):
        reg = MetricsRegistry()
        obs_metrics.record_run(
            reg,
            protocol="algorithm1",
            cc_bits=300,
            rounds=150,
            flooding_rounds=20,
            correct=True,
            overhead_bits=64,
            extra={"retransmissions": 3, "suspects": 1, "violations": ()},
            link_stats={"attempts": {"0>1": 2}, "budget": 4},
        )
        samples = {
            (name, labels): value
            for name, labels, value in reg.as_samples()
        }
        proto = (("protocol", "algorithm1"),)
        assert samples[("repro_runs_total", proto)] == 1
        assert samples[("repro_run_cc_bits", proto)] == 300
        assert samples[("repro_transport_retransmissions_total", proto)] == 3
        assert samples[("repro_detector_suspects_total", proto)] == 1
        assert (
            samples[
                (
                    "repro_transport_link_retransmit_attempts_total",
                    (("link", "0>1"),),
                )
            ]
            == 2
        )
        assert samples[("repro_transport_retransmit_budget", ())] == 4

    def test_record_unit_latency_zero_samples(self):
        reg = MetricsRegistry()
        obs_metrics.record_unit_latency(reg, [], jobs=4)  # must not raise
        samples = {name for name, _, _ in reg.as_samples()}
        assert "repro_exec_unit_wall_p50_seconds" not in samples
        assert "repro_exec_jobs" in samples

    def test_record_unit_latency_percentiles(self):
        reg = MetricsRegistry()
        obs_metrics.record_unit_latency(reg, [1.0, 2.0, 3.0, 4.0], jobs=2)
        samples = {
            name: value for name, _, value in reg.as_samples()
        }
        assert samples["repro_exec_unit_wall_p50_seconds"] == 2.5
        assert samples["repro_exec_unit_wall_seconds_count"] == 4


class TestMergeCounterTree:
    """Satellite: the single merge rule behind SimStats.absorb."""

    def test_numeric_leaves_add(self):
        mine = {"attempts": {"0>1": 2}, "budget": 3}
        merge_counter_tree(
            mine, {"attempts": {"0>1": 1, "1>2": 5}, "budget": 4}
        )
        assert mine == {"attempts": {"0>1": 3, "1>2": 5}, "budget": 4}

    def test_non_numeric_overwrites(self):
        mine = {"cfg": {"mode": "fixed"}}
        merge_counter_tree(mine, {"cfg": {"mode": "adaptive"}})
        assert mine["cfg"]["mode"] == "adaptive"

    def test_matches_legacy_manual_merge(self):
        """Regression: byte-for-byte the same result as the hand-rolled
        loop ``SimStats.absorb`` used before the extraction."""

        def legacy(mine, other):
            for section, leaves in other.items():
                if isinstance(leaves, dict):
                    dst = mine.setdefault(section, {})
                    for leaf, n in leaves.items():
                        prev = dst.get(leaf, 0)
                        if isinstance(n, (int, float)) and isinstance(
                            prev, (int, float)
                        ):
                            dst[leaf] = prev + n
                        else:
                            dst[leaf] = n
                else:
                    mine[section] = leaves
            return mine

        rng = random.Random(0)
        for _ in range(50):
            a = {
                "attempts": {
                    f"{rng.randrange(4)}>{rng.randrange(4)}": rng.randrange(9)
                    for _ in range(rng.randrange(4))
                },
                "budget": rng.randrange(5),
            }
            b = {
                "attempts": {
                    f"{rng.randrange(4)}>{rng.randrange(4)}": rng.randrange(9)
                    for _ in range(rng.randrange(4))
                },
                "cap_hits": {"0>1": rng.randrange(3)},
            }
            import copy

            assert merge_counter_tree(
                copy.deepcopy(a), copy.deepcopy(b)
            ) == legacy(copy.deepcopy(a), copy.deepcopy(b))

    def test_simstats_absorb_still_merges_links(self):
        from repro.sim.stats import SimStats

        a, b = SimStats(), SimStats()
        a.link_stats = {"attempts": {"0>1": 2}, "budget": 3}
        b.link_stats = {"attempts": {"0>1": 1, "2>3": 4}, "budget": 3}
        a.absorb(b)
        assert a.link_stats["attempts"] == {"0>1": 3, "2>3": 4}


# --------------------------------------------------------------------- #
# exporters and the obs-verb analysis helpers
# --------------------------------------------------------------------- #


def _sample_tracer():
    tr = SpanTracer(seed=3)
    with tr.span("run", cat="protocol", round=0):
        tr.begin("phase_a", round=0)
        tr.event("mark", round=2, detail="x")
        tr.end(round=5)
        tr.begin("phase_b", round=5)
        tr.end(round=9)
    return tr


def _sample_registry():
    reg = MetricsRegistry()
    reg.counter("repro_runs_total", "runs").inc(protocol="algorithm1")
    reg.gauge("repro_run_cc_bits", "cc").set(300, protocol="algorithm1")
    reg.histogram(
        "repro_run_rounds_hist", "rounds", buckets=(100.0, 200.0)
    ).observe(150)
    return reg


class TestExporters:
    def test_jsonl_lines_are_valid_json(self):
        lines = obs_export.jsonl_lines(_sample_tracer(), _sample_registry())
        rows = [json.loads(line) for line in lines]
        assert rows[0]["type"] == "meta"
        assert {"span", "event", "metric"} <= {r["type"] for r in rows}

    def test_jsonl_excludes_wall_by_default(self):
        tracer = _sample_tracer()
        assert "wall_ns" not in "".join(obs_export.jsonl_lines(tracer))
        assert "wall_ns" in "".join(
            obs_export.jsonl_lines(tracer, include_wall=True)
        )

    def test_chrome_trace_validates(self):
        doc = obs_export.chrome_trace(_sample_tracer())
        assert obs_export.validate_chrome_trace(doc) == []
        names = {e.get("name") for e in doc["traceEvents"]}
        assert {"run", "phase_a", "phase_b", "mark", "process_name"} <= names

    def test_prometheus_text_lints_clean(self):
        text = obs_export.prometheus_text(_sample_registry())
        assert obs_export.lint_prometheus(text) == []
        assert '# TYPE repro_runs_total counter' in text
        assert 'le="+Inf"' in text

    def test_write_and_load_both_formats(self, tmp_path):
        tracer = _sample_tracer()
        chrome = str(tmp_path / "t.json")
        jsonl = str(tmp_path / "t.jsonl")
        obs_export.write_chrome_trace(chrome, tracer)
        obs_export.write_jsonl(jsonl, tracer)
        a = obs_export.summarize_trace(obs_export.load_trace(chrome))
        b = obs_export.summarize_trace(obs_export.load_trace(jsonl))
        assert a["by_name"] == b["by_name"]
        assert a["spans"] == b["spans"] == 3


class TestTraceAnalysis:
    def test_summarize(self):
        summary = obs_export.summarize_trace(
            obs_export.chrome_trace(_sample_tracer())["traceEvents"]
        )
        assert summary["spans"] == 3
        assert summary["by_name"]["phase_a"]["total_us"] == 5000.0
        assert summary["instants_by_name"] == {"mark": 1}

    def test_diff_sorted_by_delta(self):
        a = {"by_name": {"x": {"total_us": 10.0}, "y": {"total_us": 5.0}}}
        b = {"by_name": {"x": {"total_us": 12.0}, "y": {"total_us": 50.0}}}
        rows = obs_export.diff_summaries(a, b)
        assert rows[0][0] == "y"  # |45| before |2|
        assert rows == [("y", 5.0, 50.0), ("x", 10.0, 12.0)]

    def test_top_spans(self):
        events = obs_export.chrome_trace(_sample_tracer())["traceEvents"]
        top = obs_export.top_spans(events, k=2)
        assert [s["name"] for s in top] == ["run", "phase_a"]
        assert obs_export.top_spans(events, k=0) == []

    def test_validate_catches_unbalanced(self):
        doc = {
            "traceEvents": [
                {"ph": "B", "name": "a", "pid": 0, "tid": 0, "ts": 0},
                {"ph": "E", "pid": 0, "tid": 0, "ts": 1},
                {"ph": "E", "pid": 0, "tid": 0, "ts": 2},
                {"ph": "B", "name": "b", "pid": 0, "tid": 1, "ts": 0},
            ]
        }
        errors = obs_export.validate_chrome_trace(doc)
        assert any("E without matching B" in e for e in errors)
        assert any("unclosed B" in e for e in errors)

    def test_validate_catches_malformed(self):
        assert obs_export.validate_chrome_trace([]) != []
        errors = obs_export.validate_chrome_trace(
            {"traceEvents": [{"ph": "Z", "ts": 0}, {"ph": "B", "ts": -5}]}
        )
        assert len(errors) >= 2

    def test_lint_catches_problems(self):
        bad = "\n".join(
            [
                "# TYPE m counter",
                "m{l=unquoted} 1",  # malformed labels
                "orphan 2",  # no TYPE
                "m 1",
                "m 1",  # duplicate
            ]
        )
        errors = obs_export.lint_prometheus(bad)
        assert any("malformed sample" in e for e in errors)
        assert any("no TYPE" in e for e in errors)
        assert any("duplicate" in e for e in errors)

    def test_lint_catches_histogram_without_inf(self):
        bad = "\n".join(
            [
                "# TYPE h histogram",
                'h_bucket{le="1"} 1',
                "h_sum 1",
                "h_count 1",
            ]
        )
        assert any(
            "+Inf" in e for e in obs_export.lint_prometheus(bad)
        )


# --------------------------------------------------------------------- #
# end-to-end capture: determinism + non-perturbation
# --------------------------------------------------------------------- #


def _traced_run(detail="phases", seed=0, protocol="algorithm1"):
    topo = grid_graph(4, 4)
    inputs = {u: 1 for u in topo.nodes()}
    with ObsCapture(seed=seed, detail=detail) as cap:
        record = run_protocol(
            protocol,
            topo,
            inputs,
            f=2,
            b=45 if protocol == "algorithm1" else None,
            rng=random.Random(seed),
        )
    cap.tracer.close_all()
    return record, cap


class TestEndToEnd:
    def test_phase_spans_present(self):
        record, cap = _traced_run()
        names = {s["name"] for s in cap.tracer.spans}
        assert "algorithm1" in names
        assert "agg.tree_construction" in names
        assert "agg.tree_aggregation" in names
        assert "veri.failed_parent" in names
        assert record.correct

    @pytest.mark.parametrize("protocol", ["algorithm1", "unknown_f"])
    def test_phase_spans_nest_under_protocol_root(self, protocol):
        _, cap = _traced_run(protocol=protocol)
        spans = {s["sid"]: s for s in cap.tracer.spans}
        root = next(s for s in cap.tracer.spans if s["name"] == protocol)
        for s in cap.tracer.spans:
            if s["name"].startswith(("agg.", "veri.")):
                assert spans[s["parent"]]["sid"] == root["sid"]

    @pytest.mark.parametrize("protocol", ["algorithm1", "unknown_f"])
    def test_first_pair_phase_spans_open_at_table_rounds(self, protocol):
        _, cap = _traced_run(protocol=protocol)
        topo = grid_graph(4, 4)
        p = params_for(topo)
        root_phases = sorted(
            (
                s
                for s in cap.tracer.spans
                if s["tid"] == topo.root
                and s["name"].startswith(("agg.", "veri."))
            ),
            key=lambda s: s["t0"],
        )
        first_pair = root_phases[: len(AGG_PHASES) + len(VERI_PHASES)]
        # The first pair runs in interval 1: AGG from round 1, then VERI.
        assert [s["name"] for s in first_pair] == [
            name for name, _k in AGG_PHASES + VERI_PHASES
        ]
        assert [s["t0"] for s in first_pair] == [
            first for first, _last in p.phase_spans(AGG_PHASES)
        ] + [p.agg_rounds + first for first, _last in p.phase_spans(VERI_PHASES)]

    def test_chrome_export_of_real_run_validates(self):
        _, cap = _traced_run(detail="messages")
        doc = obs_export.chrome_trace(cap.tracer)
        assert obs_export.validate_chrome_trace(doc) == []
        assert any(
            e.get("cat") == "message" for e in doc["traceEvents"]
        )

    @pytest.mark.parametrize("family", ["recovery", "churn", "byz"])
    def test_one_epoch_span_per_report_row(self, family):
        """Every resilience family emits one ``epoch[k]`` span per epoch
        report, in order, with the epoch's protocol run nested inside it
        and one ``epoch.discarded`` event per discarded epoch."""
        from repro.adversary.schedule import FailureSchedule
        from repro.resilience import (
            ChurnPolicy,
            RecoveryPolicy,
            TransportConfig,
        )
        from repro.resilience.byzantine import ByzantinePlan
        from repro.resilience.driver import drive_epochs
        from repro.resilience.epochs import ChurnPlan
        from repro.resilience.failover import FailoverPlan
        from repro.families.byz import ByzantineSchedule
        from repro.families.churn import ChurnSchedule

        topo = grid_graph(4, 4)
        inputs = {u: u + 1 for u in topo.nodes()}
        with ObsCapture(seed=0) as cap:
            if family == "recovery":  # the root dies: two epochs
                plan = FailoverPlan(
                    topo,
                    inputs,
                    FailureSchedule({0: 30}),
                    policy=RecoveryPolicy(transport=None),
                )
                out = drive_epochs(plan, "unknown_f")
            elif family == "churn":  # an amnesiac rejoin: two epochs
                plan = ChurnPlan(
                    topo,
                    inputs,
                    ChurnSchedule.from_spec(
                        "5:crash@r3,5:revive@r9:amnesiac", root=topo.root
                    ),
                    policy=ChurnPolicy(
                        transport=TransportConfig(retransmits=3)
                    ),
                )
                out = drive_epochs(plan, "unknown_f", rng=random.Random(7))
            else:  # an evicted equivocator: one discarded epoch
                plan = ByzantinePlan(
                    topo,
                    inputs,
                    ByzantineSchedule.from_spec("5:equivocate=3"),
                    f=1,
                )
                out = drive_epochs(
                    plan, "algorithm1", b=64, rng=random.Random(0)
                )
        cap.tracer.close_all()
        assert len(out.epochs) == 2
        spans = {s["sid"]: s for s in cap.tracer.spans}
        epochs = sorted(
            (s for s in cap.tracer.spans if s["cat"] == "epoch"),
            key=lambda s: s["t0"],
        )
        assert [s["name"] for s in epochs] == [
            f"epoch[{r.epoch}]" for r in out.epochs
        ]
        assert all(s["attrs"]["family"] == family for s in epochs)
        assert all(s["parent"] is None for s in epochs)
        for earlier, later in zip(epochs, epochs[1:]):
            assert earlier["t1"] <= later["t0"]
        runs = [s for s in cap.tracer.spans if s["cat"] == "protocol"]
        assert len(runs) == len(epochs)
        assert all(spans[s["parent"]]["cat"] == "epoch" for s in runs)
        discarded = [
            e for e in cap.tracer.events if e["name"] == "epoch.discarded"
        ]
        assert len(discarded) == sum(r.discarded for r in out.epochs)
        doc = obs_export.chrome_trace(cap.tracer)
        assert obs_export.validate_chrome_trace(doc) == []

    def test_metrics_recorded_through_runner(self):
        _, cap = _traced_run()
        samples = {name for name, _, _ in cap.registry.as_samples()}
        assert "repro_runs_total" in samples
        assert "repro_run_cc_bits" in samples
        text = obs_export.prometheus_text(cap.registry)
        assert obs_export.lint_prometheus(text) == []

    def test_tracing_never_perturbs_protocol_accounting(self):
        """The headline guarantee: CC/rounds are bit-for-bit identical
        with tracing off, at phases detail, and at messages detail."""
        baseline = run_protocol(
            "algorithm1",
            grid_graph(4, 4),
            {u: 1 for u in grid_graph(4, 4).nodes()},
            f=2,
            b=45,
            rng=random.Random(0),
        ).as_dict()
        for detail in ("off", "phases", "messages"):
            record, _ = _traced_run(detail=detail)
            assert record.as_dict() == baseline, detail

    def test_same_seed_byte_identical_jsonl(self):
        _, cap_a = _traced_run(seed=3)
        _, cap_b = _traced_run(seed=3)
        assert obs_export.jsonl_lines(
            cap_a.tracer, cap_a.registry
        ) == obs_export.jsonl_lines(cap_b.tracer, cap_b.registry)

    if HAVE_HYPOTHESIS:

        @given(seed=st.integers(min_value=0, max_value=2**16))
        @settings(max_examples=10, deadline=None)
        def test_byte_identity_property(self, seed):
            """Same seed -> byte-identical JSONL export, any seed."""
            _, a = _traced_run(seed=seed)
            _, b = _traced_run(seed=seed)
            assert obs_export.jsonl_lines(
                a.tracer, a.registry
            ) == obs_export.jsonl_lines(b.tracer, b.registry)

    def test_disabled_by_default(self):
        assert not obs_spans.enabled
        assert not obs_metrics.enabled
        record = run_protocol(
            "algorithm1",
            grid_graph(4, 4),
            {u: 1 for u in grid_graph(4, 4).nodes()},
            f=2,
            b=45,
            rng=random.Random(0),
        )
        assert record.correct


# --------------------------------------------------------------------- #
# progress telemetry (satellite)
# --------------------------------------------------------------------- #


class TestProgressLatency:
    def test_latency_summary_none_before_samples(self):
        from repro.exec.progress import ProgressTracker

        tracker = ProgressTracker()
        assert tracker.latency_summary() is None
        # zero completed units must render, not divide by zero
        assert "0/0" in tracker.render()

    def test_latency_summary_values(self):
        from repro.exec.progress import ProgressTracker

        tracker = ProgressTracker()
        for wall in (1.0, 2.0, 3.0):
            tracker(
                {"event": "unit_finished", "index": 0, "wall_s": wall}
            )
        summary = tracker.latency_summary()
        assert summary["p50"] == 2.0
        assert summary["mean"] == 2.0
        assert "p50" in tracker.render()

    def test_render_clamps_overflow(self):
        from repro.exec.progress import ProgressTracker

        tracker = ProgressTracker()
        # events without an engine_started header: done > total
        tracker({"event": "unit_finished", "index": 0, "wall_s": 0.1})
        bar = tracker.render(width=10)
        assert bar.count("#") <= 10

    def test_export_final_latency_into_registry(self):
        from repro.exec.progress import export_final_latency

        reg = MetricsRegistry()
        obs_metrics.activate(reg)
        try:
            export_final_latency([0.5, 1.5], jobs=3)
        finally:
            obs_metrics.deactivate()
        samples = {
            name: value for name, _, value in reg.as_samples()
        }
        assert samples["repro_exec_jobs"] == 3
        assert samples["repro_exec_unit_wall_p50_seconds"] == 1.0

    def test_export_final_latency_noop_when_disabled(self):
        from repro.exec.progress import export_final_latency

        export_final_latency([1.0])  # no active registry: silently skips


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #


class TestObsCli:
    def _run_traced(self, tmp_path, trace_name="t.json"):
        trace = str(tmp_path / trace_name)
        prom = str(tmp_path / "m.prom")
        rc = main(
            [
                "run",
                "--topology",
                "grid:4x4",
                "-f",
                "2",
                "-b",
                "45",
                "--trace-out",
                trace,
                "--metrics-out",
                prom,
            ]
        )
        assert rc == 0
        return trace, prom

    def test_run_writes_artifacts(self, tmp_path, capsys):
        trace, prom = self._run_traced(tmp_path)
        doc = json.load(open(trace))
        assert obs_export.validate_chrome_trace(doc) == []
        assert obs_export.lint_prometheus(open(prom).read()) == []
        capsys.readouterr()

    def test_jsonl_extension_selects_jsonl(self, tmp_path, capsys):
        trace, _ = self._run_traced(tmp_path, trace_name="t.jsonl")
        first = open(trace).readline()
        assert json.loads(first)["type"] == "meta"
        capsys.readouterr()

    def test_obs_summarize_and_top(self, tmp_path, capsys):
        trace, _ = self._run_traced(tmp_path)
        capsys.readouterr()
        assert main(["obs", "summarize", trace]) == 0
        out = capsys.readouterr().out
        assert "agg.tree_construction" in out
        assert main(["obs", "top", trace, "-k", "3"]) == 0
        assert "algorithm1" in capsys.readouterr().out

    def test_obs_diff(self, tmp_path, capsys):
        trace, _ = self._run_traced(tmp_path)
        capsys.readouterr()
        assert main(["obs", "diff", trace, trace]) == 0
        assert "delta" in capsys.readouterr().out

    def test_obs_validate_good_and_bad(self, tmp_path, capsys):
        trace, prom = self._run_traced(tmp_path)
        capsys.readouterr()
        assert main(["obs", "validate", trace, "--prom", prom]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "traceEvents": [
                        {"ph": "E", "pid": 0, "tid": 0, "ts": 1}
                    ]
                }
            )
        )
        assert main(["obs", "validate", str(bad)]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["summarize"], "obs summarize takes exactly one trace file"),
            (["summarize", "a", "b"],
             "obs summarize takes exactly one trace file"),
            (["diff", "a"], "obs diff takes exactly two trace files"),
            (["diff", "a", "b", "c"], "obs diff takes exactly two trace files"),
            (["top"], "obs top takes exactly one trace file"),
            (["top", "a", "b"], "obs top takes exactly one trace file"),
            (["validate", "a", "b"],
             "obs validate takes at most one trace file"),
        ],
    )
    def test_obs_path_count_is_a_usage_error(self, argv, message):
        with pytest.raises(SystemExit) as err:
            main(["obs", *argv])
        assert err.value.code == message  # printed to stderr, exit status 1

    def test_obs_validate_with_nothing_to_check_is_a_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["obs", "validate"])
        assert str(err.value) == "obs validate needs a trace file or --prom"

    def test_trace_detail_off_still_writes_metrics(self, tmp_path, capsys):
        prom = str(tmp_path / "m.prom")
        rc = main(
            [
                "run",
                "--topology",
                "grid:4x4",
                "-f",
                "2",
                "-b",
                "45",
                "--trace-detail",
                "off",
                "--metrics-out",
                prom,
            ]
        )
        assert rc == 0
        text = open(prom).read()
        assert "repro_runs_total" in text
        capsys.readouterr()

    def test_cli_same_seed_byte_identity(self, tmp_path, capsys):
        a, _ = self._run_traced(tmp_path, trace_name="a.jsonl")
        b, _ = self._run_traced(tmp_path, trace_name="b.jsonl")
        assert open(a).read() == open(b).read()
        capsys.readouterr()

    def test_captured_failing_unit_traces_one_execution(self, tmp_path, capsys):
        """A failing chaos unit with ``--capture-dir`` is re-executed under
        the recorder for its bundle; the re-execution adds no span and
        folds no run, so the artifacts match an uncaptured run's except
        for wall-clock samples."""
        argv = [
            "chaos", "--topology", "grid:4x4", "--protocol", "unknown_f",
            "--inject", "drop=0.08,dup=0.03,delay=0.05", "--seed", "2",
            "--seeds", "2",
        ]

        def traced(name, *extra):
            trace = str(tmp_path / f"{name}.jsonl")
            prom = str(tmp_path / f"{name}.prom")
            assert main([*argv, *extra, "--trace-out", trace,
                         "--metrics-out", prom]) == 1
            lines = [
                line for line in open(trace)
                if '"name": "repro_exec_unit_wall' not in line
            ]
            return lines, open(prom).read()

        plain, _ = traced("plain")
        captured, prom = traced(
            "captured", "--capture-dir", str(tmp_path / "bundles")
        )
        assert len(list((tmp_path / "bundles").iterdir())) == 2
        assert captured == plain
        assert 'repro_runs_total{protocol="unknown_f"} 2' in prom
        capsys.readouterr()
