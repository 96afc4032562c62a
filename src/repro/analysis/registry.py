"""The experiment registry: one record per reproduction experiment.

A single source of truth tying together the experiment ids used across
DESIGN.md / EXPERIMENTS.md, the benchmark modules that regenerate them,
the results files they write, and the paper artifact each one validates.
Tests use it to guarantee the documentation, benches, and results never
drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class Experiment:
    """One entry of the reproduction's per-experiment index."""

    exp_id: str
    paper_artifact: str
    claim: str
    bench_module: str
    results_files: Tuple[str, ...]


EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment(
        "E1",
        "Figure 1",
        "CC-vs-TC landscape: UB decay, bounds bracket, polylog gap, baseline points",
        "bench_figure1_tradeoff.py",
        ("figure1_analytic.txt", "figure1_measured.txt"),
    ),
    Experiment(
        "E2",
        "Table 2",
        "AGG/VERI guarantee matrix holds in every trial",
        "bench_table2_guarantees.py",
        ("table2_guarantees.txt",),
    ),
    Experiment(
        "E3",
        "Theorems 3 & 6",
        "AGG <= 11c / VERI <= 8c flooding rounds; CC O((t+1)logN) under budgets",
        "bench_agg_veri_cost.py",
        ("agg_veri_cost_vs_t.txt", "agg_veri_cost_vs_n.txt"),
    ),
    Experiment(
        "E4",
        "Theorem 1",
        "Algorithm 1 CC ~ f/b log^2 N + log^2 N (fit R^2 > 0.9), always correct",
        "bench_theorem1_scaling.py",
        (
            "theorem1_cc_vs_b.txt",
            "theorem1_cc_vs_f.txt",
            "theorem1_cc_vs_n.txt",
        ),
    ),
    Experiment(
        "E5",
        "Intro baselines",
        "brute force N logN / O(1) TC; folklore f logN / O(f) TC; TAG incorrect",
        "bench_baselines.py",
        (
            "baselines_bruteforce.txt",
            "baselines_folklore.txt",
            "baselines_tag.txt",
            "baselines_gossip.txt",
        ),
    ),
    Experiment(
        "E6",
        "Theorems 8/10/12",
        "UNIONSIZECP n/q shape; reduction overhead O(logn + logq)",
        "bench_lowerbound_twoparty.py",
        (
            "twoparty_unionsize_vs_q.txt",
            "twoparty_unionsize_vs_n.txt",
            "twoparty_reduction_overhead.txt",
        ),
    ),
    Experiment(
        "E7",
        "Lemma 11 / Theorem 9",
        "rank(M(q)) = q-1 exactly; |S| <= (q-1)^n exhaustively; rectangle chain",
        "bench_sperner.py",
        ("sperner_rank.txt", "sperner_exhaustive.txt", "sperner_rectangles.txt"),
    ),
    Experiment(
        "E8",
        "Unknown-f extension",
        "early termination: cost tracks actual failures, zero errors",
        "bench_unknown_f.py",
        ("unknown_f_early_termination.txt",),
    ),
    Experiment(
        "E9",
        "CAAF generality (Section 2)",
        "SUM/COUNT/MAX/OR identical cost profile, all correct",
        "bench_caaf.py",
        ("caaf_generality.txt",),
    ),
    Experiment(
        "E10",
        "Design ablation (Sections 4.2/4.3, Figure 3)",
        "speculation prevents loss; witnesses prevent double counting",
        "bench_ablation_speculation.py",
        ("ablation_speculation.txt",),
    ),
    Experiment(
        "E11",
        "Section 2 reduction (Patt-Shamir)",
        "SELECTION/MEDIAN exact within ceil(log domain) COUNT probes",
        "bench_quantiles.py",
        ("quantiles_selection.txt",),
    ),
    Experiment(
        "E12",
        "Worst-case definition of CC",
        "hill-climbed schedules cost more; zero-error never falsified",
        "bench_adversary_search.py",
        ("adversary_search.txt",),
    ),
    Experiment(
        "E13",
        "Section 7 simulation argument",
        "cut transcript / boundary size lower-bounds bottleneck CC",
        "bench_cut_simulation.py",
        ("cut_simulation.txt",),
    ),
    Experiment(
        "E14",
        "Theorem 2's logN/logb term ([7])",
        "timing codes: encoder >= counting bound, both ~ logN/logb",
        "bench_timing_encoding.py",
        ("timing_encoding.txt",),
    ),
    Experiment(
        "E15",
        "Motivating deployment",
        "periodic aggregation stays correct as the network decays",
        "bench_monitoring.py",
        ("monitoring.txt",),
    ),
    Experiment(
        "E16",
        "FT_0's max over topologies",
        "Algorithm 1 correct and budget-bounded across extreme families",
        "bench_topologies.py",
        ("topology_sweep.txt",),
    ),
    Experiment(
        "E17",
        "Section 3's probabilistic analysis",
        "< x/2 poisonable intervals; fallback rate <= 1/N; geometric pairs",
        "bench_interval_selection.py",
        ("interval_selection.txt",),
    ),
    Experiment(
        "E18",
        "Future work: necessity of diam(H) <= c*d",
        "violated assumption -> accepted-wrong results; honest c -> zero error",
        "bench_c_necessity.py",
        ("c_necessity.txt",),
    ),
    Experiment(
        "E19",
        "Section 2's crash-only fault model is load-bearing",
        "injected message faults -> silent-wrong; strict monitors -> all caught",
        "bench_chaos_resilience.py",
        ("chaos_resilience.txt",),
    ),
    Experiment(
        "E20",
        "Forensics: chaos failures hinge on a handful of fault decisions",
        "ddmin shrinks 89-714 recorded events to 1-4 decisive ones, "
        "1-minimal and strict-replayable",
        "bench_shrink_effectiveness.py",
        ("e20_shrink_effectiveness.txt",),
    ),
    Experiment(
        "E21",
        "Self-healing runtime: recovery outside the model, priced separately",
        "reliable transport restores exactness at unchanged protocol CC; "
        "root failover yields certified partials covering the surviving component",
        "bench_recovery.py",
        ("e21_recovery_tradeoff.txt", "e21_root_failover.txt"),
    ),
    Experiment(
        "E22",
        "Reproduction infrastructure: parallel execution engine",
        "jobs in {1,2,4,8} and warm-cache replay are byte-identical; "
        "orchestration >= 2x at 4 workers, warm cache >= 10x",
        "bench_exec_speedup.py",
        ("e22_exec_speedup.txt",),
    ),
    Experiment(
        "E23",
        "Message integrity: corruption outside the model, detected in-band",
        "checksum/mac detect 100% of delivered corruptions at every swept "
        "rate with zero silent-wrong results; overhead is framing+tag only "
        "(mac > checksum > off) and protocol CC is unchanged when clean",
        "bench_integrity.py",
        ("e23_integrity.txt",),
    ),
    Experiment(
        "E24",
        "Churn-tolerant epochs: exactly-once aggregation under rejoins",
        "exact results at every churn rate <= 0.2 (durable and mixed "
        "rejoins) with zero double-count / lost-contribution verdicts; a "
        "durable blip's protocol CC equals the clean transport baseline "
        "bit-for-bit (all repair traffic books as overhead)",
        "bench_churn_epochs.py",
        ("e24_churn_epochs.txt", "e24_churn_cc_isolation.txt"),
    ),
    Experiment(
        "E25",
        "Gray-failure resilience: slow-but-alive nodes vs the detector",
        "exact results at stall severities <= 2x in every transport arm "
        "with zero false-suspect / unbounded-stall verdicts; adaptive "
        "RTOs finish in under half the fixed-window rounds at identical "
        "protocol CC",
        "bench_gray_failures.py",
        ("e25_gray_failures.txt",),
    ),
    Experiment(
        "E26",
        "Reproduction infrastructure: unified observability",
        "disabled capture within 2% of baseline wall clock and phase-level "
        "tracing within 10%, with run records bit-identical across every "
        "detail level and same-seed traces byte-identical",
        "bench_obs_overhead.py",
        ("e26_obs_overhead.txt",),
    ),
    Experiment(
        "E27",
        "Byzantine-tolerant aggregation: equivocation vs the witnesses",
        "every delivered result exact or within its certified influence "
        "bound (|error| <= b*v_max) across all attack modes and random "
        "compromise rates, with zero false-conviction / "
        "undetected-equivocation / influence-exceeded verdicts; outright "
        "equivocation and omission end in conviction and eviction, and a "
        "zero-compromise armed run's protocol CC is bit-identical to the "
        "unarmed baseline (witness echoes book as overhead only)",
        "bench_byzantine.py",
        ("e27_byzantine.txt", "e27_byz_cc_isolation.txt"),
    ),
)


def index_table() -> List[Dict[str, str]]:
    """The per-experiment index as table rows (used by docs and tests)."""
    return [
        {
            "id": e.exp_id,
            "paper artifact": e.paper_artifact,
            "bench": e.bench_module,
            "claim": e.claim,
        }
        for e in EXPERIMENTS
    ]
