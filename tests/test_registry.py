"""The experiment registry stays in sync with benches and docs."""

import os

from repro.analysis.registry import EXPERIMENTS, index_table

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
BENCH_DIR = os.path.join(REPO_ROOT, "benchmarks")


class TestRegistry:
    def test_all_ids_unique_and_sequential(self):
        ids = [e.exp_id for e in EXPERIMENTS]
        assert len(ids) == len(set(ids))
        assert ids == [f"E{i}" for i in range(1, len(ids) + 1)]

    def test_every_bench_module_exists(self):
        for experiment in EXPERIMENTS:
            path = os.path.join(BENCH_DIR, experiment.bench_module)
            assert os.path.exists(path), experiment.exp_id

    def test_every_bench_module_is_registered(self):
        registered = {e.bench_module for e in EXPERIMENTS}
        on_disk = {
            f
            for f in os.listdir(BENCH_DIR)
            if f.startswith("bench_") and f.endswith(".py")
        }
        assert on_disk == registered

    def test_results_files_are_emitted_by_their_bench(self):
        # Each registered results file name must appear in its bench's
        # source (the emit() call).
        for experiment in EXPERIMENTS:
            path = os.path.join(BENCH_DIR, experiment.bench_module)
            with open(path) as fh:
                source = fh.read()
            for results_file in experiment.results_files:
                stem = results_file[: -len(".txt")]
                assert stem in source, (experiment.exp_id, results_file)

    def test_experiments_md_documents_every_id(self):
        with open(os.path.join(REPO_ROOT, "EXPERIMENTS.md")) as fh:
            text = fh.read()
        for experiment in EXPERIMENTS:
            assert f"{experiment.exp_id} —" in text or f"| {experiment.exp_id} |" in text, (
                experiment.exp_id
            )

    def test_design_md_documents_every_id(self):
        with open(os.path.join(REPO_ROOT, "DESIGN.md")) as fh:
            text = fh.read()
        for experiment in EXPERIMENTS:
            assert f"| {experiment.exp_id} |" in text, experiment.exp_id

    def test_index_table_shape(self):
        rows = index_table()
        assert len(rows) == len(EXPERIMENTS)
        assert set(rows[0]) == {"id", "paper artifact", "bench", "claim"}
