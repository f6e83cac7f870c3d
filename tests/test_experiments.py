"""Tests for the paper-experiment harness: every table/figure regenerates
and exhibits the paper's qualitative result."""

from pathlib import Path

import pytest

from repro.experiments import (
    EXPERIMENTS,
    fig02_attention_share,
    fig07_checkpoint_memory,
    fig08_logits_memory,
    fig12_end_to_end,
    fig13_peak_memory,
    fig14_attention_perf,
    run_all,
    tab01_comm_time,
    tab02_ablation,
    tab03_sparse,
    tab04_internode,
    tab05_intranode,
)


GOLDEN = Path(__file__).parent / "golden" / "experiments.txt"


class TestHarnessMechanics:
    def test_registry_covers_all_paper_elements(self):
        assert set(EXPERIMENTS) == {
            "fig02", "tab01", "fig07", "fig08", "fig12", "fig13", "fig14",
            "tab02", "tab02-split", "tab03", "tab04", "tab05",
        }

    def test_run_all_produces_formatted_tables(self):
        results = run_all()
        for key, res in results.items():
            text = res.format()
            assert key in text
            assert len(res.rows) > 0
            assert all(len(r) == len(res.headers) for r in res.rows)

    def test_to_dict_roundtrip(self):
        res = fig02_attention_share()
        d = res.to_dict()
        assert d["id"] == "fig02"
        assert len(d["rows"]) == len(res.rows)

    def test_cli_output_matches_golden(self, capsys):
        """`python -m repro.experiments` prints every cell byte for byte as
        the committed golden; a pricing change shows up as its diff."""
        from repro.experiments.__main__ import main

        assert main([]) == 0
        assert capsys.readouterr().out == GOLDEN.read_text()

    def test_column_accessor(self):
        res = fig02_attention_share()
        col = res.column("seq_len")
        assert col[0] == "8K"
        with pytest.raises(ValueError):
            res.column("nope")


class TestPaperShapes:
    def test_fig02_crossover_near_64k(self):
        res = fig02_attention_share(seq_lens=[32768, 65536, 131072])
        shares = [float(v) for v in res.column("attention_%")]
        assert shares[0] < 50 < shares[2]

    def test_tab01_burst_always_cheapest(self):
        res = tab01_comm_time()
        for row in res.rows:
            ring, dbl, burst = float(row[1]), float(row[2]), float(row[3])
            assert burst < dbl < ring

    def test_fig07_seq_level_halves_spp_overhead(self):
        res = fig07_checkpoint_memory(seq_lens=[262144])
        row = res.rows[0]
        full, seq, spp = float(row[1]), float(row[2]), float(row[3])
        assert (seq - full) == pytest.approx((spp - full) / 2, rel=0.02)

    def test_fig08_llama3_4x_llama2(self):
        res = fig08_logits_memory(seq_lens=[1048576])
        m2, m3 = float(res.rows[0][1]), float(res.rows[0][2])
        assert m3 / m2 == pytest.approx(128256 / 32000, rel=0.01)

    def test_fig12_burst_wins_every_feasible_cell(self):
        res = fig12_end_to_end()
        by_setting: dict[str, dict[str, str]] = {}
        for setting, method, tgs, _, _ in res.rows:
            by_setting.setdefault(setting, {})[method] = tgs
        for setting, methods in by_setting.items():
            burst = float(methods["BurstEngine"])
            for name, tgs in methods.items():
                if name == "BurstEngine" or tgs in ("OOM", "infeasible"):
                    continue
                assert burst > float(tgs), f"{name} beat burst in {setting}"

    def test_fig12_oom_pattern(self):
        res = fig12_end_to_end()
        cells = {(r[0], r[1]): r[2] for r in res.rows}
        # Megatron-CP OOMs everywhere
        for setting in {r[0] for r in res.rows}:
            assert cells[(setting, "Megatron-CP")] == "OOM"
        # Ulysses OOMs for 14B but runs 7B
        assert cells[("14B/32GPU/1M", "DeepSpeed-Ulysses")] == "OOM"
        assert cells[("7B/32GPU/2M", "DeepSpeed-Ulysses")] not in ("OOM", "infeasible")

    def test_fig12_headline_speedup(self):
        """~1.2x over LoongTrain-USP on the 14B/32GPU/1M cell."""
        res = fig12_end_to_end()
        cells = {(r[0], r[1]): r[2] for r in res.rows}
        burst = float(cells[("14B/32GPU/1M", "BurstEngine")])
        usp = float(cells[("14B/32GPU/1M", "LoongTrain-USP")])
        assert 1.10 < burst / usp < 1.35

    def test_fig13_burst_saves_vs_tuned_baseline(self):
        res = fig13_peak_memory()
        assert res.notes, "expected savings note"
        # every per-setting saving should be positive and paper-scale
        import re

        savings = [float(s) for s in re.findall(r"(-?\d+\.\d)%", res.notes[0])]
        assert all(10 < s < 45 for s in savings)

    def test_fig14_burst_fastest_and_megatron_oom(self):
        res = fig14_attention_perf(seq_lens=[262144, 1048576])
        for row in res.rows:
            if row[1] != "OOM":
                assert float(row[4]) <= float(row[1])  # burst <= megatron
            assert float(row[4]) <= float(row[2])      # burst <= doublering
            assert float(row[4]) <= float(row[3])      # burst <= usp
        # Megatron OOM past 256K (1M row)
        assert res.rows[1][1] == "OOM"

    def test_tab02_monotone_stack(self):
        res = tab02_ablation()
        tgs = [float(r[2]) for r in res.rows[:5]]
        assert all(b >= a * 0.995 for a, b in zip(tgs, tgs[1:]))
        # fused head reduces memory at equal TGS
        assert float(res.rows[3][3]) < float(res.rows[2][3])
        # selective++ row: fastest but most memory among ckpt rows
        assert float(res.rows[5][2]) > float(res.rows[4][2])
        assert float(res.rows[5][3]) > float(res.rows[4][3])

    def test_tab02_split_sweep_frontier(self):
        from repro.experiments import tab02_split_sweep

        res = tab02_split_sweep(fractions=[0.25, 0.5, 0.75])
        tgs = [float(r[1]) for r in res.rows]
        mem = [float(r[3]) for r in res.rows]
        # more recomputation -> slower but lighter, monotonically
        assert tgs == sorted(tgs, reverse=True)
        assert mem == sorted(mem, reverse=True)

    def test_tab03_speedup_shape(self):
        res = tab03_sparse()
        causal = float(res.rows[1][2].rstrip("x"))
        swa = float(res.rows[2][2].rstrip("x"))
        assert 1.5 < causal < 2.2      # paper 1.72x
        assert 3.0 < swa < 5.5         # paper 3.68x

    def test_tab04_flat_mfu(self):
        res = tab04_internode()
        mfus = [float(r[2]) for r in res.rows]
        assert max(mfus) - min(mfus) < 2.0
        assert all(m > 40 for m in mfus)

    def test_tab05_mfu_rises_memory_falls(self):
        res = tab05_intranode()
        mfus = [float(r[2]) for r in res.rows]
        mems = [float(r[4]) for r in res.rows]
        assert mfus == sorted(mfus)
        assert mems == sorted(mems, reverse=True)
        assert all(m < 80 for m in mems)  # every CP size fits (paper table)
