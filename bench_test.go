package cpr

// bench_test.go provides one testing.B benchmark per table/figure of the
// paper's evaluation, each running the corresponding experiment from the
// harness at a tiny scale (see cmd/cprbench for full-scale runs and
// EXPERIMENTS.md for recorded results). Per-iteration metrics are the
// experiment's wall time; the printed rows land in the benchmark log.

import (
	"io"
	"testing"

	"repro/internal/bench"
)

func benchExperiment(b *testing.B, id string) {
	e, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	cfg := bench.Config{Threads: 2, Seconds: 0.05, Scale: 0.02, TimePoints: 0.05}
	cfg.Fill()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkFig10a(b *testing.B) { benchExperiment(b, "fig10a") }
func BenchmarkFig10b(b *testing.B) { benchExperiment(b, "fig10b") }
func BenchmarkFig10c(b *testing.B) { benchExperiment(b, "fig10c") }
func BenchmarkFig10d(b *testing.B) { benchExperiment(b, "fig10d") }
func BenchmarkFig10e(b *testing.B) { benchExperiment(b, "fig10e") }
func BenchmarkFig11a(b *testing.B) { benchExperiment(b, "fig11a") }
func BenchmarkFig11b(b *testing.B) { benchExperiment(b, "fig11b") }
func BenchmarkFig11c(b *testing.B) { benchExperiment(b, "fig11c") }
func BenchmarkFig11d(b *testing.B) { benchExperiment(b, "fig11d") }
func BenchmarkFig11e(b *testing.B) { benchExperiment(b, "fig11e") }
func BenchmarkFig12a(b *testing.B) { benchExperiment(b, "fig12a") }
func BenchmarkFig12b(b *testing.B) { benchExperiment(b, "fig12b") }
func BenchmarkFig12c(b *testing.B) { benchExperiment(b, "fig12c") }
func BenchmarkFig12d(b *testing.B) { benchExperiment(b, "fig12d") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { benchExperiment(b, "fig15") }
func BenchmarkFig16a(b *testing.B) { benchExperiment(b, "fig16a") }
func BenchmarkFig16b(b *testing.B) { benchExperiment(b, "fig16b") }
func BenchmarkFig16c(b *testing.B) { benchExperiment(b, "fig16c") }
func BenchmarkFig16d(b *testing.B) { benchExperiment(b, "fig16d") }
func BenchmarkFig16e(b *testing.B) { benchExperiment(b, "fig16e") }
func BenchmarkFig17a(b *testing.B) { benchExperiment(b, "fig17a") }
func BenchmarkFig17b(b *testing.B) { benchExperiment(b, "fig17b") }
func BenchmarkFig17c(b *testing.B) { benchExperiment(b, "fig17c") }
func BenchmarkFig17d(b *testing.B) { benchExperiment(b, "fig17d") }
func BenchmarkFig17e(b *testing.B) { benchExperiment(b, "fig17e") }
func BenchmarkFig18a(b *testing.B) { benchExperiment(b, "fig18a") }
func BenchmarkFig18b(b *testing.B) { benchExperiment(b, "fig18b") }
func BenchmarkFig18c(b *testing.B) { benchExperiment(b, "fig18c") }
func BenchmarkFig18d(b *testing.B) { benchExperiment(b, "fig18d") }

// The ablation benches cover design choices beyond the paper's figures:
// incremental checkpoints (Sec. 4.1 extension), the flush-bandwidth plateau
// (Sec. 7.3.1), and recovery time with vs without index checkpoints
// (Sec. 6.3 motivation).
func BenchmarkAblateIncr(b *testing.B)     { benchExperiment(b, "ablate-incr") }
func BenchmarkAblateFlush(b *testing.B)    { benchExperiment(b, "ablate-flush") }
func BenchmarkAblateRecovery(b *testing.B) { benchExperiment(b, "ablate-recovery") }
