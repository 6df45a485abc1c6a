package cascades

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/physical"
	"repro/internal/stats"
	"repro/internal/workload"
)

var benchPlan physical.Plan

// benchOptimize times one Optimize call — a fresh Estimator and Optimizer
// (and so a fresh memo) per statement, as the engine builds them — on an
// already built query.
func benchOptimize(b *testing.B, db *workload.DB, text string) {
	db.Analyze(stats.AnalyzeOptions{})
	q := buildQuery(b, db, text)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := New(stats.NewEstimator(q.Meta), cost.DefaultModel(), DefaultOptions()).Optimize(q)
		if err != nil {
			b.Fatal(err)
		}
		benchPlan = plan
	}
}

// BenchmarkOptimizeChain7: a 7-way chain join over 200-row tables.
func BenchmarkOptimizeChain7(b *testing.B) {
	db := workload.Chain(workload.ChainConfig{Tables: 7, RowsPer: []int{200, 200, 200, 200, 200, 200, 200}, Seed: 7})
	benchOptimize(b, db, workload.ChainQuery(7))
}

// BenchmarkOptimizeStar3: a 2000-row fact table joined to three filtered
// 40-row dimensions, grouped by their attributes.
func BenchmarkOptimizeStar3(b *testing.B) {
	db := workload.Star(workload.StarConfig{FactRows: 2000, DimRows: []int{40, 40, 40}, Seed: 7})
	benchOptimize(b, db, workload.StarQuery(3, 5))
}
