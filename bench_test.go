// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5). Each benchmark runs the corresponding experiment through
// internal/experiments and prints the artifact's rows, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. Scenario results are cached in a shared
// runner, so artifacts that share runs (Figs. 6, 7, 8, 10 and Table 4) pay
// for them once. Under -short the traces shrink to ~15% scale for smoke
// runs (the steady-state shapes need full-scale traces).
package esg_test

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"github.com/esg-sched/esg/internal/experiments"
)

var (
	runnerOnce sync.Once
	runner     *experiments.Runner
)

// benchRunner returns the shared, cached experiment runner.
func benchRunner() *experiments.Runner {
	runnerOnce.Do(func() {
		scale := 1.0
		if testing.Short() {
			scale = 0.15
		}
		runner = experiments.NewRunner(42, scale)
		runner.Log = os.Stderr
	})
	return runner
}

var printOnce sync.Map

// emit prints the artifact once per process (benchmarks can re-run the
// same function with growing b.N).
func emit(t *experiments.Table) {
	if _, dup := printOnce.LoadOrStore(t.ID, true); dup {
		return
	}
	t.Render(os.Stdout)
}

func benchTable(b *testing.B, f func(*experiments.Runner) (*experiments.Table, error)) {
	b.Helper()
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		t, err := f(r)
		if err != nil {
			b.Fatal(err)
		}
		emit(t)
	}
}

// BenchmarkTable1Features regenerates the qualitative feature matrix
// (paper Table 1).
func BenchmarkTable1Features(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(experiments.Table1())
	}
}

// BenchmarkTable3Profiles regenerates the function profile table (paper
// Table 3).
func BenchmarkTable3Profiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(experiments.Table3())
	}
}

// BenchmarkFig5Arrivals regenerates the arrival-interval distributions
// (paper Fig. 5).
func BenchmarkFig5Arrivals(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		emit(experiments.Fig5(r))
	}
}

// BenchmarkFig6EndToEnd regenerates the headline SLO-hit-rate and
// normalized-cost comparison (paper Fig. 6).
func BenchmarkFig6EndToEnd(b *testing.B) {
	benchTable(b, experiments.Fig6)
}

// BenchmarkFig7Latency regenerates the per-application latency view in
// relaxed-heavy (paper Fig. 7).
func BenchmarkFig7Latency(b *testing.B) {
	benchTable(b, experiments.Fig7)
}

// BenchmarkFig8PerApp regenerates the per-application hit rates and costs
// (paper Fig. 8).
func BenchmarkFig8PerApp(b *testing.B) {
	benchTable(b, experiments.Fig8)
}

// BenchmarkFig9OrionSearch regenerates the Orion search-time trade-off
// (paper Fig. 9).
func BenchmarkFig9OrionSearch(b *testing.B) {
	benchTable(b, experiments.Fig9)
}

// BenchmarkFig10Overhead regenerates the ESG scheduling-overhead
// distribution (paper Fig. 10).
func BenchmarkFig10Overhead(b *testing.B) {
	benchTable(b, experiments.Fig10)
}

// BenchmarkFig11KSensitivity regenerates the K sensitivity study (paper
// Fig. 11).
func BenchmarkFig11KSensitivity(b *testing.B) {
	benchTable(b, experiments.Fig11)
}

// BenchmarkFig12Ablation regenerates the GPU-sharing/batching ablation
// (paper Fig. 12).
func BenchmarkFig12Ablation(b *testing.B) {
	benchTable(b, experiments.Fig12)
}

// BenchmarkTable4MissRate regenerates the pre-planned configuration miss
// rates (paper Table 4).
func BenchmarkTable4MissRate(b *testing.B) {
	benchTable(b, experiments.Table4)
}

// BenchmarkSec53BruteForce regenerates the §5.3 search-time comparison
// (ESG_1Q vs brute force on 256-config functions).
func BenchmarkSec53BruteForce(b *testing.B) {
	if testing.Short() {
		b.Skip("brute force over 256^4 paths is not a -short benchmark")
	}
	for i := 0; i < b.N; i++ {
		t, err := experiments.Sec53(nil)
		if err != nil {
			b.Fatal(err)
		}
		emit(t)
	}
}

// BenchmarkESG1QSearch measures one ESG_1Q search in isolation (the
// scheduler's hot path): a 3-stage group over 256-config functions at a
// moderate target.
func BenchmarkESG1QSearch(b *testing.B) {
	r := benchRunner()
	_ = r
	in := searchInput(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := benchSearch(in)
		if len(res.Paths) == 0 {
			b.Fatal("no paths")
		}
	}
}

// BenchmarkESG1QSearchGroup4 measures the group-size-4 search (§5.4's
// scalability cliff).
func BenchmarkESG1QSearchGroup4(b *testing.B) {
	if testing.Short() {
		b.Skip("group-4 search is slow by design (§5.4)")
	}
	in := searchInput(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := benchSearch(in)
		if len(res.Paths) == 0 {
			b.Fatal("no paths")
		}
	}
}

func init() {
	// Ensure the benchmark harness compiles against the public surface
	// too; failures here indicate a broken façade.
	_ = fmt.Sprintf
}
