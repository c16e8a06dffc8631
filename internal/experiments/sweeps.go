package experiments

import (
	"fmt"
	"reflect"
	"time"

	"github.com/esg-sched/esg/internal/baselines/orion"
	"github.com/esg-sched/esg/internal/core"
	"github.com/esg-sched/esg/internal/metrics"
	"github.com/esg-sched/esg/internal/pricing"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/sched"
	"github.com/esg-sched/esg/internal/workflow"
	"github.com/esg-sched/esg/internal/workload"
)

// Fig9CutOffs are the search-time budgets the paper sweeps (Fig. 9).
var Fig9CutOffs = []time.Duration{
	1 * time.Millisecond, 10 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 500 * time.Millisecond, 1000 * time.Millisecond,
	2000 * time.Millisecond,
}

// Fig9 reproduces the effect of Orion's search time on its SLO hit rate in
// the strict-light setting (paper Fig. 9): one curve with the search
// overhead charged on the clock, one without.
func Fig9(r *Runner) (*Table, error) {
	t := &Table{
		ID:      "fig9",
		Title:   "Orion SLO hit rate vs search time, strict-light",
		Columns: []string{"Search budget (ms)", "Hit rate w/o overhead", "Hit rate w/ overhead"},
	}
	orionCell := func(key string, cutoff time.Duration, charge bool) Cell {
		return Cell{
			Key: key,
			Make: func() (sched.Scheduler, error) {
				s := orion.New()
				s.CutOff = cutoff
				s.ChargeOverhead = charge
				return s, nil
			},
			Level: workload.Light,
			SLO:   workflow.Strict,
		}
	}
	cells := make([]Cell, 0, 2*len(Fig9CutOffs))
	for _, cutoff := range Fig9CutOffs {
		cells = append(cells,
			orionCell(fmt.Sprintf("orion-free/%v", cutoff), cutoff, false),
			orionCell(fmt.Sprintf("orion-charged/%v", cutoff), cutoff, true),
		)
	}
	if err := r.Resolve(cells...); err != nil {
		return nil, err
	}
	for i, cutoff := range Fig9CutOffs {
		resFree, err := r.cached(cells[2*i].Key)
		if err != nil {
			return nil, err
		}
		resCharged, err := r.cached(cells[2*i+1].Key)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", cutoff/time.Millisecond),
			pct(resFree.HitRate), pct(resCharged.HitRate),
		})
	}
	t.Notes = append(t.Notes,
		"paper shape: without overhead the hit rate rises with the budget; with overhead it collapses as the budget grows",
	)
	return t, nil
}

// Fig11Ks are the configuration-priority-queue depths the paper sweeps.
var Fig11Ks = []int{1, 5, 20, 40, 80}

// Fig11 reproduces the sensitivity study of K (paper Fig. 11): average
// search overhead, latency and cost (normalized to K=5) in strict-light.
func Fig11(r *Runner) (*Table, error) {
	t := &Table{
		ID:      "fig11",
		Title:   "Sensitivity to K (config priority queue depth), strict-light",
		Columns: []string{"K", "Mean overhead (ms)", "SLO hit rate", "Norm. cost (K=5 = 1.00)", "Mean latency (ms)"},
	}
	var baseCost float64
	rows := make([][]string, 0, len(Fig11Ks))
	results := make(map[int]struct {
		overhead, lat float64
		hit           float64
		cost          float64
	})
	cells := make([]Cell, 0, len(Fig11Ks))
	for _, k := range Fig11Ks {
		k := k
		cells = append(cells, Cell{
			Key:   fmt.Sprintf("esg-k%d", k),
			Make:  func() (sched.Scheduler, error) { return core.New(core.WithK(k)), nil },
			Level: workload.Light,
			SLO:   workflow.Strict,
		})
	}
	if err := r.Resolve(cells...); err != nil {
		return nil, err
	}
	for _, k := range Fig11Ks {
		res, err := r.cached(fmt.Sprintf("esg-k%d", k))
		if err != nil {
			return nil, err
		}
		var meanLat float64
		var n int
		for _, a := range res.PerApp {
			meanLat += a.MeanLatencyMS * float64(a.Instances)
			n += a.Instances
		}
		if n > 0 {
			meanLat /= float64(n)
		}
		results[k] = struct {
			overhead, lat float64
			hit           float64
			cost          float64
		}{res.OverheadBox().Mean, meanLat, res.HitRate, float64(res.TotalCost)}
		if k == 5 {
			baseCost = float64(res.TotalCost)
		}
	}
	if baseCost <= 0 {
		baseCost = 1
	}
	for _, k := range Fig11Ks {
		v := results[k]
		rows = append(rows, []string{
			fmt.Sprintf("%d", k), msF3(v.overhead), pct(v.hit),
			norm(v.cost, baseCost), msF(v.lat),
		})
	}
	t.Rows = rows
	t.Notes = append(t.Notes,
		"paper shape: overhead grows with K (3→8 ms from K=1 to K=80), latency stays flat, cost decreases slightly",
	)
	return t, nil
}

// Sec53 reproduces the overhead analysis of §5.3/§5.4: ESG_1Q search time
// versus exhaustive enumeration on 256-configuration functions, for group
// sizes 3 and 4. The millisecond columns are wall-clock readings taken
// from w (nil = an enabled sink); a disabled sink zeroes them so the
// whole table diffs byte-identically across runs. The enumeration doubles
// as a full-size oracle check: Sec53 fails when ESG_1Q's top-K paths
// differ from brute force's.
func Sec53(w *metrics.Wall) (*Table, error) {
	t := &Table{
		ID:      "sec53",
		Title:   "Search time: ESG_1Q (A* + dual-blade pruning) vs brute force, 256 configs/function",
		Columns: []string{"Group size", "ESG_1Q (ms)", "ESG expansions", "Brute force (ms)", "Paths enumerated"},
	}
	oracle := profile.NewOracle(profile.Table3Registry(), profile.DefaultSpace(), pricing.Default())
	seq := []string{profile.Deblur, profile.SuperResolution, profile.BackgroundRemoval,
		profile.Segmentation}
	var l time.Duration
	reg := profile.Table3Registry()
	for _, fn := range seq {
		l += reg.MustLookup(fn).BaseExec
	}
	for _, g := range []int{3, 4} {
		tables := make([]*profile.FunctionTable, g)
		var gslo time.Duration
		for i := 0; i < g; i++ {
			tables[i] = oracle.MustTable(seq[i])
			gslo += reg.MustLookup(seq[i]).BaseExec
		}
		in := core.SearchInput{Tables: tables, GSLO: gslo, K: core.DefaultK}

		wt := w.Start()
		res := core.Search(in)
		esgMS := wt.Millis()

		wt = w.Start()
		bf := core.BruteForceSearch(in)
		bfMS := wt.Millis()
		if res.Feasible != bf.Feasible || !reflect.DeepEqual(res.Paths, bf.Paths) {
			return nil, fmt.Errorf("group size %d: ESG_1Q's %d paths (feasible %v) differ from brute force's %d (feasible %v)",
				g, len(res.Paths), res.Feasible, len(bf.Paths), bf.Feasible)
		}

		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", g),
			fmt.Sprintf("%.2f", esgMS),
			fmt.Sprintf("%d", res.Expanded),
			fmt.Sprintf("%.2f", bfMS),
			fmt.Sprintf("%d", bf.Expanded),
		})
	}
	t.Notes = append(t.Notes,
		"paper: brute force ≈7258 ms at group size 3; group size 4 search ≈1201 ms — pruning keeps ESG orders of magnitude faster",
	)
	return t, nil
}
