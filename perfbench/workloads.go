package main

import (
	"fmt"
	"math"
	"time"

	"github.com/esg-sched/esg/internal/controller"
	"github.com/esg-sched/esg/internal/core"
	"github.com/esg-sched/esg/internal/experiments"
	"github.com/esg-sched/esg/internal/fault"
	"github.com/esg-sched/esg/internal/rng"
	"github.com/esg-sched/esg/internal/sched"
	"github.com/esg-sched/esg/internal/workflow"
	"github.com/esg-sched/esg/internal/workload"
)

// cell is one scheduler × scenario run of a workload, assembled exactly as
// esgbench's runner assembles it: the scheduler factory and configuration
// come from the experiments package, the request source is built fresh.
type cell struct {
	key string
	// seed is the runner seed the cell was built with.
	seed     uint64
	newSched func() (sched.Scheduler, error)
	source   workload.Source
	config   controller.Config
}

// benchWorkload is one set of inputs the benchmark runs. build returns a
// fresh pass: new runner (so shared memos such as Aquatope's BO training
// start empty, as in one esgbench invocation), new traces and sources.
type benchWorkload struct {
	name string
	// esgbench renders the equivalent command line; the equivalence test
	// runs the same experiments entry point and compares every cell.
	esgbench func(sizes) string
	build    func(seed uint64, size sizes) ([]cell, error)
}

// sizes holds the knobs that set how much work one pass does. The
// defaults are what BENCHMARK.json's runs use; tests shrink them.
type sizes struct {
	paperScale    float64
	scaleRequests int
	// scaleReplicas runs the scale grid at this many seeds derived from
	// the benchmark seed: ESG's search cost depends strongly on the trace,
	// and averaging replicas keeps the workload's cost steady across seeds.
	scaleReplicas  int
	planetRequests int
	chaosRequests  int
}

var defaultSizes = sizes{
	paperScale:     0.1,
	scaleRequests:  1000,
	scaleReplicas:  3,
	planetRequests: 50000,
	chaosRequests:  40000,
}

// replicaSeeds derives n runner seeds from the benchmark seed; distinct
// benchmark seeds never share a replica seed.
func replicaSeeds(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = seed*uint64(n) + uint64(i)
	}
	return out
}

// Scenario constants shared by the cell constructors and the equivalence test.
const (
	scaleNodes  = 256
	planetNodes = 2048
	chaosLoad   = 2
)

var (
	chaosScheds = []string{experiments.INFless, experiments.FaSTGShare, experiments.GSwarm, experiments.HASGPU}
	chaosFaults = fault.Spec{MTBF: 30 * time.Second, MTTR: 2 * time.Second,
		TaskFailRate: 0.01, StragglerRate: 0.01}.Defaulted()
)

// esgbenchBase is the flag prefix every workload shares: exact simulated
// outcomes, one cell at a time, sequential planning.
const esgbenchBase = "esgbench -overhead none -parallel 1 -cellshards 1 "

func workloads() []benchWorkload {
	return []benchWorkload{
		{name: "paper", build: paperCells, esgbench: func(sz sizes) string {
			return fmt.Sprintf(esgbenchBase+"-scale %g fig6", sz.paperScale)
		}},
		{name: "scale", build: scaleCells, esgbench: func(sz sizes) string {
			return fmt.Sprintf(esgbenchBase+"-scenario scale -requests %d, once per seed seed*%d+i for i < %d",
				sz.scaleRequests, sz.scaleReplicas, sz.scaleReplicas)
		}},
		{name: "planet-burst", build: planetCells, esgbench: func(sz sizes) string {
			return fmt.Sprintf(esgbenchBase+"-scenario planet -arrival burst -plancache -requests %d", sz.planetRequests)
		}},
		{name: "chaos-xfer", build: chaosCells, esgbench: func(sz sizes) string {
			return fmt.Sprintf(esgbenchBase+"-scenario chaos -xfer -load 2 -requests %d -mtbf 30s -mttr 2s -taskfail 0.01 -straggler 0.01 -sched INFless,FaST-GShare,GSwarm,HAS-GPU", sz.chaosRequests)
		}},
	}
}

func findWorkload(name string) (benchWorkload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q", name)
}

// newRunner returns a runner configured like esgbench with
// -overhead none -parallel 1 -cellshards 1: simulated outcomes are exact
// at a seed and every cell plans sequentially.
func newRunner(seed uint64, scale float64, planCache bool) *experiments.Runner {
	r := experiments.NewRunner(seed, scale)
	r.Overhead = sched.OverheadNone
	r.Parallel = 1
	r.CellShards = 1
	r.PlanCache = planCache
	return r
}

// fromExperiment turns a runner cell into a benchmark cell, assembling the
// controller configuration the way Runner.runCell does.
func fromExperiment(r *experiments.Runner, c experiments.Cell) cell {
	cfg := controller.Config{
		SLOLevel:      c.SLO,
		Noise:         r.Noise,
		Overhead:      r.Overhead,
		Seed:          r.Seed,
		PlanCache:     r.PlanCache,
		PlanCacheSize: r.PlanCacheSize,
		CellShards:    r.CellShards,
	}
	// The runner sizes the warm-up window of below-full-scale runs from the
	// level's trace, whatever trace or source the cell brings.
	var levelTrace *workload.Trace
	if (c.Trace == nil && c.Source == nil) || r.Scale < 1 {
		levelTrace = r.Trace(c.Level)
	}
	if r.Scale < 1 {
		warm := time.Duration(0.4 * float64(levelTrace.Duration()))
		if warm < time.Second {
			warm = time.Second
		}
		cfg.WarmupTime = warm
	}
	if c.Tune != nil {
		c.Tune(&cfg)
	}
	out := cell{key: c.Key, seed: r.Seed, newSched: c.Make, config: cfg}
	switch {
	case c.Source != nil:
		out.source = c.Source()
	case c.Trace != nil:
		out.source = workload.NewTraceSource(c.Trace)
	default:
		out.source = workload.NewTraceSource(levelTrace)
	}
	return out
}

// paperCells is the Fig. 6 grid: five schedulers × three settings on the
// 16-invoker testbed.
func paperCells(seed uint64, sz sizes) ([]cell, error) {
	r := newRunner(seed, sz.paperScale, false)
	var cells []cell
	for _, s := range experiments.Settings() {
		for _, name := range experiments.Comparison {
			cells = append(cells, fromExperiment(r, r.ComparisonCell(name, s.Level, s.SLO)))
		}
	}
	return cells, nil
}

// scaleSpec is ScaleScenario's normalized spec for the given request count.
func scaleSpec(requests int) experiments.ScaleSpec {
	spec := experiments.DefaultScaleSpec()
	spec.Requests = requests
	spec.Replan = 1
	return spec
}

func scaleCells(seed uint64, sz sizes) ([]cell, error) {
	spec := scaleSpec(sz.scaleRequests)
	var cells []cell
	for _, s := range replicaSeeds(seed, sz.scaleReplicas) {
		r := newRunner(s, 1, false)
		for _, name := range spec.Schedulers {
			cells = append(cells, fromExperiment(r, r.ScaleCell(name, spec)))
		}
	}
	return cells, nil
}

// chaosSpec is ChaosScenario's normalized spec for the chaos-xfer workload.
func chaosSpec(requests int) experiments.ScaleSpec {
	return experiments.ScaleSpec{Nodes: scaleNodes, LoadFactor: chaosLoad, Requests: requests,
		Replan: 1, Schedulers: chaosScheds, Xfer: experiments.XferSpec{Enabled: true}.Defaulted()}
}

func chaosCells(seed uint64, sz sizes) ([]cell, error) {
	r := newRunner(seed, 1, false)
	spec := chaosSpec(sz.chaosRequests)
	var cells []cell
	for _, name := range spec.Schedulers {
		cells = append(cells, fromExperiment(r, r.ChaosCell(name, spec, chaosFaults)))
	}
	return cells, nil
}

// planetLoad is PlanetScenario's default arrival-rate multiplier.
func planetLoad() float64 { return math.Max(1, math.Round(float64(planetNodes)/100)) }

// planetKey is the runner key PlanetCell gives the burst ESG cell.
func planetKey(requests int) string {
	return fmt.Sprintf("planet/%s/%s/%dn/%gx/%dr", experiments.ESG, workload.Burst,
		planetNodes, planetLoad(), requests)
}

// planetCells mirrors PlanetCell for the single ESG × burst cell. PlanetCell
// itself takes the scenario's unexported memo set, so the benchmark
// rebuilds the cell from the same public parts: the comparison cell's
// factory, ESG's shared dominator memo, a generated stream and the
// scale fleet with sketched metrics.
func planetCells(seed uint64, sz sizes) ([]cell, error) {
	r := newRunner(seed, 1, true)
	apps := workflow.ScaleApps()
	src, err := workload.NewStream(workload.Burst, workload.Heavy, planetLoad(),
		sz.planetRequests, len(apps), rng.New(seed))
	if err != nil {
		return nil, err
	}
	c := r.ComparisonCell(experiments.ESG, workload.Heavy, workflow.Relaxed)
	c.Key = planetKey(sz.planetRequests)
	c.Source = func() workload.Source { return src }
	baseMake, dists := c.Make, core.NewDistMemo()
	c.Make = func() (sched.Scheduler, error) {
		s, err := baseMake()
		if esg, ok := s.(*core.ESG); ok {
			esg.Dists = dists
		}
		return s, err
	}
	c.Tune = func(cfg *controller.Config) {
		cfg.Cluster = experiments.ScaleCluster(planetNodes)
		cfg.Apps = apps
		cfg.StreamMetrics = true
		cfg.WarmupTime = 1
	}
	return []cell{fromExperiment(r, c)}, nil
}
