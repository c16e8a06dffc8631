package controller

import (
	"reflect"
	"testing"
	"time"

	"github.com/esg-sched/esg/internal/baselines/fastgshare"
	"github.com/esg-sched/esg/internal/baselines/infless"
	"github.com/esg-sched/esg/internal/cluster"
	"github.com/esg-sched/esg/internal/core"
	"github.com/esg-sched/esg/internal/metrics"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/queue"
	"github.com/esg-sched/esg/internal/rng"
	"github.com/esg-sched/esg/internal/sched"
	"github.com/esg-sched/esg/internal/units"
	"github.com/esg-sched/esg/internal/workflow"
	"github.com/esg-sched/esg/internal/workload"
)

// miniScaleCell is one randomized lockstep scenario: a small heterogeneous
// fleet under a compressed trace over the mixed scale application set —
// the scale scenario's shape at property-test size.
type miniScaleCell struct {
	nodes    int
	load     float64
	requests int
	trace    *workload.Trace
	apps     []*workflow.App
}

func randomMiniCell(seed uint64) miniScaleCell {
	src := rng.New(seed * 0x9E3779B97F4A7C15)
	c := miniScaleCell{
		nodes:    4 + int(src.Uint64()%13),      // 4..16 invokers
		load:     20 + float64(src.Uint64()%80), // 20..99x compression
		requests: 120 + int(src.Uint64()%180),   // 120..299 requests
		apps:     workflow.ScaleApps(),
	}
	tr, err := workload.GenerateCompressed(workload.Heavy, c.load, c.requests, len(c.apps), rng.New(seed))
	if err != nil {
		panic(err)
	}
	c.trace = tr
	return c
}

func (c miniScaleCell) config(shards int, plancache bool) Config {
	shapes := make([]units.Resources, c.nodes)
	for i := range shapes {
		switch i % 4 {
		case 0, 1:
			shapes[i] = units.Resources{CPU: 16, GPU: 7}
		case 2:
			shapes[i] = units.Resources{CPU: 32, GPU: 7}
		default:
			shapes[i] = units.Resources{CPU: 8, GPU: 4}
		}
	}
	clu := cluster.DefaultConfig()
	clu.Nodes = c.nodes
	clu.NodeShapes = shapes
	return Config{
		Cluster:    clu,
		Apps:       c.apps,
		SLOLevel:   workflow.Relaxed,
		Noise:      profile.NoNoise(),
		WarmupTime: time.Millisecond,
		Seed:       7,
		CellShards: shards,
		PlanCache:  plancache,
	}
}

// stripCacheCounters zeroes the plan-cache counters, the one part of a
// Result that is schedule-dependent under CellShards > 1: speculative
// plans that go unconsumed still touch the scheduler's memo layers, and
// cross-shard lock order can shift which cache tier answers a lookup.
// Everything observable — dispatches, latencies, costs, cold/warm starts —
// must stay byte-identical; no artifact embeds the cache counters.
func stripCacheCounters(r *metrics.Result) *metrics.Result {
	cp := *r
	cp.PlanCacheHits = 0
	cp.PlanCacheIntervalHits = 0
	cp.PlanCacheMisses = 0
	cp.PlanCacheEvictions = 0
	return &cp
}

// TestShardedLockstep is the tentpole's determinism contract as a property
// test: over randomized scale mini-cells, a sharded controller (2..8
// planning shards) must reproduce the sequential controller's result
// exactly — full struct equality without the plan cache, equality modulo
// cache counters with it. Run under -race this also exercises the
// concurrent Plan paths of every opted-in scheduler.
func TestShardedLockstep(t *testing.T) {
	schedulers := map[string]func() sched.Scheduler{
		"ESG":         func() sched.Scheduler { return core.New() },
		"INFless":     func() sched.Scheduler { return infless.New() },
		"FaST-GShare": func() sched.Scheduler { return fastgshare.New() },
	}
	seeds := uint64(3)
	if testing.Short() {
		seeds = 1 // one mini-cell still covers every scheduler × cache combo
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		cell := randomMiniCell(seed)
		shards := 2 + int(rng.New(seed).Uint64()%7) // 2..8
		for name, mk := range schedulers {
			for _, plancache := range []bool{false, true} {
				ref, err := Run(cell.config(1, plancache), mk(), cell.trace)
				if err != nil {
					t.Fatalf("seed %d %s sequential: %v", seed, name, err)
				}
				got, err := Run(cell.config(shards, plancache), mk(), cell.trace)
				if err != nil {
					t.Fatalf("seed %d %s sharded(%d): %v", seed, name, shards, err)
				}
				if plancache {
					ref, got = stripCacheCounters(ref), stripCacheCounters(got)
				}
				if !reflect.DeepEqual(ref, got) {
					t.Errorf("seed %d %s plancache=%v: sharded(%d) result diverged from sequential\nseq: %s\nshd: %s",
						seed, name, plancache, shards, ref.Summary(), got.Summary())
				}
			}
		}
	}
}

// TestShardedNoOpForSequentialOnlySchedulers pins the gate: a scheduler
// without the sched.ConcurrentPlanner marker never gets a shard
// coordinator, however many shards the config asks for.
func TestShardedNoOpForSequentialOnlySchedulers(t *testing.T) {
	cell := randomMiniCell(1)
	cfg := cell.config(8, false)
	c, err := New(cfg, sequentialOnly{core.New()}, cell.trace)
	if err != nil {
		t.Fatal(err)
	}
	if c.shards != nil {
		t.Fatalf("controller built a shard coordinator for a scheduler without ConcurrentPlanOK")
	}
	c2, err := New(cfg, core.New(), cell.trace)
	if err != nil {
		t.Fatal(err)
	}
	if c2.shards == nil {
		t.Fatalf("controller ignored CellShards=8 for an opted-in scheduler")
	}
}

// sequentialOnly wraps a scheduler, hiding every optional interface —
// including sched.ConcurrentPlanner.
type sequentialOnly struct {
	s sched.Scheduler
}

func (w sequentialOnly) Name() string { return w.s.Name() }
func (w sequentialOnly) Plan(env *sched.Env, q *queue.AFW, now time.Duration) sched.Plan {
	return w.s.Plan(env, q, now)
}
func (w sequentialOnly) Place(env *sched.Env, q *queue.AFW, jobs []*queue.Job, cfg profile.Config, now time.Duration) *cluster.Invoker {
	return w.s.Place(env, q, jobs, cfg, now)
}
func (w sequentialOnly) MinConfig(env *sched.Env, q *queue.AFW) profile.Config {
	return w.s.MinConfig(env, q)
}
