package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"github.com/esg-sched/esg/internal/controller"
	"github.com/esg-sched/esg/internal/metrics"
)

// cellRun is the outcome of one cell in one pass.
type cellRun struct {
	key      string
	seed     uint64
	requests int
	// memo marks schedulers backed by the baseline plan memo.
	memo bool
	// res is the run's result with its per-sample series dropped (they
	// are covered by digest), so a run keeps no per-request state.
	res *metrics.Result
	// digest fingerprints the complete result; with overhead charging off
	// it is a pure function of the seed.
	digest uint64
	err    error
}

// pass is one execution of every cell of a workload.
type pass struct {
	traced bool
	setup  setupTimes
	// execute is the summed host time of the cells' Execute calls.
	execute time.Duration
	cells   []cellRun

	// Traced passes only: per-scheduler call accounting, the source's
	// Next calls, and the Go runtime's allocation and allocation-triggered
	// collections over the pass.
	scheds   map[string]*schedStats
	next     callStats
	allocMB  float64
	gcCycles uint32
}

// setupTimes splits the host time spent before the first Execute.
type setupTimes struct {
	cells      time.Duration // cell, trace and source construction
	schedulers time.Duration // scheduler factories
	controller time.Duration // controller.NewSource
}

func (s setupTimes) total() time.Duration { return s.cells + s.schedulers + s.controller }

func (p *pass) wall() time.Duration { return p.setup.total() + p.execute }

// prepared is a cell whose controller is built and ready to Execute.
type prepared struct {
	cellRun
	ctl *controller.Controller
}

// setUp builds every cell of a pass up to its controller. In a traced
// pass each scheduler and source is wrapped in a timing decorator.
func setUp(w benchWorkload, seed uint64, sz sizes, p *pass) ([]prepared, error) {
	start := time.Now()
	cells, err := w.build(seed, sz)
	p.setup.cells = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("%s: build cells: %w", w.name, err)
	}
	out := make([]prepared, len(cells))
	for i, c := range cells {
		out[i].key = c.key
		out[i].seed = c.seed
		out[i].requests = c.source.Len()
		start = time.Now()
		s, err := c.newSched()
		if err == nil {
			out[i].memo = capabilitiesOf(s).memoUser
			if p.traced {
				st := p.scheds[s.Name()]
				if st == nil {
					st = &schedStats{}
					p.scheds[s.Name()] = st
				}
				s, err = wrapScheduler(s, st)
			}
		}
		p.setup.schedulers += time.Since(start)
		if err != nil {
			out[i].err = err
			continue
		}
		src := c.source
		if p.traced {
			src = timedSource{Source: src, next: &p.next}
		}
		start = time.Now()
		out[i].ctl, out[i].err = controller.NewSource(c.config, s, src)
		p.setup.controller += time.Since(start)
	}
	return out, nil
}

// runPass sets up and executes every cell of the workload once.
func runPass(w benchWorkload, seed uint64, sz sizes, traced bool) (*pass, error) {
	p := &pass{traced: traced}
	if traced {
		p.scheds = make(map[string]*schedStats)
	}
	runtime.GC() // set-up starts from a collected heap
	var before runtime.MemStats
	if traced {
		runtime.ReadMemStats(&before)
	}
	cells, err := setUp(w, seed, sz, p)
	if err != nil {
		return nil, err
	}
	forced := uint32(0)
	for i := range cells {
		c := &cells[i]
		if c.err == nil {
			runtime.GC() // each cell starts from a collected heap
			forced++
			start := time.Now()
			c.res = c.ctl.Execute()
			p.execute += time.Since(start)
			c.ctl = nil // release the finished run's fleet and queues
			c.digest, c.err = digest(c.res)
			trim(c.res)
		}
		p.cells = append(p.cells, c.cellRun)
	}
	if traced {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		p.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		p.gcCycles = after.NumGC - before.NumGC - forced
	}
	return p, nil
}

// setUpOnly times one more set-up of the workload and discards it.
func setUpOnly(w benchWorkload, seed uint64, sz sizes) (time.Duration, error) {
	runtime.GC()
	p := &pass{}
	if _, err := setUp(w, seed, sz, p); err != nil {
		return 0, err
	}
	return p.setup.total(), nil
}

// digest fingerprints a result through its JSON encoding.
func digest(res *metrics.Result) (uint64, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return 0, fmt.Errorf("encode result: %w", err)
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64(), nil
}

// trim drops a result's per-sample series once it is fingerprinted.
func trim(res *metrics.Result) {
	res.Records = nil
	res.Overheads = nil
	for i := range res.PerApp {
		res.PerApp[i].Latencies = nil
	}
}

// checkCell returns the invariants a cell's result breaks: hits within
// completions, and every arrival either finished (completed or abandoned)
// or left unfinished.
func checkCell(c cellRun) []string {
	r := c.res
	var bad []string
	if r.Hits > r.Instances {
		bad = append(bad, fmt.Sprintf("hits %d > completed instances %d", r.Hits, r.Instances))
	}
	if r.TotalRecords+r.Unfinished != c.requests {
		bad = append(bad, fmt.Sprintf("finished %d + unfinished %d != arrivals %d",
			r.TotalRecords, r.Unfinished, c.requests))
	}
	if r.Instances+r.Faults.FailedInstances > r.TotalRecords {
		bad = append(bad, fmt.Sprintf("measured completed %d + failed %d > finished %d",
			r.Instances, r.Faults.FailedInstances, r.TotalRecords))
	}
	return bad
}
