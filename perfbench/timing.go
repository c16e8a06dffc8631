package main

import (
	"fmt"
	"time"

	"github.com/esg-sched/esg/internal/baselines"
	"github.com/esg-sched/esg/internal/cluster"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/queue"
	"github.com/esg-sched/esg/internal/sched"
	"github.com/esg-sched/esg/internal/stats"
	"github.com/esg-sched/esg/internal/workload"
)

// callStats aggregates the host time of one kind of call. Per-call
// durations go into a log-bucketed sketch, so memory stays bounded however
// many calls a pass makes.
type callStats struct {
	calls int
	total time.Duration
	hist  stats.Sketch // nanoseconds
}

func (c *callStats) observe(d time.Duration) {
	c.calls++
	c.total += d
	c.hist.Observe(float64(d))
}

// quantileUS returns the p-th percentile call time in microseconds.
func (c *callStats) quantileUS(p float64) float64 {
	return c.hist.Quantile(p) / float64(time.Microsecond)
}

// schedStats is one scheduler's call accounting over a pass.
type schedStats struct {
	plan, place, minConfig callStats
	placed                 int // Place calls that returned an invoker
}

// timed is the timing decorator around a sched.Scheduler. The benchmark
// runs every cell with one planning shard, so the controller never calls
// it from two goroutines and the counters need no synchronization.
type timed struct {
	inner sched.Scheduler
	st    *schedStats
}

func (t *timed) Name() string { return t.inner.Name() }

func (t *timed) Plan(env *sched.Env, q *queue.AFW, now time.Duration) sched.Plan {
	start := time.Now()
	p := t.inner.Plan(env, q, now)
	t.st.plan.observe(time.Since(start))
	return p
}

func (t *timed) Place(env *sched.Env, q *queue.AFW, jobs []*queue.Job, cfg profile.Config, now time.Duration) *cluster.Invoker {
	start := time.Now()
	inv := t.inner.Place(env, q, jobs, cfg, now)
	t.st.place.observe(time.Since(start))
	if inv != nil {
		t.st.placed++
	}
	return inv
}

func (t *timed) MinConfig(env *sched.Env, q *queue.AFW) profile.Config {
	start := time.Now()
	c := t.inner.MinConfig(env, q)
	t.st.minConfig.observe(time.Since(start))
	return c
}

// timedCaching forwards the optional interfaces of ESG and GSwarm.
type timedCaching struct{ *timed }

func (t timedCaching) EnablePlanCache(capacity int, granularity time.Duration) {
	t.inner.(sched.PlanCaching).EnablePlanCache(capacity, granularity)
}

func (t timedCaching) PlanCacheStats() sched.PlanCacheStats {
	return t.inner.(sched.PlanCaching).PlanCacheStats()
}

func (t timedCaching) ConcurrentPlanOK() {}

// timedMemo additionally forwards the baseline plan memo of INFless,
// FaST-GShare and HAS-GPU.
type timedMemo struct{ timedCaching }

func (t timedMemo) PlanMemo() *baselines.Memo { return t.inner.(baselines.MemoUser).PlanMemo() }

func (t timedMemo) SetPlanMemo(m *baselines.Memo) {
	t.inner.(interface{ SetPlanMemo(*baselines.Memo) }).SetPlanMemo(m)
}

// capabilities lists which optional interfaces a scheduler implements —
// every one the controller or the experiments package type-asserts.
type capabilities struct {
	planCaching, concurrent, memoUser, setMemo bool
}

func capabilitiesOf(s sched.Scheduler) capabilities {
	_, pc := s.(sched.PlanCaching)
	_, cp := s.(sched.ConcurrentPlanner)
	_, mu := s.(baselines.MemoUser)
	_, sm := s.(interface{ SetPlanMemo(*baselines.Memo) })
	return capabilities{planCaching: pc, concurrent: cp, memoUser: mu, setMemo: sm}
}

// wrapScheduler returns s behind a timing decorator that implements exactly
// the optional interfaces s implements, so the program cannot tell the two
// apart. It must be called after every concrete-type hook (training memo,
// shared dominator or split memos) is attached, since those assertions
// would not see through the wrapper.
func wrapScheduler(s sched.Scheduler, st *schedStats) (sched.Scheduler, error) {
	t := &timed{inner: s, st: st}
	var out sched.Scheduler
	switch capabilitiesOf(s) {
	case capabilities{}:
		out = t
	case capabilities{planCaching: true, concurrent: true}:
		out = timedCaching{t}
	case capabilities{planCaching: true, concurrent: true, memoUser: true, setMemo: true}:
		out = timedMemo{timedCaching{t}}
	default:
		return nil, fmt.Errorf("timing wrapper cannot forward the optional interfaces of %s: %+v",
			s.Name(), capabilitiesOf(s))
	}
	return out, nil
}

// timedSource is the timing decorator around a workload.Source.
type timedSource struct {
	workload.Source
	next *callStats
}

func (s timedSource) Next() (workload.Request, bool) {
	start := time.Now()
	req, ok := s.Source.Next()
	s.next.observe(time.Since(start))
	return req, ok
}
