package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/esg-sched/esg/internal/experiments"
	"github.com/esg-sched/esg/internal/metrics"
	"github.com/esg-sched/esg/internal/units"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the emulator sees, reported from the
// untraced passes. Host metrics time the simulator; the three simulated
// metrics are exact at a seed and pooled over the workload's cells.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_requests_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"slo_hit_rate", "ratio"},
	{"cost_cents_per_instance", "cents"},
	{"completed_ratio", "ratio"},
}

// layerSchedulers are the schedulers any workload runs, by printed name.
var layerSchedulers = []string{experiments.ESG, experiments.INFless, experiments.FaSTGShare,
	experiments.Orion, experiments.Aquatope, experiments.GSwarm, experiments.HASGPU}

// perLayer lists the traced run's metrics. Every workload reports all of
// them; a layer the workload bypasses reads 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"setup.trace_s", "s"}, {"setup.sched_s", "s"}, {"setup.controller_s", "s"},
	}
	for _, s := range layerSchedulers {
		p := "sched." + s + "."
		defs = append(defs,
			metricDef{p + "plan_calls", "count"}, metricDef{p + "plan_s", "s"},
			metricDef{p + "plan_us_p50", "us"}, metricDef{p + "plan_us_p99", "us"},
			metricDef{p + "place_calls", "count"}, metricDef{p + "place_s", "s"},
			metricDef{p + "place_fit_ratio", "ratio"},
			metricDef{p + "slo_hit_rate", "ratio"}, metricDef{p + "cost_cents_per_instance", "cents"})
	}
	return append(defs,
		metricDef{"core.plancache.exact", "count"}, metricDef{"core.plancache.interval", "count"},
		metricDef{"core.plancache.resume", "count"}, metricDef{"core.plancache.cold", "count"},
		metricDef{"core.plancache.reuse_ratio", "ratio"},
		metricDef{"baselines.memo.hit_ratio", "ratio"},
		metricDef{"cluster.cold_starts", "count"}, metricDef{"cluster.warm_ratio", "ratio"},
		metricDef{"controller.self_s", "s"}, metricDef{"controller.tasks", "count"},
		metricDef{"controller.forced_min", "count"}, metricDef{"controller.config_misses", "count"},
		metricDef{"cluster.fabric.hops", "count"}, metricDef{"cluster.fabric.cross_mb", "MB"},
		metricDef{"cluster.fabric.local_ratio", "ratio"}, metricDef{"cluster.fabric.transfer_s", "s"},
		metricDef{"fault.crashes", "count"}, metricDef{"fault.tasks_lost", "count"},
		metricDef{"fault.retries", "count"}, metricDef{"fault.dropped_jobs", "count"},
		metricDef{"workload.next_calls", "count"}, metricDef{"workload.next_s", "s"},
		metricDef{"metrics.instance_live_peak", "count"},
		metricDef{"runtime.alloc_mb", "MB"}, metricDef{"runtime.gc_cycles", "count"},
		metricDef{"trace.execute_s", "s"}, metricDef{"trace.overhead_ratio", "ratio"},
		metricDef{"share.sched.plan", "ratio"}, metricDef{"share.sched.place", "ratio"},
		metricDef{"share.sched.min_config", "ratio"}, metricDef{"share.workload.next", "ratio"},
		metricDef{"share.controller.self", "ratio"},
	)
}

// outcome pools the simulated results of a set of cells. Failed and
// unfinished instances count against the SLO.
type outcome struct {
	hits, completed, failed, unfinished int
	cost                                units.Money
}

func pool(cells []cellRun, keep func(cellRun) bool) outcome {
	var o outcome
	for _, c := range cells {
		if c.res == nil || !keep(c) {
			continue
		}
		o.hits += c.res.Hits
		o.completed += c.res.Instances
		o.failed += c.res.Faults.FailedInstances
		o.unfinished += c.res.Unfinished
		o.cost += c.res.TotalCost
	}
	return o
}

func (o outcome) arrivals() int { return o.completed + o.failed + o.unfinished }

func (o outcome) hitRate() float64     { return ratio(float64(o.hits), float64(o.arrivals())) }
func (o outcome) costPerInst() float64 { return ratio(o.cost.Cents(), float64(o.completed)) }
func (o outcome) completedRatio() float64 {
	return ratio(float64(o.completed), float64(o.arrivals()))
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// endToEndValues reports the user-visible metrics over untraced passes.
func endToEndValues(untraced []*pass, setups []time.Duration, peakRSSMB float64) map[string]float64 {
	var walls, rates []float64
	for _, p := range untraced {
		walls = append(walls, p.wall().Seconds())
		reqs := 0
		for _, c := range p.cells {
			reqs += c.requests
		}
		rates = append(rates, ratio(float64(reqs), p.execute.Seconds()))
	}
	all := pool(untraced[0].cells, func(cellRun) bool { return true })
	return map[string]float64{
		"setup_s":                 median(seconds(setups)),
		"wall_s":                  median(walls),
		"sim_requests_per_s":      median(rates),
		"peak_rss_mb":             peakRSSMB,
		"slo_hit_rate":            all.hitRate(),
		"cost_cents_per_instance": all.costPerInst(),
		"completed_ratio":         all.completedRatio(),
	}
}

// layerValues derives one traced pass's per-layer metrics. Execute's host
// time splits into the self times of the wrapped calls and the
// controller's own remainder (event engine, warm pool bookkeeping,
// dispatch, fabric and metrics recording).
func layerValues(p *pass) (map[string]float64, error) {
	for name := range p.scheds {
		if !contains(layerSchedulers, name) {
			return nil, fmt.Errorf("scheduler %q has no per-layer metrics", name)
		}
	}
	v := map[string]float64{
		"setup.trace_s":      p.setup.cells.Seconds(),
		"setup.sched_s":      p.setup.schedulers.Seconds(),
		"setup.controller_s": p.setup.controller.Seconds(),
	}
	var planT, placeT, minT time.Duration
	for _, name := range layerSchedulers {
		st := p.scheds[name]
		if st == nil {
			st = &schedStats{}
		}
		planT += st.plan.total
		placeT += st.place.total
		minT += st.minConfig.total
		pre := "sched." + name + "."
		v[pre+"plan_calls"] = float64(st.plan.calls)
		v[pre+"plan_s"] = st.plan.total.Seconds()
		v[pre+"plan_us_p50"] = st.plan.quantileUS(50)
		v[pre+"plan_us_p99"] = st.plan.quantileUS(99)
		v[pre+"place_calls"] = float64(st.place.calls)
		v[pre+"place_s"] = st.place.total.Seconds()
		v[pre+"place_fit_ratio"] = ratio(float64(st.placed), float64(st.place.calls))
		o := pool(p.cells, func(c cellRun) bool { return c.res.Scheduler == name })
		v[pre+"slo_hit_rate"] = o.hitRate()
		v[pre+"cost_cents_per_instance"] = o.costPerInst()
	}

	var esg, memo, sum metrics.Result // counter accumulators
	for _, c := range p.cells {
		r := c.res
		if r == nil {
			continue
		}
		if r.Scheduler == experiments.ESG {
			esg.PlanCacheHits += r.PlanCacheHits
			esg.PlanCacheIntervalHits += r.PlanCacheIntervalHits
			esg.PlanCacheResumes += r.PlanCacheResumes
			esg.PlanCacheMisses += r.PlanCacheMisses
		}
		if c.memo {
			memo.PlanCacheHits += r.PlanCacheHits
			memo.PlanCacheMisses += r.PlanCacheMisses
		}
		sum.ColdStarts += r.ColdStarts
		sum.WarmStarts += r.WarmStarts
		sum.Tasks += r.Tasks
		sum.ForcedMin += r.ForcedMin
		sum.ConfigMisses += r.ConfigMisses
		sum.Xfer.Hops += r.Xfer.Hops
		sum.Xfer.CrossServer += r.Xfer.CrossServer
		sum.Xfer.CrossServerMB += r.Xfer.CrossServerMB
		sum.Xfer.TransferSeconds += r.Xfer.TransferSeconds
		sum.Faults.Crashes += r.Faults.Crashes
		sum.Faults.TasksLost += r.Faults.TasksLost
		sum.Faults.Retries += r.Faults.Retries
		sum.Faults.DroppedJobs += r.Faults.DroppedJobs
		if r.InstanceLivePeak > sum.InstanceLivePeak {
			sum.InstanceLivePeak = r.InstanceLivePeak
		}
	}
	saved := esg.PlanCacheHits + esg.PlanCacheIntervalHits + esg.PlanCacheResumes
	v["core.plancache.exact"] = float64(esg.PlanCacheHits)
	v["core.plancache.interval"] = float64(esg.PlanCacheIntervalHits)
	v["core.plancache.resume"] = float64(esg.PlanCacheResumes)
	v["core.plancache.cold"] = float64(esg.PlanCacheMisses)
	v["core.plancache.reuse_ratio"] = ratio(float64(saved), float64(saved+esg.PlanCacheMisses))
	v["baselines.memo.hit_ratio"] = ratio(float64(memo.PlanCacheHits), float64(memo.PlanCacheHits+memo.PlanCacheMisses))
	v["cluster.cold_starts"] = float64(sum.ColdStarts)
	v["cluster.warm_ratio"] = ratio(float64(sum.WarmStarts), float64(sum.WarmStarts+sum.ColdStarts))

	exec := p.execute
	self := exec - planT - placeT - minT - p.next.total
	v["controller.self_s"] = self.Seconds()
	v["controller.tasks"] = float64(sum.Tasks)
	v["controller.forced_min"] = float64(sum.ForcedMin)
	v["controller.config_misses"] = float64(sum.ConfigMisses)
	v["cluster.fabric.hops"] = float64(sum.Xfer.Hops)
	v["cluster.fabric.cross_mb"] = sum.Xfer.CrossServerMB
	v["cluster.fabric.local_ratio"] = sum.Xfer.LocalFraction()
	v["cluster.fabric.transfer_s"] = sum.Xfer.TransferSeconds
	v["fault.crashes"] = float64(sum.Faults.Crashes)
	v["fault.tasks_lost"] = float64(sum.Faults.TasksLost)
	v["fault.retries"] = float64(sum.Faults.Retries)
	v["fault.dropped_jobs"] = float64(sum.Faults.DroppedJobs)
	v["workload.next_calls"] = float64(p.next.calls)
	v["workload.next_s"] = p.next.total.Seconds()
	v["metrics.instance_live_peak"] = float64(sum.InstanceLivePeak)
	v["runtime.alloc_mb"] = p.allocMB
	v["runtime.gc_cycles"] = float64(p.gcCycles)
	v["trace.execute_s"] = exec.Seconds()
	v["share.sched.plan"] = ratio(planT.Seconds(), exec.Seconds())
	v["share.sched.place"] = ratio(placeT.Seconds(), exec.Seconds())
	v["share.sched.min_config"] = ratio(minT.Seconds(), exec.Seconds())
	v["share.workload.next"] = ratio(p.next.total.Seconds(), exec.Seconds())
	v["share.controller.self"] = ratio(self.Seconds(), exec.Seconds())
	return v, nil
}

// perLayerValues takes each per-layer metric's median over the traced
// passes and relates traced to untraced Execute time.
func perLayerValues(traced, untraced []*pass) (map[string]float64, error) {
	samples := make(map[string][]float64)
	var tracedExec, plainExec []time.Duration
	for _, p := range traced {
		v, err := layerValues(p)
		if err != nil {
			return nil, err
		}
		for k, x := range v {
			samples[k] = append(samples[k], x)
		}
		tracedExec = append(tracedExec, p.execute)
	}
	for _, p := range untraced {
		plainExec = append(plainExec, p.execute)
	}
	out := make(map[string]float64, len(samples)+1)
	for k, xs := range samples {
		out[k] = median(xs)
	}
	out["trace.overhead_ratio"] = ratio(median(seconds(tracedExec)), median(seconds(plainExec)))
	return out, nil
}

// printShares writes each layer's self time as a share of Execute.
func printShares(w io.Writer, v map[string]float64) {
	fmt.Fprintf(w, "layer self time as a share of Execute host time (%.3f s traced, overhead ratio %.3f):\n",
		v["trace.execute_s"], v["trace.overhead_ratio"])
	for _, k := range []string{"share.sched.plan", "share.sched.place", "share.sched.min_config",
		"share.workload.next", "share.controller.self"} {
		fmt.Fprintf(w, "  %-24s %6.1f%%\n", k, 100*v[k])
	}
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
