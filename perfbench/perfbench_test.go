package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/esg-sched/esg/internal/experiments"
	"github.com/esg-sched/esg/internal/fault"
	"github.com/esg-sched/esg/internal/metrics"
	"github.com/esg-sched/esg/internal/workload"
)

// testSizes shrinks every workload so the suite runs in about a minute.
var testSizes = sizes{
	paperScale:     0.02,
	scaleRequests:  300,
	scaleReplicas:  2,
	planetRequests: 5000,
	chaosRequests:  2000,
}

const testSeed = 7

// esgbenchResults runs the experiments entry points esgbench calls for a
// workload — with the flags its esgbench line names — and returns each
// cell's result, keyed like the benchmark's cells.
func esgbenchResults(t *testing.T, name string, seed uint64, sz sizes) map[cellID]*metrics.Result {
	t.Helper()
	out := make(map[cellID]*metrics.Result)
	collect := func(r *experiments.Runner, log *bytes.Buffer, keys []string) {
		for _, key := range keys {
			// ResultWith returns the cached result of an already resolved
			// key; the log proves the entry point resolved it.
			if !strings.Contains(log.String(), "running "+key+" ...") {
				t.Fatalf("%s: esgbench path never ran cell %q", name, key)
			}
			res, err := r.ResultWith(key, nil, workload.Heavy, 0)
			if err != nil {
				t.Fatal(err)
			}
			out[cellID{key, r.Seed}] = res
		}
	}
	runner := func(seed uint64, scale float64, planCache bool) (*experiments.Runner, *bytes.Buffer) {
		r := newRunner(seed, scale, planCache)
		var log bytes.Buffer
		r.Log = &log
		return r, &log
	}
	switch name {
	case "paper":
		r, log := runner(seed, sz.paperScale, false)
		if _, err := experiments.Fig6(r); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for _, s := range experiments.Settings() {
			for _, n := range experiments.Comparison {
				keys = append(keys, r.ComparisonCell(n, s.Level, s.SLO).Key)
			}
		}
		collect(r, log, keys)
	case "scale":
		for _, s := range replicaSeeds(seed, sz.scaleReplicas) {
			r, log := runner(s, 1, false)
			if _, err := experiments.ScaleScenario(r, experiments.ScaleSpec{Requests: sz.scaleRequests}); err != nil {
				t.Fatal(err)
			}
			spec := scaleSpec(sz.scaleRequests)
			var keys []string
			for _, n := range spec.Schedulers {
				keys = append(keys, r.ScaleCell(n, spec).Key)
			}
			collect(r, log, keys)
		}
	case "planet-burst":
		r, log := runner(seed, 1, true)
		spec := experiments.PlanetSpec{Requests: sz.planetRequests, Arrival: "burst"}
		if _, err := experiments.PlanetScenario(r, spec); err != nil {
			t.Fatal(err)
		}
		collect(r, log, []string{planetKey(sz.planetRequests)})
	case "chaos-xfer":
		r, log := runner(seed, 1, false)
		spec := experiments.ScaleSpec{LoadFactor: chaosLoad, Requests: sz.chaosRequests,
			Schedulers: chaosScheds, Xfer: experiments.XferSpec{Enabled: true, OutFactor: 1, PCIeMBps: 12000, NICMBps: 1250}}
		faults := fault.Spec{MTBF: 30 * time.Second, MTTR: 2 * time.Second, TaskFailRate: 0.01, StragglerRate: 0.01}
		if _, err := experiments.ChaosScenario(r, spec, faults); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for _, n := range chaosScheds {
			keys = append(keys, r.ChaosCell(n, chaosSpec(sz.chaosRequests), chaosFaults).Key)
		}
		collect(r, log, keys)
	default:
		t.Fatalf("no esgbench path for workload %q", name)
	}
	return out
}

// TestMatchesEsgbench pins every cell's untraced outcome to what the
// equivalent esgbench invocation computes at the same seed: the complete
// result (hit rate, cost, tasks, cold/warm starts, fault and transfer
// counters, per-app latencies) must fingerprint identically, and the
// traced pass must reproduce it too.
func TestMatchesEsgbench(t *testing.T) {
	for _, w := range workloads() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			want := esgbenchResults(t, w.name, testSeed, testSizes)
			plain, err := runPass(w, testSeed, testSizes, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runPass(w, testSeed, testSizes, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(plain.cells) != len(want) || len(traced.cells) != len(want) {
				t.Fatalf("cells: benchmark %d untraced / %d traced, esgbench %d",
					len(plain.cells), len(traced.cells), len(want))
			}
			ref := make(map[cellID]uint64)
			for i, c := range plain.cells {
				id := cellID{c.key, c.seed}
				exp, ok := want[id]
				if !ok {
					t.Fatalf("benchmark cell %v has no esgbench counterpart", id)
				}
				if problem := check(c, ref, false); problem != "" {
					t.Fatalf("%v: %s", id, problem)
				}
				d, err := digest(exp)
				if err != nil {
					t.Fatal(err)
				}
				if c.digest != d {
					t.Errorf("%v differs from esgbench:\n bench:    %s\n esgbench: %s", id, c.res.Summary(), exp.Summary())
				}
				if problem := check(traced.cells[i], ref, true); problem != "" {
					t.Errorf("%v: %s", id, problem)
				}
			}
		})
	}
}

func TestWrapperForwardsEveryOptionalInterface(t *testing.T) {
	for _, name := range experiments.KnownSchedulers() {
		s, err := experiments.NewScheduler(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		w, err := wrapScheduler(s, &schedStats{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := capabilitiesOf(w), capabilitiesOf(s); got != want {
			t.Errorf("%s: wrapper implements %+v, scheduler %+v", name, got, want)
		}
		if w.Name() != s.Name() {
			t.Errorf("%s: wrapper is named %q", name, w.Name())
		}
	}
}

func TestCheckCellFlagsBrokenInvariants(t *testing.T) {
	ok := metrics.Result{Hits: 3, Instances: 4, TotalRecords: 5, Unfinished: 1}
	ok.Faults.FailedInstances = 1
	cases := []struct {
		name string
		edit func(*metrics.Result)
		bad  bool
	}{
		{"consistent", func(*metrics.Result) {}, false},
		{"hits above completions", func(r *metrics.Result) { r.Hits = 5 }, true},
		{"lost arrival", func(r *metrics.Result) { r.Unfinished = 0 }, true},
		{"measured beyond finished", func(r *metrics.Result) { r.Faults.FailedInstances = 2 }, true},
	}
	for _, tc := range cases {
		r := ok
		tc.edit(&r)
		if got := len(checkCell(cellRun{requests: 6, res: &r})) > 0; got != tc.bad {
			t.Errorf("%s: flagged %v, want %v", tc.name, got, tc.bad)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's workload and metric lists equal
// to what the program runs and prints, and checks that a traced run
// produces every per-layer metric and nothing else.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	var jsonNames []string
	for _, w := range spec.Workloads {
		jsonNames = append(jsonNames, w.Name)
	}
	if !reflect.DeepEqual(names, jsonNames) {
		t.Errorf("workloads: program %v, BENCHMARK.json %v", names, jsonNames)
	}
	same := func(what string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", what, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", what, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer(), spec.PerLayer)

	w, _ := findWorkload("chaos-xfer")
	plain, err := runPass(w, testSeed, testSizes, false)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runPass(w, testSeed, testSizes, true)
	if err != nil {
		t.Fatal(err)
	}
	values, err := perLayerValues([]*pass{traced}, []*pass{plain})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer() {
		if _, ok := values[d.name]; !ok {
			t.Errorf("traced run does not produce %s", d.name)
		}
	}
	if len(values) != len(perLayer()) {
		t.Errorf("traced run produces %d metrics, %d are declared", len(values), len(perLayer()))
	}
}
