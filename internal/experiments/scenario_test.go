package experiments

import (
	"math"
	"testing"

	"github.com/esg-sched/esg/internal/fault"
)

// TestScenarioRejectsNonFinite: the shared normalizer turns non-finite
// knobs into errors before any cell is built, on every preset. NaN and
// ±Inf pass every ordered check, so unchecked they reach trace generation
// and panic there.
func TestScenarioRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := map[string]ScaleSpec{
		"NaN load":         {LoadFactor: nan},
		"infinite load":    {LoadFactor: inf},
		"NaN replan":       {Replan: nan},
		"infinite xferout": {Xfer: XferSpec{Enabled: true, OutFactor: inf}},
		"NaN pcie":         {Xfer: XferSpec{Enabled: true, PCIeMBps: nan}},
	}
	r := miniRunner(42)
	for name, spec := range bad {
		if _, err := ScaleScenario(r, spec); err == nil {
			t.Errorf("scale accepted %s", name)
		}
		if _, err := PlanetScenario(r, spec); err == nil {
			t.Errorf("planet accepted %s", name)
		}
	}
	if _, err := ChaosScenario(r, ScaleSpec{}, fault.Spec{TaskFailRate: nan}); err == nil {
		t.Error("chaos accepted a NaN task-failure rate")
	}
}

// TestZeroFaultChaosIsScale: a disabled fault spec runs the scale preset,
// so the chaos entry point renders the scale table byte for byte.
func TestZeroFaultChaosIsScale(t *testing.T) {
	spec := ScaleSpec{Nodes: 64, LoadFactor: 100, Requests: 400, Schedulers: []string{INFless}}
	scale, err := ScaleScenario(miniRunner(42), spec)
	want := renderTable(t, scale, err)
	chaos, err := ChaosScenario(miniRunner(42), spec, fault.Spec{})
	if got := renderTable(t, chaos, err); got != want {
		t.Errorf("zero-fault chaos differs from scale:\n--- scale ---\n%s\n--- chaos ---\n%s", want, got)
	}
}
