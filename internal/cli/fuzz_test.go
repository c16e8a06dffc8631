package cli

import (
	"flag"
	"io"
	"math"
	"strings"
	"testing"
)

// FuzzValidate drives arbitrary argument lists through the real flag set
// and Validate. Properties: parsing and validation never panic, and every
// float knob of an accepted option set is finite. Seed corpus:
// testdata/fuzz/FuzzValidate (one space-separated argument list each).
func FuzzValidate(f *testing.F) {
	f.Add("-scenario scale -load 10 -replan 4")
	f.Add("-scenario chaos -mtbf 2s -taskfail 0.02 -straggler 0.01 -stragglerfactor 8")
	f.Add("-scenario planet -xfer -pcie 0 -nic 1250 -arrival burst")
	f.Fuzz(func(t *testing.T, line string) {
		var o Options
		fs := NewFlagSet(&o)
		fs.Init("esgbench", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if fs.Parse(strings.Fields(line)) != nil || o.Validate() != nil {
			return
		}
		for name, v := range map[string]float64{
			"scale": o.Scale, "load": o.Load, "replan": o.Replan,
			"taskfail": o.TaskFail, "coldfail": o.ColdFail, "straggler": o.Straggler,
			"stragglerfactor": o.StragglerFactor,
			"xferout":         o.XferOut, "pcie": o.PCIe, "nic": o.NIC,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("Validate accepted -%s %g from %q", name, v, line)
			}
		}
	})
}
