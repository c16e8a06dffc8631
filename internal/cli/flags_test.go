package cli

import (
	"strings"
	"testing"
)

func TestDefaults(t *testing.T) {
	var o Options
	fs := NewFlagSet(&o)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if o.Seed != 42 || o.Scale != 1.0 || o.Parallel != 1 {
		t.Errorf("core defaults wrong: %+v", o)
	}
	if o.PlanCache {
		t.Error("the ESG plan cache must default to off (opt-in)")
	}
	if o.Overhead != "measured" || o.Scenario != "paper" {
		t.Errorf("mode defaults wrong: %+v", o)
	}
	if o.Nodes != 0 || o.Load != 0 || o.Requests != 0 || o.Replan != 0 {
		t.Errorf("scale-knob zero values must defer to ScaleScenario defaults: %+v", o)
	}
}

func TestParseOverrides(t *testing.T) {
	var o Options
	fs := NewFlagSet(&o)
	err := fs.Parse([]string{"-seed", "7", "-plancache", "-replan", "4", "-scenario", "scale", "scale"})
	if err != nil {
		t.Fatal(err)
	}
	if o.Seed != 7 || !o.PlanCache || o.Replan != 4 || o.Scenario != "scale" {
		t.Errorf("overrides not applied: %+v", o)
	}
	if got := fs.Args(); len(got) != 1 || got[0] != "scale" {
		t.Errorf("positional targets = %v", got)
	}
}

// TestUsageTextCoversEveryFlag guards the single-source-of-truth property:
// a flag added to NewFlagSet shows up in the canonical help text (and so,
// via scripts/checkdocs, in the README) automatically.
func TestUsageTextCoversEveryFlag(t *testing.T) {
	text := UsageText()
	var o Options
	fs := NewFlagSet(&o)
	for _, name := range []string{"seed", "scale", "parallel", "plancache",
		"overhead", "quiet", "scenario", "nodes", "load", "requests", "replan", "arrival",
		"sched", "cpuprofile", "mtbf", "mttr", "taskfail", "coldfail", "straggler",
		"stragglerfactor"} {
		if !strings.Contains(text, "-"+name) {
			t.Errorf("usage text missing flag -%s", name)
		}
		if fs.Lookup(name) == nil {
			t.Errorf("flag set missing -%s", name)
		}
	}
	if !strings.Contains(text, "usage: esgbench") {
		t.Error("usage text missing synopsis")
	}
}

// TestValidate pins the flag-validation surface: nonsense values produce a
// clear usage error instead of a deep panic or a silently absurd run, and
// chaos knobs are rejected outside -scenario chaos.
func TestValidate(t *testing.T) {
	parse := func(t *testing.T, args ...string) error {
		t.Helper()
		var o Options
		fs := NewFlagSet(&o)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("parse %v: %v", args, err)
		}
		return o.Validate()
	}
	good := [][]string{
		nil,
		{"-scenario", "scale", "-nodes", "64", "-load", "10", "-requests", "1000", "-replan", "4"},
		{"-scenario", "chaos"},
		{"-scenario", "chaos", "-mtbf", "2s", "-mttr", "500ms", "-taskfail", "0.02",
			"-coldfail", "0.01", "-straggler", "0.01", "-stragglerfactor", "8"},
		{"-scenario", "planet"},
		{"-scenario", "planet", "-arrival", "diurnal"},
		{"-scenario", "planet", "-arrival", "Burst"}, // ParseShape is case-insensitive
		{"-scenario", "planet", "-nodes", "4096", "-load", "40", "-requests", "2000000"},
		{"-scenario", "scale", "-sched", "GSwarm"},
		{"-scenario", "scale", "-sched", "ESG,GSwarm,HAS-GPU"},
		{"-scenario", "chaos", "-sched", "HAS-GPU"},
		{"-scenario", "planet", "-sched", "ESG,INFless"},
	}
	for _, args := range good {
		if err := parse(t, args...); err != nil {
			t.Errorf("valid flags %v rejected: %v", args, err)
		}
	}
	bad := map[string][]string{
		"unknown scenario":          {"-scenario", "bogus"},
		"negative nodes":            {"-scenario", "scale", "-nodes", "-1"},
		"negative load":             {"-scenario", "scale", "-load", "-2"},
		"negative requests":         {"-scenario", "scale", "-requests", "-10"},
		"negative replan":           {"-scenario", "scale", "-replan", "-1"},
		"non-positive scale":        {"-scale", "0"},
		"chaos knob outside chaos":  {"-scenario", "scale", "-mtbf", "2s"},
		"fail rate outside chaos":   {"-taskfail", "0.1"},
		"negative mtbf":             {"-scenario", "chaos", "-mtbf", "-1s"},
		"mttr without mtbf":         {"-scenario", "chaos", "-mttr", "1s"},
		"task-fail rate above 1":    {"-scenario", "chaos", "-taskfail", "1.5"},
		"straggler factor below 1":  {"-scenario", "chaos", "-straggler", "0.1", "-stragglerfactor", "0.5"},
		"negative straggler rate":   {"-scenario", "chaos", "-straggler", "-0.1"},
		"cold-fail rate below zero": {"-scenario", "chaos", "-coldfail", "-1"},
		"arrival outside planet":    {"-scenario", "scale", "-arrival", "diurnal"},
		"arrival on paper default":  {"-arrival", "burst"},
		"unknown arrival shape":     {"-scenario", "planet", "-arrival", "sawtooth"},
		"replan on planet":          {"-scenario", "planet", "-replan", "2"},
		"chaos knob on planet":      {"-scenario", "planet", "-mtbf", "2s"},
		"sched on paper default":    {"-sched", "GSwarm"},
		"sched on paper explicit":   {"-scenario", "paper", "-sched", "ESG"},
		"sched with empty element":  {"-scenario", "scale", "-sched", "ESG,,GSwarm"},
		"sched trailing comma":      {"-scenario", "scale", "-sched", "ESG,"},
		"sched only whitespace":     {"-scenario", "scale", "-sched", " "},
	}
	for name, args := range bad {
		if err := parse(t, args...); err == nil {
			t.Errorf("%s (%v) accepted", name, args)
		}
	}
}
