// Package experiments regenerates every table and figure of the paper's
// evaluation (§5): each experiment builds the workloads and scenarios it
// needs, runs the emulation through internal/controller, and renders the
// same rows/series the paper reports. cmd/esgbench and the repository's
// bench_test.go are thin wrappers over this package.
package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/esg-sched/esg/internal/baselines/aquatope"
	"github.com/esg-sched/esg/internal/baselines/fastgshare"
	"github.com/esg-sched/esg/internal/baselines/gswarm"
	"github.com/esg-sched/esg/internal/baselines/hasgpu"
	"github.com/esg-sched/esg/internal/baselines/infless"
	"github.com/esg-sched/esg/internal/baselines/orion"
	"github.com/esg-sched/esg/internal/core"
	"github.com/esg-sched/esg/internal/sched"
	"github.com/esg-sched/esg/internal/workflow"
	"github.com/esg-sched/esg/internal/workload"
)

// Scheduler names accepted by NewScheduler and the Runner.
const (
	ESG        = "ESG"
	ESGNoShare = "ESG-noshare"
	ESGNoBatch = "ESG-nobatch"
	INFless    = "INFless"
	FaSTGShare = "FaST-GShare"
	Orion      = "Orion"
	Aquatope   = "Aquatope"
	GSwarm     = "GSwarm"
	HASGPU     = "HAS-GPU"
)

// Comparison lists the five schedulers of the paper's evaluation in its
// reporting order.
var Comparison = []string{ESG, INFless, FaSTGShare, Orion, Aquatope}

// registry is the one scheduler table: every name NewScheduler builds,
// in reporting order, with its accepted spellings. Matching is
// case-insensitive; aliases are extra lower-case spellings.
var registry = []struct {
	name    string
	aliases []string
	build   func(seed uint64) sched.Scheduler
}{
	{ESG, nil, func(uint64) sched.Scheduler { return core.New() }},
	{ESGNoShare, nil, func(uint64) sched.Scheduler { return core.New(core.WithoutGPUSharing()) }},
	{ESGNoBatch, nil, func(uint64) sched.Scheduler { return core.New(core.WithoutBatching()) }},
	{INFless, nil, func(uint64) sched.Scheduler { return infless.New() }},
	{FaSTGShare, []string{"fastgshare"}, func(uint64) sched.Scheduler { return fastgshare.New() }},
	{Orion, nil, func(uint64) sched.Scheduler { return orion.New() }},
	{Aquatope, nil, func(seed uint64) sched.Scheduler { return aquatope.New(seed) }},
	{GSwarm, nil, func(uint64) sched.Scheduler { return gswarm.New() }},
	{HASGPU, []string{"hasgpu"}, func(uint64) sched.Scheduler { return hasgpu.New() }},
}

// lookupScheduler resolves any accepted spelling to its registry index.
func lookupScheduler(name string) (int, bool) {
	name = strings.ToLower(name)
	for i, e := range registry {
		if name == strings.ToLower(e.name) || slices.Contains(e.aliases, name) {
			return i, true
		}
	}
	return 0, false
}

// KnownSchedulers lists every scheduler NewScheduler accepts, by canonical
// name, in reporting order: the paper's five-scheduler comparison plus the
// two ESG ablations and the two extension baselines (GSwarm static
// placement, HAS-GPU hybrid auto-scaling).
func KnownSchedulers() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

// ParseSchedulers resolves a comma-separated scheduler list (the -sched
// flag) to canonical names, rejecting unknown names, empty elements and
// duplicates. Matching is NewScheduler's own registry lookup, so any list
// ParseSchedulers accepts is constructible.
func ParseSchedulers(csv string) ([]string, error) {
	var out []string
	seen := make(map[string]bool)
	for _, raw := range strings.Split(csv, ",") {
		name := strings.TrimSpace(raw)
		if name == "" {
			return nil, fmt.Errorf("experiments: empty scheduler name in list %q", csv)
		}
		i, ok := lookupScheduler(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown scheduler %q (known: %s)",
				name, strings.Join(KnownSchedulers(), ", "))
		}
		c := registry[i].name
		if seen[c] {
			return nil, fmt.Errorf("experiments: duplicate scheduler %q", c)
		}
		seen[c] = true
		out = append(out, c)
	}
	return out, nil
}

// Setting is one of the paper's three workload/SLO pairings (§4.1).
type Setting struct {
	Name  string
	Level workload.Level
	SLO   workflow.SLOLevel
}

// The paper's three workload/SLO pairings (§4.1); RelaxedHeavy also
// stands alone in Figs. 7 and 12.
var (
	StrictLight    = Setting{Name: "strict-light", Level: workload.Light, SLO: workflow.Strict}
	ModerateNormal = Setting{Name: "moderate-normal", Level: workload.Normal, SLO: workflow.Moderate}
	RelaxedHeavy   = Setting{Name: "relaxed-heavy", Level: workload.Heavy, SLO: workflow.Relaxed}
)

// Settings returns strict-light, moderate-normal and relaxed-heavy.
func Settings() []Setting {
	return []Setting{StrictLight, ModerateNormal, RelaxedHeavy}
}

// baseRequests sizes traces so each level spans ≈120 s of simulated time,
// leaving ≥70 s of measurement after the 50 s warm-up window.
func baseRequests(level workload.Level) int {
	switch level {
	case workload.Light:
		return 2240
	case workload.Normal:
		return 4480
	default:
		return 8800
	}
}

// NewScheduler builds a scheduler by name (any spelling ParseSchedulers
// accepts). seed drives Aquatope's offline training.
func NewScheduler(name string, seed uint64) (sched.Scheduler, error) {
	i, ok := lookupScheduler(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown scheduler %q", name)
	}
	return registry[i].build(seed), nil
}

// Table is a printable experiment artifact: the rows/series of one paper
// table or figure.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render writes the table in aligned text form.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Columns, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}

func pct(x float64) string        { return fmt.Sprintf("%.1f%%", 100*x) }
func ms(d time.Duration) string   { return fmt.Sprintf("%.1f", float64(d)/float64(time.Millisecond)) }
func msF(f float64) string        { return fmt.Sprintf("%.1f", f) }
func msF3(f float64) string       { return fmt.Sprintf("%.3f", f) }
func norm(x, base float64) string { return fmt.Sprintf("%.2f", x/base) }
