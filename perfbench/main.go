// Command perfbench is the ESG emulator's benchmark. It runs one workload —
// a fixed set of esgbench cells — in process, sequentially and with
// scheduling overhead charging off, so simulated outcomes are exact at a
// seed, and repeats it for the requested time.
//
//	bash perfbench/run.sh --workload paper --seed 42 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics from untraced passes;
// with --trace 1 it alternates untraced passes with passes whose
// schedulers and request sources sit behind timing decorators, and
// reports per-layer host time. The last line of standard output is the
// JSON result; it exits 1 when any cell errs, breaks an invariant or
// changes its simulated outcome between passes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// minSetupSamples is how many set-ups a run times at least; setup_s is
// their median. Set-up takes milliseconds, so extra rounds are cheap.
const minSetupSamples = 11

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	name := flag.String("workload", "paper", "workload: paper, scale, planet-burst or chaos-xfer")
	seed := flag.Uint64("seed", 42, "seed every trace, stream, noise model and fault schedule derives from")
	secs := flag.Int("seconds", 20, "how long to keep repeating the workload")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from timed passes, 0 end-to-end metrics")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *secs, *trace)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*secs)*time.Second, *trace == 1, defaultSizes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// run repeats the workload until the time is spent and reports it.
func run(w benchWorkload, seed uint64, budget time.Duration, traced bool, sz sizes) (*result, error) {
	stamp(w, seed, sz)
	start := time.Now()
	var plain, timed []*pass
	var setups []time.Duration
	for i := 0; ; i++ {
		tracedPass := traced && i%2 == 1
		p, err := runPass(w, seed, sz, tracedPass)
		if err != nil {
			return nil, err
		}
		if tracedPass {
			timed = append(timed, p)
		} else {
			plain = append(plain, p)
			setups = append(setups, p.setup.total())
		}
		done := len(plain) > 0 && (!traced || len(timed) > 0)
		if done && time.Since(start) >= budget {
			break
		}
	}
	for !traced && len(setups) < minSetupSamples {
		d, err := setUpOnly(w, seed, sz)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}

	res := &result{Metrics: make(map[string]value)}
	ref := make(map[cellID]uint64)
	for _, p := range append(plain, timed...) {
		for _, c := range p.cells {
			res.Attempted++
			if problem := check(c, ref, p.traced); problem != "" {
				res.Failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s (seed %d): %s\n", c.key, c.seed, problem)
			}
		}
	}
	res.Correct = res.Failed == 0
	fmt.Printf("passes: %d untraced, %d traced; %d set-ups; %d cell runs, %d failed\n",
		len(plain), len(timed), len(setups), res.Attempted, res.Failed)

	defs, values := endToEnd, map[string]float64(nil)
	if traced {
		var err error
		if values, err = perLayerValues(timed, plain); err != nil {
			return nil, err
		}
		defs = perLayer()
		printShares(os.Stdout, values)
	} else {
		values = endToEndValues(plain, setups, peakRSSMB())
	}
	for _, d := range defs {
		res.Metrics[d.name] = value{Value: values[d.name], Unit: d.unit}
	}
	return res, nil
}

// check returns why a cell run is not a correct operation, or "". The
// first untraced run of each cell is the reference every later run —
// traced ones included — must reproduce exactly.
func check(c cellRun, ref map[cellID]uint64, traced bool) string {
	if c.err != nil {
		return c.err.Error()
	}
	if bad := checkCell(c); len(bad) > 0 {
		return "invariant broken: " + strings.Join(bad, "; ")
	}
	id := cellID{c.key, c.seed}
	want, seen := ref[id]
	if !seen {
		ref[id] = c.digest
		return ""
	}
	if c.digest != want {
		if traced {
			return "traced outcome differs from the untraced one"
		}
		return "outcome differs between passes"
	}
	return ""
}

// cellID names a cell across passes.
type cellID struct {
	key  string
	seed uint64
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// stamp prints the report header: what ran, where, and on which code.
// It is informational and not gated.
func stamp(w benchWorkload, seed uint64, sz sizes) {
	host, _ := os.Hostname() // an empty name is still a usable report
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				commit += " (modified)"
			}
		}
	}
	fmt.Printf("workload %s, seed %d: %s\n", w.name, seed, w.esgbench(sz))
	fmt.Printf("host %s, %s/%s, %d CPUs, GOMAXPROCS %d, %s\n", host, runtime.GOOS, runtime.GOARCH,
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("commit %s, non-test Go lines %d\n", commit, goLines("."))
	fmt.Println("simulated metrics are model outputs, unvalidated against real hardware: the repository holds no reference measurements")
}

// goLines counts the lines of the program's non-test Go files under root,
// leaving out hidden directories and the benchmark itself.
func goLines(root string) int {
	n := 0
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of an informational count
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			if b, err := os.ReadFile(path); err == nil {
				n += strings.Count(string(b), "\n")
			}
		}
		return nil
	})
	return n
}
