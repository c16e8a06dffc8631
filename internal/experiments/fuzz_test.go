package experiments

import "testing"

// FuzzParseSchedulers pins the -sched resolver to the scheduler registry:
// an accepted list holds no duplicates, and every name in it constructs
// through NewScheduler and reports itself under exactly that name. Seed
// corpus: testdata/fuzz/FuzzParseSchedulers.
func FuzzParseSchedulers(f *testing.F) {
	f.Add("ESG,GSwarm,HAS-GPU")
	f.Add("fastgshare, hasgpu")
	f.Fuzz(func(t *testing.T, csv string) {
		names, err := ParseSchedulers(csv)
		if err != nil {
			return
		}
		seen := make(map[string]bool)
		for _, name := range names {
			if seen[name] {
				t.Fatalf("ParseSchedulers(%q) = %v: duplicate %q", csv, names, name)
			}
			seen[name] = true
			s, err := NewScheduler(name, 1)
			if err != nil {
				t.Fatalf("ParseSchedulers(%q) accepted %q, NewScheduler: %v", csv, name, err)
			}
			if s.Name() != name {
				t.Fatalf("ParseSchedulers(%q) accepted %q, which builds %q", csv, name, s.Name())
			}
		}
	})
}
