package core

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/esg-sched/esg/internal/profile"
)

// FuzzPlanCacheExact is the differential check behind ESG's default plan
// cache: one exact cache (1 ns buckets) fed a random, non-monotone
// sequence of lookups must answer every one exactly as a cold Search at the
// caller's own target does, whichever tier (exact key, feasibility
// interval, cold) answers it.
//
// shape seeds the search input: 1–3 stages of the small-space tables, K
// 1–6, hop 0–3 ms, and no, one or both ablation filters. Each 4-byte
// record of ops is one lookup: a signed target in 100 µs steps (so ≤ 0
// occurs), a queue depth 0–40, and a mode byte that can instead put the
// target within 2 ns of the previous answer's slowest path (the interval
// edge) or cap MaxExpansions low enough to truncate the search. Seed
// corpus: testdata/fuzz/FuzzPlanCacheExact.
func FuzzPlanCacheExact(f *testing.F) {
	f.Add(uint64(1), []byte{0x13, 0x88, 3, 0, 0x13, 0x00, 3, 0, 0x0f, 0xa0, 3, 1, 0x17, 0x70, 3, 0})
	f.Add(uint64(7), []byte{0xff, 0x00, 9, 0, 0x00, 0x00, 2, 0, 0x27, 0x10, 40, 6, 0x27, 0x10, 40, 0})
	o := smallOracle()
	names := profile.Table3Registry().Names()
	f.Fuzz(func(t *testing.T, shape uint64, ops []byte) {
		src := rand.New(rand.NewSource(int64(shape)))
		fns := make([]string, 1+src.Intn(3))
		for i := range fns {
			fns[i] = names[src.Intn(len(names))]
		}
		base := SearchInput{
			Tables: tablesFor(o, fns...),
			K:      1 + src.Intn(6),
			Hop:    time.Duration(src.Intn(4)) * time.Millisecond,
		}
		noShare, noBatch := src.Intn(2) == 1, src.Intn(2) == 1
		filterID := ""
		if noShare || noBatch {
			filterID = "ablation"
			base.Filter = func(c profile.Config) bool {
				return (!noShare || c.GPU == 4) && (!noBatch || c.Batch == 1)
			}
		}
		sig := GroupSignature("t0", fns, filterID)

		c := NewPlanCache(0, time.Nanosecond)
		var lastTmax time.Duration
		for i := 0; i+4 <= len(ops) && i < 4*64; i += 4 {
			in := base
			in.GSLO = time.Duration(int16(binary.BigEndian.Uint16(ops[i:]))) * 100 * time.Microsecond
			in.MaxFirstBatch = int(ops[i+2]) % 41
			switch mode := ops[i+3]; mode % 4 {
			case 1:
				in.GSLO = lastTmax + time.Duration(int(mode/4)%5-2)
			case 2:
				in.MaxExpansions = 1 + int(mode/4)%16
			}
			got := c.Search(in, sig)
			want := Search(in)
			if got.Feasible != want.Feasible || !reflect.DeepEqual(got.Paths, want.Paths) {
				t.Fatalf("lookup %d (%v, target %v, depth %d, cap %d; stats %+v): cached answer (feasible %v, %d paths) differs from a cold search (feasible %v, %d paths)",
					i/4, fns, in.GSLO, in.MaxFirstBatch, in.MaxExpansions, c.Stats(),
					got.Feasible, len(got.Paths), want.Feasible, len(want.Paths))
			}
			lastTmax = 0
			for _, p := range got.Paths {
				lastTmax = max(lastTmax, p.Time)
			}
		}
	})
}
