package tracestore

import (
	"fmt"

	"fsmpredict/internal/memo"
	"fsmpredict/internal/trace"
	"fsmpredict/internal/workload"
)

// Key is the content address of a generated trace. The synthetic
// workloads are pure functions of these fields — the variant selects the
// derived seed and parameter jitter — so equal keys guarantee equal
// traces.
type Key struct {
	// Kind separates the two event spaces ("branch" or "load").
	Kind string
	// Program is the benchmark name (e.g. "vortex").
	Program string
	// Variant is the input data set ("train" or "test").
	Variant string
	// Events is the requested event count.
	Events int
}

// String renders the key in its canonical one-line form — the content
// address the serving layer's batch plane groups coalesced requests by.
func (k Key) String() string {
	return fmt.Sprintf("%s:%s/%s/%d", k.Kind, k.Program, k.Variant, k.Events)
}

// BranchKey addresses a branch trace.
func BranchKey(program string, v workload.Variant, events int) Key {
	return Key{Kind: "branch", Program: program, Variant: v.String(), Events: events}
}

// LoadKey addresses a load-value trace.
func LoadKey(program string, v workload.Variant, events int) Key {
	return Key{Kind: "load", Program: program, Variant: v.String(), Events: events}
}

// storeEntries bounds each of the store's three tables (branch traces,
// load traces, confidence streams). The default paper grid touches 12
// branch, 10 load and 10 confidence keys, so the bound never evicts in
// the figure runs; it caps what a daemon's clients can make the store
// retain, since every distinct event count is a new key.
const storeEntries = 32

// Store is a process-wide content-addressed trace cache with
// singleflight generation and an optional disk tier, built on three
// memo.Cache tables. The zero value is not usable; call NewStore. Each
// table is an LRU bounded by storeEntries; an evicted trace is
// regenerated (or reloaded from the disk tier) on its next request.
type Store struct {
	branches *memo.Cache[Key, *Packed]
	loads    *memo.Cache[Key, []trace.LoadEvent]
	confs    *memo.Cache[confKey, *ConfStreams]
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		branches: memo.New[Key, *Packed](storeEntries, (*Packed).Bytes),
		loads: memo.New[Key, []trace.LoadEvent](storeEntries, func(l []trace.LoadEvent) uint64 {
			return uint64(16 * len(l))
		}),
		// Four bit streams cover every load twice (global + segment view).
		confs: memo.New[confKey, *ConfStreams](storeEntries, func(c *ConfStreams) uint64 {
			return uint64(4 * c.Loads() / 8)
		}),
	}
}

// Shared is the process-wide store the experiments and the serving layer
// use, so repeated runs in one process share generated traces.
var Shared = NewStore()

// Stats snapshots the hit/miss/bytes counters, summed over the store's
// three tables.
func (s *Store) Stats() memo.Stats {
	return s.branches.Stats().Add(s.loads.Stats()).Add(s.confs.Stats())
}

// Len reports how many traces the store holds.
func (s *Store) Len() int {
	return s.branches.Len() + s.loads.Len() + s.confs.Len()
}

// Branches returns the packed branch trace of (program, variant, n),
// generating and packing it on first request. Concurrent requests for
// the same key share one generation.
func (s *Store) Branches(p *workload.Program, v workload.Variant, n int) *Packed {
	return s.branches.Do(BranchKey(p.Name, v, n), nil, func() *Packed {
		return Pack(p.Generate(v, n))
	})
}

// Loads returns the load-value trace of (program, variant, n),
// generating it on first request. The returned slice is shared and must
// be treated as immutable.
func (s *Store) Loads(p *workload.LoadProgram, v workload.Variant, n int) []trace.LoadEvent {
	return s.loads.Do(LoadKey(p.Name, v, n), nil, func() []trace.LoadEvent {
		return p.Generate(v, n)
	})
}
