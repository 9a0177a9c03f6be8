package fsm

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fsmpredict/internal/disktier"
)

func TestBlockTableDiskCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 5, 41, 256} {
		m := randomMachine(rng, n)
		want, err := CompileBlockTable(m)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := decodeBlockTable(encodeBlockTable(want))
		if !ok {
			t.Fatalf("n=%d: decode failed", n)
		}
		if !reflect.DeepEqual(got.tab, want.tab) ||
			!reflect.DeepEqual(got.step, want.step) ||
			!reflect.DeepEqual(got.out, want.out) || got.start != want.start {
			t.Fatalf("n=%d: decoded table differs", n)
		}
		if !got.compiledFrom(m) {
			t.Fatalf("n=%d: decoded table fails structural verification", n)
		}
	}
}

func TestBlockTableDecodeRejectsMalformed(t *testing.T) {
	m := randomMachine(rand.New(rand.NewSource(7)), 5)
	tbl, err := CompileBlockTable(m)
	if err != nil {
		t.Fatal(err)
	}
	good := encodeBlockTable(tbl)
	for _, bad := range [][]byte{
		nil,
		good[:len(good)-2],            // truncated table
		append(good, 0, 0),            // trailing garbage
		good[:3],                      // truncated header
		append([]byte{}, good...)[:8], // header only
	} {
		if _, ok := decodeBlockTable(bad); ok {
			t.Fatalf("malformed payload (%d bytes) accepted", len(bad))
		}
	}
	// An out-of-range successor must be rejected even if lengths match.
	evil := append([]byte(nil), good...)
	// step slice starts after u32 n, start byte, and the count-prefixed
	// out slice (4 bytes count + n entries).
	stepOff := 4 + 1 + 4 + 5 + 4
	evil[stepOff] = 200 // successor 200 in a 5-state machine
	if _, ok := decodeBlockTable(evil); ok {
		t.Fatal("out-of-range successor accepted")
	}
}

// TestBlockTableDiskTier proves the full tier path: a cold in-process
// cache backed by a warm disk store serves byte-identical simulations
// without recompiling, and a corrupted artifact falls back to a clean
// recompile.
func TestBlockTableDiskTier(t *testing.T) {
	dir := t.TempDir()
	store, err := disktier.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	SetDiskTier(store)
	defer SetDiskTier(nil)
	ResetBlockCache()

	rng := rand.New(rand.NewSource(3))
	m := randomMachine(rng, 17)
	trace := make([]bool, 4003)
	for i := range trace {
		trace[i] = rng.Intn(2) == 1
	}
	want := m.Simulate(trace, 5)

	before := BlockStats()
	// Drop the in-process tier: the next lookup must come from disk.
	ResetBlockCache()
	got := m.Simulate(trace, 5)
	if got != want {
		t.Fatalf("disk-tier simulate = %+v, want %+v", got, want)
	}
	after := BlockStats()
	if after.TierHits != before.TierHits+1 {
		t.Fatalf("tier hits %d -> %d, want +1 (served from disk)", before.TierHits, after.TierHits)
	}
	if after.Misses != before.Misses {
		t.Fatalf("misses %d -> %d, want unchanged (no recompile)", before.Misses, after.Misses)
	}

	// Corrupt the artifact on disk: the next cold lookup must recompile
	// cleanly and still be bit-identical.
	ents, err := os.ReadDir(filepath.Join(dir, "blocktable"))
	if err != nil || len(ents) != 1 {
		t.Fatalf("expected one artifact: %v %d", err, len(ents))
	}
	p := filepath.Join(dir, "blocktable", ents[0].Name())
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0x40
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ResetBlockCache()
	if got := m.Simulate(trace, 5); got != want {
		t.Fatalf("post-corruption simulate = %+v, want %+v", got, want)
	}
	if st := BlockStats(); st.Misses != after.Misses+1 {
		t.Fatalf("misses = %d, want %d (clean recompile)", st.Misses, after.Misses+1)
	}
	if st := store.Stats(); st.Corrupt == 0 {
		t.Fatal("store did not count the corrupted artifact")
	}
}

// TestDiskTierTablesRunSpans is the warm-disk regression: a table served
// by the disk tier rather than compiled in this process must answer
// every entry point that takes a run index — RunFrom, RunSampled,
// ReplayGated and Fleet.Run — exactly as the scalar oracle does. The
// decoder once built tables without their span-kernel shell, so the
// second process sharing a cache directory panicked on its first run
// index.
func TestDiskTierTablesRunSpans(t *testing.T) {
	store, err := disktier.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	SetDiskTier(store)
	defer SetDiskTier(nil)

	rng := rand.New(rand.NewSource(12))
	m := randomMachine(rng, 19)
	if BlockTableFor(m) == nil { // compile once, writing through to disk
		t.Fatal("no table")
	}
	ResetBlockCache()
	before := BlockStats()
	tab := BlockTableFor(m)
	if after := BlockStats(); after.TierHits != before.TierHits+1 || after.Misses != before.Misses {
		t.Fatalf("table not served from disk: before %+v, after %+v", before, after)
	}

	bits := runnyBits(rng, 6000, 0.95, 120)
	words, n := bits.Words(), bits.Len()
	runs := spanIndexOf(bits)
	if len(runs) == 0 {
		t.Fatal("runny stream produced no runs")
	}
	const skip = 13
	want := m.SimulateScalar(bits.Bools(), skip)

	if got, _ := tab.RunFrom(tab.StartState(), words, n, skip, runs); got != want {
		t.Fatalf("RunFrom: %+v, scalar %+v", got, want)
	}
	// Sparse positions leave whole runs unsampled, so the walk skips.
	var pos []int32
	for i := 0; i < n; i += 997 {
		pos = append(pos, int32(i))
	}
	wm, we := m.RunSampledScalar(m.Start, words, n, pos)
	if gm, ge := tab.RunSampled(m.Start, words, n, pos, runs); gm != wm || ge != we {
		t.Fatalf("RunSampled: (%d,%d), scalar (%d,%d)", gm, ge, wm, we)
	}
	valid := runnyBits(rng, n, 0.97, 300)
	wf, wfc := scalarReplayGated(m, bits, valid, n)
	if gf, gfc, err := tab.ReplayGated(words, valid.Words(), n, runs); err != nil || gf != wf || gfc != wfc {
		t.Fatalf("ReplayGated: (%d,%d,%v), scalar (%d,%d)", gf, gfc, err, wf, wfc)
	}
	if got := FleetOfTables([]*BlockTable{tab}).Run(1, words, n, skip, runs); got[0] != want {
		t.Fatalf("Fleet.Run: %+v, scalar %+v", got[0], want)
	}
}
