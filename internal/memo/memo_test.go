package memo

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGetPutLRU(t *testing.T) {
	c := New[int, string](2, func(s string) uint64 { return uint64(len(s)) })
	if _, ok := c.Get(1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(1, "a")
	c.Put(2, "bb")
	if v, ok := c.Get(1); !ok || v != "a" {
		t.Fatalf("Get(1) = %q, %v", v, ok)
	}
	// 2 is now least recently used; inserting 3 must evict it.
	c.Put(3, "ccc")
	if _, ok := c.Get(2); ok {
		t.Fatal("expected 2 evicted")
	}
	if v, ok := c.Get(3); !ok || v != "ccc" {
		t.Fatalf("Get(3) = %q, %v", v, ok)
	}
	if got := c.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	st := c.Stats()
	if st.Bytes != uint64(len("a")+len("ccc")) {
		t.Fatalf("Bytes = %d, want %d", st.Bytes, len("a")+len("ccc"))
	}
	if st.Entries != 2 {
		t.Fatalf("Entries = %d, want 2", st.Entries)
	}
}

func TestPutReplaceAdjustsBytes(t *testing.T) {
	c := New[int, string](4, func(s string) uint64 { return uint64(len(s)) })
	c.Put(1, "aaaa")
	c.Put(1, "b")
	if st := c.Stats(); st.Bytes != 1 || st.Entries != 1 {
		t.Fatalf("after replace: %+v", st)
	}
}

func TestDoComputesOnceAndCaches(t *testing.T) {
	c := New[string, int](8, nil)
	calls := 0
	compute := func() int { calls++; return 42 }
	if v := c.Do("k", nil, compute); v != 42 {
		t.Fatalf("Do = %d", v)
	}
	if v := c.Do("k", nil, compute); v != 42 {
		t.Fatalf("Do = %d", v)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss", st)
	}
}

func TestDoValidationDropsStaleEntry(t *testing.T) {
	c := New[int, int](8, nil)
	c.Put(7, 100)
	got := c.Do(7, func(v int) bool { return v == 200 }, func() int { return 200 })
	if got != 200 {
		t.Fatalf("Do = %d, want recomputed 200", got)
	}
	// The recomputed value now validates and is served from cache.
	calls := 0
	got = c.Do(7, func(v int) bool { return v == 200 }, func() int { calls++; return 200 })
	if got != 200 || calls != 0 {
		t.Fatalf("Do = %d (calls %d), want cached 200", got, calls)
	}
}

func TestDoSingleflight(t *testing.T) {
	c := New[int, int](8, nil)
	const goroutines = 32
	var (
		calls   atomic.Int32
		release = make(chan struct{})
		wg      sync.WaitGroup
	)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			v := c.Do(1, nil, func() int {
				calls.Add(1)
				<-release
				return 9
			})
			if v != 9 {
				t.Errorf("Do = %d, want 9", v)
			}
		}()
	}
	// Let the flight start, then release it; every waiter shares it.
	for c.Stats().Misses == 0 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	st := c.Stats()
	if st.Hits+st.Misses != goroutines {
		t.Fatalf("hits %d + misses %d != %d goroutines", st.Hits, st.Misses, goroutines)
	}
}

func TestBoundNeverExceeded(t *testing.T) {
	c := New[int, int](3, nil)
	for i := 0; i < 100; i++ {
		c.Put(i, i)
		if c.Len() > 3 {
			t.Fatalf("Len = %d after %d inserts, bound 3", c.Len(), i+1)
		}
	}
}

// tierModes are the two ways a caller reaches the second tier: Do,
// which loads or computes inside the singleflight slot, and the Get/Put
// pair, which loads on a Get miss and publishes on Put.
var tierModes = []struct {
	name string
	// fetch returns k's value, producing it with make (and, for a
	// validating caller, checking it with valid) when neither tier has it.
	fetch func(c *Cache[int, int], k int, valid func(int) bool, make func() int) int
}{
	{"Do", func(c *Cache[int, int], k int, valid func(int) bool, make func() int) int {
		return c.Do(k, valid, make)
	}},
	{"GetPut", func(c *Cache[int, int], k int, _ func(int) bool, make func() int) int {
		if v, ok := c.Get(k); ok {
			return v
		}
		v := make()
		c.Put(k, v)
		return v
	}},
}

func TestTier2HitDistinguishedFromRecompute(t *testing.T) {
	for _, mode := range tierModes {
		t.Run(mode.name, func(t *testing.T) {
			disk := map[int]int{7: 70}
			var loads, stores, computes int
			c := New[int, int](4, nil)
			c.SetTier2(
				func(k int) (int, bool) { loads++; v, ok := disk[k]; return v, ok },
				func(k, v int) { stores++; disk[k] = v },
			)

			// Key 7 is on "disk": served by tier 2, not recomputed.
			if v := mode.fetch(c, 7, nil, func() int { computes++; return -1 }); v != 70 {
				t.Fatalf("fetch(7) = %d, want 70 from tier 2", v)
			}
			// Key 8 is nowhere: recomputed and published to tier 2.
			if v := mode.fetch(c, 8, nil, func() int { computes++; return 80 }); v != 80 {
				t.Fatalf("fetch(8) = %d, want 80", v)
			}
			// Both now hit tier 1.
			mode.fetch(c, 7, nil, func() int { computes++; return -1 })
			mode.fetch(c, 8, nil, func() int { computes++; return -1 })

			st := c.Stats()
			if st.Hits != 2 || st.TierHits != 1 || st.Misses != 1 {
				t.Fatalf("stats = %+v, want hits=2 tierHits=1 misses=1", st)
			}
			if computes != 1 || loads != 2 || stores != 1 {
				t.Fatalf("computes=%d loads=%d stores=%d, want 1/2/1", computes, loads, stores)
			}
			if disk[8] != 80 {
				t.Fatalf("tier 2 not filled after compute: %v", disk)
			}
		})
	}
}

func TestTier2ValueValidated(t *testing.T) {
	const stale = 666 // corrupt/stale tier-2 value
	for _, mode := range tierModes {
		t.Run(mode.name, func(t *testing.T) {
			c := New[int, int](4, nil)
			valid := func(v int) bool { return v == 42 }
			c.SetTier2(func(k int) (int, bool) {
				if mode.name == "Do" {
					return stale, true // Do's validator must reject it
				}
				return stale, valid(stale) // Get trusts the tier's own decode check
			}, nil)
			if v := mode.fetch(c, 1, valid, func() int { return 42 }); v != 42 {
				t.Fatalf("fetch = %d; invalid tier-2 value must fall through to compute", v)
			}
			st := c.Stats()
			if st.TierHits != 0 || st.Misses != 1 {
				t.Fatalf("stats = %+v, want the rejected tier-2 load counted as a miss", st)
			}
		})
	}
}

// TestDoWaiterRetriesAfterPanic checks that callers coalesced onto a
// computation that panics do not share its zero value: they retry and
// compute for themselves.
func TestDoWaiterRetriesAfterPanic(t *testing.T) {
	c := New[int, *int](8, nil)
	started, release, ownerDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(ownerDone)
		defer func() { recover() }()
		c.Do(1, nil, func() *int {
			close(started)
			<-release
			panic("compute failed")
		})
	}()
	<-started

	const waiters = 4
	results := make(chan *int, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			results <- c.Do(1, nil, func() *int { v := 5; return &v })
		}()
	}
	// Give the waiters time to block on the owner's flight.
	time.Sleep(20 * time.Millisecond)
	close(release)
	<-ownerDone
	for i := 0; i < waiters; i++ {
		if v := <-results; v == nil || *v != 5 {
			t.Fatalf("waiter got %v after the owner panicked, want a recomputed 5", v)
		}
	}
}

func TestClearDropsEntriesKeepsStats(t *testing.T) {
	c := New[int, int](4, func(int) uint64 { return 1 })
	c.Do(1, nil, func() int { return 10 })
	c.Do(1, nil, func() int { return -1 })
	c.Clear()
	if c.Len() != 0 {
		t.Fatalf("Len = %d after Clear", c.Len())
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Bytes != 0 {
		t.Fatalf("stats after Clear = %+v", st)
	}
	// Cleared key recomputes.
	var again bool
	c.Do(1, nil, func() int { again = true; return 10 })
	if !again {
		t.Fatal("cleared entry still served")
	}
}
