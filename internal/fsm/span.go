package fsm

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"fsmpredict/internal/bitseq"
)

// This file is the run-length span kernel, the content-aware rung above
// the byte-blocked superstep: the block kernel pays one table lookup
// per 8 events regardless of what the events are, but a machine's
// response to a HOMOGENEOUS byte (0x00 or 0xFF) is one of only two
// transition functions, and transition functions compose. A SpanTable
// closes those two functions over themselves by doubling — power tables
// tab^(2^j) mapping state → (exit state, misprediction count) for 2^j
// consecutive homogeneous bytes — so a k-byte run advances in
// popcount(k) ≤ log2(k)+1 lookups with exact per-state miss
// accumulation, instead of k byte lookups. The span kernels walk a
// precomputed run index (bitseq.Runs) and fall back to the byte loop on
// mixed segments; they are bit-identical to the block kernels by
// construction — same event sequence, tables composed from the same
// 2-symbol step function. An entry point (RunFrom, RunSampled,
// ReplayGated, Fleet.Run, Fleet.ReplayGated) takes the span path
// exactly when its caller passes a non-empty run index, so the block
// kernel — the same call with nil — is the differential oracle beside
// the scalar walks.

// SpanKernelStats is a snapshot of the process-wide span-kernel
// counters — the source of the fsmpredict_span_* metrics.
type SpanKernelStats struct {
	// Runs counts homogeneous runs advanced through the power tables.
	Runs uint64
	// SkippedEvents counts events those runs covered (each one scored
	// exactly, but without a per-byte table lookup).
	SkippedEvents uint64
	// TableBytes is the memory retained by all built power-table
	// levels.
	TableBytes uint64
}

var (
	spanRunsTotal    atomic.Uint64
	spanSkippedTotal atomic.Uint64
	spanTableBytes   atomic.Uint64
)

// SpanStats snapshots the span-kernel counters.
func SpanStats() SpanKernelStats {
	return SpanKernelStats{
		Runs:          spanRunsTotal.Load(),
		SkippedEvents: spanSkippedTotal.Load(),
		TableBytes:    spanTableBytes.Load(),
	}
}

// spanTally accumulates span counters locally during one kernel call
// and publishes them in a single atomic round, keeping the hot loops
// free of shared-cacheline traffic.
type spanTally struct {
	runs    int
	skipped int
}

func (t *spanTally) flush() {
	if t.runs > 0 {
		spanRunsTotal.Add(uint64(t.runs))
		spanSkippedTotal.Add(uint64(t.skipped))
	}
}

// spanEntry is one power-table cell: the state reached after a block of
// homogeneous bytes and the mispredictions accumulated on the way. The
// count is 32-bit because a 2^j-byte block can miss up to 2^(j+3)
// times.
type spanEntry struct {
	next uint8
	miss uint32
}

// spanEntryBytes is spanEntry's aligned in-memory size, the unit of the
// TableBytes accounting.
const spanEntryBytes = 8

// SpanTable holds the lazily built power tables of one machine over
// homogeneous bytes. Level j, when built, maps (byte value, entry
// state) to the response to 2^j consecutive 0x00 or 0xFF bytes. The
// shell is cheap (two slice headers); levels grow on demand under a
// mutex and are published through an atomic pointer, so concurrent
// walks never lock once the levels they need exist. Safe for
// concurrent use.
type SpanTable struct {
	n    int
	step []uint8 // 2-symbol step, machine-local: step[s<<1|b]
	out  []uint8 // out[s]: state s's prediction bit

	mu     sync.Mutex
	levels atomic.Pointer[[][]spanEntry] // levels[j][b*n+s]
}

// newSpanTable wraps a machine's 2-symbol tables (BlockTable layout)
// without building any levels.
func newSpanTable(step, out []uint8) *SpanTable {
	return &SpanTable{n: len(out), step: step, out: out}
}

// ensure returns the level slice with levels 0..lv present, building
// the missing ones. Level 0 replays eight scalar steps per (byte value,
// state); level j composes level j-1 with itself — exit states chain,
// miss counts add — so every level is exact by induction.
func (st *SpanTable) ensure(lv int) [][]spanEntry {
	if p := st.levels.Load(); p != nil && len(*p) > lv {
		return *p
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	var cur [][]spanEntry
	if p := st.levels.Load(); p != nil {
		cur = *p
		if len(cur) > lv {
			return cur
		}
	}
	n := st.n
	grown := append(make([][]spanEntry, 0, lv+1), cur...)
	for j := len(grown); j <= lv; j++ {
		l := make([]spanEntry, 2*n)
		if j == 0 {
			for b := 0; b < 2; b++ {
				for s := 0; s < n; s++ {
					e := spanEntry{next: uint8(s)}
					for k := 0; k < 8; k++ {
						if int(st.out[e.next]) != b {
							e.miss++
						}
						e.next = st.step[int(e.next)<<1|b]
					}
					l[b*n+s] = e
				}
			}
		} else {
			prev := grown[j-1]
			for b := 0; b < 2; b++ {
				for s := 0; s < n; s++ {
					e1 := prev[b*n+s]
					e2 := prev[b*n+int(e1.next)]
					l[b*n+s] = spanEntry{next: e2.next, miss: e1.miss + e2.miss}
				}
			}
		}
		grown = append(grown, l)
		spanTableBytes.Add(uint64(2*n) * spanEntryBytes)
	}
	st.levels.Store(&grown)
	return grown
}

// walk advances state s through k consecutive homogeneous bytes of bit
// value b (0 or 1), returning the exit state and the exact
// misprediction count over the 8k events — the binary decomposition of
// k through the power tables. Powers of one function commute, so the
// ascending-level order is exact.
func (st *SpanTable) walk(s uint8, k, b int) (uint8, int) {
	lv := st.ensure(bits.Len(uint(k)) - 1)
	base := b * st.n
	miss := 0
	for j := 0; k != 0; j++ {
		if k&1 != 0 {
			e := lv[j][base+int(s)]
			miss += int(e.miss)
			s = e.next
		}
		k >>= 1
	}
	return s, miss
}

// runFromSpans is RunFrom's span path. The event sequence is the byte
// kernel's exactly (warm-up bytes, ragged warm-up tail, scored scalar
// head, scored byte body, scored scalar tail); homogeneous runs inside
// the two byte phases advance in O(log run) power-table lookups, with
// warm-up runs discarding their miss counts.
func (t *BlockTable) runFromSpans(state int, words []uint64, n, skip int, runs []bitseq.Run) (SimResult, int) {
	n, skip = clampSpan(words, n, skip)
	var tally spanTally
	s := uint8(state)
	i, r := 0, 0
	i, s, _ = t.spanBytes(words, i, skip&^7, s, runs, &r, &tally)
	for ; i < skip; i++ {
		b := words[i>>6] >> uint(i&63) & 1
		s = t.step[int(s)<<1|int(b)]
	}
	res := SimResult{Total: n - skip}
	correct := 0
	for ; i < n && i&7 != 0; i++ {
		b := uint8(words[i>>6] >> uint(i&63) & 1)
		if t.out[s] == b {
			correct++
		}
		s = t.step[int(s)<<1|int(b)]
	}
	lo := i
	var miss int
	i, s, miss = t.spanBytes(words, i, n&^7, s, runs, &r, &tally)
	correct += (i - lo) - miss
	for ; i < n; i++ {
		b := uint8(words[i>>6] >> uint(i&63) & 1)
		if t.out[s] == b {
			correct++
		}
		s = t.step[int(s)<<1|int(b)]
	}
	res.Correct = correct
	tally.flush()
	return res, int(s)
}

// spanBytes advances through the byte-aligned events [i, end) — both
// multiples of 8 — mixed bytes through the closure table, homogeneous
// runs through the power tables, returning the position reached, the
// exit state and the misprediction count over the region. r is the
// caller's cursor into the run index and only moves forward, so one
// cursor serves a whole multi-region walk.
func (t *BlockTable) spanBytes(words []uint64, i, end int, s uint8, runs []bitseq.Run, r *int, tally *spanTally) (int, uint8, int) {
	miss := 0
	for i < end {
		for *r < len(runs) && runs[*r].End() <= i {
			*r++
		}
		rs, re := end, end
		if *r < len(runs) {
			rs, re = int(runs[*r].Start), runs[*r].End()
			if rs < i {
				rs = i
			}
			if rs > end {
				rs = end
			}
			if re > end {
				re = end
			}
		}
		for ; i < rs; i += 8 {
			b := uint8(words[i>>6] >> uint(i&63))
			e := t.tab[int(s)<<blockShift|int(b)]
			miss += bits.OnesCount8(uint8(e>>8) ^ b)
			s = uint8(e)
		}
		if k := (re - i) >> 3; k > 0 {
			b := 0
			if runs[*r].One {
				b = 1
			}
			var m int
			s, m = t.span.walk(s, k, b)
			miss += m
			tally.runs++
			tally.skipped += k << 3
			i = re
		}
	}
	return i, s, miss
}

// runSampledSpans is RunSampled's span path: stretches of a
// homogeneous run holding no sampled position advance through the power
// tables (their misses are irrelevant — only sampled positions score),
// and the byte containing a sampled position goes through the closure
// table so its per-event predictions are available.
func (t *BlockTable) runSampledSpans(state int, words []uint64, n int, pos []int32, runs []bitseq.Run) (misses, end int) {
	n, _ = clampSpan(words, n, 0)
	var tally spanTally
	s := uint8(state)
	c := 0
	i, r := 0, 0
	bodyEnd := n &^ 7
	for i < bodyEnd {
		for r < len(runs) && runs[r].End() <= i {
			r++
		}
		rs, re := bodyEnd, bodyEnd
		if r < len(runs) {
			rs, re = int(runs[r].Start), runs[r].End()
			if rs < i {
				rs = i
			}
			if rs > bodyEnd {
				rs = bodyEnd
			}
			if re > bodyEnd {
				re = bodyEnd
			}
		}
		for ; i < rs; i += 8 {
			b := uint8(words[i>>6] >> uint(i&63))
			e := t.tab[int(s)<<blockShift|int(b)]
			if c < len(pos) && int(pos[c]) < i+8 {
				x := uint8(e>>8) ^ b
				for ; c < len(pos) && int(pos[c]) < i+8; c++ {
					misses += int(x >> uint(int(pos[c])-i) & 1)
				}
			}
			s = uint8(e)
		}
		for i < re {
			stop := re
			if c < len(pos) && int(pos[c]) < re {
				stop = int(pos[c]) &^ 7
			}
			if k := (stop - i) >> 3; k > 0 {
				b := 0
				if runs[r].One {
					b = 1
				}
				s, _ = t.span.walk(s, k, b)
				tally.runs++
				tally.skipped += k << 3
				i = stop
			}
			if i < re && c < len(pos) && int(pos[c]) < i+8 {
				b := uint8(words[i>>6] >> uint(i&63))
				e := t.tab[int(s)<<blockShift|int(b)]
				x := uint8(e>>8) ^ b
				for ; c < len(pos) && int(pos[c]) < i+8; c++ {
					misses += int(x >> uint(int(pos[c])-i) & 1)
				}
				s = uint8(e)
				i += 8
			}
		}
	}
	for ; i < n; i++ {
		b := uint8(words[i>>6] >> uint(i&63) & 1)
		if c < len(pos) && int(pos[c]) == i {
			if t.out[s] != b {
				misses++
			}
			c++
		}
		s = t.step[int(s)<<1|int(b)]
	}
	tally.flush()
	return misses, int(s)
}

// replayGatedSpans is ReplayGated's span path over the correct stream.
// Flagged counts need the valid bits, so a run is skipped only across
// stretches where the valid stream is saturated (all ones) — there the
// tallies are pure functions of the machine path: on a ones run every
// predict-taken step is flagged AND correct, on a zeros run every
// predict-taken step is flagged and none correct, and the power tables'
// miss counts are exactly those step counts. Elsewhere the run falls
// back to the gated byte loop.
func (t *BlockTable) replayGatedSpans(correct, valid []uint64, n int, runs []bitseq.Run) (flagged, flaggedCorrect int, err error) {
	n, err = checkGatedStreams(correct, valid, n)
	if err != nil {
		return 0, 0, err
	}
	var tally spanTally
	s := t.start
	i, r := 0, 0
	bodyEnd := n &^ 7
	for i < bodyEnd {
		for r < len(runs) && runs[r].End() <= i {
			r++
		}
		rs, re := bodyEnd, bodyEnd
		if r < len(runs) {
			rs, re = int(runs[r].Start), runs[r].End()
			if rs < i {
				rs = i
			}
			if rs > bodyEnd {
				rs = bodyEnd
			}
			if re > bodyEnd {
				re = bodyEnd
			}
		}
		for ; i < rs; i += 8 {
			w, off := i>>6, uint(i&63)
			cb := uint8(correct[w] >> off)
			vb := uint8(valid[w] >> off)
			e := t.tab[int(s)<<blockShift|int(cb)]
			pm := uint8(e >> 8)
			flagged += bits.OnesCount8(vb & pm)
			flaggedCorrect += bits.OnesCount8(vb & pm & cb)
			s = uint8(e)
		}
		for i < re {
			if j := allOnesTo(valid, i, re); j > i {
				k := (j - i) >> 3
				b := 0
				if runs[r].One {
					b = 1
				}
				s2, m := t.span.walk(s, k, b)
				s = s2
				if b == 1 {
					f := k<<3 - m
					flagged += f
					flaggedCorrect += f
				} else {
					flagged += m
				}
				tally.runs++
				tally.skipped += k << 3
				i = j
			} else {
				w, off := i>>6, uint(i&63)
				cb := uint8(correct[w] >> off)
				vb := uint8(valid[w] >> off)
				e := t.tab[int(s)<<blockShift|int(cb)]
				pm := uint8(e >> 8)
				flagged += bits.OnesCount8(vb & pm)
				flaggedCorrect += bits.OnesCount8(vb & pm & cb)
				s = uint8(e)
				i += 8
			}
		}
	}
	for ; i < n; i++ {
		w, off := i>>6, uint(i&63)
		cb := uint8(correct[w] >> off & 1)
		if valid[w]>>off&1 == 1 && t.out[s] == 1 {
			flagged++
			flaggedCorrect += int(cb)
		}
		s = t.step[int(s)<<1|int(cb)]
	}
	tally.flush()
	return flagged, flaggedCorrect, nil
}

// allOnesTo returns the largest byte-aligned position j in [i, end]
// such that bits [i, j) of the packed stream are all ones, scanning a
// word at a time on aligned stretches. i and end must be byte-aligned.
func allOnesTo(words []uint64, i, end int) int {
	j := i
	for j < end {
		if j&63 == 0 && j+64 <= end && words[j>>6] == ^uint64(0) {
			j += 64
			continue
		}
		if uint8(words[j>>6]>>uint(j&63)) != 0xFF {
			break
		}
		j += 8
	}
	return j
}

// checkGatedStreams validates a gated replay's inputs: the two packed
// streams must have the same word length and hold at least n bits.
// Mismatched streams are a caller bug — silently truncating to the
// shorter one would misattribute confidence tallies — so they are an
// explicit error rather than a clamp.
func checkGatedStreams(correct, valid []uint64, n int) (int, error) {
	if n < 0 {
		n = 0
	}
	if len(correct) != len(valid) {
		return 0, fmt.Errorf("fsm: gated replay streams differ: %d correct words vs %d valid words", len(correct), len(valid))
	}
	if max := len(correct) << 6; n > max {
		return 0, fmt.Errorf("fsm: gated replay of %d events exceeds the streams' %d-bit capacity", n, max)
	}
	return n, nil
}
