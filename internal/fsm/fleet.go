package fsm

import (
	"context"
	"fmt"
	"math/bits"

	"fsmpredict/internal/bitseq"
	"fsmpredict/internal/par"
)

// This file is the fleet kernel: the multi-machine superstep scaled
// from a serving-sized group of block tables to hundreds of candidate
// machines scored against one trace — the GA search over machine
// encodings, Figure 4's synthesis batch, Figure 2's per-history
// threshold curves, and coalesced batch-simulate flushes.
//
// Three structural changes over a naive loop that advances every
// machine per trace byte:
//
//   - Structure of arrays with absolute state indexing. All machines'
//     8-bit transition-closure tables live in ONE contiguous []uint16
//     buffer, and each lane tracks its ABSOLUTE state (slot offset +
//     machine-local state), so the hot loop carries one slice, one
//     loop-invariant base and one integer per machine — no per-machine
//     table pointers or bounds-check registers — and a state
//     transition is a shift-or-load-add chain into the shared table.
//     Entries keep the compact 2-byte next|predMask<<8 layout of
//     BlockTable so eight lanes' tables stay cache-resident.
//   - Loop inversion + lane tiling. The naive loop walks machines
//     INSIDE the per-byte loop: every trace byte touches N distinct
//     tables, so at fleet scale each lookup is a fresh cache line. The
//     fleet kernel tiles machine × trace-segment instead: the trace is
//     cut into L1-sized segments, and within a segment machines run in
//     lanes of eight — eight independent state chains advanced per
//     byte, so the out-of-order core overlaps their table-load
//     latencies (a single chain is serially dependent: each lookup's
//     index needs the previous lookup's result) while only eight
//     tables compete for cache across the whole segment.
//   - Structural dedup. Identical machines inside a fleet (converged
//     GA populations, duplicate batch requests) are detected by
//     content hash with full structural verification and simulated
//     once; results fan out to every input slot.
//
// Chunking bounds the working set: machines are grouped into chunks
// whose closure tables total at most fleetChunkBytes, so a chunk's
// tables plus one trace segment stay L2-resident no matter how large
// the fleet grows, and chunks shard across cores via internal/par.
// Every kernel here is bit-identical to per-machine BlockTable.RunFrom
// by construction (same event sequence, same closure entries); the
// package's differential and fuzz tests enforce it.

// fleetSegEvents is the trace tile: 1<<15 events = 4 KiB of packed
// words, comfortably L1-resident alongside one lane group's tables.
const fleetSegEvents = 1 << 15

// fleetChunkBytes bounds the summed closure-table bytes of one machine
// chunk (~half an L2), the unit of parallel sharding.
const fleetChunkBytes = 128 << 10

// Fleet is a compiled multi-machine batch: N machines packed
// side-by-side for single-pass scoring against a shared trace. It is
// immutable after construction and safe for concurrent use.
type Fleet struct {
	// tab is the concatenated closure table of the unique machines:
	// unique machine u owns absolute states [off[u], off[u+1]), and the
	// entry for absolute state g = off[u]+s on byte b is
	// tab[g<<blockShift|b] = localNext | predMask<<8, BlockTable's
	// entry layout verbatim.
	tab []uint16
	// step/out are the per-machine 2-symbol step tables and per-state
	// outputs in machine-local coordinates, for the ragged scalar
	// phases; machine u's slices are step[off[u]<<1:off[u+1]<<1] and
	// out[off[u]:off[u+1]].
	step []uint8
	out  []uint8
	// start[u] is unique machine u's start state (machine-local).
	start []uint8
	// spans[u] is unique machine u's span power tables, shared with the
	// source BlockTable so levels built anywhere serve everywhere.
	spans []*SpanTable
	// off is the cumulative state count, len(unique)+1 (padding slots
	// included).
	off []uint32
	// idx maps each input machine to its unique slot: idx[i] == idx[j]
	// iff machines i and j are structurally identical.
	idx []int32
	// nuniq is the number of real unique machines; slots beyond it are
	// lane padding (copies of the last unique table) that round the
	// packed slot count up to an eight-lane group so the whole pass runs
	// in the wide spanOct loop. No idx entry maps to a padding slot.
	nuniq int
}

// NewFleet compiles a fleet from machines. Every machine must be valid
// and within the block-table state bound (256); otherwise an error
// names the offending index and callers fall back to per-machine
// simulation. Compilation goes through the shared block-table cache,
// so recurring machines (GA elites, repeated batch requests) cost one
// table build process-wide.
func NewFleet(machines []*Machine) (*Fleet, error) {
	tabs := make([]*BlockTable, len(machines))
	for i, m := range machines {
		if m == nil {
			return nil, fmt.Errorf("fsm: fleet machine %d is nil", i)
		}
		if tabs[i] = BlockTableFor(m); tabs[i] == nil {
			// Only an invalid or oversized machine has no table;
			// compiling it directly names the reason.
			_, err := CompileBlockTable(m)
			return nil, fmt.Errorf("fsm: fleet machine %d: %v", i, err)
		}
	}
	return FleetOfTables(tabs), nil
}

// FleetOfTables packs already-compiled block tables into a fleet — the
// entry point for callers that hold tables (the batch-simulate flush).
// Structurally identical machines collapse into one packed slot.
func FleetOfTables(tabs []*BlockTable) *Fleet {
	f := &Fleet{idx: make([]int32, len(tabs))}
	// Dedup by content hash, verified structurally so a collision can
	// never alias two distinct machines.
	seen := make(map[uint64][]int32, len(tabs))
	var uniq []*BlockTable
	for i, t := range tabs {
		h := t.src.blockHash()
		slot := int32(-1)
		for _, u := range seen[h] {
			if uniq[u].compiledFrom(t.src) {
				slot = u
				break
			}
		}
		if slot < 0 {
			slot = int32(len(uniq))
			uniq = append(uniq, t)
			seen[h] = append(seen[h], slot)
		}
		f.idx[i] = slot
	}
	f.nuniq = len(uniq)
	// Pad the packed slots to an eight-lane group: the single-lane span
	// walker costs ~4x a spanOct lane per machine (one serially-dependent
	// chain exposes the full table-load latency every byte), so whenever
	// the tail would put three or more machines on it, duplicating the
	// last table into the spare lanes is cheaper than walking the tail
	// serially. Padding slots produce no results (idx never points at
	// them) and two or fewer tail machines stay on the scalar path, where
	// padding would cost more than it saves.
	if tail := len(uniq) % 8; tail >= 3 {
		for len(uniq)%8 != 0 {
			uniq = append(uniq, uniq[len(uniq)-1])
		}
	}
	f.off = make([]uint32, len(uniq)+1)
	total := 0
	for u, t := range uniq {
		total += t.NumStates()
		f.off[u+1] = uint32(total)
	}
	f.tab = make([]uint16, total<<blockShift)
	f.step = make([]uint8, total<<1)
	f.out = make([]uint8, total)
	f.start = make([]uint8, len(uniq))
	f.spans = make([]*SpanTable, len(uniq))
	for u, t := range uniq {
		o := int(f.off[u])
		copy(f.tab[o<<blockShift:], t.tab)
		copy(f.step[o<<1:], t.step)
		copy(f.out[o:], t.out)
		f.start[u] = t.start
		f.spans[u] = t.span
	}
	return f
}

// Len returns the number of input machines (fleet result slots).
func (f *Fleet) Len() int { return len(f.idx) }

// Unique returns the number of structurally distinct machines — the
// number of state walks whose results a fleet pass actually uses.
func (f *Fleet) Unique() int { return f.nuniq }

// slots returns the packed slot count including lane padding — the walk
// width of the superstep kernels.
func (f *Fleet) slots() int { return len(f.off) - 1 }

// Deduped returns how many input machines were folded into another
// slot's walk.
func (f *Fleet) Deduped() int { return f.Len() - f.Unique() }

// TableBytes returns the packed closure-table footprint.
func (f *Fleet) TableBytes() uint64 {
	n := uint64(f.off[len(f.off)-1])
	return 2*(n<<blockShift) + 3*n
}

// Run replays n events of the packed outcome stream through every
// fleet machine in one tiled pass, the first skip events as unscored
// warm-up, with the machine chunks sharded over at most workers
// goroutines (<= 0 means GOMAXPROCS; chunks own disjoint machine ranges
// and only read the trace, so results are bit-identical for any worker
// count). Result i is bit-identical to machine i's BlockTable.RunFrom
// from its start state, and n over-long streams are clamped to the
// words' capacity. A non-empty run index (bitseq.Runs over the same
// words) takes the span path — homogeneous runs advance every lane
// through its span power tables in O(log run) lookups, each chunk with
// its own cursor — and nil takes the interleaved byte loop throughout.
func (f *Fleet) Run(workers int, words []uint64, n, skip int, runs []bitseq.Run) []SimResult {
	res := make([]SimResult, len(f.idx))
	if len(f.idx) == 0 {
		return res
	}
	n, skip = clampSpan(words, n, skip)
	nu := f.slots()
	states := make([]uint8, nu)
	correct := make([]int, nu)
	chunks := f.chunks()
	// The error is structurally impossible (the fn never fails and the
	// context is never cancelled), so the result is always complete.
	par.MapSlice(context.Background(), workers, chunks, func(_ int, c [2]int32) (struct{}, error) {
		var tally spanTally
		f.runChunk(int(c[0]), int(c[1]), words, n, skip, states, correct, runs, &tally)
		tally.flush()
		return struct{}{}, nil
	})
	for i, u := range f.idx {
		res[i] = SimResult{Total: n - skip, Correct: correct[u]}
	}
	return res
}

// chunks cuts the unique machines into contiguous ranges whose closure
// tables total roughly fleetChunkBytes. Cuts land only on lane-group
// (eight-machine) boundaries so every chunk but the fleet's last runs
// entirely in the wide spanOct loop — a mid-chunk remainder would put
// up to seven machines per chunk on the serial single-lane path, which
// profiling shows dominates the whole pass. A chunk is never smaller
// than one lane group, which is also the kernel's irreducible cache
// unit.
func (f *Fleet) chunks() [][2]int32 {
	nu := f.slots()
	var out [][2]int32
	lo, bytes := 0, 0
	for u := 0; u < nu; u++ {
		sz := int(f.off[u+1]-f.off[u]) << (blockShift + 1)
		if u > lo && (u-lo)&7 == 0 && bytes+sz > fleetChunkBytes {
			out = append(out, [2]int32{int32(lo), int32(u)})
			lo, bytes = u, 0
		}
		bytes += sz
	}
	if lo < nu {
		out = append(out, [2]int32{int32(lo), int32(nu)})
	}
	return out
}

// runChunk advances unique machines [lo, hi) over the whole stream,
// trace-segment outer / machine inner: per segment each lane group runs
// the tight interleaved byte loop, so its table entries and the
// segment's words stay cache-hot. With a run index, each segment is cut
// at its run boundaries — mixed sub-ranges keep the lane-group loops,
// homogeneous runs advance every machine through its power tables
// (runSkipLane) — and a nil index degenerates to the one-region walk.
func (f *Fleet) runChunk(lo, hi int, words []uint64, n, skip int, states []uint8, correct []int, runs []bitseq.Run, tally *spanTally) {
	for u := lo; u < hi; u++ {
		states[u] = f.start[u]
	}
	r := 0
	for segLo := 0; segLo < n; segLo += fleetSegEvents {
		segHi := segLo + fleetSegEvents
		if segHi > n {
			segHi = n
		}
		i := segLo
		for i < segHi {
			for r < len(runs) && runs[r].End() <= i {
				r++
			}
			rs, re := segHi, segHi
			if r < len(runs) {
				rs, re = int(runs[r].Start), runs[r].End()
				if rs < i {
					rs = i
				}
				if rs > segHi {
					rs = segHi
				}
				if re > segHi {
					re = segHi
				}
			}
			if i < rs {
				u := lo
				for ; u+8 <= hi; u += 8 {
					f.spanOct(u, words, i, rs, skip, states, correct)
				}
				for ; u < hi; u++ {
					s, c := f.span(u, states[u], words, i, rs, skip)
					states[u] = s
					correct[u] += c
				}
				i = rs
			}
			if i < re {
				b := 0
				if runs[r].One {
					b = 1
				}
				for u := lo; u < hi; u++ {
					f.runSkipLane(u, words, i, re, skip, b, states, correct)
				}
				tally.runs += hi - lo
				tally.skipped += (re - i) * (hi - lo)
				i = re
			}
		}
	}
}

// runSkipLane advances one lane across a homogeneous run [lo, hi) — all
// events the repeated bit b, both bounds byte-aligned — scoring events
// at or after scoreFrom. A run straddling the warm-up boundary splits
// there: whole warm-up bytes walk unscored, the ragged boundary byte
// routes through the single-lane scalar walker (span) exactly as the
// byte loops would, and the scored remainder walks with miss counts.
func (f *Fleet) runSkipLane(u int, words []uint64, lo, hi, scoreFrom, b int, states []uint8, correct []int) {
	st := f.spans[u]
	s := states[u]
	switch {
	case scoreFrom <= lo:
		s2, m := st.walk(s, (hi-lo)>>3, b)
		states[u] = s2
		correct[u] += (hi - lo) - m
		return
	case scoreFrom >= hi:
		s2, _ := st.walk(s, (hi-lo)>>3, b)
		states[u] = s2
		return
	}
	wEnd := scoreFrom &^ 7
	if wEnd > lo {
		s, _ = st.walk(s, (wEnd-lo)>>3, b)
		states[u] = s
	}
	head := (scoreFrom + 7) &^ 7
	if head > hi {
		head = hi
	}
	if head > wEnd {
		s2, c := f.span(u, s, words, wEnd, head, scoreFrom)
		s = s2
		states[u] = s2
		correct[u] += c
	}
	if hi > head {
		s2, m := st.walk(s, (hi-head)>>3, b)
		states[u] = s2
		correct[u] += (hi - head) - m
	}
}

// span advances one machine over events [lo, hi) of the packed stream
// from machine-local state s, scoring events at or after scoreFrom. lo
// must be a multiple of 8, so byte extraction never crosses a word. The
// event sequence is RunFrom's (unscored bytes, ragged warm-up tail,
// scored scalar head, scored bytes, scored scalar tail), which is what
// makes the fleet bit-identical to per-machine RunFrom.
func (f *Fleet) span(u int, s uint8, words []uint64, lo, hi, scoreFrom int) (uint8, int) {
	o := int(f.off[u])
	tab := f.tab
	step := f.step[o<<1 : int(f.off[u+1])<<1]
	out := f.out[o:f.off[u+1]]
	if scoreFrom < lo {
		scoreFrom = lo
	}
	if scoreFrom > hi {
		scoreFrom = hi
	}
	g := o + int(s)
	i := lo
	for ; i+8 <= scoreFrom; i += 8 {
		b := uint8(words[i>>6] >> uint(i&63))
		g = o + int(uint8(tab[g<<blockShift|int(b)]))
	}
	s = uint8(g - o)
	for ; i < scoreFrom; i++ {
		b := words[i>>6] >> uint(i&63) & 1
		s = step[int(s)<<1|int(b)]
	}
	correct := 0
	for ; i < hi && i&7 != 0; i++ {
		b := uint8(words[i>>6] >> uint(i&63) & 1)
		if out[s] == b {
			correct++
		}
		s = step[int(s)<<1|int(b)]
	}
	g = o + int(s)
	for ; i+8 <= hi; i += 8 {
		b := uint8(words[i>>6] >> uint(i&63))
		e := tab[g<<blockShift|int(b)]
		correct += 8 - bits.OnesCount8(uint8(e>>8)^b)
		g = o + int(uint8(e))
	}
	s = uint8(g - o)
	for ; i < hi; i++ {
		b := uint8(words[i>>6] >> uint(i&63) & 1)
		if out[s] == b {
			correct++
		}
		s = step[int(s)<<1|int(b)]
	}
	return s, correct
}

// spanOct advances unique machines u..u+7 over events [lo, hi) in
// lockstep, scoring at or after scoreFrom — the fleet's throughput
// engine. Eight independent transition chains share each trace byte, so
// the out-of-order core overlaps their table-load latencies (a single
// chain is serially dependent: each lookup's index needs the previous
// lookup's result); absolute state indexing keeps the whole loop on one
// slice and eight integers. Each lane executes exactly span's event
// sequence, so results stay bit-identical to the single-lane walk.
func (f *Fleet) spanOct(u int, words []uint64, lo, hi, scoreFrom int, states []uint8, correct []int) {
	tab := f.tab
	o0, o1, o2, o3 := int(f.off[u]), int(f.off[u+1]), int(f.off[u+2]), int(f.off[u+3])
	o4, o5, o6, o7 := int(f.off[u+4]), int(f.off[u+5]), int(f.off[u+6]), int(f.off[u+7])
	g0, g1, g2, g3 := o0+int(states[u]), o1+int(states[u+1]), o2+int(states[u+2]), o3+int(states[u+3])
	g4, g5, g6, g7 := o4+int(states[u+4]), o5+int(states[u+5]), o6+int(states[u+6]), o7+int(states[u+7])
	var c0, c1, c2, c3, c4, c5, c6, c7 int
	if scoreFrom < lo {
		scoreFrom = lo
	}
	if scoreFrom > hi {
		scoreFrom = hi
	}
	i := lo
	for ; i+8 <= scoreFrom; i += 8 {
		b := int(uint8(words[i>>6] >> uint(i&63)))
		g0 = o0 + int(uint8(tab[g0<<blockShift|b]))
		g1 = o1 + int(uint8(tab[g1<<blockShift|b]))
		g2 = o2 + int(uint8(tab[g2<<blockShift|b]))
		g3 = o3 + int(uint8(tab[g3<<blockShift|b]))
		g4 = o4 + int(uint8(tab[g4<<blockShift|b]))
		g5 = o5 + int(uint8(tab[g5<<blockShift|b]))
		g6 = o6 + int(uint8(tab[g6<<blockShift|b]))
		g7 = o7 + int(uint8(tab[g7<<blockShift|b]))
	}
	if i < scoreFrom {
		// Ragged warm-up (at most seven events): route each lane
		// through the single-lane walker up to the next byte boundary,
		// then resume the wide loop.
		head := (scoreFrom + 7) &^ 7
		if head > hi {
			head = hi
		}
		writeOctStates(states, f.off, u, g0, g1, g2, g3, g4, g5, g6, g7)
		for l := 0; l < 8; l++ {
			s, c := f.span(u+l, states[u+l], words, i, head, scoreFrom)
			states[u+l] = s
			correct[u+l] += c
		}
		if head == hi {
			return
		}
		i = head
		g0, g1, g2, g3 = o0+int(states[u]), o1+int(states[u+1]), o2+int(states[u+2]), o3+int(states[u+3])
		g4, g5, g6, g7 = o4+int(states[u+4]), o5+int(states[u+5]), o6+int(states[u+6]), o7+int(states[u+7])
	}
	// Scored body: count MISSES (xor-popcount per lane) and convert to
	// correct counts once at the end — one fewer arithmetic op per lane
	// per byte. Trace bytes come from shifting a word-local register,
	// one word load per 64 events.
	scored := 0
	for ; i+8 <= hi && i&63 != 0; i += 8 {
		b := uint8(words[i>>6] >> uint(i&63))
		e0 := tab[g0<<blockShift|int(b)]
		e1 := tab[g1<<blockShift|int(b)]
		e2 := tab[g2<<blockShift|int(b)]
		e3 := tab[g3<<blockShift|int(b)]
		e4 := tab[g4<<blockShift|int(b)]
		e5 := tab[g5<<blockShift|int(b)]
		e6 := tab[g6<<blockShift|int(b)]
		e7 := tab[g7<<blockShift|int(b)]
		c0 += bits.OnesCount8(uint8(e0>>8) ^ b)
		c1 += bits.OnesCount8(uint8(e1>>8) ^ b)
		c2 += bits.OnesCount8(uint8(e2>>8) ^ b)
		c3 += bits.OnesCount8(uint8(e3>>8) ^ b)
		c4 += bits.OnesCount8(uint8(e4>>8) ^ b)
		c5 += bits.OnesCount8(uint8(e5>>8) ^ b)
		c6 += bits.OnesCount8(uint8(e6>>8) ^ b)
		c7 += bits.OnesCount8(uint8(e7>>8) ^ b)
		g0, g1, g2, g3 = o0+int(uint8(e0)), o1+int(uint8(e1)), o2+int(uint8(e2)), o3+int(uint8(e3))
		g4, g5, g6, g7 = o4+int(uint8(e4)), o5+int(uint8(e5)), o6+int(uint8(e6)), o7+int(uint8(e7))
		scored += 8
	}
	for ; i+64 <= hi; i += 64 {
		w := words[i>>6]
		for k := 0; k < 8; k++ {
			b := uint8(w)
			w >>= 8
			e0 := tab[g0<<blockShift|int(b)]
			e1 := tab[g1<<blockShift|int(b)]
			e2 := tab[g2<<blockShift|int(b)]
			e3 := tab[g3<<blockShift|int(b)]
			e4 := tab[g4<<blockShift|int(b)]
			e5 := tab[g5<<blockShift|int(b)]
			e6 := tab[g6<<blockShift|int(b)]
			e7 := tab[g7<<blockShift|int(b)]
			c0 += bits.OnesCount8(uint8(e0>>8) ^ b)
			c1 += bits.OnesCount8(uint8(e1>>8) ^ b)
			c2 += bits.OnesCount8(uint8(e2>>8) ^ b)
			c3 += bits.OnesCount8(uint8(e3>>8) ^ b)
			c4 += bits.OnesCount8(uint8(e4>>8) ^ b)
			c5 += bits.OnesCount8(uint8(e5>>8) ^ b)
			c6 += bits.OnesCount8(uint8(e6>>8) ^ b)
			c7 += bits.OnesCount8(uint8(e7>>8) ^ b)
			g0, g1, g2, g3 = o0+int(uint8(e0)), o1+int(uint8(e1)), o2+int(uint8(e2)), o3+int(uint8(e3))
			g4, g5, g6, g7 = o4+int(uint8(e4)), o5+int(uint8(e5)), o6+int(uint8(e6)), o7+int(uint8(e7))
		}
		scored += 64
	}
	for ; i+8 <= hi; i += 8 {
		b := uint8(words[i>>6] >> uint(i&63))
		e0 := tab[g0<<blockShift|int(b)]
		e1 := tab[g1<<blockShift|int(b)]
		e2 := tab[g2<<blockShift|int(b)]
		e3 := tab[g3<<blockShift|int(b)]
		e4 := tab[g4<<blockShift|int(b)]
		e5 := tab[g5<<blockShift|int(b)]
		e6 := tab[g6<<blockShift|int(b)]
		e7 := tab[g7<<blockShift|int(b)]
		c0 += bits.OnesCount8(uint8(e0>>8) ^ b)
		c1 += bits.OnesCount8(uint8(e1>>8) ^ b)
		c2 += bits.OnesCount8(uint8(e2>>8) ^ b)
		c3 += bits.OnesCount8(uint8(e3>>8) ^ b)
		c4 += bits.OnesCount8(uint8(e4>>8) ^ b)
		c5 += bits.OnesCount8(uint8(e5>>8) ^ b)
		c6 += bits.OnesCount8(uint8(e6>>8) ^ b)
		c7 += bits.OnesCount8(uint8(e7>>8) ^ b)
		g0, g1, g2, g3 = o0+int(uint8(e0)), o1+int(uint8(e1)), o2+int(uint8(e2)), o3+int(uint8(e3))
		g4, g5, g6, g7 = o4+int(uint8(e4)), o5+int(uint8(e5)), o6+int(uint8(e6)), o7+int(uint8(e7))
		scored += 8
	}
	writeOctStates(states, f.off, u, g0, g1, g2, g3, g4, g5, g6, g7)
	correct[u] += scored - c0
	correct[u+1] += scored - c1
	correct[u+2] += scored - c2
	correct[u+3] += scored - c3
	correct[u+4] += scored - c4
	correct[u+5] += scored - c5
	correct[u+6] += scored - c6
	correct[u+7] += scored - c7
	if i < hi {
		// Ragged tail (at most seven events), scored scalar per lane.
		for l := 0; l < 8; l++ {
			s, c := f.span(u+l, states[u+l], words, i, hi, scoreFrom)
			states[u+l] = s
			correct[u+l] += c
		}
	}
}

// writeOctStates converts eight absolute states back to machine-local
// and stores them.
func writeOctStates(states []uint8, off []uint32, u, g0, g1, g2, g3, g4, g5, g6, g7 int) {
	states[u] = uint8(g0 - int(off[u]))
	states[u+1] = uint8(g1 - int(off[u+1]))
	states[u+2] = uint8(g2 - int(off[u+2]))
	states[u+3] = uint8(g3 - int(off[u+3]))
	states[u+4] = uint8(g4 - int(off[u+4]))
	states[u+5] = uint8(g5 - int(off[u+5]))
	states[u+6] = uint8(g6 - int(off[u+6]))
	states[u+7] = uint8(g7 - int(off[u+7]))
}

// RunSampled advances every fleet machine through all n events of the
// shared stream and scores machine i only at positions pos[i] (strictly
// ascending, each in [0, n)) — the §7.3 update-all replay batched
// across a candidate set, one trace read for the whole fleet. It
// returns per-input misprediction counts, each bit-identical to the
// per-machine BlockTable.RunSampled walk. It always takes the byte
// kernel (it has no run index parameter). Positions differ per input,
// so duplicate machines keep their own slots here (the walk is cheap
// next to the shared trace traversal the fleet amortizes).
func (f *Fleet) RunSampled(words []uint64, n int, pos [][]int32) []int {
	misses := make([]int, len(f.idx))
	n, _ = clampSpan(words, n, 0)
	for j, u := range f.idx {
		misses[j] = f.sampled(int(u), words, n, pos[j])
	}
	return misses
}

// sampled is BlockTable.RunSampled's loop over the fleet's packed
// table.
func (f *Fleet) sampled(u int, words []uint64, n int, pos []int32) int {
	o := int(f.off[u])
	tab := f.tab
	step := f.step[o<<1 : int(f.off[u+1])<<1]
	out := f.out[o:f.off[u+1]]
	g := o + int(f.start[u])
	misses, c := 0, 0
	i := 0
	for ; i+8 <= n; i += 8 {
		b := uint8(words[i>>6] >> uint(i&63))
		e := tab[g<<blockShift|int(b)]
		if c < len(pos) && int(pos[c]) < i+8 {
			x := uint8(e>>8) ^ b
			for ; c < len(pos) && int(pos[c]) < i+8; c++ {
				misses += int(x >> uint(int(pos[c])-i) & 1)
			}
		}
		g = o + int(uint8(e))
	}
	s := uint8(g - o)
	for ; i < n; i++ {
		b := uint8(words[i>>6] >> uint(i&63) & 1)
		if c < len(pos) && int(pos[c]) == i {
			if out[s] != b {
				misses++
			}
			c++
		}
		s = step[int(s)<<1|int(b)]
	}
	return misses
}

// ReplayGated is the confidence-estimator replay batched across the
// fleet: every machine steps on all n bits of the packed correctness
// stream from its start state, and valid positions where the machine
// predicts confident count toward its flagged / flaggedCorrect tallies
// — BlockTable.ReplayGated for N machines in one trace pass, with
// structurally identical machines walked once and fanned out. A
// non-empty run index over the correct stream takes the span path per
// unique machine, nil the gated byte loop. Mismatched stream lengths
// (or n beyond their capacity) are an explicit error, never a silent
// truncation.
func (f *Fleet) ReplayGated(correct, valid []uint64, n int, runs []bitseq.Run) (flagged, flaggedCorrect []int, err error) {
	n, err = checkGatedStreams(correct, valid, n)
	if err != nil {
		return nil, nil, err
	}
	flagged = make([]int, len(f.idx))
	flaggedCorrect = make([]int, len(f.idx))
	nu := f.Unique()
	uf := make([]int, nu)
	ufc := make([]int, nu)
	var tally spanTally
	for u := 0; u < nu; u++ {
		if len(runs) > 0 {
			uf[u], ufc[u] = f.gatedSpans(u, correct, valid, n, runs, &tally)
		} else {
			uf[u], ufc[u] = f.gated(u, correct, valid, n)
		}
	}
	tally.flush()
	for i, u := range f.idx {
		flagged[i], flaggedCorrect[i] = uf[u], ufc[u]
	}
	return flagged, flaggedCorrect, nil
}

// gated is BlockTable.ReplayGated's loop over the fleet's packed table.
func (f *Fleet) gated(u int, correct, valid []uint64, n int) (flagged, flaggedCorrect int) {
	o := int(f.off[u])
	tab := f.tab
	step := f.step[o<<1 : int(f.off[u+1])<<1]
	out := f.out[o:f.off[u+1]]
	g := o + int(f.start[u])
	i := 0
	for ; i+8 <= n; i += 8 {
		w, off := i>>6, uint(i&63)
		cb := uint8(correct[w] >> off)
		vb := uint8(valid[w] >> off)
		e := tab[g<<blockShift|int(cb)]
		pm := uint8(e >> 8)
		flagged += bits.OnesCount8(vb & pm)
		flaggedCorrect += bits.OnesCount8(vb & pm & cb)
		g = o + int(uint8(e))
	}
	s := uint8(g - o)
	for ; i < n; i++ {
		w, off := i>>6, uint(i&63)
		cb := uint8(correct[w] >> off & 1)
		if valid[w]>>off&1 == 1 && out[s] == 1 {
			flagged++
			flaggedCorrect += int(cb)
		}
		s = step[int(s)<<1|int(cb)]
	}
	return flagged, flaggedCorrect
}

// gatedSpans is gated walking a run index over the correct stream — the
// fleet counterpart of BlockTable.ReplayGated's span path, on the
// packed table with absolute state indexing.
func (f *Fleet) gatedSpans(u int, correct, valid []uint64, n int, runs []bitseq.Run, tally *spanTally) (flagged, flaggedCorrect int) {
	o := int(f.off[u])
	tab := f.tab
	st := f.spans[u]
	step := f.step[o<<1 : int(f.off[u+1])<<1]
	out := f.out[o:f.off[u+1]]
	g := o + int(f.start[u])
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
			e := tab[g<<blockShift|int(cb)]
			pm := uint8(e >> 8)
			flagged += bits.OnesCount8(vb & pm)
			flaggedCorrect += bits.OnesCount8(vb & pm & cb)
			g = o + int(uint8(e))
		}
		for i < re {
			if j := allOnesTo(valid, i, re); j > i {
				k := (j - i) >> 3
				b := 0
				if runs[r].One {
					b = 1
				}
				s2, m := st.walk(uint8(g-o), k, b)
				g = o + int(s2)
				if b == 1 {
					fl := k<<3 - m
					flagged += fl
					flaggedCorrect += fl
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
				e := tab[g<<blockShift|int(cb)]
				pm := uint8(e >> 8)
				flagged += bits.OnesCount8(vb & pm)
				flaggedCorrect += bits.OnesCount8(vb & pm & cb)
				g = o + int(uint8(e))
				i += 8
			}
		}
	}
	s := uint8(g - o)
	for ; i < n; i++ {
		w, off := i>>6, uint(i&63)
		cb := uint8(correct[w] >> off & 1)
		if valid[w]>>off&1 == 1 && out[s] == 1 {
			flagged++
			flaggedCorrect += int(cb)
		}
		s = step[int(s)<<1|int(cb)]
	}
	return flagged, flaggedCorrect
}

// clampSpan normalizes (n, skip) against the packed stream's capacity:
// negative values floor at zero, n is clamped to the events the words
// can hold, and skip is clamped to n.
func clampSpan(words []uint64, n, skip int) (int, int) {
	if n < 0 {
		n = 0
	}
	if max := len(words) << 6; n > max {
		n = max
	}
	if skip < 0 {
		skip = 0
	}
	if skip > n {
		skip = n
	}
	return n, skip
}
