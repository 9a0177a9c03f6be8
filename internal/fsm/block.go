package fsm

import (
	"fmt"
	"math/bits"

	"fsmpredict/internal/bitseq"
)

// This file is the byte-blocked superstep kernel: every replay loop in
// the flow ultimately walks a packed bitstream through a small Moore
// machine one event at a time, but a Moore machine's response to a
// fixed 8-bit outcome block — the eight predictions it makes and the
// state it lands in — is a pure function of the state it entered the
// block in. A BlockTable tabulates that function once per machine
// (NumStates × 256 entries) so simulation consumes the stream a byte
// per lookup instead of a bit per branch, and a byte's mispredictions
// reduce to one XOR and one popcount against the table's prediction
// mask. The per-bit SimulateScalar/RunSampledScalar walks remain as
// the differential oracles (and the fallback for machines over the
// table bound); every kernel here is bit-identical to them by
// construction (the table is built by composing the machine's own
// 2-symbol table, never by re-deriving behaviour) and by the package's
// fuzz tests.

// blockShift is the log2 of the block width: kernels consume the input
// 8 events at a time. Eight is the sweet spot — the table for an
// S-state machine is S*256 uint16s (a 2-bit counter costs 2 KiB, the
// largest machine the flow emits well under a mebibyte), entries pack
// next-state and prediction mask into one uint16, and byte extraction
// from a packed word stream never crosses a word boundary at aligned
// offsets.
const blockShift = 8

// maxBlockStates bounds the machines a BlockTable can represent:
// next-state and the block's prediction mask each fit a byte. Every
// machine the design flow emits is far smaller (2^order histories,
// counter sweeps top out at 41 states); larger hand-built machines
// simply fall back to the scalar oracle.
const maxBlockStates = 256

// BlockTable is the compiled transition closure of one Machine over
// 8-bit input blocks. It is immutable after compilation and safe for
// concurrent use; many simulations can share one table.
type BlockTable struct {
	// tab[s<<8|v] packs the response of state s to the 8-bit block v
	// (earliest event in bit 0, matching bitseq's packing): the low
	// byte is the exit state, the high byte is the prediction mask —
	// bit i holds the output of the state occupied when event i of the
	// block was predicted. Mispredictions for a full byte are then
	// popcount(mask XOR outcomes).
	tab []uint16
	// step[s<<1|b] is the plain 2-symbol transition, used for the
	// ragged sub-byte head and tail of a stream.
	step []uint8
	// out[s] is state s's prediction as a bit.
	out   []uint8
	start uint8
	// span holds the lazily built homogeneous-byte power tables the
	// run-length span kernel walks (see span.go); the shell is built
	// with the table, levels grow on first use.
	span *SpanTable
	// src is a private clone of the compiled machine, used to verify
	// cache hits (the shared cache keys on a 64-bit content hash).
	src *Machine
}

// CompileBlockTable builds the closure table for a machine. It errors
// on an invalid machine or one with more than 256 states; callers that
// want silent fallback use BlockTableFor, which returns nil instead.
func CompileBlockTable(m *Machine) (*BlockTable, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := m.NumStates()
	if n > maxBlockStates {
		return nil, fmt.Errorf("fsm: %d states exceed the %d-state block-table bound", n, maxBlockStates)
	}
	step := make([]uint8, 2*n)
	out := make([]uint8, n)
	for s := 0; s < n; s++ {
		step[s<<1] = uint8(m.Next[s][0])
		step[s<<1|1] = uint8(m.Next[s][1])
		if m.Output[s] {
			out[s] = 1
		}
	}
	// Build T_8 by doubling composition from the 2-symbol table:
	// T_2k[s][v] runs the low k bits through T_k, then the high k bits
	// from the intermediate state, OR-ing the prediction masks. Each
	// level is exact, so the final table replays 8 events exactly as
	// the scalar walk would.
	next := make([]uint8, 2*n)
	mask := make([]uint8, 2*n)
	for s := 0; s < n; s++ {
		next[s<<1] = step[s<<1]
		next[s<<1|1] = step[s<<1|1]
		mask[s<<1] = out[s]
		mask[s<<1|1] = out[s]
	}
	for k := 1; k < blockShift; k *= 2 {
		wide := 2 * k
		nn := make([]uint8, n<<uint(wide))
		nm := make([]uint8, n<<uint(wide))
		low := uint8(1<<uint(k) - 1)
		for s := 0; s < n; s++ {
			for v := 0; v < 1<<uint(wide); v++ {
				lo, hi := uint8(v)&low, v>>uint(k)
				i1 := s<<uint(k) | int(lo)
				mid := next[i1]
				i2 := int(mid)<<uint(k) | hi
				nn[s<<uint(wide)|v] = next[i2]
				nm[s<<uint(wide)|v] = mask[i1] | mask[i2]<<uint(k)
			}
		}
		next, mask = nn, nm
	}
	tab := make([]uint16, n<<blockShift)
	for i := range tab {
		tab[i] = uint16(next[i]) | uint16(mask[i])<<8
	}
	return newBlockTable(tab, step, out, uint8(m.Start), m.Clone()), nil
}

// newBlockTable assembles a table from its parts — the one constructor
// behind both compilation and the disk tier's decoder, so every table
// carries its span-kernel shell whichever way it was built.
func newBlockTable(tab []uint16, step, out []uint8, start uint8, src *Machine) *BlockTable {
	return &BlockTable{
		tab:   tab,
		step:  step,
		out:   out,
		start: start,
		span:  newSpanTable(step, out),
		src:   src,
	}
}

// NumStates returns the compiled machine's state count.
func (t *BlockTable) NumStates() int { return len(t.out) }

// StartState returns the compiled machine's start state.
func (t *BlockTable) StartState() int { return int(t.start) }

// Machine returns the machine the table was compiled from (a private
// clone; callers must not mutate it).
func (t *BlockTable) Machine() *Machine { return t.src }

// Bytes estimates the table's retained size, the unit of the shared
// cache's bytes statistic.
func (t *BlockTable) Bytes() uint64 {
	n := uint64(t.NumStates())
	machine := n * (1 + 16) // Output bools + Next pairs of the src clone
	return 2*(n<<blockShift) + 3*n + machine
}

// compiledFrom reports whether the table was compiled from a machine
// behaviourally identical to m — the content check behind the hashed
// cache (Name is irrelevant to simulation and deliberately ignored).
func (t *BlockTable) compiledFrom(m *Machine) bool {
	if len(m.Next) != len(t.src.Next) || m.Start != t.src.Start {
		return false
	}
	for s, row := range m.Next {
		if row != t.src.Next[s] || m.Output[s] != t.src.Output[s] {
			return false
		}
	}
	return true
}

// RunFrom replays n events of a packed outcome stream (bit i of words
// is event i, bitseq layout; bits at n and beyond must be zero) from
// the given state, consuming the first skip events as unscored warm-up,
// and returns the tally and the exit state — the building block for
// stateful replay (bpred runner banks advance mid-stream). Callers
// replaying from the start use RunFrom(t.StartState(), …).
//
// The input selects the path: a nil or empty run index walks the byte
// kernel; a run index (bitseq.Runs over the same words, any minimum run
// length) walks the span kernel, which advances homogeneous runs in
// O(log run) power-table lookups. Both are bit-identical to
// Machine.SimulateScalar from the same state and allocate nothing. n
// beyond the words' bit capacity is clamped rather than trusted, so a
// caller passing an over-long event count reads garbage from no one.
func (t *BlockTable) RunFrom(state int, words []uint64, n, skip int, runs []bitseq.Run) (SimResult, int) {
	if len(runs) != 0 {
		return t.runFromSpans(state, words, n, skip, runs)
	}
	n, skip = clampSpan(words, n, skip)
	s := uint8(state)
	i := 0
	// Warm-up: advance without scoring, whole bytes then the ragged
	// remainder. i starts byte-aligned, so extraction stays in-word.
	for ; i+8 <= skip; i += 8 {
		b := uint8(words[i>>6] >> uint(i&63))
		s = uint8(t.tab[int(s)<<blockShift|int(b)])
	}
	for ; i < skip; i++ {
		b := words[i>>6] >> uint(i&63) & 1
		s = t.step[int(s)<<1|int(b)]
	}
	res := SimResult{Total: n - skip}
	correct := 0
	// Scalar-step to the next byte boundary, then run aligned bytes
	// (i a multiple of 8 never crosses a word), then the scalar tail.
	for ; i < n && i&7 != 0; i++ {
		b := uint8(words[i>>6] >> uint(i&63) & 1)
		if t.out[s] == b {
			correct++
		}
		s = t.step[int(s)<<1|int(b)]
	}
	for ; i+8 <= n; i += 8 {
		b := uint8(words[i>>6] >> uint(i&63))
		e := t.tab[int(s)<<blockShift|int(b)]
		correct += 8 - bits.OnesCount8(uint8(e>>8)^b)
		s = uint8(e)
	}
	for ; i < n; i++ {
		b := uint8(words[i>>6] >> uint(i&63) & 1)
		if t.out[s] == b {
			correct++
		}
		s = t.step[int(s)<<1|int(b)]
	}
	res.Correct = correct
	return res, int(s)
}

// RunSampled advances through all n events of the packed stream from
// the given state but scores predictions only at the given positions
// (strictly ascending, each in [0, n)) — the §7.3 update-all replay,
// where a per-branch predictor trains on the global outcome stream yet
// predicts only its own branch's occurrences. It returns the
// misprediction count over the sampled positions and the exit state,
// bit-identical to Machine.RunSampledScalar, and allocates nothing. A
// non-empty run index takes the span path (run stretches holding no
// sampled position advance through the power tables); nil takes the
// byte kernel.
func (t *BlockTable) RunSampled(state int, words []uint64, n int, pos []int32, runs []bitseq.Run) (misses, end int) {
	if len(runs) != 0 {
		return t.runSampledSpans(state, words, n, pos, runs)
	}
	n, _ = clampSpan(words, n, 0)
	s := uint8(state)
	c := 0
	i := 0
	for ; i+8 <= n; i += 8 {
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
	return misses, int(s)
}

// ReplayGated is the confidence-estimator replay: the machine steps on
// every bit of the correctness stream from its start state, and
// positions whose valid bit is set count toward flagged (machine
// predicted confident) and flaggedCorrect (confident and the access
// was correct) — exactly the per-segment loop of
// confidence.EvaluateStreams. Both streams carry n bits in bitseq
// layout with zero padding past n; mismatched stream lengths (or n
// beyond their capacity) are an explicit error, never a silent
// truncation. A non-empty run index over the correct stream takes the
// span path, nil the byte kernel; both allocate nothing.
func (t *BlockTable) ReplayGated(correct, valid []uint64, n int, runs []bitseq.Run) (flagged, flaggedCorrect int, err error) {
	if len(runs) != 0 {
		return t.replayGatedSpans(correct, valid, n, runs)
	}
	n, err = checkGatedStreams(correct, valid, n)
	if err != nil {
		return 0, 0, err
	}
	s := t.start
	i := 0
	for ; i+8 <= n; i += 8 {
		w, off := i>>6, uint(i&63)
		cb := uint8(correct[w] >> off)
		vb := uint8(valid[w] >> off)
		e := t.tab[int(s)<<blockShift|int(cb)]
		pm := uint8(e >> 8)
		flagged += bits.OnesCount8(vb & pm)
		flaggedCorrect += bits.OnesCount8(vb & pm & cb)
		s = uint8(e)
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
	return flagged, flaggedCorrect, nil
}

// simulateBools is the blocked kernel over an unpacked bool slice:
// bytes are assembled on the fly in a register, so the []bool entry
// point gains the superstep without allocating a packed copy.
func (t *BlockTable) simulateBools(trace []bool, skip int) SimResult {
	n := len(trace)
	if skip < 0 {
		skip = 0
	}
	if skip > n {
		skip = n
	}
	s := t.start
	i := 0
	for ; i < skip; i++ {
		b := uint8(0)
		if trace[i] {
			b = 1
		}
		s = t.step[int(s)<<1|int(b)]
	}
	res := SimResult{Total: n - skip}
	correct := 0
	for ; i+8 <= n; i += 8 {
		var b uint8
		for j := 0; j < 8; j++ {
			if trace[i+j] {
				b |= 1 << uint(j)
			}
		}
		e := t.tab[int(s)<<blockShift|int(b)]
		correct += 8 - bits.OnesCount8(uint8(e>>8)^b)
		s = uint8(e)
	}
	for ; i < n; i++ {
		b := uint8(0)
		if trace[i] {
			b = 1
		}
		if t.out[s] == b {
			correct++
		}
		s = t.step[int(s)<<1|int(b)]
	}
	res.Correct = correct
	return res
}

// BlockRunner is the streaming form of the blocked kernel: feed it
// outcome bits in arbitrary-sized chunks (packed words, bool slices or
// single bits) and it simulates exactly as one contiguous Simulate
// would, buffering the ragged sub-byte boundary between chunks. The
// zero value is not usable; construct with NewBlockRunner.
type BlockRunner struct {
	t     *BlockTable
	state uint8
	skip  int // warm-up events still to consume unscored
	res   SimResult
	buf   uint8 // pending bits below a byte boundary, earliest in bit 0
	nbuf  int
}

// NewBlockRunner returns a runner at the table's start state that will
// consume the first skip fed events as unscored warm-up. A runner
// always walks the byte kernel: a stream fed in chunks has no run index.
func NewBlockRunner(t *BlockTable, skip int) *BlockRunner {
	if skip < 0 {
		skip = 0
	}
	return &BlockRunner{t: t, state: t.start, skip: skip}
}

// stepBit consumes one event the scalar way.
func (r *BlockRunner) stepBit(b uint8) {
	t := r.t
	if r.skip > 0 {
		r.skip--
	} else {
		r.res.Total++
		if t.out[r.state] == b {
			r.res.Correct++
		}
	}
	r.state = t.step[int(r.state)<<1|int(b)]
}

// stepByte consumes eight events through the closure table.
func (r *BlockRunner) stepByte(b uint8) {
	t := r.t
	switch {
	case r.skip >= 8:
		r.state = uint8(t.tab[int(r.state)<<blockShift|int(b)])
		r.skip -= 8
	case r.skip > 0:
		for j := 0; j < 8; j++ {
			r.stepBit(b >> uint(j) & 1)
		}
	default:
		e := t.tab[int(r.state)<<blockShift|int(b)]
		r.res.Total += 8
		r.res.Correct += 8 - bits.OnesCount8(uint8(e>>8)^b)
		r.state = uint8(e)
	}
}

// push buffers one bit, draining the buffer through the table whenever
// a full byte accumulates.
func (r *BlockRunner) push(b uint8) {
	r.buf |= b << uint(r.nbuf)
	r.nbuf++
	if r.nbuf == 8 {
		full := r.buf
		r.buf, r.nbuf = 0, 0
		r.stepByte(full)
	}
}

// FeedBit streams a single event.
func (r *BlockRunner) FeedBit(v bool) {
	b := uint8(0)
	if v {
		b = 1
	}
	r.push(b)
}

// FeedBools streams a chunk of unpacked events.
func (r *BlockRunner) FeedBools(vs []bool) {
	for _, v := range vs {
		r.FeedBit(v)
	}
}

// FeedWords streams the first n bits of a packed chunk (bitseq
// layout). Interior bytes go through the closure table directly once
// the stream position is byte-aligned.
func (r *BlockRunner) FeedWords(words []uint64, n int) {
	i := 0
	for i < n {
		if r.nbuf == 0 && n-i >= 8 {
			r.stepByte(byteAt(words, i))
			i += 8
			continue
		}
		r.push(uint8(words[i>>6] >> uint(i&63) & 1))
		i++
	}
}

// FeedBits streams a whole packed sequence.
func (r *BlockRunner) FeedBits(b *bitseq.Bits) { r.FeedWords(b.Words(), b.Len()) }

// Result tallies everything fed so far. Draining the sub-byte buffer
// scalar-steps the machine, so calling Result mid-stream is exact and
// feeding may continue afterwards.
func (r *BlockRunner) Result() SimResult {
	for j := 0; j < r.nbuf; j++ {
		r.stepBit(r.buf >> uint(j) & 1)
	}
	r.buf, r.nbuf = 0, 0
	return r.res
}

// State returns the machine state after every drained event; like
// Result it first drains the sub-byte buffer.
func (r *BlockRunner) State() int {
	r.Result()
	return int(r.state)
}

// byteAt extracts the 8 bits starting at position i of a packed word
// stream, handling the word-crossing case.
func byteAt(words []uint64, i int) uint8 {
	w, off := i>>6, uint(i&63)
	v := words[w] >> off
	if off > 56 && w+1 < len(words) {
		v |= words[w+1] << (64 - off)
	}
	return uint8(v)
}
