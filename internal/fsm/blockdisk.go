package fsm

import (
	"fmt"

	"fsmpredict/internal/disktier"
)

// The block-table cache's disk tier: a compiled 8-event closure table
// is ~64 KiB for a 128-state machine and pure function of the machine,
// so a restarted process can mmap yesterday's table instead of re-
// running the doubling composition. The artifact stores the full table
// plus the 2-symbol step/output rows — which ARE the source machine's
// transition structure, so the decoded table carries an exact clone for
// the cache's structural hit-verification, and a hash collision or
// corrupted artifact is caught by the same compiledFrom check a memory
// hit gets.

// blockTableKind addresses block-table artifacts in the disk tier.
const blockTableKind = "blocktable"

// blockTableVersion is the artifact format version; bump on any layout
// change and stale files recompute cleanly.
const blockTableVersion = 1

// SetDiskTier attaches a disk store beneath the process-wide block-
// table cache (nil detaches). Intended to be called once at startup by
// the binaries that opt in via -cache-dir.
func SetDiskTier(d *disktier.Store) {
	if d == nil {
		blockCache.SetTier2(nil, nil)
		return
	}
	blockCache.SetTier2(
		func(h uint64) (*BlockTable, bool) {
			blob, ok := d.Get(blockTableKind, blockTableVersion, diskKey(h))
			if !ok {
				return nil, false
			}
			defer blob.Close()
			return decodeBlockTable(blob.Data)
		},
		func(h uint64, t *BlockTable) {
			d.Put(blockTableKind, blockTableVersion, diskKey(h), encodeBlockTable(t))
		},
	)
}

// ResetBlockCache drops the in-process block-table tier (statistics and
// any disk tier remain). Warm-start measurement uses it to force the
// next lookups through the disk tier.
func ResetBlockCache() { blockCache.Clear() }

// diskKey renders the 64-bit machine hash as the artifact key.
func diskKey(h uint64) string { return fmt.Sprintf("%016x", h) }

// encodeBlockTable renders a table's payload: state count, start state,
// per-state outputs, the 2-symbol step rows, then the full closure
// table. step/out/start reconstruct the source machine exactly, so no
// separate machine encoding is needed.
func encodeBlockTable(t *BlockTable) []byte {
	n := t.NumStates()
	b := make([]byte, 0, 8+3*n+2*len(t.tab))
	b = disktier.AppendU32(b, uint32(n))
	b = append(b, t.start)
	b = disktier.AppendBytes(b, t.out)
	b = disktier.AppendBytes(b, t.step)
	b = disktier.AppendU16s(b, t.tab)
	return b
}

// decodeBlockTable parses a payload back into a table, rebuilding the
// source-machine clone and structurally validating every field; any
// inconsistency reads as a miss (the caller recompiles).
func decodeBlockTable(payload []byte) (*BlockTable, bool) {
	r := disktier.NewReader(payload)
	n := int(r.U32())
	start := r.U8()
	out := r.Bytes()
	step := r.Bytes()
	tab := r.U16s()
	if !r.Done() || n <= 0 || n > maxBlockStates ||
		len(out) != n || len(step) != 2*n || len(tab) != n<<blockShift || int(start) >= n {
		return nil, false
	}
	m := &Machine{
		Output: make([]bool, n),
		Next:   make([][2]int, n),
		Start:  int(start),
	}
	for s := 0; s < n; s++ {
		if out[s] > 1 || int(step[s<<1]) >= n || int(step[s<<1|1]) >= n {
			return nil, false
		}
		m.Output[s] = out[s] == 1
		m.Next[s] = [2]int{int(step[s<<1]), int(step[s<<1|1])}
	}
	return newBlockTable(tab, step, out, start, m), true
}
