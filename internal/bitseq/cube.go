package bitseq

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// Cube is a three-valued pattern over a W-bit history: each position is 0,
// 1, or x (don't care). Positions follow the history convention: bit 0 is
// the most recent input; the string form is written oldest-first.
//
// A cube with Care == full mask is a minterm (a single concrete history).
type Cube struct {
	// Value holds the required bit values at positions where Care is set.
	// Bits of Value outside Care must be zero (canonical form).
	Value uint32
	// Care marks the positions that are constrained (1 = must match).
	Care uint32
	// Width is the pattern width in bits (1..32).
	Width int
}

// NewCube returns a canonicalized cube, masking Value to Care and Care to
// the width.
func NewCube(value, care uint32, width int) Cube {
	if width < 1 || width > 32 {
		panic(fmt.Sprintf("bitseq: cube width %d out of range [1,32]", width))
	}
	m := uint32(1)<<uint(width) - 1
	care &= m
	return Cube{Value: value & care, Care: care, Width: width}
}

// Minterm returns the cube matching exactly the history h.
func Minterm(h uint32, width int) Cube {
	m := uint32(1)<<uint(width) - 1
	return Cube{Value: h & m, Care: m, Width: width}
}

// ParseCube parses an oldest-first pattern such as "1x" or "0x1x". Valid
// characters are '0', '1', 'x', 'X', and '-'.
func ParseCube(s string) (Cube, error) {
	if len(s) == 0 || len(s) > 32 {
		return Cube{}, fmt.Errorf("bitseq: cube length %d out of range [1,32]", len(s))
	}
	var value, care uint32
	for i := 0; i < len(s); i++ {
		value <<= 1
		care <<= 1
		switch s[i] {
		case '1':
			value |= 1
			care |= 1
		case '0':
			care |= 1
		case 'x', 'X', '-':
		default:
			return Cube{}, fmt.Errorf("bitseq: invalid cube character %q", s[i])
		}
	}
	return Cube{Value: value, Care: care, Width: len(s)}, nil
}

// MustParseCube is ParseCube but panics on error.
func MustParseCube(s string) Cube {
	c, err := ParseCube(s)
	if err != nil {
		panic(err)
	}
	return c
}

// String renders the cube oldest-first using '0', '1' and 'x'.
func (c Cube) String() string {
	var sb strings.Builder
	for i := c.Width - 1; i >= 0; i-- {
		switch {
		case c.Care>>uint(i)&1 == 0:
			sb.WriteByte('x')
		case c.Value>>uint(i)&1 == 1:
			sb.WriteByte('1')
		default:
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Matches reports whether history h satisfies the cube.
func (c Cube) Matches(h uint32) bool {
	return (h^c.Value)&c.Care == 0
}

// IsMinterm reports whether every position is constrained.
func (c Cube) IsMinterm() bool {
	return c.Care == uint32(1)<<uint(c.Width)-1
}

// FreeCount returns the number of don't-care positions.
func (c Cube) FreeCount() int {
	m := uint32(1)<<uint(c.Width) - 1
	return bits.OnesCount32(m &^ c.Care)
}

// Size returns the number of minterms the cube covers (2^FreeCount).
func (c Cube) Size() uint64 {
	return 1 << uint(c.FreeCount())
}

// Literals returns the number of constrained positions (the cost of the
// cube as a product term).
func (c Cube) Literals() int {
	return bits.OnesCount32(c.Care)
}

// Contains reports whether every minterm of d is also a minterm of c.
func (c Cube) Contains(d Cube) bool {
	if c.Width != d.Width {
		return false
	}
	// c's constrained positions must be constrained identically in d.
	if c.Care&^d.Care != 0 {
		return false
	}
	return (c.Value^d.Value)&c.Care == 0
}

// Intersects reports whether c and d share at least one minterm.
func (c Cube) Intersects(d Cube) bool {
	if c.Width != d.Width {
		return false
	}
	common := c.Care & d.Care
	return (c.Value^d.Value)&common == 0
}

// Intersection returns the largest cube contained in both c and d, and
// whether it exists.
func (c Cube) Intersection(d Cube) (Cube, bool) {
	if !c.Intersects(d) {
		return Cube{}, false
	}
	return Cube{
		Value: c.Value | d.Value,
		Care:  c.Care | d.Care,
		Width: c.Width,
	}, true
}

// Minterms enumerates every history the cube matches, in ascending order.
// It allocates 2^FreeCount entries; callers must keep widths small.
func (c Cube) Minterms() []uint32 {
	out := make([]uint32, 0, c.Size())
	c.EachMinterm(func(m uint32) bool {
		out = append(out, m)
		return true
	})
	return out
}

// EachMinterm calls fn for every history the cube matches, in ascending
// order, stopping early (and returning false) if fn returns false. It is
// the allocation-free counterpart of Minterms for hot paths that only
// need to scan.
func (c Cube) EachMinterm(fn func(m uint32) bool) bool {
	mask := uint32(1)<<uint(c.Width) - 1
	freeMask := mask &^ c.Care
	count := uint32(1) << uint(c.FreeCount())
	for k := uint32(0); k < count; k++ {
		// Deposit k's bits into the free positions, lowest first; the
		// mapping is monotonic, so enumeration is ascending.
		h := c.Value
		rem := freeMask
		for kk := k; kk != 0; kk >>= 1 {
			pos := rem & -rem // lowest remaining free position
			rem &^= pos
			if kk&1 == 1 {
				h |= pos
			}
		}
		if !fn(h) {
			return false
		}
	}
	return true
}

// Combine attempts the Quine–McCluskey merge: if c and d constrain the same
// positions and differ in exactly one bit value, the merged cube with that
// bit freed is returned.
func (c Cube) Combine(d Cube) (Cube, bool) {
	if c.Width != d.Width || c.Care != d.Care {
		return Cube{}, false
	}
	diff := c.Value ^ d.Value
	if bits.OnesCount32(diff) != 1 {
		return Cube{}, false
	}
	return Cube{
		Value: c.Value &^ diff,
		Care:  c.Care &^ diff,
		Width: c.Width,
	}, true
}

// SortCubes orders cubes deterministically: by descending size (more
// general first), then ascending care mask, then ascending value.
func SortCubes(cs []Cube) {
	slices.SortFunc(cs, func(a, b Cube) int {
		if a.Care != b.Care {
			if pa, pb := bits.OnesCount32(a.Care), bits.OnesCount32(b.Care); pa != pb {
				return pa - pb
			}
			return cmp.Compare(a.Care, b.Care)
		}
		return cmp.Compare(a.Value, b.Value)
	})
}

// CoverMatches reports whether any cube in the cover matches h.
func CoverMatches(cover []Cube, h uint32) bool {
	for _, c := range cover {
		if c.Matches(h) {
			return true
		}
	}
	return false
}
