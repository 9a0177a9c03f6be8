package logic

import (
	"testing"

	"fsmpredict/internal/bitseq"
)

// fuzzProblem decodes a problem of width 1–10: two bits of data per
// minterm, 1 = on, 2 = dc, 0 or 3 (or data exhausted) = off.
func fuzzProblem(width uint8, data []byte) (Problem, []byte) {
	p := Problem{Width: 1 + int(width%10)}
	kind := make([]byte, 1<<p.Width)
	for m := range kind {
		if m/4 < len(data) {
			kind[m] = data[m/4] >> (2 * (m % 4)) & 3
		}
		switch kind[m] {
		case 1:
			p.On = append(p.On, uint32(m))
		case 2:
			p.DC = append(p.DC, uint32(m))
		default:
			kind[m] = 0
		}
	}
	return p, kind
}

// FuzzMinimize checks, on every decoded problem, that the exact cover
// covers each on-minterm and no off-minterm and holds only primes, and
// that both engines and Minimize pass Verify. The cover and prime checks
// scan the whole minterm space directly instead of calling Verify.
func FuzzMinimize(f *testing.F) {
	f.Add(uint8(1), []byte{0b11_10_01})
	f.Add(uint8(2), []byte{0b01_10_00_01, 0b10_01_01_00})
	f.Add(uint8(5), []byte{0x55, 0xa5, 0x12, 0x99, 0x66, 0x01, 0xff, 0x5a})
	f.Add(uint8(9), []byte{0xff, 0x00, 0x15, 0x96, 0x69, 0xaa, 0x55, 0x11})
	f.Fuzz(func(t *testing.T, width uint8, data []byte) {
		p, kind := fuzzProblem(width, data)
		qm, err := MinimizeQM(p)
		if err != nil {
			t.Fatal(err)
		}
		hitsOff := func(value, care uint32) bool {
			for m, k := range kind {
				if k == 0 && (uint32(m)^value)&care == 0 {
					return true
				}
			}
			return false
		}
		for m, k := range kind {
			covered := false
			for _, c := range qm {
				covered = covered || (uint32(m)^c.Value)&c.Care == 0
			}
			if k == 1 && !covered {
				t.Fatalf("on-minterm %d not covered by %v", m, qm)
			}
		}
		for _, c := range qm {
			if hitsOff(c.Value, c.Care) {
				t.Fatalf("cube %v covers an off-minterm", c)
			}
			for b := uint32(1); b < 1<<p.Width; b <<= 1 {
				if c.Care&b != 0 && !hitsOff(c.Value&^b, c.Care&^b) {
					t.Fatalf("cube %v is not prime: dropping bit %b stays off the off-set", c, b)
				}
			}
		}
		for name, engine := range map[string]func(Problem) ([]bitseq.Cube, error){
			"qm": MinimizeQM, "heuristic": MinimizeHeuristic, "auto": Minimize,
		} {
			cover, err := engine(p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := Verify(p, cover); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	})
}
