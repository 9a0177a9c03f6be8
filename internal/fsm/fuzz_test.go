package fsm

import (
	"bytes"
	"strings"
	"testing"

	"fsmpredict/internal/bitseq"
)

// FuzzRead checks that the deserializer never panics, never returns an
// invalid machine, and that accepted machines survive a write/read round
// trip.
func FuzzRead(f *testing.F) {
	var buf bytes.Buffer
	m := &Machine{
		Name:   "seed",
		Output: []bool{false, true, true},
		Next:   [][2]int{{0, 1}, {2, 1}, {0, 1}},
		Start:  0,
	}
	if _, err := m.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("")
	f.Add("fsm 1 0\n1 0 0\n")
	f.Add("fsm 2 0 name with spaces\n0 1 1\n1 0 0\n")
	f.Add("fsm 99999999 0 x\n")
	f.Add("fsm -1 -1\n")
	f.Add("fsm 1 0\n1 99 0\n")

	f.Fuzz(func(t *testing.T, s string) {
		m, err := Read(strings.NewReader(s))
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("Read returned invalid machine: %v", err)
		}
		var out bytes.Buffer
		if _, err := m.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&out)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.NumStates() != m.NumStates() || back.Start != m.Start {
			t.Fatal("round trip changed the machine")
		}
	})
}

// FuzzBlockTable derives a machine and a packed stream from raw fuzz
// bytes and asserts the blocked kernels — whole-stream, ragged skip,
// sampled replay and the chunked BlockRunner — are bit-identical to
// the scalar oracle.
func FuzzBlockTable(f *testing.F) {
	f.Add(uint8(3), uint8(0), uint8(2), []byte{0xa5, 0x5a, 0xff, 0x00, 0x13})
	f.Add(uint8(1), uint8(0), uint8(0), []byte{})
	f.Add(uint8(40), uint8(39), uint8(200), bytes.Repeat([]byte{0xcc}, 33))
	f.Add(uint8(255), uint8(7), uint8(9), bytes.Repeat([]byte{0x0f, 0xf0}, 17))

	f.Fuzz(func(t *testing.T, states, start, skip8 uint8, raw []byte) {
		n := int(states)
		if n == 0 {
			n = 1
		}
		m := &Machine{
			Output: make([]bool, n),
			Next:   make([][2]int, n),
			Start:  int(start) % n,
		}
		// Derive transitions and outputs from the stream bytes so the
		// fuzzer explores machine structure and input together.
		at := func(i int) byte {
			if len(raw) == 0 {
				return 0
			}
			return raw[i%len(raw)]
		}
		for s := 0; s < n; s++ {
			m.Output[s] = at(3*s)&1 == 1
			m.Next[s] = [2]int{int(at(3*s+1)) % n, int(at(3*s+2)) % n}
		}
		tab, err := CompileBlockTable(m)
		if err != nil {
			t.Fatalf("valid machine rejected: %v", err)
		}

		stream := &bitseq.Bits{}
		for _, b := range raw {
			for j := 0; j < 8; j++ {
				stream.AppendBit(int(b >> uint(j) & 1))
			}
		}
		// Ragged tail: drop up to 7 bits so the stream length is not a
		// byte multiple.
		length := stream.Len()
		if length > 0 {
			length -= int(start) % 8 % (length + 1)
		}
		bools := stream.Bools()[:length]
		skip := int(skip8)

		want := m.SimulateScalar(bools, skip)
		if got, _ := tab.RunFrom(tab.StartState(), stream.Words(), length, skip, nil); got != want {
			t.Fatalf("RunFrom %+v, scalar %+v (n=%d skip=%d)", got, want, length, skip)
		}
		if got := m.Simulate(bools, skip); got != want {
			t.Fatalf("Simulate %+v, scalar %+v", got, want)
		}

		r := NewBlockRunner(tab, skip)
		for i := 0; i < length; {
			chunk := 1 + int(at(i))%11
			if i+chunk > length {
				chunk = length - i
			}
			r.FeedBools(bools[i : i+chunk])
			i += chunk
		}
		if got := r.Result(); got != want {
			t.Fatalf("BlockRunner %+v, scalar %+v", got, want)
		}

		// Sampled replay at positions derived from the stream itself.
		var pos []int32
		for i := 0; i < length; i++ {
			if at(i)%3 == 0 {
				pos = append(pos, int32(i))
			}
		}
		state := m.Start
		wantMiss := 0
		c := 0
		for i := 0; i < length; i++ {
			b := bools[i]
			if c < len(pos) && int(pos[c]) == i {
				if m.Output[state] != b {
					wantMiss++
				}
				c++
			}
			state = m.Step(state, b)
		}
		miss, end := tab.RunSampled(m.Start, stream.Words(), length, pos, nil)
		if miss != wantMiss || end != state {
			t.Fatalf("RunSampled (%d,%d), scalar (%d,%d)", miss, end, wantMiss, state)
		}
	})
}
