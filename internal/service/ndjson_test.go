package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fsmpredict/internal/bitseq"
	"fsmpredict/internal/fsm"
)

// mustBits parses a trace string or fails the test.
func mustBits(t *testing.T, s string) *bitseq.Bits {
	t.Helper()
	bits, err := bitseq.FromString(s)
	if err != nil {
		t.Fatal(err)
	}
	return bits
}

// batchTestServer starts an HTTP server over a fresh service, handing
// back the base URL and tearing both down with the test.
func batchTestServer(t *testing.T, cfg Config) (*Service, string) {
	t.Helper()
	s := New(cfg)
	srv := httptest.NewServer(NewHandler(s))
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return s, srv.URL
}

// postNDJSON sends body to path and decodes every response line into a
// map keyed by the line's index.
func postNDJSON(t *testing.T, url, path, body string) map[int]BatchDesignLine {
	t.Helper()
	resp, err := http.Post(url+path, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	out := make(map[int]BatchDesignLine)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 8<<20)
	for sc.Scan() {
		var line BatchDesignLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad response line %q: %v", sc.Text(), err)
		}
		if _, dup := out[line.Index]; dup {
			t.Fatalf("index %d answered twice", line.Index)
		}
		out[line.Index] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBatchDesignNDJSON drives the happy path end to end: request
// lines with client ids come back correlated by index and id, with
// results matching the unary endpoint.
func TestBatchDesignNDJSON(t *testing.T) {
	s, url := batchTestServer(t, Config{Workers: 2, BatchMaxWait: time.Millisecond})
	var body bytes.Buffer
	const n = 5
	for i := 0; i < n; i++ {
		fmt.Fprintf(&body, `{"id":"req-%d","trace":%q,"options":{"order":2}}`+"\n", i, paperTrace)
	}
	lines := postNDJSON(t, url, "/v1/batch/design", body.String())
	if len(lines) != n {
		t.Fatalf("got %d response lines, want %d", len(lines), n)
	}
	bits := mustBits(t, paperTrace)
	want, _, err := s.Design(context.Background(), bits, figure1Options())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		line, ok := lines[i]
		if !ok {
			t.Fatalf("no response for index %d", i)
		}
		if line.ID != fmt.Sprintf("req-%d", i) {
			t.Errorf("index %d: id = %q", i, line.ID)
		}
		if line.Error != "" {
			t.Fatalf("index %d: unexpected error %q", i, line.Error)
		}
		if line.Result == nil || line.Result.States != want.States {
			t.Errorf("index %d: result %+v, want %d states", i, line.Result, want.States)
		}
	}
}

// TestBatchNDJSONMalformedLineIsolated puts a malformed JSON line and a
// semantically invalid line in the middle of valid ones: each failure
// stays on its own line and the rest of the stream still succeeds.
func TestBatchNDJSONMalformedLineIsolated(t *testing.T) {
	_, url := batchTestServer(t, Config{Workers: 2, BatchMaxWait: time.Millisecond})
	good := fmt.Sprintf(`{"trace":%q,"options":{"order":2}}`, paperTrace)
	body := strings.Join([]string{
		good,
		`{"trace": not-json`,
		"", // blank line: ignored, no index
		good + ` trailing-garbage`,
		`{"trace":"0011","workload":{"program":"gsm","variant":"train"},"options":{"order":2}}`,
		good,
	}, "\n") + "\n"
	lines := postNDJSON(t, url, "/v1/batch/design", body)
	if len(lines) != 5 {
		t.Fatalf("got %d response lines, want 5 (blank line consumes no index)", len(lines))
	}
	for _, i := range []int{0, 4} {
		if lines[i].Error != "" {
			t.Errorf("index %d: unexpected error %q", i, lines[i].Error)
		}
	}
	for _, i := range []int{1, 2, 3} {
		if lines[i].Error == "" {
			t.Errorf("index %d: expected a per-line error", i)
		}
		if lines[i].Result != nil {
			t.Errorf("index %d: error line carries a result", i)
		}
	}
	if !strings.Contains(lines[3].Error, "both an inline trace and a workload reference") {
		t.Errorf("index 3 error = %q", lines[3].Error)
	}
}

// TestBatchNDJSONOversizedLine sends one line past the per-line bound
// between two valid lines: the oversized line is rejected in-band and
// the reader recovers at the next newline.
func TestBatchNDJSONOversizedLine(t *testing.T) {
	_, url := batchTestServer(t, Config{Workers: 2, BatchMaxWait: time.Millisecond})
	good := fmt.Sprintf(`{"id":"ok","trace":%q,"options":{"order":2}}`, paperTrace)
	huge := `{"trace":"` + strings.Repeat("0", maxNDJSONLineBytes) + `"}`
	body := good + "\n" + huge + "\n" + good + "\n"
	lines := postNDJSON(t, url, "/v1/batch/design", body)
	if len(lines) != 3 {
		t.Fatalf("got %d response lines, want 3", len(lines))
	}
	if lines[0].Error != "" || lines[2].Error != "" {
		t.Errorf("valid neighbours failed: %q / %q", lines[0].Error, lines[2].Error)
	}
	if !strings.Contains(lines[1].Error, "exceeds") {
		t.Errorf("oversized line error = %q, want size rejection", lines[1].Error)
	}
}

// TestBatchSimulateNDJSON round-trips a designed machine through the
// batch simulate endpoint and checks the accuracy matches the unary
// path.
func TestBatchSimulateNDJSON(t *testing.T) {
	s, url := batchTestServer(t, Config{Workers: 2, BatchMaxWait: time.Millisecond})
	bits := mustBits(t, paperTrace)
	res, _, err := s.Design(context.Background(), bits, figure1Options())
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	fmt.Fprintf(&body, `{"id":"s0","machine":%s,"trace":%q}`+"\n", res.Machine, paperTrace)
	fmt.Fprintf(&body, `{"id":"s1","machine":%s,"trace":%q,"skip":3}`+"\n", res.Machine, paperTrace)
	resp, err := http.Post(url+"/v1/batch/simulate", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got := make(map[int]BatchSimulateLine)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line BatchSimulateLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad response line %q: %v", sc.Text(), err)
		}
		got[line.Index] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d lines, want 2", len(got))
	}
	var m fsm.Machine
	if err := json.Unmarshal(res.Machine, &m); err != nil {
		t.Fatal(err)
	}
	for i, skip := range []int{0, 3} {
		line := got[i]
		if line.Error != "" {
			t.Fatalf("index %d: %s", i, line.Error)
		}
		want, err := s.Simulate(&m, bits, skip)
		if err != nil {
			t.Fatal(err)
		}
		if line.Result.Correct != want.Correct || line.Result.Total != want.Total {
			t.Errorf("index %d: %+v, want %+v", i, line.Result, want)
		}
	}
}

// TestBatchNDJSONConcurrentClients is the race-detector stress: many
// clients stream batch requests over distinct traces concurrently, all
// coalescing through one service.
func TestBatchNDJSONConcurrentClients(t *testing.T) {
	_, url := batchTestServer(t, Config{Workers: 4, BatchMaxSize: 16, BatchMaxWait: 500 * time.Microsecond})
	const (
		clients = 8
		perReq  = 24
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var body bytes.Buffer
			for i := 0; i < perReq; i++ {
				// A few distinct traces per client so groups both coalesce
				// and interleave across connections.
				tr := fmt.Sprintf("%016b", 0b1011001110001011+(i%3)+c)
				fmt.Fprintf(&body, `{"id":"c%d-%d","trace":%q,"options":{"order":2}}`+"\n", c, i, tr)
			}
			resp, err := http.Post(url+"/v1/batch/design", "application/x-ndjson", &body)
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			seen := 0
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				var line BatchDesignLine
				if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
					errs <- err
					return
				}
				if line.Error != "" {
					errs <- fmt.Errorf("client %d index %d: %s", c, line.Index, line.Error)
					return
				}
				if wantID := fmt.Sprintf("c%d-%d", c, line.Index); line.ID != wantID {
					errs <- fmt.Errorf("client %d: id %q on index %d, want %q", c, line.ID, line.Index, wantID)
					return
				}
				seen++
			}
			if err := sc.Err(); err != nil {
				errs <- err
				return
			}
			if seen != perReq {
				errs <- fmt.Errorf("client %d: %d responses, want %d", c, seen, perReq)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBatchNDJSONLargeBodiesKeepEveryLine is the HTTP/1.1 full-duplex
// regression: the handler flushes response lines while it is still
// reading the request body, which Go's HTTP/1 server by default answers
// by discarding (or refusing) the unread rest of the body. Bodies far
// larger than one client write — 64 lines, each an 8 KiB inline trace —
// must still get exactly one non-error answer per line, equal to the
// unary result.
func TestBatchNDJSONLargeBodiesKeepEveryLine(t *testing.T) {
	s, url := batchTestServer(t, Config{Workers: 2, BatchMaxWait: 200 * time.Microsecond})
	m := &fsm.Machine{
		Output: []bool{false, false, true, true},
		Next:   [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}},
	}
	mj, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	const (
		bodies    = 20
		lines     = 64
		traceLen  = 8 << 10
		distinct  = 8
		skipLines = 3
	)
	rng := rand.New(rand.NewSource(13))
	traces := make([]string, distinct)
	want := make([]fsm.SimResult, distinct)
	for k := range traces {
		b := make([]byte, traceLen)
		for i := range b {
			b[i] = '0' + byte(rng.Intn(2))
		}
		traces[k] = string(b)
		bits := mustBits(t, traces[k])
		res, err := s.Simulate(m, bits, skipLines)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = res
	}
	for p := 0; p < bodies; p++ {
		var body bytes.Buffer
		for i := 0; i < lines; i++ {
			fmt.Fprintf(&body, `{"machine":%s,"trace":%q,"skip":%d}`+"\n", mj, traces[(p+i)%distinct], skipLines)
		}
		resp, err := http.Post(url+"/v1/batch/simulate", "application/x-ndjson", &body)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[int]BatchSimulateLine)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var line BatchSimulateLine
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatalf("body %d: bad response line %q: %v", p, sc.Text(), err)
			}
			if _, dup := got[line.Index]; dup {
				t.Fatalf("body %d: index %d answered twice", p, line.Index)
			}
			got[line.Index] = line
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			t.Fatalf("body %d: %v", p, err)
		}
		for i := 0; i < lines; i++ {
			line, ok := got[i]
			switch {
			case !ok:
				t.Fatalf("body %d: index %d unanswered (%d of %d lines came back)", p, i, len(got), lines)
			case line.Error != "":
				t.Fatalf("body %d: index %d: %s", p, i, line.Error)
			}
			if w := want[(p+i)%distinct]; line.Result.Total != w.Total || line.Result.Correct != w.Correct {
				t.Fatalf("body %d: index %d: %+v, unary %+v", p, i, line.Result, w)
			}
		}
	}
}
