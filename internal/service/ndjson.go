package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
)

// maxNDJSONLineBytes bounds one request line on the batch endpoints. A
// longer line is rejected with a per-line error and skipped; the stream
// itself survives, so one oversized request cannot sink its neighbours.
const maxNDJSONLineBytes = 4 << 20

// maxInflightLines bounds how many request lines one batch connection
// may have in flight at once. Beyond this the reader blocks, which
// backpressures the client through TCP rather than buffering an
// unbounded number of parsed requests.
const maxInflightLines = 256

// BatchDesignItem is one request line of POST /v1/batch/design: a
// DesignRequest plus an optional client correlation id echoed back on
// the matching response line.
type BatchDesignItem struct {
	ID string `json:"id,omitempty"`
	DesignRequest
}

// BatchDesignLine is one response line of POST /v1/batch/design.
// Exactly one of Result and Error is set. Index is the zero-based
// position of the request line this answers; responses may arrive out
// of order, so clients must correlate by Index (or their own ID), not
// by arrival order.
type BatchDesignLine struct {
	Index    int     `json:"index"`
	ID       string  `json:"id,omitempty"`
	Result   *Result `json:"result,omitempty"`
	CacheHit bool    `json:"cache_hit,omitempty"`
	Error    string  `json:"error,omitempty"`
}

// BatchSimulateItem is one request line of POST /v1/batch/simulate.
type BatchSimulateItem struct {
	ID string `json:"id,omitempty"`
	SimulateRequest
}

// BatchSimulateLine is one response line of POST /v1/batch/simulate,
// with the same correlation contract as BatchDesignLine.
type BatchSimulateLine struct {
	Index  int               `json:"index"`
	ID     string            `json:"id,omitempty"`
	Result *SimulateResponse `json:"result,omitempty"`
	Error  string            `json:"error,omitempty"`
}

// lineFunc turns one request line into its response line. A non-nil
// lineErr means the framing layer already rejected the line (too long,
// unreadable) and line is absent; the handler must still produce an
// in-band response so the client's index bookkeeping stays aligned.
type lineFunc func(ctx context.Context, index int, line []byte, lineErr error) any

// ndjsonHandler runs an NDJSON request/response stream: each request
// line is handed to process concurrently (bounded by maxInflightLines)
// and every line gets exactly one response line, written as soon as it
// is ready. Blank lines are ignored and do not consume an index.
func ndjsonHandler(process lineFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// Response lines flush while the body is still being read. Go's
		// HTTP/1 server otherwise discards (or refuses) the unread body
		// at the first flush, cutting the stream short; HTTP/2 is full
		// duplex already and reports not-supported, which is harmless.
		_ = http.NewResponseController(w).EnableFullDuplex()
		w.Header().Set("Content-Type", "application/x-ndjson")

		// One writer goroutine owns the ResponseWriter; workers hand it
		// finished response lines. Encode errors mean the client went
		// away — keep draining so workers never block forever.
		results := make(chan any, maxInflightLines)
		writerDone := make(chan struct{})
		go func() {
			defer close(writerDone)
			enc := json.NewEncoder(w)
			flusher, _ := w.(http.Flusher)
			broken := false
			for env := range results {
				if broken {
					continue
				}
				if err := enc.Encode(env); err != nil {
					broken = true
					continue
				}
				if flusher != nil {
					flusher.Flush()
				}
			}
		}()

		br := bufio.NewReaderSize(http.MaxBytesReader(w, r.Body, maxBodyBytes), 64<<10)
		sem := make(chan struct{}, maxInflightLines)
		var wg sync.WaitGroup
		index := 0
		for {
			line, tooLong, err := readNDJSONLine(br, maxNDJSONLineBytes)
			if !tooLong && len(bytes.TrimSpace(line)) == 0 {
				if err != nil {
					break
				}
				continue
			}
			i := index
			index++
			var lineErr error
			if tooLong {
				lineErr = fmt.Errorf("%w: request line exceeds %d bytes", ErrInvalid, maxNDJSONLineBytes)
			}
			wg.Add(1)
			sem <- struct{}{}
			go func(i int, line []byte, lineErr error) {
				defer wg.Done()
				defer func() { <-sem }()
				results <- process(r.Context(), i, line, lineErr)
			}(i, line, lineErr)
			if err != nil {
				break
			}
		}
		wg.Wait()
		close(results)
		<-writerDone
	}
}

// readNDJSONLine reads one newline-terminated line of at most max
// bytes. When the line is longer it is consumed and discarded in full
// and tooLong is true, leaving the reader positioned at the next line.
// A final unterminated line is returned with err == io.EOF.
func readNDJSONLine(br *bufio.Reader, max int) (line []byte, tooLong bool, err error) {
	var buf []byte
	for {
		chunk, err := br.ReadSlice('\n')
		if !tooLong {
			buf = append(buf, chunk...)
			if len(buf) > max {
				tooLong = true
				buf = nil
			}
		}
		switch err {
		case nil:
			return bytes.TrimSuffix(buf, []byte("\n")), tooLong, nil
		case bufio.ErrBufferFull:
			continue
		default:
			return buf, tooLong, err
		}
	}
}

// processBatchDesign is the per-line worker of /v1/batch/design: it
// parses the line, resolves the trace and its coalescing group, and
// submits to the batch plane, folding any failure into the line's own
// response instead of the stream's.
func (s *Service) processBatchDesign(ctx context.Context, index int, line []byte, lineErr error) any {
	out := BatchDesignLine{Index: index}
	if lineErr != nil {
		out.Error = lineErr.Error()
		return out
	}
	var item BatchDesignItem
	if err := strictUnmarshal(line, &item); err != nil {
		out.Error = fmt.Sprintf("invalid request: %v", err)
		return out
	}
	out.ID = item.ID
	bits, group, err := requestTraceGrouped(s, item.Trace, item.Workload)
	if err != nil {
		out.Error = err.Error()
		return out
	}
	res, hit, err := s.DesignBatch(ctx, bits, item.Options.Options(), group)
	if err != nil {
		out.Error = err.Error()
		return out
	}
	out.Result, out.CacheHit = res, hit
	return out
}

// processBatchSimulate is the per-line worker of /v1/batch/simulate.
func (s *Service) processBatchSimulate(ctx context.Context, index int, line []byte, lineErr error) any {
	out := BatchSimulateLine{Index: index}
	if lineErr != nil {
		out.Error = lineErr.Error()
		return out
	}
	var item BatchSimulateItem
	if err := strictUnmarshal(line, &item); err != nil {
		out.Error = fmt.Sprintf("invalid request: %v", err)
		return out
	}
	out.ID = item.ID
	bits, group, err := requestTraceGrouped(s, item.Trace, item.Workload)
	if err != nil {
		out.Error = err.Error()
		return out
	}
	res, err := s.SimulateBatch(ctx, item.Machine, bits, item.Skip, group)
	if err != nil {
		out.Error = err.Error()
		return out
	}
	out.Result = &SimulateResponse{
		Total:    res.Total,
		Correct:  res.Correct,
		Accuracy: res.Accuracy(),
		MissRate: res.MissRate(),
	}
	return out
}

// strictUnmarshal decodes one JSON document, rejecting trailing
// garbage on the line.
func strictUnmarshal(line []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON document")
	}
	return nil
}
