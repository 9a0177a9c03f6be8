package confidence

import (
	"fmt"
	"testing"

	"fsmpredict/internal/bitseq"
	"fsmpredict/internal/counters"
	"fsmpredict/internal/tracestore"
	"fsmpredict/internal/workload"
)

// BenchmarkReplayGatedSpans measures the span kernel on the gated
// replay path over real load-trace correctness streams — the traffic
// EvaluateStreamsMachine drives for every Figure 2 point. Correctness
// streams are where run structure appears organically: a stride
// predictor locked onto a pattern is correct for long stretches, so
// the streams carry 25–38% coverage by ≥4-byte homogeneous runs even
// when the underlying value stream has none. The "coverage" metric
// reports the fraction of events inside indexed runs.
func BenchmarkReplayGatedSpans(b *testing.B) {
	m := counters.SUDConfig{Max: 3, Inc: 1, Dec: 1, Threshold: 2}.Machine()
	for _, name := range []string{"gcc", "go"} {
		lp, err := workload.LoadByName(name)
		if err != nil {
			b.Fatal(err)
		}
		cs := tracestore.BuildConfStreams(lp.Generate(workload.Train, 1_000_000), 4)
		var covered, total int
		for _, seg := range cs.Segments {
			covered += bitseq.RunsCovered(seg.Spans)
			total += seg.Correct.Len()
		}
		// span=off replays the same segments with their run indexes
		// dropped, so the identical call walks the byte kernel.
		unindexed := &tracestore.ConfStreams{Valid: cs.Valid, Correct: cs.Correct}
		for _, seg := range cs.Segments {
			seg.Spans = nil
			unindexed.Segments = append(unindexed.Segments, seg)
		}
		for _, v := range []struct {
			label string
			cs    *tracestore.ConfStreams
		}{{"off", unindexed}, {"on", cs}} {
			cs := v.cs
			b.Run(fmt.Sprintf("%s/span=%s", name, v.label), func(b *testing.B) {
				b.SetBytes(int64(total) / 8)
				b.ReportMetric(float64(covered)/float64(total), "coverage")
				for i := 0; i < b.N; i++ {
					EvaluateStreamsMachine(cs, m)
				}
			})
		}
	}
}
