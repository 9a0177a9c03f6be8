package fidelity

import (
	"math"

	"fsmpredict/internal/bitseq"
	"fsmpredict/internal/fsm"
	"fsmpredict/internal/simpoint"
)

// The staged evaluation ladder. Rung 0 scores a whole cohort on a few
// simpoint-selected representative windows of the trace — one fleet
// pass per window, each window a zero-copy word subslice of the packed
// stream — and prunes candidates whose miss-rate lower confidence bound
// cannot reach the slots the caller is racing for. Survivors escalate
// to a denser window tier (4x the windows, re-clustered at the same
// length, so coverage grows geometrically while staying representative
// under phase drift — a contiguous prefix of equal coverage measurably
// violates the bound on drifting traces), and finally to the exact
// full-trace rung. Pruned candidates keep their last estimate as a
// fitness value; only final-rung results are exact, and only those may
// enter the fitness memo.
//
// The confidence bounds are empirical-Bernstein radii inflated by a
// slack factor: trace windows are not i.i.d. samples of the stream
// (branch behaviour drifts in phases), so the textbook bound is treated
// as a heuristic screen, never as a correctness argument. Exactness of
// anything reported is guaranteed structurally instead: see the package
// comment.

// LadderConfig configures a ladder. The zero value of every field picks
// a sensible default at construction.
type LadderConfig struct {
	// Warmup outcomes at the head of the trace are not scored (the
	// search's warm-up convention).
	Warmup int
	// Workers bounds each fleet pass's parallel shards (<= 0 means
	// GOMAXPROCS); results are bit-identical for any setting.
	Workers int
	// WindowLen is the rung-0 window length in events, rounded up to a
	// multiple of 64 so windows stay word-aligned. Default: the largest
	// power of two at most a 1/64 share of the scored trace, clamped to
	// [512, 1024] — screening cost stays flat as traces grow; longer
	// traces just get proportionally cheaper screens.
	WindowLen int
	// Windows is the number of representative windows (simpoint K).
	// Default 4.
	Windows int
	// Delta is the per-decision confidence parameter. Default 0.05.
	Delta float64
	// Slack inflates every radius to account for non-i.i.d. sampling.
	// Default 2.
	Slack float64
	// Seed drives the deterministic window clustering.
	Seed int64
}

// Verdict is one candidate's racing outcome.
type Verdict struct {
	// Miss is the exact full-trace miss rate when Exact, else the last
	// rung's estimate.
	Miss float64
	// Exact reports whether Miss came from a full-fidelity pass.
	Exact bool
	// Rung is the highest rung the candidate reached (0 = windows).
	Rung int
}

// LadderStats tallies one ladder's activity (the process-wide Snapshot
// counters aggregate the same events across all ladders).
type LadderStats struct {
	// RungEvals counts candidate·rung evaluations run.
	RungEvals int
	// Pruned counts candidates dismissed on a confidence bound.
	Pruned int
	// Escalated counts candidate promotions to a higher rung.
	Escalated int
}

type window struct {
	off    int // event offset, a multiple of 64
	skip   int // unscored warm-up events at the window head
	weight float64
}

// tier is one windowed rung: a set of representative windows and the
// per-candidate scored-event count behind its confidence radius.
type tier struct {
	wins   []window
	scored int
}

// Ladder is a staged evaluator bound to one packed trace. Build one per
// search with NewLadder; methods are not safe for concurrent use on the
// same Ladder (each search owns its own), though the underlying fleet
// passes parallelize internally.
type Ladder struct {
	words  []uint64
	n      int
	runs   []bitseq.Run
	cfg    LadderConfig
	winLen int
	// tiers are the windowed rungs in escalation order; the exact
	// full-trace rung always follows them.
	tiers []tier

	stats LadderStats
}

// NewLadder analyzes the trace and builds the rung structure. It
// returns nil when staging cannot pay for itself — the trace is too
// short for representative windows plus prefix rungs to undercut a
// plain full pass — and callers then score at full fidelity directly.
func NewLadder(words []uint64, n int, runs []bitseq.Run, cfg LadderConfig) *Ladder {
	if cfg.Windows <= 0 {
		cfg.Windows = 4
	}
	if cfg.Delta <= 0 {
		cfg.Delta = 0.05
	}
	if cfg.Slack <= 0 {
		cfg.Slack = 2
	}
	if max := len(words) << 6; n > max {
		n = max
	}
	scored := n - cfg.Warmup
	winLen := cfg.WindowLen
	if winLen <= 0 {
		winLen = 512
		for winLen*2 <= scored/64 && winLen < 1024 {
			winLen *= 2
		}
	} else {
		winLen = (winLen + 63) &^ 63
	}
	// Below ~16 windows' worth of scored trace the ladder's overhead
	// (two window tiers for survivors) rivals the full pass.
	if winLen < 64 || scored < 16*winLen {
		return nil
	}

	l := &Ladder{words: words, n: n, runs: runs, cfg: cfg, winLen: winLen}

	// Escalation structure: two clustered tiers (K representatives,
	// then 4K — coverage grows geometrically, every tier clustered so
	// it stays representative under phase drift), then one strided gate
	// tier of 16K evenly-spaced windows. The gate exists for bar
	// stragglers — candidates whose tier-1 interval still straddles the
	// racing bar — and a uniform stride is an unbiased estimator at 4x
	// tier-1 coverage without a K=16K clustering bill. Tiers that would
	// cover most of the trace anyway are skipped (the exact rung
	// follows regardless). The whole-trace window-vector pass is shared
	// across the clustered tiers; only the clustering reruns per K.
	vectors, err := simpoint.OutcomeVectors(words, n, winLen)
	if err != nil {
		return nil
	}
	for _, k := range []int{cfg.Windows, 4 * cfg.Windows} {
		if k*winLen > n/2 {
			break
		}
		ti, ok := l.buildTier(vectors, k)
		if !ok {
			break
		}
		l.tiers = append(l.tiers, ti)
	}
	if k := 16 * cfg.Windows; len(l.tiers) == 2 && k*winLen <= n/2 {
		if ti, ok := l.buildStridedTier(len(vectors), k); ok {
			l.tiers = append(l.tiers, ti)
		}
	}
	if len(l.tiers) == 0 {
		return nil
	}
	return l
}

// buildTier clusters the precomputed window vectors into k
// representative windows.
func (l *Ladder) buildTier(vectors [][]float64, k int) (tier, bool) {
	sp, err := simpoint.ClusterOutcomeVectors(vectors, simpoint.Options{
		IntervalLen: l.winLen,
		K:           k,
		Seed:        l.cfg.Seed,
	})
	if err != nil {
		return tier{}, false
	}
	var ti tier
	minWarm := l.winLen / 8
	var wsum float64
	for i, rep := range sp.Representatives {
		off := rep * l.winLen
		skip := minWarm
		if off < l.cfg.Warmup {
			if s := l.cfg.Warmup - off; s > skip {
				skip = s
			}
		}
		if skip >= l.winLen {
			continue // window swallowed by the global warm-up
		}
		ti.wins = append(ti.wins, window{off: off, skip: skip, weight: sp.Weights[i]})
		ti.scored += l.winLen - skip
		wsum += sp.Weights[i]
	}
	if len(ti.wins) == 0 || wsum <= 0 {
		return tier{}, false
	}
	for i := range ti.wins {
		ti.wins[i].weight /= wsum
	}
	return ti, true
}

// buildStridedTier picks k evenly-spaced windows out of nw with uniform
// weights — an unbiased whole-trace estimator that needs no clustering.
func (l *Ladder) buildStridedTier(nw, k int) (tier, bool) {
	if k > nw {
		k = nw
	}
	var ti tier
	minWarm := l.winLen / 8
	for i := 0; i < k; i++ {
		off := (i * nw / k) * l.winLen
		skip := minWarm
		if off < l.cfg.Warmup {
			if s := l.cfg.Warmup - off; s > skip {
				skip = s
			}
		}
		if skip >= l.winLen {
			continue
		}
		ti.wins = append(ti.wins, window{off: off, skip: skip, weight: 1})
		ti.scored += l.winLen - skip
	}
	if len(ti.wins) == 0 {
		return tier{}, false
	}
	for i := range ti.wins {
		ti.wins[i].weight = 1 / float64(len(ti.wins))
	}
	return ti, true
}

// Stats returns this ladder's local tallies.
func (l *Ladder) Stats() LadderStats { return l.stats }

// tierEstimates scores a cohort on one window tier: one fleet pass per
// representative window, weighted into a miss-rate estimate per
// candidate.
func (l *Ladder) tierEstimates(ti tier, tabs []*fsm.BlockTable) []float64 {
	est := make([]float64, len(tabs))
	if len(tabs) == 0 {
		return est
	}
	fl := fsm.FleetOfTables(tabs)
	for _, w := range ti.wins {
		rs := fl.Run(l.cfg.Workers, l.words[w.off>>6:], l.winLen, w.skip, nil)
		for i, r := range rs {
			est[i] += w.weight * r.MissRate()
		}
	}
	l.stats.RungEvals += len(tabs)
	rungEvals.Add(uint64(len(tabs)))
	return est
}

// WindowEstimates runs rung 0 alone, returning each candidate's
// weighted windowed miss-rate estimate. Exposed for the
// window-weighting tests; Race and RaceTop use it as their first stage.
func (l *Ladder) WindowEstimates(tabs []*fsm.BlockTable) []float64 {
	return l.tierEstimates(l.tiers[0], tabs)
}

// WindowRadius is the slack-inflated empirical-Bernstein radius of a
// rung-0 estimate — the deviation the ladder assumes windowed estimates
// stay within.
func (l *Ladder) WindowRadius(p float64) float64 {
	return l.cfg.Slack * bernsteinRadius(p, l.tiers[0].scored, l.cfg.Delta)
}

// race is the shared rung driver: it walks the window tiers, calling
// keepFn after each tier to decide which candidates stay alive (keepFn
// sees the tier's estimates already written into verdicts and each
// candidate's radius), then scores the survivors on the exact
// full-trace rung. Verdicts are positional with tabs.
func (l *Ladder) race(tabs []*fsm.BlockTable, keep func(alive []int, verdicts []Verdict, radius func(p float64) float64) []int) []Verdict {
	verdicts := make([]Verdict, len(tabs))
	if len(tabs) == 0 {
		return verdicts
	}
	alive := make([]int, len(tabs))
	for i := range tabs {
		alive[i] = i
	}
	for ri, ti := range l.tiers {
		sub := make([]*fsm.BlockTable, len(alive))
		for j, i := range alive {
			sub[j] = tabs[i]
		}
		if ri > 0 {
			l.stats.Escalated += len(alive)
			escalated.Add(uint64(len(alive)))
		}
		est := l.tierEstimates(ti, sub)
		for j, i := range alive {
			verdicts[i] = Verdict{Miss: est[j], Rung: ri}
		}
		scored := ti.scored
		wasAlive := len(alive)
		alive = keep(alive, verdicts, func(p float64) float64 {
			return l.cfg.Slack * bernsteinRadius(p, scored, l.cfg.Delta)
		})
		if d := wasAlive - len(alive); d > 0 {
			l.stats.Pruned += d
			pruned.Add(uint64(d))
		}
		if len(alive) == 0 {
			return verdicts
		}
	}
	l.stats.Escalated += len(alive)
	escalated.Add(uint64(len(alive)))
	sub := make([]*fsm.BlockTable, len(alive))
	for j, i := range alive {
		sub[j] = tabs[i]
	}
	fl := fsm.FleetOfTables(sub)
	rs := fl.Run(l.cfg.Workers, l.words, l.n, l.cfg.Warmup, l.runs)
	l.stats.RungEvals += len(alive)
	rungEvals.Add(uint64(len(alive)))
	for j, i := range alive {
		verdicts[i] = Verdict{Miss: rs[j].MissRate(), Exact: true, Rung: len(l.tiers)}
	}
	return verdicts
}

// Race scores a cohort through the ladder. incumbent is the exact miss
// rate a candidate must plausibly beat to stay alive (the worst current
// elite); pass a negative value to disable pruning, which escalates
// every candidate to the exact final rung. Verdicts are positional with
// tabs.
func (l *Ladder) Race(tabs []*fsm.BlockTable, incumbent float64) []Verdict {
	return l.race(tabs, func(alive []int, verdicts []Verdict, radius func(p float64) float64) []int {
		if incumbent < 0 {
			return alive
		}
		next := alive[:0]
		for _, i := range alive {
			if verdicts[i].Miss-radius(verdicts[i].Miss) > incumbent {
				continue
			}
			next = append(next, i)
		}
		return next
	})
}

// RaceTop races a cohort whose consumers only care about the top `keep`
// candidates (a truncation-selection parent pool): at every rung the
// pruning bar is the keep-th smallest upper confidence bound across the
// cohort and the anchors (already-exact incumbents competing for the
// same slots, e.g. carried elites), so any candidate that plausibly
// belongs in the top set escalates to the exact final rung while
// confident losers stop at cheap rungs. If the bounds hold, every true
// top-keep candidate reaches an exact verdict; estimates only ever rank
// losers among themselves. Verdicts are positional with tabs.
func (l *Ladder) RaceTop(tabs []*fsm.BlockTable, keep int, anchors []float64) []Verdict {
	if keep < 1 {
		keep = 1
	}
	// kthSmallest returns the keep-th smallest of xs (insertion into a
	// bounded best-list; cohorts are small).
	kthSmallest := func(xs []float64) float64 {
		if len(xs) < keep {
			return math.Inf(1)
		}
		best := make([]float64, 0, keep)
		for _, x := range xs {
			if len(best) < keep {
				best = append(best, x)
			} else if x < best[keep-1] {
				best[keep-1] = x
			} else {
				continue
			}
			for j := len(best) - 1; j > 0 && best[j] < best[j-1]; j-- {
				best[j], best[j-1] = best[j-1], best[j]
			}
		}
		return best[keep-1]
	}
	return l.race(tabs, func(alive []int, verdicts []Verdict, radius func(p float64) float64) []int {
		ucbs := append([]float64(nil), anchors...)
		for _, i := range alive {
			ucbs = append(ucbs, verdicts[i].Miss+radius(verdicts[i].Miss))
		}
		bar := kthSmallest(ucbs)
		next := alive[:0]
		for _, i := range alive {
			if verdicts[i].Miss-radius(verdicts[i].Miss) > bar {
				continue
			}
			next = append(next, i)
		}
		return next
	})
}

// ScoreExact runs one full-fidelity pass over the cohort — the final
// rung directly, used for elite re-scoring and for cohorts where
// pruning has shown no traction.
func (l *Ladder) ScoreExact(tabs []*fsm.BlockTable) []float64 {
	out := make([]float64, len(tabs))
	if len(tabs) == 0 {
		return out
	}
	fl := fsm.FleetOfTables(tabs)
	rs := fl.Run(l.cfg.Workers, l.words, l.n, l.cfg.Warmup, l.runs)
	for i, r := range rs {
		out[i] = r.MissRate()
	}
	l.stats.RungEvals += len(tabs)
	rungEvals.Add(uint64(len(tabs)))
	return out
}

// bernsteinRadius is the empirical-Bernstein deviation bound for a
// [0,1]-valued mean estimate p over m samples at confidence 1-delta:
// sqrt(2 p(1-p) ln(3/δ)/m) + 3 ln(3/δ)/m.
func bernsteinRadius(p float64, m int, delta float64) float64 {
	if m <= 0 {
		return 1
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	ln := math.Log(3 / delta)
	return math.Sqrt(2*p*(1-p)*ln/float64(m)) + 3*ln/float64(m)
}
