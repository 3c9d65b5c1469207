package main

import (
	"sync"
	"time"
)

// opFunc performs one client's next op, checks its answer against the
// oracle, and reports whether it was correct. An errored, refused,
// partial or wrong-answer op is a failed op.
type opFunc func() bool

// opRecord is one op of a load phase.
type opRecord struct {
	// At is when a paced op was due, from the phase's start; a saturate
	// op has none.
	At time.Duration
	// LatMs is the op's latency in milliseconds: from its due time in a
	// paced phase, from its start in a saturate phase.
	LatMs float64
	OK    bool
}

// phaseResult is what a load phase measured.
type phaseResult struct {
	Ops []opRecord
	// LagMs holds, for a paced phase, how late each op started.
	LagMs []float64
	// Seconds is the phase's length, from its start to its last op's end.
	Seconds float64
	Usage   usage
}

func (r *phaseResult) attempted() int { return len(r.Ops) }

func (r *phaseResult) failed() int {
	n := 0
	for _, o := range r.Ops {
		if !o.OK {
			n++
		}
	}
	return n
}

func (r *phaseResult) latencies() []float64 {
	out := make([]float64, 0, len(r.Ops))
	for _, o := range r.Ops {
		out = append(out, o.LatMs)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// measure runs phase and returns how long it took and what the process
// used meanwhile.
func measure(phase func(start time.Time)) (seconds float64, used usage) {
	before := readUsage()
	start := time.Now()
	phase(start)
	seconds = time.Since(start).Seconds()
	return seconds, readUsage().sub(before)
}

// pacedClient runs one client's fixed schedule: op j is due at
// first + j*interval, for as long as the due time is before end. An op
// never starts early, and it starts late when the client is still busy
// with an earlier one; either way its latency runs from the due time, so
// a stall is charged to every op queued behind it.
func pacedClient(start, first time.Time, interval time.Duration, end time.Time, op opFunc) (ops []opRecord, lagMs []float64) {
	for j := 0; ; j++ {
		due := first.Add(time.Duration(j) * interval)
		if !due.Before(end) {
			return ops, lagMs
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lagMs = append(lagMs, ms(time.Since(due)))
		ok := op()
		ops = append(ops, opRecord{At: due.Sub(start), LatMs: ms(time.Since(due)), OK: ok})
	}
}

// runPaced offers rate ops/s in total for dur, split evenly over the
// clients, each on its own schedule offset by one inter-arrival gap.
func runPaced(ops []opFunc, rate float64, dur time.Duration) phaseResult {
	n := len(ops)
	gap := time.Duration(float64(time.Second) / rate)
	interval := gap * time.Duration(n)
	parts := make([][]opRecord, n)
	lags := make([][]float64, n)
	var res phaseResult
	res.Seconds, res.Usage = measure(func(start time.Time) {
		end := start.Add(dur)
		var wg sync.WaitGroup
		for i := range ops {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				parts[i], lags[i] = pacedClient(start, start.Add(time.Duration(i)*gap), interval, end, ops[i])
			}(i)
		}
		wg.Wait()
	})
	for i := range parts {
		res.Ops = append(res.Ops, parts[i]...)
		res.LagMs = append(res.LagMs, lags[i]...)
	}
	return res
}

// runSaturate runs every client as a closed loop, back to back, for dur.
func runSaturate(ops []opFunc, dur time.Duration) phaseResult {
	parts := make([][]opRecord, len(ops))
	var res phaseResult
	res.Seconds, res.Usage = measure(func(start time.Time) {
		end := start.Add(dur)
		var wg sync.WaitGroup
		for i := range ops {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for t0 := time.Now(); t0.Before(end); {
					ok := ops[i]()
					t1 := time.Now()
					parts[i] = append(parts[i], opRecord{LatMs: ms(t1.Sub(t0)), OK: ok})
					t0 = t1
				}
			}(i)
		}
		wg.Wait()
	})
	for _, p := range parts {
		res.Ops = append(res.Ops, p...)
	}
	return res
}
