package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// renderOps draws n ops from a stream and renders them one per line.
func renderOps(s opStream, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		o := s.next()
		fmt.Fprintf(&b, "%d %d\n", o.Kind, o.Arg)
	}
	return b.String()
}

func streamsFor(t *testing.T, name string, seed int64) opStream {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	switch w := w.(type) {
	case *queryWorkload:
		return w.stream("load", 0)
	case *churnWorkload:
		s := w.stream("load", 0)
		for ; s.nextSerial < churnLive; s.nextSerial++ { // as set-up leaves it
			s.live = append(s.live, s.nextSerial)
		}
		return s
	case *subsWorkload:
		return w.stream("load", 0)
	}
	t.Fatalf("no stream for %s", name)
	return nil
}

func TestSameSeedSameOps(t *testing.T) {
	for _, name := range workloadNames {
		a := renderOps(streamsFor(t, name, 7), 3000)
		b := renderOps(streamsFor(t, name, 7), 3000)
		if a != b {
			t.Errorf("%s: the same seed gave two different op lists", name)
		}
		if c := renderOps(streamsFor(t, name, 8), 3000); a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", name)
		}
	}
}

func TestSubscribePlacementIsSeeded(t *testing.T) {
	a, b, c := newSubsWorkload(7), newSubsWorkload(7), newSubsWorkload(8)
	if len(a.los) != subCount {
		t.Fatalf("placed %d standing queries, want %d", len(a.los), subCount)
	}
	same := func(x, y []int) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a.los, b.los) || same(a.los, c.los) {
		t.Error("standing-query placement does not follow the seed")
	}
	// The oracle's covering set is exactly the windows that hold the value.
	for _, v := range []int{0, 999, 1000, 5000, 99_999} {
		from, to := a.covering(v)
		for i, lo := range a.los {
			if holds := lo <= v && v <= lo+subWidth; holds != (i >= from && i < to) {
				t.Fatalf("covering(%d) = [%d, %d) but window %d [%d, %d] holds=%v", v, from, to, i, lo, lo+subWidth, holds)
			}
		}
	}
}

func TestDeckDealsExactShares(t *testing.T) {
	s := streamsFor(t, wlQueryFanout, 3)
	counts := make(map[uint8]int)
	for i := 0; i < 1000; i++ {
		counts[s.next().Kind]++
	}
	for kind, tenths := range fanShares {
		if counts[uint8(kind)] != tenths*100 {
			t.Errorf("kind %d dealt %d times in 1000, want %d", kind, counts[uint8(kind)], tenths*100)
		}
	}
}

func TestPercentileRules(t *testing.T) {
	var s []float64
	for i := 1; i <= 100; i++ {
		s = append(s, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{0.50, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing should be 0")
	}
	// A percentile is reported only with at least ten samples beyond it.
	if percentileSupported(999, 0.99) || !percentileSupported(1000, 0.99) || !percentileSupported(200, 0.95) {
		t.Error("percentileSupported does not apply the ten-samples-beyond rule")
	}
	sum := summarize(s)
	if sum.Samples != 100 || sum.P50 != 50 || sum.P95 != 95 || sum.Max != 100 {
		t.Errorf("summarize(1..100) = %+v", sum)
	}
	if sum.P99 != 0 {
		t.Errorf("p99 of 100 samples reported as %v; one sample lies beyond it", sum.P99)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vals := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(vals)
	if q1 != 2.75 || q3 != 8.25 || median(vals) != 5.5 {
		t.Errorf("quartiles = %v, %v, median %v; want 2.75, 8.25, 5.5", q1, q3, median(vals))
	}
	if got := spread(vals); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	if q1, q3 := quartiles([]float64{3, 1, 4, 1, 5}); q1 != 1 || q3 != 4.5 {
		t.Errorf("quartiles = %v, %v; want 1, 4.5", q1, q3)
	}
}

func TestSelfTimeIsDurationMinusUnionOfChildren(t *testing.T) {
	spans := []*span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},              // overlaps 3
		{ID: 3, Parent: 1, Start: 30, End: 60},              // union with 2: [10, 60)
		{ID: 4, Parent: 1, Start: 70, End: 80},              // disjoint
		{ID: 5, Parent: 2, Start: 15, End: 20},              // nested under 2
		{ID: 6, Parent: 1, Start: 90, End: 130},             // runs past its parent: clipped
		{ID: 7, Parent: 3, Start: 30, End: 60},              // covers 3 entirely
		{ID: 8, Parent: 0, Start: 200, End: 250},            // a root of its own
		{ID: 9, Parent: 8, Start: 190, End: 195, Op: 1},     // wholly outside: no cover
		{ID: 10, Parent: 8, Start: 210, End: 210, Kind: ""}, // empty
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 50 - 10 - 10, 2: 25, 3: 0, 4: 10, 5: 5, 6: 40, 7: 30, 8: 50, 9: 5, 10: 0}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestPairSpansSurvivesOvertaking(t *testing.T) {
	// Two calls from one agent to one address: the second overtakes the
	// first and is over before the first's handler runs.
	spans := []*span{
		{ID: 1, Kind: kindClient, Peer: "x", Perf: "update", Start: 0, End: 100},
		{ID: 2, Kind: kindClient, Peer: "x", Perf: "update", Start: 5, End: 30},
		{ID: 3, Kind: kindServer, addr: "x", Perf: "update", Start: 10, End: 20},
		{ID: 4, Kind: kindServer, addr: "x", Perf: "update", Start: 50, End: 90},
		{ID: 5, Kind: kindServer, addr: "y", Perf: "update", Start: 50, End: 90},
	}
	pairSpans(spans)
	if spans[2].Parent != 2 || spans[3].Parent != 1 {
		t.Errorf("server spans paired with clients %d and %d, want 2 and 1", spans[2].Parent, spans[3].Parent)
	}
	if spans[4].Parent != 0 {
		t.Errorf("a server span at another address was paired with client %d", spans[4].Parent)
	}
}

func TestPacedClientChargesAStallToTheOpsBehindIt(t *testing.T) {
	const (
		interval = 5 * time.Millisecond
		stall    = 60 * time.Millisecond
		stallAt  = 2
	)
	n := 0
	first := time.Now().Add(interval)
	ops, lagMs := pacedClient(first, first, interval, first.Add(20*interval), func() bool {
		if n == stallAt {
			time.Sleep(stall)
		}
		n++
		return true
	})
	if len(ops) != 20 || len(lagMs) != 20 {
		t.Fatalf("ran %d ops, want all 20 the schedule holds", len(ops))
	}
	for j, o := range ops {
		// Op j behind the stall was due (j-stallAt) intervals after the
		// stalled op started, and cannot start before the stall is over.
		if owed := ms(stall) - float64(j-stallAt)*ms(interval); j >= stallAt && owed > 0 && o.LatMs < owed-1 {
			t.Errorf("op %d: latency %.1f ms, but the stall alone kept it waiting %.1f ms past its due time", j, o.LatMs, owed)
		}
	}
	if ops[0].LatMs > ms(stall)/2 || ops[19].LatMs > ms(stall)/2 {
		t.Errorf("ops clear of the stall were slow too: first %.1f ms, last %.1f ms", ops[0].LatMs, ops[19].LatMs)
	}
	if lagMs[stallAt+1] < ms(stall)-ms(interval)-1 {
		t.Errorf("the generator reported starting op %d only %.1f ms late", stallAt+1, lagMs[stallAt+1])
	}
}

// TestAStallInPartOfThePhaseShows injects a stall into three tenths of a
// real paced phase. op_p95_ms is taken over the quieter half and may not
// move, but the gated op_mean_ms and the printed all-ops p95 must.
func TestAStallInPartOfThePhaseShows(t *testing.T) {
	const (
		dur   = 500 * time.Millisecond
		stall = 20 * time.Millisecond
	)
	phase := func(stalled bool) (mean, plainP95 float64) {
		var start time.Time
		op := func() bool {
			// Tenths 2, 5 and 8 of the phase are the slow ones.
			if tenth := time.Since(start) / (dur / 10); stalled && tenth%3 == 2 {
				time.Sleep(stall)
			}
			return true
		}
		start = time.Now()
		paced := runPaced([]opFunc{op, op}, 1000, dur)
		if paced.attempted() != 500 {
			t.Fatalf("the paced phase ran %d ops, want the 500 its schedule holds", paced.attempted())
		}
		return endToEndValues([]float64{1}, &paced, &phaseResult{})["op_mean_ms"], summarize(paced.latencies()).P95
	}
	quietMean, quietP95 := phase(false)
	stalledMean, stalledP95 := phase(true)
	if quietMean > ms(stall)/8 || stalledMean < 3*quietMean || stalledMean < ms(stall)/8 {
		t.Errorf("op_mean_ms = %.2f ms without the stall and %.2f ms with %v stalls in 3 of 10 tenths", quietMean, stalledMean, stall)
	}
	if quietP95 > ms(stall)/4 || stalledP95 < ms(stall)*3/4 {
		t.Errorf("all-ops p95 = %.2f ms without the stall and %.2f ms with it", quietP95, stalledP95)
	}
}

// pacedPhase builds a paced phase of ten 100 ms tenths, 100 ops each,
// 1.0 to 1.9 ms apiece, except that every op of a stalled tenth takes
// 50 ms and an empty tenth holds none.
func pacedPhase(stalled, empty map[int]bool) *phaseResult {
	var p phaseResult
	for tenth := 0; tenth < 10; tenth++ {
		for i := 0; i < 100 && !empty[tenth]; i++ {
			lat := 1 + float64(i%10)/10
			if stalled[tenth] {
				lat = 50
			}
			p.Ops = append(p.Ops, opRecord{At: time.Duration(tenth*100+i) * time.Millisecond, LatMs: lat, OK: true})
		}
	}
	return &p
}

func TestQuietP95IsTheBetterHalfsAndTheMeanIsEverything(t *testing.T) {
	values := func(stalled, empty map[int]bool) (p95, mean float64) {
		v := endToEndValues([]float64{1}, pacedPhase(stalled, empty), &phaseResult{})
		return v["op_p95_ms"], v["op_mean_ms"]
	}
	calmP95, calmMean := values(nil, nil)
	if calmP95 != 1.9 || math.Abs(calmMean-1.45) > 1e-9 {
		t.Fatalf("calm phase: op_p95_ms %v, op_mean_ms %v; want 1.9 and 1.45", calmP95, calmMean)
	}
	// A stall confined to under half the windows is what the quieter half
	// leaves out, and what the mean is there to catch.
	p95, mean := values(map[int]bool{2: true, 5: true, 8: true}, nil)
	if p95 != calmP95 {
		t.Errorf("stall in 3 of 10 windows: op_p95_ms %v, want the calm %v", p95, calmP95)
	}
	if want := 0.7*1.45 + 0.3*50; math.Abs(mean-want) > 1e-9 {
		t.Errorf("stall in 3 of 10 windows: op_mean_ms %v, want %v", mean, want)
	}
	// With six windows stalled, one of the better five is a stalled one:
	// a fifth of the pooled ops, well over the 5% a p95 needs.
	if p95, _ := values(map[int]bool{0: true, 1: true, 3: true, 4: true, 6: true, 9: true}, nil); p95 != 50 {
		t.Errorf("stall in 6 of 10 windows: op_p95_ms %v, want 50", p95)
	}
	// Windows no op was due in are not ranked: of the two that remain, the
	// calm one is the better half.
	empty := map[int]bool{1: true, 2: true, 3: true, 4: true, 5: true, 6: true, 7: true, 8: true}
	if p95, _ := values(map[int]bool{9: true}, empty); p95 != calmP95 {
		t.Errorf("two busy windows, one stalled: op_p95_ms %v, want the calm %v", p95, calmP95)
	}
}

func TestEndToEndValues(t *testing.T) {
	var paced, sat phaseResult
	for i := 1; i <= 100; i++ {
		paced.Ops = append(paced.Ops, opRecord{LatMs: float64(i), OK: true})
	}
	for i := 0; i < 1000; i++ {
		sat.Ops = append(sat.Ops, opRecord{LatMs: 1, OK: i >= 100}) // 100 failed
	}
	sat.Seconds = 2
	sat.Usage = usage{cpu: time.Second, mallocs: 5000, totalAlloc: 2048 * 1000, wire: 1024 * 500}
	got := endToEndValues([]float64{3, 1, 2}, &paced, &sat)
	want := map[string]float64{
		"setup_s": 2, "op_p50_ms": 50, "op_p95_ms": 95, "op_mean_ms": 50.5,
		"throughput_ops_s": 450, "cpu_ms_per_op": 1, "allocs_per_op": 5,
		"alloc_kb_per_op": 2, "wire_kb_per_op": 0.5, failedFrac: 100.0 / 1100,
	}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name], w)
		}
	}
}

// TestSpecAgreesWithBenchmarkJSON holds the metric lists in spec.go to
// the ones BENCHMARK.json gives the driver: a run emits the first and
// -compare walks the second.
func TestSpecAgreesWithBenchmarkJSON(t *testing.T) {
	var spec struct {
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json has %v, spec.go %v", names, workloadNames)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, spec.go %v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json has %v, spec.go %v", spec.PerLayer, perLayer)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %v, spec.go's defaultSeconds = %v", spec.RunSeconds, defaultSeconds)
	}
}

func TestVerdicts(t *testing.T) {
	steady := func(v float64) []float64 { return []float64{v, v * 1.001, v * 0.999} }
	for _, c := range []struct {
		name   string
		a, b   []float64
		lower  bool
		bound  float64
		expect string
	}{
		{"slower beyond the bound", steady(10), steady(12), true, 0.10, verdictRegressed},
		{"faster beyond the bound", steady(10), steady(8), true, 0.10, verdictImproved},
		{"within the bound", steady(10), steady(10.5), true, 0.10, verdictUnchanged},
		{"throughput drop", steady(100), steady(80), false, 0.10, verdictRegressed},
		{"throughput gain", steady(100), steady(120), false, 0.10, verdictImproved},
		{"spread wider than the bound", []float64{8, 10, 12}, steady(10), true, 0.10, verdictUnresolved},
	} {
		if got, _ := verdict(c.a, c.b, c.lower, c.bound); got != c.expect {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.expect)
		}
	}
}

// TestQuickSmoke runs every workload for about a second, untraced and
// traced, and checks that each named metric comes out with its unit and
// that every oracle and mechanism check holds.
func TestQuickSmoke(t *testing.T) {
	spans := t.TempDir() + "/spans.jsonl"
	for _, name := range workloadNames {
		for _, mode := range []struct {
			trace string
			defs  []metricDef
		}{{"0", endToEnd}, {"1", perLayer}} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-quick", "-workload", name, "-trace", mode.trace, "-spans", spans}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s -trace %s: exit %d\n%s%s", name, mode.trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var last struct {
				Correct   bool                   `json:"correct"`
				Attempted int                    `json:"attempted"`
				Failed    int                    `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s -trace %s: last line is not the result object: %v", name, mode.trace, err)
			}
			if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
				t.Errorf("%s -trace %s: correct=%v attempted=%d failed=%d", name, mode.trace, last.Correct, last.Attempted, last.Failed)
			}
			if len(last.Metrics) != len(mode.defs) {
				t.Errorf("%s -trace %s: %d metrics on the result line, want %d", name, mode.trace, len(last.Metrics), len(mode.defs))
			}
			for _, def := range mode.defs {
				got, ok := last.Metrics[def.Name]
				if !ok || got.Unit != def.Unit {
					t.Errorf("%s -trace %s: metric %s came out as %+v (present %v), want unit %s", name, mode.trace, def.Name, got, ok, def.Unit)
				}
				if !strings.Contains(stdout.String(), def.Name) {
					t.Errorf("%s -trace %s: %s is not printed by name", name, mode.trace, def.Name)
				}
				if mode.trace == "0" && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s reads %v; it must never be 0", name, def.Name, got.Value)
				}
			}
			if mode.trace == "0" && !strings.Contains(stdout.String(), failedFrac) {
				t.Errorf("%s: %s is not printed", name, failedFrac)
			}
		}
	}
}
