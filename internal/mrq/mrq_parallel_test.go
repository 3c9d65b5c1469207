package mrq

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"infosleuth/internal/kqml"
	"infosleuth/internal/ontology"
	"infosleuth/internal/relational"
	"infosleuth/internal/resource"
)

// addMRQ wires an extra MRQ agent into the rig with explicit fan-out and
// pushdown settings (the rig's default agent is parallel with pushdown on).
func (r *rig) addMRQ(t *testing.T, name string, fanout int, push bool) *Agent {
	t.Helper()
	m, err := New(Config{
		Name: name, Transport: r.tr, KnownBrokers: []string{r.broker.Addr()},
		World: ontology.NewWorld(ontology.Generic()), Ontology: "generic",
		PushConstraints: push, MaxFanout: fanout,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Stop() })
	return m
}

// addVertical adds a resource holding a vertical fragment of class: only
// the named columns (id plus numeric cols), advertised with a slot
// restriction. rows maps key -> column values in cols order (after id).
func (r *rig) addVertical(t *testing.T, name, class string, cols []string, rows map[string][]float64, delay time.Duration) *resource.Agent {
	t.Helper()
	schemaCols := []relational.Column{{Name: "id", Type: relational.TypeString}}
	for _, c := range cols {
		schemaCols = append(schemaCols, relational.Column{Name: c, Type: relational.TypeNumber})
	}
	db := relational.NewDatabase()
	tbl, err := db.Create(relational.Schema{Name: class, Columns: schemaCols, Key: "id"})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	for _, k := range keys {
		row := relational.Row{relational.Str(k)}
		for _, v := range rows[k] {
			row = append(row, relational.Num(v))
		}
		tbl.MustInsert(row)
	}
	ra, err := resource.New(resource.Config{
		Name: name, Transport: r.tr, KnownBrokers: []string{r.broker.Addr()},
		DB:               db,
		QueryDelayPerRow: delay,
		Fragment: ontology.Fragment{
			Ontology: "generic", Classes: []string{class},
			Slots: map[string][]string{class: append([]string{"id"}, cols...)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ra.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ra.Stop() })
	if _, err := ra.Advertise(context.Background()); err != nil {
		t.Fatal(err)
	}
	return ra
}

// mixedRig builds the concurrency scenario of the satellite tests: two
// vertical fragments sharing keys, one full-width horizontal fragment, one
// slow full-width fragment, and one resource that died after advertising.
func mixedRig(t *testing.T) *rig {
	r := newRig(t)
	vert := map[string][]float64{}
	for i := 0; i < 5; i++ {
		vert[fmt.Sprintf("k%d", i)] = []float64{float64(i)}
	}
	r.addVertical(t, "VertA", "C2", []string{"a"}, vert, 0)
	vertB := map[string][]float64{}
	for i := 0; i < 5; i++ {
		vertB[fmt.Sprintf("k%d", i)] = []float64{float64(100 + i)}
	}
	r.addVertical(t, "VertB", "C2", []string{"b"}, vertB, 0)
	r.addResource(t, "Horiz", "C2", "h-", 3)
	slow := map[string][]float64{"s0": {7}, "s1": {8}}
	r.addVertical(t, "Slow", "C2", []string{"a"}, slow, 10*time.Millisecond)
	dead := r.addResource(t, "Dead", "C2", "dead-", 2)
	dead.Stop()
	return r
}

func TestRunMixedFragmentsConcurrent(t *testing.T) {
	r := mixedRig(t)
	res, err := r.mrq.Run(context.Background(), "SELECT id, a, b FROM C2 ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	// 5 joined k* keys + 3 horizontal h-* + 2 slow s* (Dead contributes
	// nothing but must not sink the query).
	if res.Len() != 10 {
		t.Fatalf("rows = %d, want 10:\n%s", res.Len(), res)
	}
	first := res.String()
	for i := 0; i < 3; i++ {
		res2, err := r.mrq.Run(context.Background(), "SELECT id, a, b FROM C2 ORDER BY id")
		if err != nil {
			t.Fatal(err)
		}
		if res2.String() != first {
			t.Fatalf("run %d differs from first:\n%s\nvs\n%s", i, res2, first)
		}
	}
}

// TestSerialParallelDifferential is the acceptance differential: serial
// (MaxFanout=1) and parallel MRQ agents must produce byte-for-byte
// identical Result.String() output, with pushdown on and off.
func TestSerialParallelDifferential(t *testing.T) {
	r := mixedRig(t)
	serial := r.addMRQ(t, "MRQ-serial", 1, true)
	parallel := r.addMRQ(t, "MRQ-parallel", 0, true)
	serialNoPush := r.addMRQ(t, "MRQ-serial-nopush", 1, false)
	queries := []string{
		"SELECT * FROM C2 ORDER BY id",
		"SELECT id, a, b FROM C2 ORDER BY id",
		"SELECT id, a FROM C2 WHERE a >= 2 ORDER BY id",
		"SELECT id FROM C2 WHERE a = 0",
		"SELECT COUNT(*) FROM C2",
	}
	for _, q := range queries {
		want, err := serial.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("serial %q: %v", q, err)
		}
		got, err := parallel.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("parallel %q: %v", q, err)
		}
		if got.String() != want.String() {
			t.Errorf("%q: parallel differs from serial:\n%s\nvs\n%s", q, got, want)
		}
		noPush, err := serialNoPush.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("no-push %q: %v", q, err)
		}
		if noPush.String() != want.String() {
			t.Errorf("%q: pushdown changed the result:\n%s\nvs\n%s", q, noPush, want)
		}
	}
}

// TestSelectionPushdownSoundness pins the zero-fill hazard: WHERE a = 0
// over vertical fragments where only one fragment has column a. Pushing
// the condition to that fragment alone would drop k1 there, and the
// key-join would resurrect k1 from the other fragment with a zero-filled
// a = 0 that wrongly passes the local filter. The coverage rule (push only
// when every matched resource advertises the column) must keep the
// condition local.
func TestSelectionPushdownSoundness(t *testing.T) {
	r := newRig(t)
	r.addVertical(t, "VertA", "C2", []string{"a"}, map[string][]float64{"k0": {0}, "k1": {1}}, 0)
	r.addVertical(t, "VertB", "C2", []string{"b"}, map[string][]float64{"k0": {100}, "k1": {101}}, 0)
	res, err := r.mrq.Run(context.Background(), "SELECT id FROM C2 WHERE a = 0")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0][0].Text() != "k0" {
		t.Fatalf("WHERE a = 0 returned:\n%s\nwant only k0", res)
	}
}

// TestProjectionPushdownFallback: a resource whose advertisement overstates
// its columns rejects the narrowed query; the fetch must retry as SELECT *
// and keep the fragment.
func TestProjectionPushdownFallback(t *testing.T) {
	r := newRig(t)
	// Table has only id,a but the advertisement claims id,a,b.
	db := relational.NewDatabase()
	tbl, err := db.Create(relational.Schema{
		Name: "C2",
		Columns: []relational.Column{
			{Name: "id", Type: relational.TypeString},
			{Name: "a", Type: relational.TypeNumber},
		},
		Key: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl.MustInsert(relational.Row{relational.Str("lie0"), relational.Num(1)})
	ra, err := resource.New(resource.Config{
		Name: "Liar", Transport: r.tr, KnownBrokers: []string{r.broker.Addr()},
		DB: db,
		Fragment: ontology.Fragment{
			Ontology: "generic", Classes: []string{"C2"},
			Slots: map[string][]string{"C2": {"id", "a", "b"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ra.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ra.Stop() })
	if _, err := ra.Advertise(context.Background()); err != nil {
		t.Fatal(err)
	}
	r.addResource(t, "Honest", "C2", "h-", 2)

	before := SnapshotFetchStats()
	res, err := r.mrq.Run(context.Background(), "SELECT id, b FROM C2 ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("rows = %d, want Liar's 1 + Honest's 2:\n%s", res.Len(), res)
	}
	after := SnapshotFetchStats()
	if got := after.Fallbacks - before.Fallbacks; got != 1 {
		t.Errorf("pushdown fallbacks = %d, want 1", got)
	}
}

func TestRunCancellationMidFanout(t *testing.T) {
	r := newRig(t)
	slow := map[string][]float64{"s0": {1}, "s1": {2}, "s2": {3}}
	r.addVertical(t, "Slow", "C2", []string{"a"}, slow, 60*time.Millisecond) // ~180ms per query
	r.addResource(t, "Fast", "C2", "f-", 2)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	_, err := r.mrq.Run(ctx, "SELECT * FROM C2")
	if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("cancelled run = %v, want context.Canceled", err)
	}
}

func TestFetchFailuresSortedByAgentName(t *testing.T) {
	r := newRig(t)
	// Advertised in reverse-alphabetical order; the degradation note must
	// still list them sorted by name.
	for _, name := range []string{"zz-dead", "mm-dead", "aa-dead"} {
		dead := r.addResource(t, name, "C2", name+"-", 1)
		dead.Stop()
	}
	_, status, err := r.mrq.RunWithStatus(context.Background(), "SELECT * FROM C2")
	if err != nil {
		t.Fatalf("all-dead query should degrade, not fail: %v", err)
	}
	if !status.Partial || len(status.Degraded) != 1 {
		t.Fatalf("status = %+v, want one degraded class", status)
	}
	want := []string{"aa-dead", "mm-dead", "zz-dead"}
	got := status.Degraded[0].Agents
	if len(got) != len(want) {
		t.Fatalf("degraded agents = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("degraded agents not sorted: %v", got)
		}
	}
	msg := status.Degraded[0].Reason
	ia, im, iz := strings.Index(msg, "aa-dead:"), strings.Index(msg, "mm-dead:"), strings.Index(msg, "zz-dead:")
	if ia < 0 || im < 0 || iz < 0 || !(ia < im && im < iz) {
		t.Fatalf("reason not sorted by agent name: %s", msg)
	}
}

func TestFetchMetrics(t *testing.T) {
	r := newRig(t)
	r.addResource(t, "RA1", "C2", "one-", 3)
	dead := r.addResource(t, "RA2", "C2", "dead-", 1)
	dead.Stop()
	before := SnapshotFetchStats()
	if _, err := r.mrq.Run(context.Background(), "SELECT * FROM C2"); err != nil {
		t.Fatal(err)
	}
	after := SnapshotFetchStats()
	if got := after.Fetches - before.Fetches; got != 2 {
		t.Errorf("fetches = %d, want 2", got)
	}
	if got := after.Errors - before.Errors; got != 1 {
		t.Errorf("fetch errors = %d, want 1", got)
	}
	if after.Bytes <= before.Bytes {
		t.Errorf("fetch bytes did not grow")
	}
}

// TestMergeFragmentsDeterministicUnderShuffle: any permutation of the
// fragment results must merge to the identical table. A case with want set also
// pins that table: there, (id, a) replicas disagree on k1 beside a
// vertical (id, c) fragment, and the least row by value (a=1) is kept in
// every order.
func TestMergeFragmentsDeterministicUnderShuffle(t *testing.T) {
	cases := []struct {
		frags []*kqml.SQLResult
		want  string
	}{
		{frags: []*kqml.SQLResult{
			{Columns: []string{"id", "a"}, Rows: []relational.Row{
				{relational.Str("k2"), relational.Num(2)},
				{relational.Str("k0"), relational.Num(0)},
			}},
			{Columns: []string{"id", "a"}, Rows: []relational.Row{
				{relational.Str("k1"), relational.Num(1)},
				{relational.Str("k0"), relational.Num(0)}, // replica duplicate
			}},
			{Columns: []string{"id", "b"}, Rows: []relational.Row{
				{relational.Str("k3"), relational.Num(33)},
				{relational.Str("k1"), relational.Num(11)},
			}},
		}},
		{frags: []*kqml.SQLResult{
			{Columns: []string{"id", "a"}, Rows: []relational.Row{
				{relational.Str("k1"), relational.Num(1)},
			}},
			{Columns: []string{"id", "a"}, Rows: []relational.Row{
				{relational.Str("k1"), relational.Num(2)}, // disagreeing replica
			}},
			{Columns: []string{"id", "c"}, Rows: []relational.Row{
				{relational.Str("k1"), relational.Num(100)},
			}},
		}, want: "id:1 a:0 c:0 \n'k1' 1 100 \n"},
	}
	render := func(res []*kqml.SQLResult) string {
		tbl, err := MergeFragments("C2", "id", res)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, c := range tbl.Schema().Columns {
			fmt.Fprintf(&b, "%s:%d ", c.Name, c.Type)
		}
		b.WriteByte('\n')
		for _, row := range tbl.Rows() {
			for _, v := range row {
				b.WriteString(v.String())
				b.WriteByte(' ')
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
	for ci, tc := range cases {
		want := render(tc.frags)
		if tc.want != "" && want != tc.want {
			t.Fatalf("case %d merged to:\n%s\nwant:\n%s", ci, want, tc.want)
		}
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 20; i++ {
			shuffled := append([]*kqml.SQLResult(nil), tc.frags...)
			rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
			if got := render(shuffled); got != want {
				t.Fatalf("case %d permutation %d merged differently:\n%s\nvs\n%s", ci, i, got, want)
			}
		}
	}
}
