package resource

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"infosleuth/internal/constraint"
	"infosleuth/internal/ontology"
	"infosleuth/internal/relational"
	"infosleuth/internal/transport"
)

// regionSchema is the generator's table: a key, two number columns and
// two string columns.
var regionSchema = relational.Schema{
	Name: "C2",
	Columns: []relational.Column{
		{Name: "id", Type: relational.TypeString},
		{Name: "a", Type: relational.TypeNumber},
		{Name: "b", Type: relational.TypeNumber},
		{Name: "s", Type: relational.TypeString},
		{Name: "t", Type: relational.TypeString},
	},
	Key: "id",
}

// genBatch draws 1-40 well-typed rows. Each batch picks a window for the
// number columns and a pool size for the strings; a pool of 40 over a
// large batch yields more than 16 distinct strings in a column.
func genBatch(rng *rand.Rand, prefix string) []relational.Row {
	n := 1 + rng.Intn(40)
	lo, width := rng.Intn(100), []int{1, 5, 30, 100}[rng.Intn(4)]
	pool := []int{1, 3, 10, 40}[rng.Intn(4)]
	rows := make([]relational.Row, n)
	for i := range rows {
		rows[i] = relational.Row{
			relational.Str(fmt.Sprintf("%s-%d", prefix, i)),
			relational.Num(float64(lo + rng.Intn(width))),
			relational.Num(float64(rng.Intn(41)-20) / 2),
			relational.Str(fmt.Sprintf("s%02d", rng.Intn(pool))),
			relational.Str([]string{"x", "y"}[rng.Intn(2)]),
		}
	}
	return rows
}

// perturb returns a copy of rows in which, now and then, a value of the
// other kind lands in a column or a row is cut short: rows a change may
// carry that no table would accept.
func perturb(rng *rand.Rand, rows []relational.Row) (out []relational.Row, mixed, short bool) {
	out = make([]relational.Row, len(rows))
	for i, r := range rows {
		out[i] = append(relational.Row(nil), r...)
	}
	r := out[rng.Intn(len(out))]
	if rng.Intn(4) == 0 {
		col := 1 + rng.Intn(4)
		if r[col].Kind() == constraint.KindNumber {
			r[col] = relational.Str("odd")
		} else {
			r[col] = relational.Num(7)
		}
		mixed = true
	}
	if rng.Intn(4) == 0 {
		i := rng.Intn(len(out))
		out[i] = out[i][:1+rng.Intn(len(out[i])-1)]
		short = true
	}
	return out, mixed, short
}

// genStandingQuery draws a single-class standing query whose WHERE clause
// is one BETWEEN, IN, =, < or > conjunct over a generated column.
func genStandingQuery(rng *rand.Rand) string {
	num := func() int { return rng.Intn(110) - 5 }
	str := func() string { return fmt.Sprintf("'s%02d'", rng.Intn(40)) }
	var where string
	switch col := []string{"a", "b", "s", "t"}[rng.Intn(4)]; col {
	case "a", "b":
		switch rng.Intn(5) {
		case 0:
			lo := num()
			where = fmt.Sprintf("%s BETWEEN %d AND %d", col, lo, lo+rng.Intn(20))
		case 1:
			where = fmt.Sprintf("%s IN (%d, %d, %d)", col, num(), num(), num())
		case 2:
			where = fmt.Sprintf("%s = %d", col, num())
		case 3:
			where = fmt.Sprintf("%s < %d", col, num())
		default:
			where = fmt.Sprintf("%s > %d", col, num())
		}
	case "s":
		if rng.Intn(2) == 0 {
			where = "s = " + str()
		} else {
			where = fmt.Sprintf("s IN (%s, %s)", str(), str())
		}
	default:
		where = "t = '" + []string{"x", "y", "z"}[rng.Intn(3)] + "'"
	}
	return "SELECT * FROM C2 WHERE " + where
}

// TestChangeRegionNeverUnderCovers: the subscription index skips a
// standing query whose region misses a change's region, so changeRegion
// must cover every changed row. Over generated batches it checks that
// every row, however mixed or short, lies inside the region (nil is the
// whole class), and that every generated standing query whose region does
// not overlap a batch's keeps its result digest across the insert.
func TestChangeRegionNeverUnderCovers(t *testing.T) {
	var wide, mixed, short, skipped int
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := relational.NewDatabase()
		tbl, err := db.Create(regionSchema)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range genBatch(rng, "base") {
			tbl.MustInsert(r)
		}
		ra, err := New(Config{Name: "RegionRA", Transport: transport.NewInProc(), DB: db,
			Fragment: ontology.Fragment{Ontology: "generic", Classes: []string{"C2"}}})
		if err != nil {
			t.Fatal(err)
		}
		batch := genBatch(rng, "new")

		distinct := map[string]bool{}
		for _, r := range batch {
			distinct[r[3].Text()] = true
		}
		if len(distinct) > 16 {
			wide++
		}
		odd, m, s := perturb(rng, batch)
		if m {
			mixed++
		}
		if s {
			short++
		}
		for _, rows := range [][]relational.Row{batch, odd} {
			region := ra.changeRegion(Change{Class: "C2", Rows: rows})
			for _, r := range rows {
				rec := make(map[string]constraint.Value, len(r))
				for i, v := range r {
					rec["c2."+strings.ToLower(regionSchema.Columns[i].Name)] = v
				}
				if !region.Matches(rec) {
					t.Fatalf("seed %d: changed row %v lies outside the change region %s", seed, r, region)
				}
			}
		}

		change := ra.changeRegion(Change{Class: "C2", Rows: batch})
		queries := make([]string, 5)
		before := make([]resultDigest, len(queries))
		for i := range queries {
			queries[i] = genStandingQuery(rng)
			res, err := ra.Run(queries[i])
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, queries[i], err)
			}
			before[i] = resultHash(res)
		}
		for _, r := range batch {
			tbl.MustInsert(r)
		}
		for i, q := range queries {
			stmt, err := ra.compile(ontology.LangSQL2, q)
			if err != nil {
				t.Fatal(err)
			}
			if _, region := ra.indexStandingQuery(stmt); region.Overlaps(change) {
				continue
			}
			skipped++
			res, err := ra.Run(q)
			if err != nil {
				t.Fatal(err)
			}
			if resultHash(res) != before[i] {
				t.Fatalf("seed %d: %s does not overlap change region %s, yet its answer changed", seed, q, change)
			}
		}
	}
	if wide == 0 || mixed == 0 || short == 0 || skipped == 0 {
		t.Fatalf("generator lost coverage: %d batches over 16 strings, %d mixed, %d short, %d skipped queries",
			wide, mixed, short, skipped)
	}
	t.Logf("%d batches over 16 strings, %d mixed, %d short, %d skipped queries", wide, mixed, short, skipped)
}
