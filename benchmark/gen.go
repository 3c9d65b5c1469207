package main

import (
	"math"
	"math/rand"

	"infosleuth/internal/constraint"
	"infosleuth/internal/relational"
	"infosleuth/internal/sqlparse"
)

// op is one generated operation: a workload-specific kind and argument.
// The program under test only ever sees what a kind and argument render
// to (an SQL text, a broker query, an advertisement, a row).
type op struct {
	Kind uint8
	Arg  int32
}

// opStream is one client's seeded, endless op sequence.
type opStream interface{ next() op }

// streamSeed derives an independent seed per (run seed, purpose, client).
func streamSeed(seed int64, purpose string, client int) int64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(client+1)*0xC2B2AE3D27D4EB4F
	for _, c := range purpose {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	return int64(h >> 1)
}

// deck deals kinds in exact proportions: every pass over the pattern
// hands out each entry once, in a freshly shuffled order. A mix drawn
// this way has the same composition on every seed, so per-op averages
// differ between seeds only by where the last pass was cut.
type deck struct {
	r       *rand.Rand
	pattern []uint8
	pos     int
}

func newDeck(r *rand.Rand, counts ...int) *deck {
	d := &deck{r: r}
	for kind, n := range counts {
		for i := 0; i < n; i++ {
			d.pattern = append(d.pattern, uint8(kind))
		}
	}
	d.pos = len(d.pattern)
	return d
}

func (d *deck) next() uint8 {
	if d.pos == len(d.pattern) {
		d.r.Shuffle(len(d.pattern), func(i, j int) { d.pattern[i], d.pattern[j] = d.pattern[j], d.pattern[i] })
		d.pos = 0
	}
	k := d.pattern[d.pos]
	d.pos++
	return k
}

// zipfKeys draws constants Zipf-distributed over n values. The rank to
// constant mapping is a fixed scramble, not seeded: every seed samples
// the same population, so hot constants (and their answer sizes) do not
// move between seeds.
type zipfKeys struct {
	z *rand.Zipf
	n uint64
}

// zipfScramble is a prime that shares no factor with the key-space sizes
// used here (8000 and 4000), so rank*zipfScramble mod n is a permutation.
const zipfScramble = 7919

func newZipfKeys(r *rand.Rand, s float64, n int) *zipfKeys {
	return &zipfKeys{z: rand.NewZipf(r, s, 1, uint64(n-1)), n: uint64(n)}
}

func (z *zipfKeys) next() int32 { return int32(z.z.Uint64() * zipfScramble % z.n) }

// digest summarises a result as a row count and an order-independent sum
// of row hashes: two results with equal digests hold the same multiset
// of rows (up to hash collisions). Computing it allocates nothing, so
// checking every answer costs the timed loop a few nanoseconds per cell.
type digest struct {
	cols int
	rows int
	sum  uint64
}

const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func hashRow(row relational.Row) uint64 {
	h := uint64(fnvOffset)
	for _, v := range row {
		h = (h ^ uint64(v.Kind())) * fnvPrime
		switch v.Kind() {
		case constraint.KindNumber:
			bits := math.Float64bits(v.Number() + 0) // +0 folds -0 into 0
			for i := 0; i < 8; i++ {
				h = (h ^ (bits & 0xff)) * fnvPrime
				bits >>= 8
			}
		case constraint.KindString:
			s := v.Text()
			for i := 0; i < len(s); i++ {
				h = (h ^ uint64(s[i])) * fnvPrime
			}
		}
		h = (h ^ 0xff) * fnvPrime // cell separator
	}
	// A final avalanche, so that summing row hashes does not let two
	// near-identical rows cancel.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

func digestOf(cols int, rows []relational.Row) digest {
	d := digest{cols: cols, rows: len(rows)}
	for _, r := range rows {
		d.sum += hashRow(r)
	}
	return d
}

// expected is the oracle's answer for one query text.
type expected struct {
	want digest
	// ordered asks for the result's first column to be non-decreasing
	// (the ORDER BY id queries).
	ordered bool
}

// check reports whether a result equals the oracle's answer.
func (e expected) check(res *sqlparse.Result) bool {
	if res == nil || digestOf(len(res.Columns), res.Rows) != e.want {
		return false
	}
	if e.ordered {
		for i := 1; i < len(res.Rows); i++ {
			if len(res.Rows[i]) == 0 || res.Rows[i-1][0].Compare(res.Rows[i][0]) > 0 {
				return false
			}
		}
	}
	return true
}
