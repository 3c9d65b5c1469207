//go:build !race

package kqml

import "testing"

// TestCodecAllocs: the codec allocates per message and per result, never per
// cell. Today: 3, 13 and 53 (the small message's payloads are on encoding/json).
// Not under -race: the detector makes sync.Pool drop items, so counts mean nothing.
func TestCodecAllocs(t *testing.T) {
	check := func(name string, op func(), ceiling float64) {
		if n := testing.AllocsPerRun(100, op); n > ceiling {
			t.Errorf("%s allocates %.0f per op, ceiling %.0f", name, n, ceiling)
		}
	}
	encode, _ := encodeResultOp(t)
	decode, _ := decodeResultOp(t)
	check("encoding a 128-row result", encode, 6)
	check("decoding a 128-row result", decode, 20)
	check("a broker-query ask/tell round trip", smallMessageOp(t), 60)
}
