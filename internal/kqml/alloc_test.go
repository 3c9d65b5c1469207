//go:build !race

package kqml

import "testing"

// TestCodecAllocs: the codec allocates per message and per result, never per
// cell; an advertisement costs an allocation per string and per list it
// holds. Today: 3, 13, 30, 147 and 59 (on encoding/json the last three were
// 51, 219 and 89).
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
	check("a broker-query ask/tell round trip", smallMessageOp(t), 34)
	reply, _ := decodeReplyOp(t)
	check("decoding a 7-advertisement broker reply", reply, 160)
	check("an advertise/tell round trip", advertiseOp(t), 66)
}
