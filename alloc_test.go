//go:build !race

package infosleuth_test

import "testing"

// TestPooledCallAllocs: one pooled broker call over TCP, both sides, is 70 today.
// Not under -race: the detector makes sync.Pool drop items, so counts mean nothing.
func TestPooledCallAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(200, brokerCallOp(t, 0, false)); n > 90 {
		t.Errorf("pooled call allocates %.0f per op, ceiling 90", n)
	}
}
