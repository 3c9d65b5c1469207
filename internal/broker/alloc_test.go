//go:build !race

package broker

import "testing"

// Not under -race: the detector makes sync.Pool drop items, so counts mean nothing.
func TestShardDispatchAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, shardDispatchOp(t, 1)); n != 0 {
		t.Errorf("dispatch on the flat repository allocates %.0f per op, want 0", n)
	}
}
