//go:build !race

package broadcast

import "testing"

// Not under -race: the detector makes sync.Pool drop items, so counts mean nothing.
func TestBroadcastEnqueueAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, fullQueuePublishOp(t)); n != 0 {
		t.Errorf("publish into a full queue allocates %.0f per op, want 0", n)
	}
}
