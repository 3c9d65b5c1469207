//go:build !race

package recorder

import "testing"

const raceEnabled = false

// Not under -race: the detector makes sync.Pool drop items, so counts mean nothing.
func TestTailSampleDecisionAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, tailSampleOp(t)); n != 0 {
		t.Errorf("untraced tail-sampling decision allocates %.0f per op, want 0", n)
	}
}
