package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestSimulatedArtifactsMatchReference holds the seed-deterministic half
// of Section 5 (tables 1, 2, 5 and 6, figures 14 to 17 and the
// broker-knowledge extension, all at seed 1999) to
// experiments_reference.txt byte for byte. The live-timed tables 3 and 4
// are in that file too but depend on the machine; their shape is checked
// by TestTable3LoadedRegimeFavorsMultibroker and
// TestTable4SpecializationHelps.
func TestSimulatedArtifactsMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("full-length simulation")
	}
	raw, err := os.ReadFile("../../experiments_reference.txt")
	if err != nil {
		t.Fatal(err)
	}
	// The file is what `experiments -run all` prints: one artifact per
	// block, blocks separated by a blank line, the title on the first line.
	reference := make(map[string]string)
	for _, block := range strings.Split(string(raw), "\n\n") {
		title, _, _ := strings.Cut(block, "\n")
		reference[title] = strings.TrimRight(block, "\n") + "\n"
	}

	opts := SimOptions{Seed: 1999}
	cells := RobustnessGrid(opts)
	artifacts := []fmt.Stringer{
		Table1(), Table2(),
		Fig14(opts), Fig15(opts), Fig16(opts), Fig17(opts), ExtBrokerKnowledge(opts),
		Table5(cells), Table6(cells),
	}
	for _, a := range artifacts {
		got := a.String()
		title, _, _ := strings.Cut(got, "\n")
		want, ok := reference[title]
		if !ok {
			t.Errorf("experiments_reference.txt has no block titled %q", title)
			continue
		}
		if got != want {
			t.Errorf("%s differs from experiments_reference.txt\ngot:\n%swant:\n%s", title, got, want)
		}
	}
}
