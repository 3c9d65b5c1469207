package main

import (
	"strings"
	"testing"
)

func TestSelectArtifacts(t *testing.T) {
	want, err := selectArtifacts("all, Traces")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range artifacts {
		if got := want[a.name]; got != (a.inAll || a.name == "traces") {
			t.Errorf("-run 'all, Traces' selects %s = %v", a.name, got)
		}
	}
	// A misspelt name is an error naming every known artifact, not a run
	// of nothing.
	if _, err := selectArtifacts("table1,subbenchh"); err == nil {
		t.Fatal("-run table1,subbenchh was accepted")
	} else {
		for _, a := range artifacts {
			if !strings.Contains(err.Error(), a.name) {
				t.Errorf("error %q does not list %s", err, a.name)
			}
		}
	}
}
