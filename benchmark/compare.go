package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
)

// benchSpec is the part of BENCHMARK.json -compare needs: each
// end-to-end metric's direction and regression bound.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func createFile(path string) (*os.File, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return os.Create(path)
}

func writeResultFile(path string, file *resultFile) error {
	buf, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	f, err := createFile(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(buf, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Verdicts of a comparison.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict judges one metric on one workload: a is the baseline's values
// over its repeated runs, b the candidate's. A metric whose run-to-run
// spread on either side is wider than its bound cannot be called
// unchanged, improved or regressed: it is unresolved.
func verdict(a, b []float64, lowerIsBetter bool, bound float64) (string, float64) {
	ma, mb := median(a), median(b)
	var worse float64 // the share of the baseline by which b is worse
	if ma != 0 {
		worse = (mb - ma) / ma
		if !lowerIsBetter {
			worse = -worse
		}
	}
	switch {
	case spread(a) > bound || spread(b) > bound:
		return verdictUnresolved, worse
	case worse > bound:
		return verdictRegressed, worse
	case worse < -bound:
		return verdictImproved, worse
	}
	return verdictUnchanged, worse
}

// compareFiles prints one row per workload and metric. It returns 1 when
// anything regressed, 2 when the files cannot be compared.
func compareFiles(stdout, stderr io.Writer, specPath, pathA, pathB string) int {
	var spec benchSpec
	var a, b resultFile
	for _, in := range []struct {
		path string
		v    any
	}{{specPath, &spec}, {pathA, &a}, {pathB, &b}} {
		if err := readJSON(in.path, in.v); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	if !reflect.DeepEqual(a.Options, b.Options) {
		fmt.Fprintf(stderr, "benchmark: refusing to compare runs taken with different parameters:\n  %s: %+v\n  %s: %+v\n",
			pathA, a.Options, pathB, b.Options)
		return 2
	}
	values := func(f *resultFile, workload, metric string) []float64 {
		var out []float64
		for _, r := range f.Runs {
			if mv, ok := r.Metrics[metric]; ok && r.Workload == workload {
				out = append(out, mv.Value)
			}
		}
		return out
	}
	regressed := false
	fmt.Fprintf(stdout, "%-18s %-18s %14s %14s %9s  %s\n", "workload", "metric", "baseline", "candidate", "worse by", "verdict")
	for _, name := range a.Options.Workloads {
		for _, def := range spec.EndToEnd {
			va, vb := values(&a, name, def.Name), values(&b, name, def.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(stderr, "benchmark: %s reports no %s in one of the files\n", name, def.Name)
				return 2
			}
			v, worse := verdict(va, vb, def.Better != "higher", def.Bound)
			regressed = regressed || v == verdictRegressed
			fmt.Fprintf(stdout, "%-18s %-18s %14.4f %14.4f %8.1f%%  %s (bound %.0f%%)\n",
				name, def.Name, median(va), median(vb), 100*worse, v, 100*def.Bound)
		}
		// failed_frac has no bound: any rise is a regression.
		va, vb := values(&a, name, failedFrac), values(&b, name, failedFrac)
		if len(va) > 0 && len(vb) > 0 {
			v := verdictUnchanged
			switch ma, mb := median(va), median(vb); {
			case mb > ma:
				v, regressed = verdictRegressed, true
			case mb < ma:
				v = verdictImproved
			}
			fmt.Fprintf(stdout, "%-18s %-18s %14.6f %14.6f %9s  %s (any rise)\n", name, failedFrac, median(va), median(vb), "", v)
		}
	}
	if regressed {
		return 1
	}
	return 0
}
