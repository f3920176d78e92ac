package main

import "testing"

// FuzzParseBatchesCSV feeds arbitrary query strings to the /predict/batch
// batches parser (seed corpus under testdata/fuzz): it must never panic,
// and any list it accepts is non-empty, within maxSweepPoints and all
// positive.
func FuzzParseBatchesCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, csv string) {
		out, err := parseBatchesCSV(csv)
		if err != nil {
			return
		}
		if len(out) == 0 || len(out) > maxSweepPoints {
			t.Fatalf("parseBatchesCSV(%q) accepted %d points", csv, len(out))
		}
		for _, b := range out {
			if b <= 0 {
				t.Fatalf("parseBatchesCSV(%q) accepted batch %d", csv, b)
			}
		}
	})
}
