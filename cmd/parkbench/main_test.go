package main

import "testing"

// Every B-series experiment must run to completion in quick mode and
// pass its built-in shape checks.
func TestAllBenchExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("bench harness runs take a few seconds")
	}
	runs := map[string]func(bool) error{
		"B1":  runB1,
		"B2":  runB2,
		"B3":  runB3,
		"B4":  runB4,
		"B5":  runB5,
		"B6":  runB6,
		"B7":  runB7,
		"B8":  runB8,
		"B9":  runB9,
		"B11": runB11,
		"B12": runB12,
		"B14": runB14,
	}
	for id, run := range runs {
		id, run := id, run
		t.Run(id, func(t *testing.T) {
			if err := run(true); err != nil {
				t.Fatal(err)
			}
		})
	}
}
