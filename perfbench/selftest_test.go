package main

import "testing"

// TestSelfCheck runs the benchmark's arithmetic checks, the same ones
// -selftest runs.
func TestSelfCheck(t *testing.T) {
	for _, f := range selfCheck() {
		t.Error(f)
	}
}
