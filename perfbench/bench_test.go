package main

import (
	"math"
	"testing"

	"ditto/internal/sim"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1}, 2},
		{[]float64{5, 1, 4}, 4},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Error("median reordered its input")
	}
}

func TestTrimmedMean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1}, 2},
		{[]float64{9, 1, 2, 3, 4, 5, 6, 7, 8, 100}, 5.5},                            // one trimmed from each end
		{[]float64{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 50}, 2}, // ten per cent of 20: two each end
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := trimmedMean(c.xs, trimShare); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("trimmedMean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(trimmedMean(nil, trimShare)) {
		t.Error("trimmed mean of nothing is not NaN")
	}
	xs := []float64{3, 1, 2}
	trimmedMean(xs, trimShare)
	if xs[0] != 3 || xs[1] != 1 {
		t.Error("trimmedMean reordered its input")
	}
}

// The calibration kernel must do the same work on every pass, or scaling
// by it would add noise instead of removing it.
func TestCalibrationIsFixedWork(t *testing.T) {
	d1, sum1 := calibrate()
	d2, sum2 := calibrate()
	if sum1 != sum2 {
		t.Errorf("checksums differ: %d, %d", sum1, sum2)
	}
	if d1 <= 0 || d2 <= 0 {
		t.Errorf("pass times %v, %v are not positive", d1, d2)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4), whose
// first and third cut points the spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3.1, 0.5, 2.2}, 0.5, 3.1},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 2, 7},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestMetricNameGrammar(t *testing.T) {
	for _, ok := range []string{"wall_s", "cpu.replay_ns_per_instr", "go.alloc_mb", "p95-err", "9lives"} {
		if !validName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "µs", "x\n", string(make([]byte, 65))} {
		if validName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	for _, name := range layerNames() {
		if !validName(name) {
			t.Errorf("per-layer metric %q breaks the grammar", name)
		}
	}
	for _, m := range endToEnd([]*iteration{{Orig: window{SimS: 1}, Clone: window{SimS: 1}}}, 1) {
		if !validName(m.name) {
			t.Errorf("end-to-end metric %q breaks the grammar", m.name)
		}
	}
}

// tiny is nginx-full shrunk to a few simulated milliseconds.
func tiny(t *testing.T) workload {
	w, err := lookupWorkload("nginx-full")
	if err != nil {
		t.Fatal(err)
	}
	w.warmup = sim.Millisecond
	w.measure = 2 * sim.Millisecond
	return w
}

func TestDigestStable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline four times")
	}
	w := tiny(t)
	a := (&pipeline{w: w, seed: defaultSeed}).run()
	b := (&pipeline{w: w, seed: defaultSeed}).run()
	if a.Digest != b.Digest {
		t.Fatalf("two runs at seed %d: digests %s and %s", defaultSeed, a.Digest, b.Digest)
	}
	// Observers and span recording must not change simulated results.
	traced := &pipeline{w: w, seed: defaultSeed, tr: newTracer("test"), capture: &capture{budget: 1000}}
	if c := traced.run(); c.Digest != a.Digest {
		t.Fatalf("traced digest %s differs from untraced %s", c.Digest, a.Digest)
	}
	if len(traced.tr.spans) == 0 || traced.capture.n == 0 {
		t.Fatal("traced run recorded no spans or captured no instructions")
	}
	if h := (&pipeline{w: w, seed: heldOutSeed}).run(); h.Digest == a.Digest {
		t.Fatalf("held-out seed %d gives the default seed's digest", heldOutSeed)
	}
}

func TestBalance(t *testing.T) {
	if balance("x", 10, 8, 2) != "" {
		t.Error("2 in flight over 2 connections rejected")
	}
	if balance("x", 10, 7, 2) == "" {
		t.Error("3 in flight over 2 connections accepted")
	}
	if balance("x", 10, 11, 2) == "" {
		t.Error("more received than sent accepted")
	}
}
