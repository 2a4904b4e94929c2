package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"ditto/internal/sim"
)

// TestFigureOutputIdenticalAcrossPoolWidths is the tentpole determinism
// guarantee: a figure produces byte-identical output and identical results at
// -parallel 1 and -parallel 8. Every cell owns its engine and all mutable
// state, and the runner flushes buffered cell output in plan order, so pool
// width must be unobservable.
func TestFigureOutputIdenticalAcrossPoolWidths(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline run; skipped in -short")
	}
	run := func(parallel int) ([]byte, Fig6Result) {
		opt := Options{
			Windows:   Windows{Warmup: 10 * sim.Millisecond, Measure: 50 * sim.Millisecond},
			TuneIters: 0,
			Seed:      3,
			Parallel:  parallel,
		}
		var buf bytes.Buffer
		res := RunFig6(&buf, opt, []float64{150, 400})
		return buf.Bytes(), res
	}
	outSerial, resSerial := run(1)
	outWide, resWide := run(8)
	if len(resSerial.Points) == 0 {
		t.Fatal("serial run produced no points")
	}
	checkGolden(t, outSerial)
	if !bytes.Equal(outSerial, outWide) {
		t.Fatalf("output differs between -parallel 1 and -parallel 8:\n--- parallel=1 ---\n%s\n--- parallel=8 ---\n%s",
			outSerial, outWide)
	}
	if !reflect.DeepEqual(resSerial, resWide) {
		t.Fatalf("results differ between pool widths:\n%+v\nvs\n%+v", resSerial, resWide)
	}
}

// TestFigFOutputIdenticalAcrossPoolWidths extends the determinism guarantee
// to the fault-injection figure: chaos-plane events (crashes, partitions,
// seeded packet loss, CPU throttling) and the resilience layer's retries,
// hedges, and breaker trips must replay byte-identically at any pool width.
func TestFigFOutputIdenticalAcrossPoolWidths(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline run; skipped in -short")
	}
	run := func(parallel int) ([]byte, FigFResult) {
		opt := Options{
			Windows:   Windows{Warmup: 10 * sim.Millisecond, Measure: 50 * sim.Millisecond},
			TuneIters: 0,
			Seed:      3,
			Parallel:  parallel,
		}
		var buf bytes.Buffer
		res := RunFigF(&buf, opt, 600)
		return buf.Bytes(), res
	}
	outSerial, resSerial := run(1)
	outWide, resWide := run(8)
	if len(resSerial.Points) < 12 {
		t.Fatalf("serial run produced %d points, want >= 12 (6+ scenarios x 2 variants)",
			len(resSerial.Points))
	}
	checkGolden(t, outSerial)
	if !bytes.Equal(outSerial, outWide) {
		t.Fatalf("figF output differs between -parallel 1 and -parallel 8:\n--- parallel=1 ---\n%s\n--- parallel=8 ---\n%s",
			outSerial, outWide)
	}
	if !reflect.DeepEqual(resSerial, resWide) {
		t.Fatalf("figF results differ between pool widths:\n%+v\nvs\n%+v", resSerial, resWide)
	}
	faulted := 0
	for _, pt := range resSerial.Points {
		if pt.Scenario != "baseline" && (pt.ErrRate > 0 || pt.Dropped > 0 || pt.P99Ms > 0) {
			faulted++
		}
	}
	if faulted == 0 {
		t.Fatal("no fault scenario produced any observable effect")
	}
}
