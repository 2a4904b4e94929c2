package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"ditto/internal/sim"
)

// TestFigureOutputIdenticalAcrossIntraWidths is the sharded engine's
// determinism guarantee: a figure whose cells run on a sharded World
// produces byte-identical output and identical results at every
// -intra-parallel width ≥ 1. Width 1 executes every window serially, so the
// wider runs are checked against a serial reference — shard workers must be
// unobservable, exactly like the cell pool in
// TestFigureOutputIdenticalAcrossPoolWidths.
func TestFigureOutputIdenticalAcrossIntraWidths(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline run; skipped in -short")
	}
	run := func(intra int) ([]byte, Fig6Result) {
		opt := Options{
			Windows:       Windows{Warmup: 10 * sim.Millisecond, Measure: 50 * sim.Millisecond},
			TuneIters:     0,
			Seed:          3,
			Parallel:      2,
			IntraParallel: intra,
		}
		var buf bytes.Buffer
		res := RunFig6(&buf, opt, []float64{150, 400})
		return buf.Bytes(), res
	}
	outSerial, resSerial := run(1)
	if len(resSerial.Points) == 0 {
		t.Fatal("intra=1 run produced no points")
	}
	checkGolden(t, outSerial)
	for _, intra := range []int{2, 8} {
		out, res := run(intra)
		if !bytes.Equal(outSerial, out) {
			t.Fatalf("output differs between -intra-parallel 1 and %d:\n--- intra=1 ---\n%s\n--- intra=%d ---\n%s",
				intra, outSerial, intra, out)
		}
		if !reflect.DeepEqual(resSerial, res) {
			t.Fatalf("results differ between intra widths 1 and %d:\n%+v\nvs\n%+v",
				intra, resSerial, res)
		}
	}
}
