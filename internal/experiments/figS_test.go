package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"ditto/internal/sim"
)

// figSRun executes the storage figure with the given pool and intra widths
// and returns its bytes and results.
func figSRun(parallel, intra int) ([]byte, FigSResult) {
	opt := Options{
		Windows:       Windows{Warmup: 10 * sim.Millisecond, Measure: 50 * sim.Millisecond},
		TuneIters:     0,
		Seed:          3,
		Parallel:      parallel,
		IntraParallel: intra,
	}
	var buf bytes.Buffer
	res := RunFigS(&buf, opt, 0)
	return buf.Bytes(), res
}

// TestFigSOutputIdenticalAcrossPoolWidths extends the byte-identical
// determinism guarantee to the storage family: WAL fsync parking, dirty-page
// writeback, block-cache state, and LSM flush/compaction scheduling must all
// replay identically when cells run on a wide worker pool.
func TestFigSOutputIdenticalAcrossPoolWidths(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline run; skipped in -short")
	}
	outSerial, resSerial := figSRun(1, 0)
	if len(resSerial.Points) != 6 {
		t.Fatalf("serial run produced %d points, want 6 (3 backends x 2 variants)",
			len(resSerial.Points))
	}
	checkGolden(t, outSerial)
	for _, pt := range resSerial.Points {
		if pt.Throughput == 0 || pt.DiskWriteBW == 0 {
			t.Fatalf("figS %s/%s served no storage traffic: %+v", pt.Backend, pt.Variant, pt)
		}
	}
	outWide, resWide := figSRun(8, 0)
	if !bytes.Equal(outSerial, outWide) {
		t.Fatalf("figS output differs between -parallel 1 and -parallel 8:\n--- parallel=1 ---\n%s\n--- parallel=8 ---\n%s",
			outSerial, outWide)
	}
	if !reflect.DeepEqual(resSerial, resWide) {
		t.Fatalf("figS results differ between pool widths:\n%+v\nvs\n%+v", resSerial, resWide)
	}
}

// TestFigSOutputIdenticalAcrossIntraWidths checks the storage figure on the
// sharded engine: the blob backend's cross-machine traffic and every
// machine's private disk and page-cache state must be unobservable to the
// number of shard workers.
func TestFigSOutputIdenticalAcrossIntraWidths(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline run; skipped in -short")
	}
	outSerial, resSerial := figSRun(2, 1)
	if len(resSerial.Points) != 6 {
		t.Fatalf("intra=1 run produced %d points, want 6", len(resSerial.Points))
	}
	checkGolden(t, outSerial)
	for _, intra := range []int{8} {
		out, res := figSRun(2, intra)
		if !bytes.Equal(outSerial, out) {
			t.Fatalf("figS output differs between -intra-parallel 1 and %d:\n--- intra=1 ---\n%s\n--- intra=%d ---\n%s",
				intra, outSerial, intra, out)
		}
		if !reflect.DeepEqual(resSerial, res) {
			t.Fatalf("figS results differ between intra widths 1 and %d:\n%+v\nvs\n%+v",
				intra, resSerial, res)
		}
	}
}
