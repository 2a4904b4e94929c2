// Command perfbench is the repository's clone-and-validate benchmark. For
// one workload and seed it runs the whole Ditto pipeline — profile the
// original, generate the clone, measure original and clone under the same
// load — through the public API of internal/experiments, internal/profile
// and internal/core, and reports host-time and fidelity metrics. With
// -trace 1 it instead reports per-layer metrics from a traced run.
//
// Every pipeline iteration runs in a fresh child process, so peak memory is
// that of one iteration. The parent repeats iterations for -seconds,
// reports trimmed means, checks that every iteration produced the same
// simulated results, and prints one JSON object as its last line of output.
// See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed the benchmark runs at when none is given;
// heldOutSeed is kept out of tuning and must give a different digest.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

// gcLimit is the heap size at which an iteration collects garbage inside a
// phase after all, to stay clear of the host's memory.
const gcLimit = 2 << 30

// minIterations is the fewest timed iterations a run makes, however long
// they take.
const minIterations = 2

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	child    bool
	spans    string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", defaultSeed, "seed the workload's inputs are made from")
	flag.Float64Var(&o.seconds, "seconds", 40, "host seconds to repeat iterations for")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.BoolVar(&o.child, "child", false, "run one iteration and print it as JSON (internal)")
	flag.StringVar(&o.spans, "spans", "", "where a traced run writes its spans (default .bench_build/perfbench/spans-<workload>-<seed>.json)")
	flag.Parse()
	// The simulation is single-threaded, but its simulated threads are
	// goroutines that hand off over channels. With a second P, handoffs
	// wake spinning threads on the other core: an nginx-full iteration
	// took 3.9 s of CPU time instead of 2.8 s on a 2-vCPU host, and how
	// much more depended on what other tenants ran on that core. One P
	// keeps the handoffs on one thread, in the iterations and in the
	// calibration kernel alike.
	runtime.GOMAXPROCS(1)

	w, err := lookupWorkload(o.workload)
	if err == nil && o.trace != 0 && o.trace != 1 {
		err = fmt.Errorf("-trace must be 0 or 1, not %d", o.trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if o.child {
		err = runChild(os.Stdout, w, o.seed, o.trace == 1)
	} else {
		err = runParent(os.Stdout, w, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runChild runs one pipeline iteration and writes it as one JSON line.
func runChild(out io.Writer, w workload, seed int64, traced bool) error {
	// Garbage is collected at the pipeline's phase boundaries and nowhere
	// else unless the heap nears gcLimit, so an iteration's peak memory is
	// a function of the code and the seed: the most any phase holds live
	// plus allocates. Under the default pacer it also depended on when
	// collections happened to start, ±20 % from one iteration to the next.
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(gcLimit)
	p := &pipeline{w: w, seed: seed}
	if traced {
		p.tr = newTracer(fmt.Sprintf("%s/seed%d/pid%d", w.name, seed, os.Getpid()))
		p.capture = &capture{budget: captureBudget}
	}
	it := p.run()
	if traced {
		pipelineSpans := p.tr.spans
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		// The original's window once more, with no profiler and no
		// observer: what the profile window costs without profiling.
		var base window
		p.tr.do("phase.profile_baseline", func() {
			base = p.validate(func() *deployment { return w.deployOriginal(modelSeed) }, "profile.baseline_window", false, nil)
		})
		var replay map[string]float64
		p.tr.do("phase.replay", func() { replay = p.replays() })
		it.Layers, it.Notes = p.layerMetrics(it, pipelineSpans, replay, base.Measure.CPU.Seconds(), mem)
		it.Spans = p.tr.spans
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	it.PeakRSSMB = rss
	return json.NewEncoder(out).Encode(it)
}

// peakRSSMB reads this process's peak resident set size.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// spawn runs one iteration in a child process and waits for it to end.
func spawn(w workload, seed int64, traced bool) (*iteration, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(self, "-child", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10), "-trace", tr)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("iteration of %s at seed %d: %w", w.name, seed, err)
	}
	var it iteration
	if err := json.Unmarshal(stdout.Bytes(), &it); err != nil {
		return nil, fmt.Errorf("iteration of %s at seed %d: %w", w.name, seed, err)
	}
	return &it, nil
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runParent repeats iterations for o.seconds, checks them and prints the
// metrics of o.trace's kind.
func runParent(out io.Writer, w workload, o options) error {
	var timed, traced []*iteration
	var cal []float64 // CPU seconds of each calibration pass
	calibrateHost := func() {
		took, _ := calibrate()
		cal = append(cal, took.Seconds())
	}
	start := time.Now()
	for {
		calibrateHost()
		it, err := spawn(w, o.seed, false)
		if err != nil {
			return err
		}
		timed = append(timed, it)
		if o.trace == 1 {
			it, err := spawn(w, o.seed, true)
			if err != nil {
				return err
			}
			traced = append(traced, it)
		}
		// Stop once another iteration would overrun the time budget.
		elapsed := time.Since(start).Seconds()
		per := elapsed / float64(len(timed))
		if o.trace == 1 || len(timed) >= minIterations {
			if elapsed+per > o.seconds {
				break
			}
		}
	}
	calibrateHost()
	// slowness is how much slower than the reference speed the host ran
	// during this run.
	slowness := trimmedMean(cal, trimShare) / calibrationRef.Seconds()

	all := append(append([]*iteration(nil), timed...), traced...)
	failures := check(all)
	attempted, failed := requests(all)
	res := result{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}

	fmt.Fprintf(out, "perfbench: workload=%s seed=%d iterations=%d traced=%d digest=%s\n",
		w.name, o.seed, len(timed), len(traced), timed[0].Digest)
	fmt.Fprintf(out, "  calibration: %d passes, trimmed mean %.4f s, reference %.4f s, host slowness %.4f\n",
		len(cal), trimmedMean(cal, trimShare), calibrationRef.Seconds(), slowness)
	for i, it := range all {
		fmt.Fprintf(out, "  iteration %d: traced=%t run_cpu_s=%.3f clone_cpu_s=%.3f setup_s=%.3f sim_mips=%.3f wall_s=%.3f measure_wall_s=%.3f peak_rss_mb=%.1f\n",
			i, it.Layers != nil, it.Run.CPU.Seconds(), it.ClonePhase.CPU.Seconds(), it.Setup.CPU.Seconds(),
			simMIPS(it), it.Run.Wall.Seconds(), (it.Orig.Measure.Wall + it.Clone.Measure.Wall).Seconds(), it.PeakRSSMB)
	}
	if o.trace == 0 {
		for _, m := range endToEnd(timed, slowness) {
			fmt.Fprintf(out, "  %-14s %14.6g %s\n", m.name, m.value, m.unit)
			if m.reported {
				res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
			}
			if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
				failures = append(failures, fmt.Sprintf("%s is not finite", m.name))
			}
		}
	} else {
		layers, notes := perLayer(timed, traced)
		for _, name := range layerNames() {
			v, ok := layers[name]
			if !ok {
				failures = append(failures, fmt.Sprintf("per-layer metric %s missing", name))
				continue
			}
			res.Metrics[name] = metric{Value: v, Unit: layerUnits[name]}
			fmt.Fprintf(out, "  %-28s %14.6g %-6s %s\n", name, v, layerUnits[name], notes[name])
		}
		if err := writeSpans(o, w, traced); err != nil {
			return err
		}
	}
	for name := range res.Metrics {
		if !validName(name) {
			failures = append(failures, fmt.Sprintf("metric name %q breaks the grammar", name))
		}
	}
	for _, f := range failures {
		fmt.Fprintln(out, "CHECK FAILED:", f)
	}
	res.Correct = len(failures) == 0
	enc, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(enc))
	if !res.Correct {
		return fmt.Errorf("%d output check(s) failed", len(failures))
	}
	return nil
}

// requests totals simulated requests sent and failed over every window.
func requests(its []*iteration) (sent, failed int) {
	for _, it := range its {
		sent += it.ProfSent + it.Orig.Sent + it.Clone.Sent
		failed += it.ProfFailed + it.Orig.Failed + it.Clone.Failed
	}
	return sent, failed
}

// check applies the output checks to every iteration of a run.
func check(its []*iteration) []string {
	var bad []string
	for i, it := range its {
		if it.Digest != its[0].Digest {
			bad = append(bad, fmt.Sprintf("iteration %d digest %s differs from %s", i, it.Digest, its[0].Digest))
		}
		conns := it.Orig.Conns
		if err := balance("profile", it.ProfSent, it.ProfReceived, conns); err != "" {
			bad = append(bad, err)
		}
		for _, v := range []struct {
			name string
			w    window
		}{{"original", it.Orig}, {"clone", it.Clone}} {
			if err := balance(v.name, v.w.LifeSent, v.w.LifeReceived, v.w.Conns); err != "" {
				bad = append(bad, err)
			}
			if v.w.OK < 200 {
				bad = append(bad, fmt.Sprintf("%s: %d completed requests leave fewer than 10 beyond p95", v.name, v.w.OK))
			}
		}
		f := fidelityOf(it.Orig, it.Clone)
		for _, x := range []float64{f.CPU, f.P95, f.Tput, f.IO} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				bad = append(bad, fmt.Sprintf("iteration %d: fidelity metric not finite: %+v", i, f))
				break
			}
		}
	}
	return bad
}

// balance checks that every request sent was received (completed or
// failed) or is still in flight, with no more in flight than connections.
// received counts failed responses too.
func balance(name string, sent, received, conns int) string {
	inflight := sent - received
	if inflight < 0 || inflight > conns {
		return fmt.Sprintf("%s: requests do not balance: sent %d, received %d, %d in flight over %d connections",
			name, sent, received, inflight, conns)
	}
	return ""
}

// e2eMetric is one end-to-end metric of a run.
type e2eMetric struct {
	name, unit string
	value      float64
	reported   bool // on the result line; the rest are printed only
}

// endToEnd computes the end-to-end metrics as trimmed means over
// iterations. Host times are measured in process CPU time and reported
// scaled to the calibration kernel's reference speed: divided by the run's
// slowness, and sim_mips multiplied by it. The unscaled CPU times and the
// wall-clock ones are printed beside them.
//
// On a shared host one iteration's host time takes one of two levels, the
// slower up to half again the faster, depending on what other tenants run
// beside it; the mix of the two shifts over minutes. A median jumps between the levels as their shares
// cross one half, while a mean moves with the shares: over consecutive
// runs of ten nginx-full iterations, the mean's spread from run to run was
// 0.08–0.11 against the median's 0.10–0.16. Trimming the fastest and
// slowest tenth keeps one stalled iteration from moving it.
func endToEnd(its []*iteration, slowness float64) []e2eMetric {
	avg := func(f func(it *iteration) float64) float64 {
		xs := make([]float64, len(its))
		for i, it := range its {
			xs[i] = f(it)
		}
		return trimmedMean(xs, trimShare)
	}
	fid := func(it *iteration) fidelity { return fidelityOf(it.Orig, it.Clone) }
	sent, failed := requests(its)
	runCPU := avg(func(it *iteration) float64 { return it.Run.CPU.Seconds() })
	cloneCPU := avg(func(it *iteration) float64 { return it.ClonePhase.CPU.Seconds() })
	setupCPU := avg(func(it *iteration) float64 { return it.Setup.CPU.Seconds() })
	mips := avg(simMIPS)
	ms := []e2eMetric{
		{name: "run_cpu_s", unit: "s", reported: true, value: runCPU / slowness},
		{name: "clone_cpu_s", unit: "s", reported: true, value: cloneCPU / slowness},
		{name: "setup_s", unit: "s", reported: true, value: setupCPU / slowness},
		{name: "sim_mips", unit: "Minstr/s", reported: true, value: mips * slowness},
		{name: "peak_rss_mb", unit: "MB", reported: true, value: avg(func(it *iteration) float64 { return it.PeakRSSMB })},
		{name: "run_cpu_raw_s", unit: "s", value: runCPU},
		{name: "clone_cpu_raw_s", unit: "s", value: cloneCPU},
		{name: "setup_raw_s", unit: "s", value: setupCPU},
		{name: "sim_mips_raw", unit: "Minstr/s", value: mips},
		{name: "wall_s", unit: "s", value: avg(func(it *iteration) float64 { return it.Run.Wall.Seconds() })},
		{name: "clone_s", unit: "s", value: avg(func(it *iteration) float64 { return it.ClonePhase.Wall.Seconds() })},
		{name: "setup_wall_s", unit: "s", value: avg(func(it *iteration) float64 { return it.Setup.Wall.Seconds() })},
		{name: "cpu_err_pct", unit: "%", value: avg(func(it *iteration) float64 { return fid(it).CPU })},
		{name: "p95_err_pct", unit: "%", value: avg(func(it *iteration) float64 { return fid(it).P95 })},
		{name: "tput_err_pct", unit: "%", value: avg(func(it *iteration) float64 { return fid(it).Tput })},
		{name: "failed_frac", unit: "1", value: float64(failed) / float64(sent)},
	}
	if fid(its[0]).HasIO {
		ms = append(ms, e2eMetric{name: "io_err_pct", unit: "%", value: avg(func(it *iteration) float64 { return fid(it).IO })})
	}
	return ms
}

// simMIPS is the simulated instructions the server processes retired in
// both validation windows per host CPU second those windows took, in
// millions.
func simMIPS(it *iteration) float64 {
	return float64(it.Orig.Server.Instrs+it.Clone.Server.Instrs) / (it.Orig.Measure.CPU + it.Clone.Measure.CPU).Seconds() / 1e6
}

// perLayer takes each per-layer metric's median over the traced iterations
// and adds the tracing overhead: the traced pipeline's host CPU time minus
// the untraced one's.
func perLayer(timed, traced []*iteration) (map[string]float64, map[string]string) {
	out := map[string]float64{}
	notes := map[string]string{}
	for _, name := range layerNames() {
		var xs []float64
		for _, it := range traced {
			if v, ok := it.Layers[name]; ok {
				xs = append(xs, v)
			}
			if n := it.Notes[name]; n != "" {
				notes[name] = n
			}
		}
		if len(xs) > 0 {
			out[name] = median(xs)
		}
	}
	run := func(its []*iteration) float64 {
		xs := make([]float64, len(its))
		for i, it := range its {
			xs[i] = it.Run.CPU.Seconds()
		}
		return median(xs)
	}
	out["trace.overhead_s"] = run(traced) - run(timed)
	return out, notes
}

// layerNames lists the per-layer metrics in report order.
func layerNames() []string {
	names := make([]string, 0, len(layerUnits))
	for n := range layerUnits {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// layerUnits is every per-layer metric with its unit.
var layerUnits = map[string]string{
	"experiments.deploy_s":        "s",
	"experiments.warmup_s":        "s",
	"experiments.shutdown_s":      "s",
	"app.measure_s":               "s",
	"synth.measure_s":             "s",
	"cpu.instrs":                  "count",
	"cpu.kernel_instrs":           "count",
	"cpu.replay_ns_per_instr":     "ns",
	"cpu.decode_ns_per_instr":     "ns",
	"cpu.est_share":               "1",
	"cache.l1i_acc":               "count",
	"cache.l1d_acc":               "count",
	"cache.l2_acc":                "count",
	"cache.llc_acc":               "count",
	"cache.mem_acc":               "count",
	"cache.replay_ns_per_access":  "ns",
	"cache.est_share":             "1",
	"branch.branches":             "count",
	"branch.replay_ns_per_branch": "ns",
	"profile.run_s":               "s",
	"profile.overhead_s":          "s",
	"profile.finish_s":            "s",
	"profile.observed_instrs":     "count",
	"profile.wss_ns_per_access":   "ns",
	"core.generate_s":             "s",
	"core.topology_s":             "s",
	"steady.modeled_frac":         "1",
	"steady.warmup_sim_ms":        "ms",
	"sim.events":                  "count",
	"sim.ns_per_event":            "ns",
	"kernel.syscalls":             "count",
	"kernel.fsyncs":               "count",
	"kernel.pagecache_hits":       "count",
	"kernel.pagecache_misses":     "count",
	"netsim.bytes":                "B",
	"disk.ops":                    "count",
	"disk.bytes":                  "B",
	"disk.busy_frac":              "1",
	"dtrace.spans":                "count",
	"loadgen.sent":                "count",
	"loadgen.received":            "count",
	"loadgen.failed":              "count",
	"loadgen.host_us_per_req":     "us",
	"go.alloc_mb":                 "MB",
	"go.gc_cycles":                "count",
	"trace.overhead_s":            "s",
}

// writeSpans writes every traced iteration's spans as one JSON array.
func writeSpans(o options, w workload, traced []*iteration) error {
	path := o.spans
	if path == "" {
		path = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.json", w.name, o.seed))
	}
	var all []span
	for _, it := range traced {
		all = append(all, it.Spans...)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	enc, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
