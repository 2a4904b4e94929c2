package experiments

import (
	"fmt"
	"hash/fnv"
	"io"

	"ditto/internal/app"
	"ditto/internal/fault"
	"ditto/internal/platform"
	"ditto/internal/runner"
	"ditto/internal/sim"
)

// FigFPoint is one (scenario, variant) measurement of the resilience
// experiment: Social Network latency and error rate under injected faults,
// original versus clone.
type FigFPoint struct {
	Scenario string
	Variant  string
	P50Ms    float64
	P95Ms    float64
	P99Ms    float64
	Goodput  float64 // successful responses per second
	ErrRate  float64 // failed responses / received responses
	Dropped  uint64  // messages lost on faulted links
}

// FigFResult is the resilience-under-faults series.
type FigFResult struct {
	Points []FigFPoint
}

// figFScenario is one declarative fault scenario. Event times count eighths
// of the measurement window after warmup, so fault times scale with the
// window; targets are logical tier names, so one scenario addresses
// original and clone alike.
type figFScenario struct {
	name   string
	events []fault.Event
}

// figFScenarios is the scenario table (EXPERIMENTS.md documents it). All
// faults start at measure/8 into the window; recovery points differ so the
// tail of every window observes the healed system.
var figFScenarios = []figFScenario{
	{"baseline", nil},
	{"crash-cache", []fault.Event{
		{At: 1, Op: fault.OpCrash, Tiers: []string{"post-storage-memcached"}},
		{At: 4, Op: fault.OpRestart, Tiers: []string{"post-storage-memcached"}}}},
	{"crash-logic", []fault.Event{
		{At: 1, Op: fault.OpCrash, Tiers: []string{"compose-post-service"}},
		{At: 4, Op: fault.OpRestart, Tiers: []string{"compose-post-service"}}}},
	{"partition", []fault.Event{{At: 1, Op: fault.OpPartition}, {At: 4, Op: fault.OpHeal}}},
	{"loss2", []fault.Event{{At: 1, Op: fault.OpLoss, Loss: 0.02}, {At: 6, Op: fault.OpHeal}}},
	{"delay-spike", []fault.Event{{At: 1, Op: fault.OpDelay, Delay: 2 * sim.Millisecond}, {At: 4, Op: fault.OpHeal}}},
	{"slow-replica", []fault.Event{
		{At: 1, Op: fault.OpSlowCPU, Tiers: []string{"social-graph-service"}, Throttle: 0.35},
		{At: 6, Op: fault.OpHeal}}},
}

// resolve places the scenario's events in the windows and on d. The
// partition cuts the frontend's machine from the next machine in placement
// order — with round-robin placement this severs roughly half the
// deployment.
func (sc figFScenario) resolve(d *Deployment, win Windows) []fault.Event {
	var out []fault.Event
	for _, ev := range sc.events {
		ev.At = win.Warmup + win.Measure*ev.At/8
		if ev.Op == fault.OpPartition {
			if len(d.Order) < 2 {
				return nil
			}
			ev.Tiers, ev.TiersB = []string{d.Order[0]}, []string{d.Order[1]}
		}
		out = append(out, ev)
	}
	return out
}

// figFPolicy is the RPC resilience policy every tier runs under in the
// resilience experiment: per-attempt timeouts with two retries, hedging at
// half the timeout, a consecutive-failure breaker, and queue-delay shedding.
func figFPolicy() *app.Resilience {
	return &app.Resilience{
		Timeout:        10 * sim.Millisecond,
		Retries:        2,
		Backoff:        500 * sim.Microsecond,
		HedgeAfter:     5 * sim.Millisecond,
		BreakerFails:   10,
		BreakerOpenFor: 10 * sim.Millisecond,
		ShedAfter:      25 * sim.Millisecond,
	}
}

// linkSeed derives a deterministic per-cell loss-stream seed from the base
// seed and the cell's scenario/variant names (FNV-1a over the key).
func linkSeed(seed int64, parts ...string) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, seed)
	for _, p := range parts {
		h.Write([]byte(p))
	}
	return h.Sum64() | 1
}

// measureSNFault deploys the fault plane over d, drives it, and measures
// latency, goodput, and error rate over the post-warmup window.
func measureSNFault(d *Deployment, load Load, win Windows, sc figFScenario, seed uint64) FigFPoint {
	d.SetResilience(figFPolicy())
	fabric := fault.Interpose(d.Env.Cluster, d.Machines, seed)
	plane := fault.NewPlane(d.Env.Eng, fabric, d.Tiers)
	plane.Schedule(fault.Scenario{Name: sc.name, Events: sc.resolve(d, win)})

	g := d.startClient(load)
	d.Env.RunFor(win.Warmup)
	g.Reset()
	start := d.Env.Now()
	d.Env.RunFor(win.Measure)
	dur := (d.Env.Now() - start).Seconds()

	lat := g.Latency()
	received, failed := g.Received(), g.Failed()
	pt := FigFPoint{
		Scenario: sc.name,
		P50Ms:    lat.Percentile(50),
		P95Ms:    lat.Percentile(95),
		P99Ms:    lat.Percentile(99),
		Goodput:  float64(received-failed) / dur,
		Dropped:  fabric.Dropped(),
	}
	if received > 0 {
		pt.ErrRate = float64(failed) / float64(received)
	}
	return pt
}

// RunFigF measures clone fidelity under failure: the original Social Network
// and its fully synthetic clone run the same resilience policy through the
// same deterministic fault scenarios, comparing p50/p95/p99, goodput, and
// error rate. One prep cell clones the deployment fault-free; each
// (scenario, variant) point is an independent cell, so the report is
// byte-identical at any -parallel width.
func RunFigF(w io.Writer, opt Options, qps float64) FigFResult {
	f := newFigure("figF", opt)
	win := socialWindows(f.opt.Windows)
	if qps <= 0 {
		qps = 600
	}
	sn := f.multiTarget(runner.Key("figF", "clone"), newTarget("social", "figF",
		map[string]Load{"": {QPS: qps, Conns: 16, Mix: SNMix(), Seed: f.opt.Seed}}), "", win)
	f.p.Barrier()
	var cells []cellSpec
	for _, sc := range figFScenarios {
		for _, v := range variants {
			cells = append(cells, cellSpec{key: runner.Key("figF", sc.name, v), variant: v, tgt: sn,
				plat: platform.A(), cores: 8, nodes: snNodes, win: win, full: true,
				measure: func(d *Deployment, load Load, win Windows) any {
					return measureSNFault(d, load, win, sc, linkSeed(f.opt.Seed, sc.name, v))
				}})
		}
	}
	addCells(f, cells, func(c cellSpec, out cellOut) []FigFPoint {
		pt := out.point.(FigFPoint)
		pt.Variant = c.variant
		return []FigFPoint{pt}
	}, func(w io.Writer, pt FigFPoint) {
		row(w, "figF: %-12s %-9s p50=%.3f p95=%.3f p99=%.3f goodput=%.0f err=%.2f%% drops=%d",
			pt.Scenario, pt.Variant, pt.P50Ms, pt.P95Ms, pt.P99Ms,
			pt.Goodput, pt.ErrRate*100, pt.Dropped)
	})
	return FigFResult{Points: rowsOf[FigFPoint](f.run(w, "figF: scenario variant p50 p95 p99 goodput err% drops"))}
}
