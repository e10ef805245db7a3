// Command perfbench is the repository's benchmark of the served store: a
// 3-replica cluster in one process, wired as `crdtsmrd serve` wires it,
// under a closed loop of 32 callers through one pooled client.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload read-mostly --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics of a traced run and writes its spans under .bench_build/spans.
// Every run checks the store's answers and exits non-zero, printing no
// metrics, if any check fails. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
)

var epoch = time.Now()

// now is the one clock of a run: ns since start, monotonic, shared by the
// generator and every traced seam so their spans compare.
func now() int64 { return int64(time.Since(epoch)) }

type runConfig struct {
	seed    uint64
	window  time.Duration // measured time; a traced run splits it between its untraced and traced halves
	warmup  time.Duration
	setups  int
	scale   int    // >1 shrinks the workload (the benchmark's own tests)
	workDir string // scratch files of the persist micro phase, removed at exit
	spans   string // where a traced run writes its spans; "" skips
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	time.AfterFunc(runLimit, func() { stuck(os.Stderr) })
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// phase names what the run is doing, for the report of a stuck run.
var phase atomic.Value

func setPhase(p string) { phase.Store(p) }

// stuck ends a run that is still going at runLimit: it writes every
// goroutine's stack and, last, the phase the run was in, then exits
// non-zero without a result.
func stuck(stderr io.Writer) {
	buf := make([]byte, 8<<20)
	buf = buf[:runtime.Stack(buf, true)]
	fmt.Fprintf(stderr, "%s\nperfbench: still running after %v, in phase %v; goroutines above\n", buf, runLimit, phase.Load())
	os.Exit(3)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "seed of keys and operations")
	seconds := fs.Float64("seconds", 30, "measured seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	sha := fs.String("sha", "unknown", "git commit of the measured tree, recorded with the result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	workDir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(workDir)
	cfg := runConfig{
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		warmup:  warmupPeriod,
		setups:  setupRounds,
		workDir: workDir,
		spans:   filepath.Join(".bench_build", "spans", w.name+".tsv.gz"),
	}
	var res result
	var extra map[string]any
	if *trace == 1 {
		res, extra, err = runTraced(w, cfg)
	} else {
		res, extra, err = runUntraced(w, cfg)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	report := map[string]any{
		"workload":         w.name,
		"why":              w.why,
		"seed":             *seed,
		"seconds":          *seconds,
		"trace":            *trace,
		"git_sha":          *sha,
		"go_version":       runtime.Version(),
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"replicas":         len(nodeIDs),
		"shards":           shards,
		"closed_loop":      fmt.Sprintf("%d callers, each waiting for its reply", callers),
		"client_conns":     2 * poolPerAddr,
		"injected_delay":   injected,
		"flush_emulation":  fmt.Sprintf("none in the cluster (no data directory); the persist micro phase uses SyncAlways with a %v WriteDelay standing in for fsync", microFlush),
		"latency_includes": "processor time and loopback only",
	}
	for k, v := range extra {
		report[k] = v
	}
	line, _ := json.Marshal(map[string]any{"perfbench": report}) // plain maps of numbers and strings
	fmt.Fprintln(stdout, string(line))
	line, _ = json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runUntraced measures the end-to-end metrics: setups boots (set-up time
// is their median), then the load on the last cluster.
func runUntraced(w workload, cfg runConfig) (result, map[string]any, error) {
	w = w.scale(cfg.scale)
	var setup []float64
	var h *harness
	for i := range cfg.setups {
		// Each set-up starts from a collected heap, so the garbage of the
		// previous round's teardown is not charged to it.
		runtime.GC()
		setPhase(fmt.Sprintf("set-up %d of %d", i+1, cfg.setups))
		t := time.Now()
		var err error
		h, err = boot(w, cfg.seed, nil)
		if err != nil {
			return result{}, nil, err
		}
		setup = append(setup, time.Since(t).Seconds())
		if i < cfg.setups-1 {
			setPhase(fmt.Sprintf("close after set-up %d", i+1))
			h.close()
		}
	}
	defer h.close()
	lr, err := runLoad(h, cfg, false)
	if err != nil {
		return result{}, nil, err
	}
	e2e, samples, att, failed := endToEndMetrics(lr)
	if err := checkRun(h, lr); err != nil {
		return result{}, nil, err
	}
	// The history is the benchmark's, not the store's: drop it before
	// measuring the live heap.
	lr.recs = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e2e["heap_live_mb"] = float64(ms.HeapAlloc) / 1e6
	e2e["setup_s"] = median(setup)
	res := result{Correct: true, Attempted: att, Failed: failed, Metrics: map[string]metric{}}
	all := map[string]metric{"failed_frac": {ratio(float64(failed), float64(att)), "fraction"}}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{e2e[m.name], m.unit}
		all[m.name] = res.Metrics[m.name]
	}
	return res, map[string]any{"end_to_end": all, "setup_s_samples": setup, "latency_samples": samples, "steal_frac": stealFrac(lr)}, nil
}

// loadResult is one measured window: the whole history from the start of
// the warm-up, and the process and protocol state at both window edges.
type loadResult struct {
	recs []opRec
	a, b snapshot
	cuts []snapshot // clocks at the slice edges, a first and b last
}

type snapshot struct {
	t             int64
	cpu           time.Duration
	mallocs       uint64
	gcCPU, allCPU float64
	steal, ticks  uint64 // host CPU ticks stolen by the hypervisor, and all ticks
	counters      core.Counters
	shed          uint64
}

func takeClock(s *snapshot) {
	s.t = now()
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs = ms.Mallocs
	cpu := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(cpu)
	s.gcCPU, s.allCPU = cpu[0].Value.Float64(), cpu[1].Value.Float64()
	s.steal, s.ticks = readSteal()
}

// readSteal returns the machine's stolen and total CPU ticks from the
// first line of /proc/stat, or zeros where there is none.
func readSteal() (steal, ticks uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user and nice.
	for i, x := range f[1:9] {
		v, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return 0, 0
		}
		ticks += v
		if i == 7 {
			steal = v
		}
	}
	return steal, ticks
}

// stealFrac is the share of the machine's CPU time the hypervisor took
// from it during the measured windows, reported with each result so
// that runs on a contended host can be told from regressions. It is -1
// where the host does not report steal.
func stealFrac(lrs ...*loadResult) float64 {
	var steal, ticks uint64
	for _, lr := range lrs {
		steal += lr.b.steal - lr.a.steal
		ticks += lr.b.ticks - lr.a.ticks
	}
	if ticks == 0 {
		return -1
	}
	return float64(steal) / float64(ticks)
}

// takeCounters reads the protocol counters through every shard's event
// loop, so it runs outside the timed edges of the window.
func (h *harness) takeCounters(s *snapshot) {
	s.counters, s.shed = h.counters(), h.shed()
}

// runLoad warms up, then measures for window (with probes and tracing in
// traced runs), then stops the callers.
func runLoad(h *harness, cfg runConfig, probes bool) (*loadResult, error) {
	g := &generator{h: h, seed: cfg.seed, probes: probes}
	setPhase("warm-up")
	g.start()
	time.Sleep(cfg.warmup)
	lr := &loadResult{}
	h.takeCounters(&lr.a)
	if h.tr != nil {
		h.tr.on.Store(true)
	}
	takeClock(&lr.a)
	setPhase("measured window")
	lr.cuts = append(lr.cuts, lr.a)
	for i := 1; i < windowSlices; i++ {
		time.Sleep(cfg.window / windowSlices)
		var c snapshot
		takeClock(&c)
		lr.cuts = append(lr.cuts, c)
	}
	time.Sleep(cfg.window / windowSlices)
	takeClock(&lr.b)
	lr.cuts = append(lr.cuts, lr.b)
	if h.tr != nil {
		h.tr.on.Store(false)
	}
	setPhase("halt: waiting for the callers' last operations")
	g.halt()
	h.takeCounters(&lr.b)
	if g.err != nil {
		return nil, g.err
	}
	n := 0
	for i := range g.hists {
		g.hists[i].each(func(*opRec) { n++ })
	}
	lr.recs = make([]opRec, 0, n)
	for i := range g.hists {
		g.hists[i].each(func(r *opRec) { lr.recs = append(lr.recs, *r) })
	}
	return lr, nil
}

func (lr *loadResult) inWindow(r *opRec) bool { return r.end >= lr.a.t && r.end < lr.b.t }

func (lr *loadResult) seconds() float64 { return float64(lr.b.t-lr.a.t) / 1e9 }

// endToEndMetrics computes the window's metrics from the operations that
// completed inside it; latencies come from calls through the client only.
// Rates are medians over the window's slices, so a short stall on the
// shared machine moves one slice, not the result. Percentiles use every
// sample of the window, so even the rarer kind of operation leaves ten
// or more samples beyond its p99.
func endToEndMetrics(lr *loadResult) (m map[string]float64, samples map[string]int, attempted, failed int) {
	per := map[string][]float64{}
	for i := 1; i < len(lr.cuts); i++ {
		a, b := lr.cuts[i-1], lr.cuts[i]
		var ok, reads, le3 int
		for j := range lr.recs {
			r := &lr.recs[j]
			if r.end < a.t || r.end >= b.t || !r.ok {
				continue
			}
			ok++
			if r.kind == opRead {
				reads++
				if r.rtts <= 3 {
					le3++
				}
			}
		}
		per["throughput_ops"] = append(per["throughput_ops"], float64(ok)/(float64(b.t-a.t)/1e9))
		per["cpu_us_per_op"] = append(per["cpu_us_per_op"], ratio(float64((b.cpu-a.cpu).Microseconds()), float64(ok)))
		per["read_rtt_le3_frac"] = append(per["read_rtt_le3_frac"], ratio(float64(le3), float64(reads)))
	}
	m = map[string]float64{}
	for k, vs := range per {
		m[k] = median(vs)
	}
	var reads, updates []float64
	for i := range lr.recs {
		r := &lr.recs[i]
		if !lr.inWindow(r) {
			continue
		}
		attempted++
		switch {
		case !r.ok:
			failed++
		case r.kind == opRead:
			reads = append(reads, float64(r.end-r.start)/1e6)
		case r.kind == opUpdate:
			updates = append(updates, float64(r.end-r.start)/1e6)
		}
	}
	m["read_p50_ms"], m["read_p99_ms"] = quantile(reads, 0.5), quantile(reads, 0.99)
	m["update_p50_ms"], m["update_p99_ms"] = quantile(updates, 0.5), quantile(updates, 0.99)
	return m, map[string]int{"reads": len(reads), "updates": len(updates)}, attempted, failed
}

// checkRun runs the output checks every run makes: each read against
// real time, each key on each replica after the load, and no persist
// errors.
func checkRun(h *harness, lr *loadResult) error {
	setPhase("output checks")
	if !h.w.orset {
		if err := checkCounterReads(lr.recs, h.preload); err != nil {
			return err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := h.checkFinal(ctx, lr.recs); err != nil {
		return err
	}
	if n := h.persistErrors(); n != 0 {
		return fmt.Errorf("%d persist errors", n)
	}
	return nil
}

// capture reads every key's state on n1 and n2 for the micro phases.
func (h *harness) capture() (keys []string, a, b []crdt.State, err error) {
	setPhase("capture")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	keys = make([]string, h.w.keys)
	a, b = make([]crdt.State, h.w.keys), make([]crdt.State, h.w.keys)
	err = forKeys(h.w.keys, func(k int) error {
		keys[k] = h.w.key(k)
		var err error
		if a[k], _, err = h.nodes[0].QueryKey(ctx, keys[k]); err != nil {
			return err
		}
		b[k], _, err = h.nodes[1].QueryKey(ctx, keys[k])
		return err
	})
	return keys, a, b, err
}
