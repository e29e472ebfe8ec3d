// Command fedbench is the federation's end-to-end benchmark. It stands up
// a complete OpenFLAME federation in one process — a DNS tree on loopback
// UDP, a registry, one map server per map behind a real HTTP server with
// flame-server's default configuration, and one client — then drives one
// of three workloads through the client's public v2 API, checks every
// answer against the world generator's ground truth, and prints one JSON
// result line. See README.md for the workloads and metrics.
//
// Usage (from this directory, or through run.sh from the repository root):
//
//	fedbench --workload hot_reads --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// workload is one named benchmark scenario.
type workload struct {
	spec  worldSpec
	hot   bool
	churn bool
	// rate is the open-loop call rate, a fifth to a quarter of the
	// workload's closed-loop calls_per_s on a 2-CPU machine
	// (GOMAXPROCS 2); see README.md for why not half.
	rate float64
	// writeRate is the open-loop write rate, churnWriteRate on
	// churn_watch.
	writeRate float64
}

var workloads = map[string]workload{
	"hot_reads":   {spec: worldSpec{blocks: 16, stores: 6}, hot: true, rate: 160},
	"cold_reads":  {spec: worldSpec{blocks: 48, stores: 6}, rate: 60},
	"churn_watch": {spec: worldSpec{blocks: 16, stores: 6}, hot: true, churn: true, rate: 150, writeRate: churnWriteRate},
}

// churnWriteRate is churn_watch's open-loop write rate: one write every
// 40 ms, the churn of the repository's own watch experiment (E22 in
// EXPERIMENTS.md). No production write trace exists; this is an
// assumption, not a measurement.
const churnWriteRate = 25

const (
	// An untraced run builds the federation at least minSetups times and
	// until setupBudget of wall time is spent, at most maxSetups times;
	// setup_s is the median of the set-ups' CPU time. Small worlds set up
	// in a fraction of a second, so they repeat more.
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 3 * time.Second
	// probeWrites and probeRate size the write probe that hot_reads and
	// cold_reads run after their timed phases (see README.md).
	probeWrites = 100
	probeRate   = 100.0
	// closedHeadroom sizes a traced run's closed-loop sequence: that
	// many times the operations the open rate issues in the same time,
	// twice the closed-loop capacity the rates assume (see rate). A
	// longer phase wraps around and repeats requests.
	closedHeadroom = 8
	// directOps is how many fresh operations a traced run times directly
	// against the discovery client.
	directOps = 300
)

func main() {
	name := flag.String("workload", "", "hot_reads, cold_reads or churn_watch")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "seconds of timed load")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "fedbench: need --workload hot_reads|cold_reads|churn_watch, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	r := &runner{name: *name, wl: wl, seed: *seed, length: time.Duration(*seconds) * time.Second,
		traced: *traceFlag == 1, nproc: runtime.NumCPU()}
	out, err := r.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		// A metric without samples (NaN) has no honest value to print.
		fmt.Fprintln(os.Stderr, "fedbench: result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the contract's last output line.
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

type runner struct {
	name   string
	wl     workload
	seed   int64
	length time.Duration
	traced bool
	nproc  int

	tr      *tracer
	f       *federation
	gen     *generator
	ops     []op // the mixed sequence: open loop, then closed
	recs    []*callRec
	metrics map[string]metric
	info    map[string]interface{}

	mu       sync.Mutex
	failures [numKinds]int
	problems []string
}

func (r *runner) put(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *runner) searchStores() []int {
	if r.wl.churn {
		return writtenStores(r.f.cm)
	}
	return nil
}

// warm issues one call of each service and requires every answer to be
// right; it is the last step of setup.
func (r *runner) warm(f *federation) error {
	g := newGenerator(f.cm, r.wl.hot, -1, nil)
	ctx := context.Background()
	for k := 0; k < numKinds; k++ {
		var o op
		if r.wl.hot {
			o = [][]op{g.searchCat, g.geocodeCat, g.routeCat, g.locCat}[k][0]
		} else {
			o = g.fresh(k)
		}
		if err := f.execute(ctx, o); err != nil {
			return fmt.Errorf("warm-up %s: %w", kindNames[k], err)
		}
	}
	return nil
}

func (r *runner) run() (*result, error) {
	r.tr = newTracer(r.nproc)
	r.metrics = map[string]metric{}
	r.info = map[string]interface{}{
		"workload": r.name, "seed": r.seed, "seconds": r.length.Seconds(), "trace": r.traced,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": r.nproc, "go": runtime.Version(),
		"open_rate_per_s": r.wl.rate, "write_rate_per_s": r.wl.writeRate,
		"city_blocks": r.wl.spec.blocks, "stores": r.wl.spec.stores,
	}
	var setups, setupWall []float64
	var spent time.Duration
	more := func(n int) bool {
		if r.traced {
			return n < 1
		}
		return n < minSetups || (spent < setupBudget && n < maxSetups)
	}
	for i := 0; more(i); i++ {
		if r.f != nil {
			r.f.close()
		}
		runtime.GC()
		cpu0 := processCPU()
		f, d, err := buildFederation(r.wl.spec, r.tr, r.warm)
		spent += d
		if err != nil {
			return nil, err
		}
		r.f = f
		setups = append(setups, (processCPU() - cpu0).Seconds())
		setupWall = append(setupWall, d.Seconds())
	}
	defer r.f.close()
	r.info["setup_cpu_runs_s"] = setups
	r.info["setup_wall_runs_s"] = setupWall
	if r.traced {
		r.put("setup_wall_s", setupWall[0], "s")
	}

	r.gen = newGenerator(r.f.cm, r.wl.hot, r.seed, r.searchStores())
	n := r.wl.rate * r.length.Seconds()
	if r.traced {
		// The open half issues half of n; the closed half gets headroom.
		n = n/2 + closedHeadroom*n/2
	}
	r.ops = r.gen.sequence(int(n) + 1)
	r.recs = make([]*callRec, len(r.ops))
	r.info["input_digest"] = digest(r.ops)

	// A traced run wraps the watch streams too, to time pushes.
	r.tr.on.Store(r.traced)
	var rig *churnRig
	if r.wl.churn {
		var err error
		if rig, err = startChurn(r.f, r.tr, r.nproc); err != nil {
			return nil, err
		}
	}
	var res *result
	var err error
	if r.traced {
		res, err = r.runTraced(rig)
	} else {
		res, err = r.runUntraced(rig, setups)
	}
	if err != nil {
		return nil, err
	}
	info, err := json.Marshal(finite(r.info))
	if err != nil {
		return nil, err
	}
	fmt.Println(string(info))
	return res, nil
}

// finite replaces NaN and infinite numbers (a statistic without samples)
// with null so the info line always encodes.
func finite(m map[string]interface{}) map[string]interface{} {
	out := make(map[string]interface{}, len(m))
	for k, v := range m {
		if f, ok := v.(float64); ok && (math.IsNaN(f) || math.IsInf(f, 0)) {
			v = nil
		}
		out[k] = v
	}
	return out
}

// call runs operation i of the mixed sequence, tracing it when the tracer
// is on and i is in the traced half.
func (r *runner) call(i int) bool {
	var rec *callRec
	if r.tr.on.Load() && traceCall(i) {
		rec = &callRec{start: r.tr.now()}
		if i < len(r.recs) {
			r.recs[i] = rec
		}
	}
	return r.do(r.ops[i%len(r.ops)], rec)
}

// do runs one operation and records a failure.
func (r *runner) do(o op, rec *callRec) bool {
	ctx := context.Background()
	if rec != nil {
		rec.kind = o.kind
		ctx = context.WithValue(ctx, callKey{}, rec)
	}
	err := r.f.execute(ctx, o)
	if rec != nil {
		rec.end = r.tr.now()
	}
	if err != nil {
		r.mu.Lock()
		r.failures[o.kind]++
		if len(r.problems) < 5 {
			r.problems = append(r.problems, err.Error())
		}
		r.mu.Unlock()
		return false
	}
	return true
}

// counters snapshots every stats reader the program exposes.
type counters struct {
	cpu                               time.Duration
	alloc, gcs                        uint64
	upstream, dnsHits, dnsMiss        int64
	cacheHits, cacheMiss, cachePurged int64
	shed, queued                      int64
	requests                          int64
	dials                             int64
}

func (r *runner) snapshot() counters {
	c := counters{cpu: processCPU()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.alloc, c.gcs = ms.TotalAlloc, uint64(ms.NumGC)
	rs := r.f.res.Stats()
	c.upstream, c.dnsHits, c.dnsMiss = rs.UpstreamQueries, rs.CacheHits, rs.CacheMisses
	for _, m := range r.f.members() {
		qs := m.srv.QueryCacheStats()
		c.cacheHits += qs.Hits
		c.cacheMiss += qs.Misses
		c.cachePurged += qs.Purged
		as := m.srv.AdmissionStats()
		c.shed += as.Shed()
		c.queued += as.Queued
	}
	c.requests = r.f.cl.RequestCount()
	c.dials = r.tr.dials.Load()
	return c
}

// processCPU is the process's user+sys CPU time so far (0 if getrusage
// fails, which it does not on Linux).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
