package main

import (
	"context"
	"runtime"
	"sync"
	"time"

	"openflame/internal/geo"
	"openflame/internal/s2cell"
)

// openPhase runs the mixed sequence open-loop from its start.
func (r *runner) openPhase(length time.Duration) []sample {
	interval := time.Duration(float64(time.Second) / r.wl.rate)
	return openLoop(realClock{base: time.Now()}, r.nproc, interval, length, r.call)
}

// label sets each sample's service kind.
func (r *runner) label(ss []sample) []sample {
	for i := range ss {
		ss[i].kind = r.ops[ss[i].idx%len(r.ops)].kind
	}
	return ss
}

func latencies(ss []sample, kind int) []float64 {
	var out []float64
	for _, s := range ss {
		if kind < 0 || s.kind == kind {
			out = append(out, durMS(s.latency()))
		}
	}
	return out
}

func lates(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = durMS(s.late())
	}
	return out
}

// startWrites runs churn_watch's open-loop writes for the whole run.
func (r *runner) startWrites(rig *churnRig) *sync.WaitGroup {
	var wg sync.WaitGroup
	if rig != nil {
		wg.Add(1)
		go func() { defer wg.Done(); rig.runWrites(r.wl.writeRate, r.length, 1) }()
	}
	return &wg
}

// runUntraced measures the end-to-end metrics: one open-loop phase over
// the mixed sequence for the whole run, whose CPU per operation is
// cpu_ms_per_call and whose input properties are reported.
func (r *runner) runUntraced(rig *churnRig, setups []float64) (*result, error) {
	writes := r.startWrites(rig)
	runtime.GC()
	c0, t0 := r.snapshot(), r.tr.now()
	open := r.openPhase(r.length)
	c1, t1 := r.snapshot(), r.tr.now()
	writes.Wait()

	var cr churnResult
	openWrites := 0
	if rig != nil {
		cr = rig.finish()
		openWrites = rig.acked(t0, t1)
	} else {
		probe, err := r.probe()
		if err != nil {
			return nil, err
		}
		cr = probe
	}
	r.put("setup_s", median(setups), "s")
	r.put("cpu_ms_per_call", durMS(c1.cpu-c0.cpu)/float64(len(open)+openWrites), "ms")
	r.properties(c0, c1, len(open), r.ops[:len(open)])
	return r.finish(len(open), cr), nil
}

// properties records the share of the run's input with each property a
// later optimisation may depend on.
func (r *runner) properties(c0, c1 counters, calls int, issued []op) {
	r.info["prop_cache_hit_ratio"] = ratio(float64(c1.cacheHits-c0.cacheHits), float64(c1.cacheHits-c0.cacheHits+c1.cacheMiss-c0.cacheMiss))
	r.info["prop_distinct_share"] = distinctShare(issued)
	r.info["prop_dns_upstream_per_call"] = ratio(float64(c1.upstream-c0.upstream), float64(calls))
	r.info["prop_dns_hit_ratio"] = ratio(float64(c1.dnsHits-c0.dnsHits), float64(c1.dnsHits-c0.dnsHits+c1.dnsMiss-c0.dnsMiss))
	mix := map[string]float64{}
	for _, o := range issued {
		mix[kindNames[o.kind]] += 1 / float64(len(issued))
	}
	r.info["prop_mix"] = mix
}

// finish folds call and write failures, and the known-defect check, into
// the contract's fields.
func (r *runner) finish(calls int, cr churnResult) *result {
	failedCalls := 0
	byKind := map[string]int{}
	for k, n := range r.failures {
		failedCalls += n
		byKind[kindNames[k]] = n
	}
	defects := r.f.knownDefects()
	asked, excess := 0, 0
	for _, d := range defects {
		asked += d.Asked
		excess += max(0, d.Wrong-d.Known)
	}
	attempted := calls + cr.writes + asked
	failed := failedCalls + cr.failedWrites + excess
	r.info["fail_ratio"] = ratio(float64(failed), float64(attempted))
	r.info["failed_by_kind"] = byKind
	r.info["failed_writes"] = cr.failedWrites
	r.info["known_defects"] = defects
	r.info["watch_final_state_bad"] = cr.finalStateBad
	r.info["sync_lag_end"] = cr.lagEnd
	r.info["sync_errors"] = cr.syncErrs
	r.info["problems"] = append(append([]string(nil), r.problems...), cr.problems...)
	correct := failed == 0 && cr.finalStateBad == 0 && cr.lagEnd == 0 && cr.followerBad == 0 && cr.syncErrs == 0
	return &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: r.metrics}
}

// probe measures the write path on a read-only workload after its timed
// phases: watch streams, a short burst of stamped writes, followers.
func (r *runner) probe() (churnResult, error) {
	rig, err := startChurn(r.f, r.tr, r.nproc)
	if err != nil {
		return churnResult{}, err
	}
	rig.runWrites(probeRate, time.Duration(float64(probeWrites)/probeRate*float64(time.Second)), 1)
	return rig.finish(), nil
}

// runTraced measures the per-layer metrics: an open-loop phase over half
// the run in which every other call is traced (the untraced half gives
// the wall-clock latencies and is the overhead baseline, taken over the
// same time window), an untraced closed-loop phase over the mixed
// sequence for the other half, direct timed calls, and the write side.
func (r *runner) runTraced(rig *churnRig) (*result, error) {
	openLen := r.length / 2
	writes := r.startWrites(rig)
	runtime.GC()
	c0 := r.snapshot()
	phase := r.label(r.openPhase(openLen))
	c1 := r.snapshot()
	r.tr.on.Store(false)
	start := time.Now()
	closed := closedLoop(realClock{base: start}, r.nproc, r.length-openLen, len(phase), r.call)
	r.put("calls_per_s", float64(len(closed))/time.Since(start).Seconds(), "1/s")
	writes.Wait()

	var cr churnResult
	if rig != nil {
		cr = rig.finish()
	}
	computes := r.timeDirect()
	if rig == nil {
		r.tr.on.Store(true)
		probe, err := r.probe()
		r.tr.on.Store(false)
		if err != nil {
			return nil, err
		}
		cr = probe
	}
	var plain, traced []sample
	for _, s := range phase {
		if traceCall(s.idx) {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	r.layers(traced, len(phase), c0, c1, computes)
	// Every wall-clock latency comes from the untraced calls.
	base := median(latencies(plain, -1))
	r.put("call_p50_ms", base, "ms")
	r.put("call_p99_ms", percentile(latencies(plain, -1), 99), "ms")
	for k := 0; k < numKinds; k++ {
		r.put(kindNames[k]+"_p50_ms", median(latencies(plain, k)), "ms")
	}
	r.put("delta_p50_ms", median(cr.deltas), "ms")
	r.put("delta_p99_ms", percentile(cr.deltas, 99), "ms")
	r.info["call_samples"] = len(plain)
	r.info["call_top_percentile"] = topPercentile(len(plain))
	r.info["delta_samples"] = len(cr.deltas)
	r.info["delta_top_percentile"] = topPercentile(len(cr.deltas))
	r.put("trace.overhead_pct", 100*(median(latencies(traced, -1))-base)/base, "%")
	r.put("go.alloc_kb_per_call", float64(c1.alloc-c0.alloc)/1024/float64(len(phase)), "KiB")
	r.put("go.gc_per_1k_calls", 1000*float64(c1.gcs-c0.gcs)/float64(len(phase)), "count")
	r.put("gen.calls", float64(len(phase)), "count")
	r.put("gen.late_p99_ms", percentile(lates(phase), 99), "ms")
	r.put("store.write_ms", median(cr.writeMS), "ms")
	r.put("watch.push_ms", median(cr.pushes), "ms")
	r.put("watch.client_ms", median(cr.clientSide), "ms")
	r.put("watch.evals_per_write", cr.evalsPerWrite, "count")
	r.put("watch.dropped", cr.dropped, "count")
	r.put("sync.round_ms", median(cr.rounds), "ms")
	r.put("sync.applied_per_round", mean(cr.applied), "count")
	r.put("sync.lag_end", float64(cr.lagEnd), "count")
	r.properties(c0, c1, len(phase), r.ops[:len(phase)])
	return r.finish(len(phase)+len(closed), cr), nil
}

// traceCall picks the traced half of a traced run's calls.
func traceCall(i int) bool { return i%2 == 0 }

// timeDirect times, untraced, the servers' Go API on the service requests
// captured during the traced phase, and the discovery client on fresh
// operations from the workload's own generator. cold_reads purges the
// query caches first: its captured requests were misses when first asked,
// and the replay must be one too. It returns each service's median
// compute in ms.
func (r *runner) timeDirect() map[string]float64 {
	per := map[string][]float64{}
	if !r.wl.hot {
		r.f.purgeQueryCaches()
	}
	r.tr.mu.Lock()
	var caps []capture
	for _, svc := range svcNames {
		caps = append(caps, r.tr.captures["/"+svc]...)
	}
	r.tr.mu.Unlock()
	for _, c := range caps {
		run, err := c.replay()
		if err != nil {
			continue
		}
		t := time.Now()
		run()
		per[svcOfPath[c.path]] = append(per[svcOfPath[c.path]], durMS(time.Since(t)))
	}
	ctx := context.Background()
	for _, o := range r.gen.sequence(directOps) {
		switch o.kind {
		case kSearch:
			region := s2cell.CapRegion{Cap: geo.Cap{Center: o.near, RadiusMeters: searchRadius}}
			t := time.Now()
			r.f.disc.DiscoverRegionCtx(ctx, region)
			per["region"] = append(per["region"], durMS(time.Since(t)))
		case kGeocode:
			t := time.Now()
			r.f.disc.DiscoverCtx(ctx, o.truths[0])
			per["point"] = append(per["point"], durMS(time.Since(t)))
		case kLocalize:
			t := time.Now()
			r.f.disc.DiscoverCtx(ctx, o.coarse)
			per["point"] = append(per["point"], durMS(time.Since(t)))
		}
	}
	out := map[string]float64{}
	for k, v := range per {
		out[k] = median(v)
	}
	r.put("search.search_ms", out["search"], "ms")
	r.put("geocode.geocode_ms", out["geocode"], "ms")
	r.put("graph.route_ms", out["route"], "ms")
	r.put("graph.matrix_ms", out["routematrix"], "ms")
	r.put("loc.localize_ms", out["localize"], "ms")
	r.put("discovery.region_ms", out["region"], "ms")
	r.put("discovery.point_ms", out["point"], "ms")
	return out
}
