package main

import (
	"math"
)

var svcNames = []string{"search", "geocode", "route", "routematrix", "localize"}

// selfLayers are the span layers a traced call's wall time splits into.
var selfLayers = []string{"client", "discovery", "dns", "http", "mapserver", "compute"}

// layers computes the per-layer metrics of the traced phase.
func (r *runner) layers(traced []sample, calls int, c1, c2 counters, computes map[string]float64) {
	r.tr.mu.Lock()
	handlers := make(map[uint64]handlerRec, len(r.tr.handlers))
	for id, h := range r.tr.handlers {
		handlers[id] = h
	}
	dnsAll := append([]span(nil), r.tr.dnsAll...)
	r.tr.mu.Unlock()
	// A handler's compute share is its service's median direct compute
	// over its median handler time; the rest of the handler is framing.
	handlerMS := map[string][]float64{}
	for _, h := range handlers {
		if svc, ok := svcOfPath[h.path]; ok {
			handlerMS[svc] = append(handlerMS[svc], ms(h.span.dur()))
		}
	}
	share := map[string]float64{}
	for svc, hs := range handlerMS {
		share[svc] = math.Min(1, computes[svc]/median(hs))
	}
	var prefan, tail, perCall, attemptMS, wireMS, bytesPerCall []float64
	selfSum := map[int]map[string]float64{}
	kindCalls := map[int]int{}
	for _, s := range traced {
		rec := r.recs[s.idx]
		if rec == nil {
			continue
		}
		rec.mu.Lock()
		atts := append([]attemptRec(nil), rec.attempts...)
		dnsSpans := append([]span(nil), rec.dns...)
		rec.mu.Unlock()
		call := span{rec.start, rec.end}
		var attSpans, hSpans []span
		var bytes int64
		var firstStart, lastEnd int64 = -1, -1
		var hTotal, hCompute float64
		for _, a := range atts {
			attSpans = append(attSpans, a.span)
			attemptMS = append(attemptMS, ms(a.span.dur()))
			bytes += a.bytes
			if firstStart < 0 || a.span.start < firstStart {
				firstStart = a.span.start
			}
			if a.span.end > lastEnd {
				lastEnd = a.span.end
			}
			h, ok := handlers[a.id]
			if !ok {
				continue
			}
			hSpans = append(hSpans, h.span)
			wireMS = append(wireMS, ms(a.span.dur()-h.span.dur()))
			if svc, ok := svcOfPath[h.path]; ok {
				hd := ms(h.span.dur())
				hTotal += hd
				hCompute += hd * share[svc]
			}
		}
		perCall = append(perCall, float64(len(atts)))
		bytesPerCall = append(bytesPerCall, float64(bytes))
		if firstStart < 0 {
			continue
		}
		prefan = append(prefan, ms(firstStart-rec.start))
		tail = append(tail, ms(rec.end-lastEnd))

		pre := span{rec.start, firstStart}
		uH := unionLen(hSpans)
		uA := unionLen(attSpans)
		uD := unionLen(clip(dnsSpans, call))
		dnsInPre := unionLen(clip(dnsSpans, pre))
		all := append(append(append([]span(nil), attSpans...), dnsSpans...), pre)
		self := map[string]float64{
			"client":    ms(selfTime(call, all)),
			"discovery": ms(pre.dur() - dnsInPre),
			"dns":       ms(uD - overlap(dnsSpans, attSpans, call)),
			"http":      ms(uA - uH),
		}
		compute := 0.0
		if hTotal > 0 {
			compute = ms(uH) * hCompute / hTotal
		}
		self["compute"] = compute
		self["mapserver"] = ms(uH) - compute
		if selfSum[rec.kind] == nil {
			selfSum[rec.kind] = map[string]float64{}
		}
		for k, v := range self {
			selfSum[rec.kind][k] += v
		}
		kindCalls[rec.kind]++
	}
	r.put("client.prefan_ms", median(prefan), "ms")
	r.put("client.tail_ms", median(tail), "ms")
	r.put("client.http_per_call", mean(perCall), "count")
	r.put("http.attempt_ms", median(attemptMS), "ms")
	r.put("http.wire_ms", median(wireMS), "ms")
	r.put("http.resp_bytes_per_call", mean(bytesPerCall), "B")
	r.put("http.dials", float64(c2.dials-c1.dials), "count")
	var exch []float64
	for _, s := range dnsAll {
		exch = append(exch, ms(s.dur()))
	}
	r.put("dns.exchange_ms", median(exch), "ms")
	r.put("dns.upstream_per_call", ratio(float64(c2.upstream-c1.upstream), float64(calls)), "count")
	r.put("dns.hit_ratio", ratio(float64(c2.dnsHits-c1.dnsHits), float64(c2.dnsHits-c1.dnsHits+c2.dnsMiss-c1.dnsMiss)), "ratio")
	for _, svc := range svcNames {
		h := median(handlerMS[svc])
		r.put("mapserver.handler_ms."+svc, h, "ms")
		r.put("mapserver.framing_ms."+svc, h-computes[svc], "ms")
	}
	r.put("mapserver.cache_hit_ratio", ratio(float64(c2.cacheHits-c1.cacheHits), float64(c2.cacheHits-c1.cacheHits+c2.cacheMiss-c1.cacheMiss)), "ratio")
	r.put("mapserver.cache_purged", float64(c2.cachePurged-c1.cachePurged), "count")
	r.put("admission.shed", float64(c2.shed-c1.shed), "count")
	r.put("admission.queued", float64(c2.queued-c1.queued), "count")

	// Self time per layer: the mean over traced calls, overall and per
	// service, and the layer that dominates each service's calls.
	total := map[string]float64{}
	n := 0
	breakdown := map[string]map[string]float64{}
	dominant := map[string]string{}
	for k := 0; k < numKinds; k++ {
		c := kindCalls[k]
		if c == 0 {
			continue
		}
		n += c
		per := map[string]float64{}
		best := ""
		for _, l := range selfLayers {
			per[l] = selfSum[k][l] / float64(c)
			total[l] += selfSum[k][l]
			if best == "" || per[l] > per[best] {
				best = l
			}
		}
		breakdown[kindNames[k]] = per
		dominant[kindNames[k]] = best
	}
	for _, l := range selfLayers {
		r.put("self."+l+"_ms", total[l]/float64(max(n, 1)), "ms")
	}
	r.info["self_ms_by_service"] = breakdown
	r.info["dominant_layer_by_service"] = dominant
}

func clip(spans []span, w span) []span {
	var out []span
	for _, s := range spans {
		if s.start < w.start {
			s.start = w.start
		}
		if s.end > w.end {
			s.end = w.end
		}
		if s.end > s.start {
			out = append(out, s)
		}
	}
	return out
}

// overlap is the measure of (∪a ∩ ∪b) within w.
func overlap(a, b []span, w span) int64 {
	ca, cb := clip(a, w), clip(b, w)
	return unionLen(ca) + unionLen(cb) - unionLen(append(append([]span(nil), ca...), cb...))
}
