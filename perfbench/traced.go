package main

import (
	"fmt"
	"math"
	"path/filepath"

	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/wire"
)

// runTraced measures the per-layer metrics. The window is split: an
// untraced half on one cluster (the baseline of trace.overhead_frac and
// the source of the Go runtime's counts, which the tracer's own
// allocations would distort), then a traced half on a fresh cluster,
// then the micro phases. Both halves send the same probes, so their
// throughputs differ only by the tracing.
func runTraced(w workload, cfg runConfig) (result, map[string]any, error) {
	w = w.scale(cfg.scale)
	half := cfg
	half.window = cfg.window / 2

	setPhase("set-up of the untraced half")
	h, err := boot(w, cfg.seed, nil)
	if err != nil {
		return result{}, nil, err
	}
	plain, err := runLoad(h, half, true)
	if err == nil {
		err = checkRun(h, plain)
	}
	h.close()
	if err != nil {
		return result{}, nil, err
	}

	tr := newTracer()
	setPhase("set-up of the traced half")
	h, err = boot(w, cfg.seed, tr)
	if err != nil {
		return result{}, nil, err
	}
	traced, err := runLoad(h, half, true)
	if err == nil {
		err = checkRun(h, traced)
	}
	var keys []string
	var sa, sb []crdt.State
	if err == nil {
		keys, sa, sb, err = h.capture()
	}
	h.close()
	if err != nil {
		return result{}, nil, err
	}

	setPhase("per-layer metrics")
	m, probes, err := layerMetrics(tr, plain, traced)
	if err != nil {
		return result{}, nil, err
	}
	setPhase("step phase")
	if m["core.step_update_us"], m["core.step_query_us"], m["core.step_allocs_per_op"], err = stepPhase(w, cfg.seed); err != nil {
		return result{}, nil, err
	}
	setPhase("crdt and persist phases")
	if m["crdt.state_bytes"], m["crdt.merge_us"], m["crdt.marshal_us"], m["crdt.unmarshal_us"], err = crdtPhase(sa, sb); err != nil {
		return result{}, nil, err
	}
	if m["persist.save_batch1_ms"], m["persist.save_batch32_ms"], err = persistPhase(keys, sa, filepath.Join(cfg.workDir, "micro")); err != nil {
		return result{}, nil, err
	}
	// cluster.runtime_us_mean subtracts the step phase's protocol time.
	m["cluster.runtime_us_mean"] -= probes.queryShare*m["core.step_query_us"] + (1-probes.queryShare)*m["core.step_update_us"]
	if v, se := m["cluster.runtime_us_mean"], probes.stderr; v < -3*se {
		return result{}, nil, fmt.Errorf("trace check: cluster.runtime_us_mean %.1f us is below zero by more than 3 standard errors (%.1f us)", v, se)
	}

	if cfg.spans != "" {
		setPhase("write spans")
		if err := writeSpans(cfg.spans, tr); err != nil {
			return result{}, nil, fmt.Errorf("write spans: %w", err)
		}
	}
	att, failed := 0, 0
	for i := range traced.recs {
		if r := &traced.recs[i]; traced.inWindow(r) {
			att++
			if !r.ok {
				failed++
			}
		}
	}
	res := result{Correct: true, Attempted: att, Failed: failed, Metrics: map[string]metric{}}
	for _, s := range perLayer {
		res.Metrics[s.name] = metric{m[s.name], s.unit}
	}
	return res, map[string]any{"layer_links": layerLinks, "spans_file": cfg.spans, "steal_frac": stealFrac(plain, traced)}, nil
}

func us(s *span) float64 { return float64(s.end-s.start) / 1e3 }

// layerMetrics derives the per-layer metrics from the traced window's
// spans and counters, and the Go runtime's from the untraced window. It
// also runs the trace's own checks: every server frame nests inside its
// client frame, and no self time is below zero.
func layerMetrics(tr *tracer, plain, traced *loadResult) (map[string]float64, probeStats, error) {
	var call, cframe, sframe, pq, pu, oneway, handler []float64
	var serverQueries int
	clientFrames := make(map[uint64]span)
	tr.eachSpan(func(s *span) {
		switch s.name {
		case spCall:
			call = append(call, us(s))
		case spProbeQuery:
			pq = append(pq, us(s))
		case spProbeUpdate:
			pu = append(pu, us(s))
		case spClientFrame:
			cframe = append(cframe, us(s))
			clientFrames[s.req] = *s
		case spServerFrame:
			sframe = append(sframe, us(s))
			if s.op == wire.OpQuery {
				serverQueries++
			}
		case spOneway:
			oneway = append(oneway, us(s))
		case spHandler:
			handler = append(handler, us(s))
		}
	})
	var hops []float64
	var nestErr error
	tr.eachSpan(func(s *span) {
		if s.name != spServerFrame || nestErr != nil {
			return
		}
		c, ok := clientFrames[s.req]
		if !ok {
			return
		}
		if c.start > s.start || s.end > c.end {
			nestErr = fmt.Errorf("trace check: server frame [%d, %d] of request %x is not inside its client frame [%d, %d]", s.start, s.end, s.req, c.start, c.end)
		}
		hops = append(hops, us(&c)-us(s))
	})
	if nestErr != nil {
		return nil, probeStats{}, nestErr
	}
	if len(hops) == 0 || len(pq)+len(pu) == 0 || len(oneway) == 0 {
		return nil, probeStats{}, fmt.Errorf("trace check: matched %d frames, %d probes, %d replica messages; want some of each", len(hops), len(pq)+len(pu), len(oneway))
	}

	var ops, clientOps, probeRTTs, probes float64
	for i := range traced.recs {
		r := &traced.recs[i]
		if !traced.inWindow(r) || !r.ok {
			continue
		}
		ops++
		if r.kind == opRead || r.kind == opUpdate {
			clientOps++
		} else {
			probes++
			probeRTTs += float64(r.rtts)
		}
	}
	plainOps := 0.0
	for i := range plain.recs {
		if r := &plain.recs[i]; plain.inWindow(r) && r.ok {
			plainOps++
		}
	}
	d := counterDelta(traced.a.counters, traced.b.counters)

	// Mix weights: the server's query share weighs the probes against
	// the server frames; the probes' own query share weighs the step
	// phase against them.
	qs := ratio(float64(serverQueries), float64(len(sframe)))
	probeMix := qs*mean(pq) + (1-qs)*mean(pu)
	serverSelf := mean(sframe) - probeMix
	serverSE := math.Sqrt(sq2(meanStdErr(sframe)) + sq2(qs*meanStdErr(pq)) + sq2((1-qs)*meanStdErr(pu)))
	allProbes := append(append([]float64(nil), pq...), pu...)
	// trace.overhead_frac compares halves run back to back on two
	// clusters, so drift of the shared machine between them (several
	// percent) can make it read below zero.
	m := map[string]float64{
		"client.self_us_mean":             mean(call) - mean(cframe),
		"wire.req_bytes_per_op":           ratio(float64(tr.reqBytes.Load()), clientOps),
		"wire.resp_bytes_per_op":          ratio(float64(tr.respBytes.Load()), clientOps),
		"net.hop_us_mean":                 mean(hops),
		"server.frame_us_p50":             quantile(sframe, 0.5),
		"server.frame_us_mean":            mean(sframe),
		"server.self_us_mean":             serverSelf,
		"server.shed_frac":                ratio(float64(traced.b.shed-traced.a.shed), ops),
		"cluster.query_us_p50":            quantile(pq, 0.5),
		"cluster.query_us_mean":           mean(pq),
		"cluster.update_us_p50":           quantile(pu, 0.5),
		"cluster.update_us_mean":          mean(pu),
		"cluster.runtime_us_mean":         mean(allProbes) - 2*mean(oneway)*ratio(probeRTTs, probes),
		"cluster.inbound_dropped_per_kop": 1000 * ratio(float64(d.InboundDropped), ops),
		"transport.msgs_per_op":           ratio(float64(tr.msgs.Load()), ops),
		"transport.bytes_per_op":          ratio(float64(tr.msgBytes.Load()), ops),
		"transport.oneway_us_p50":         quantile(oneway, 0.5),
		"transport.oneway_us_mean":        mean(oneway),
		"transport.oneway_us_p99":         quantile(oneway, 0.99),
		"transport.handler_us_mean":       mean(handler),
		"core.lease_hit_frac":             ratio(float64(d.LeaseHits), float64(d.Queries)),
		"core.lease_fallback_frac":        ratio(float64(d.LeaseFallbacks), float64(d.Queries)),
		"core.retries_per_query":          ratio(float64(d.Retries), float64(d.Queries)),
		"core.nacks_per_op":               ratio(float64(d.PreparesRejected+d.VotesRejected), float64(d.Queries+d.Updates)),
		"core.byvote_frac":                ratio(float64(d.ByVote), float64(d.Queries)),
		"go.allocs_per_op":                ratio(float64(plain.b.mallocs-plain.a.mallocs), plainOps),
		"go.gc_cpu_frac":                  ratio(plain.b.gcCPU-plain.a.gcCPU, plain.b.allCPU-plain.a.allCPU),
		"trace.overhead_frac":             1 - ratio(ops/traced.seconds(), plainOps/plain.seconds()),
	}
	if v := m["client.self_us_mean"]; v < 0 {
		return nil, probeStats{}, fmt.Errorf("trace check: client.self_us_mean %.1f us is below zero", v)
	}
	if serverSelf < -3*serverSE {
		return nil, probeStats{}, fmt.Errorf("trace check: server.self_us_mean %.1f us is below zero by more than 3 standard errors (%.1f us)", serverSelf, serverSE)
	}
	return m, probeStats{ratio(float64(len(pq)), float64(len(allProbes))), meanStdErr(allProbes)}, nil
}

// probeStats carries what cluster.runtime_us_mean needs once the step
// phase has run: the probes' query share and their mean's standard error.
type probeStats struct{ queryShare, stderr float64 }

func sq2(x float64) float64 { return x * x }

// counterDelta returns b − a for the counters the per-layer metrics use.
func counterDelta(a, b core.Counters) core.Counters {
	return core.Counters{
		Updates:          b.Updates - a.Updates,
		Queries:          b.Queries - a.Queries,
		ByVote:           b.ByVote - a.ByVote,
		Retries:          b.Retries - a.Retries,
		PreparesRejected: b.PreparesRejected - a.PreparesRejected,
		VotesRejected:    b.VotesRejected - a.VotesRejected,
		LeaseHits:        b.LeaseHits - a.LeaseHits,
		LeaseFallbacks:   b.LeaseFallbacks - a.LeaseFallbacks,
		InboundDropped:   b.InboundDropped - a.InboundDropped,
	}
}
