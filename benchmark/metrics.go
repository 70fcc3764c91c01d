package main

// gcMPs are the microprotocols on a replicated Put's path, bottom up; fd,
// membership, fifo and causal are in the stack but never run here.
var gcMPs = []string{"netout", "relcomm", "relcast", "consensus", "abcast", "app"}

// kvFreeMetrics come from counters the program keeps by itself, so an
// untraced run reports them too (as info).
func kvFreeMetrics(a, b kvCounters, ops uint64) []metric {
	n := float64(ops)
	return []metric{
		{"transport.dgrams_per_op", "1/op", float64(b.sent-a.sent) / n},
		{"transport.drops_per_kop", "1/kop", float64(b.drops-a.drops) / n * 1e3},
		{"gc.stale_per_kop", "1/kop", float64(b.stale-a.stale) / n * 1e3},
		{"gc.pump_retries", "count", float64(b.pumps - a.pumps)},
		fastFrac(b.fast-a.fast, b.slow-a.slow),
		{"kvstore.applies_per_op", "1/op", float64(b.applied-a.applied) / n},
	}
}

// tracedMetrics turns the trace of one window into the per-layer ledger.
// Per-op figures are window totals over acked ops, summed over the sites.
func tracedMetrics(tr *tracer, w *window) []metric {
	ops := float64(w.acked())
	us := func(ns int64) float64 { return float64(ns) / 1e3 / ops }

	// Fold the sites together by span name.
	var fixed [fixedNames]nameAgg
	for i := range fixed {
		fixed[i].dur = new(hist)
	}
	type mpAgg struct {
		calls  uint64
		selfNs int64
	}
	byMP := make(map[string]*mpAgg)
	var handlerCalls, decisions uint64
	var sendNs, putSelfNs, getNs hist
	var sendBytes, recvs uint64
	for _, st := range tr.sites {
		st.mu.Lock()
		for id, a := range st.agg {
			if id < int(fixedNames) {
				f := &fixed[id]
				f.calls, f.durNs, f.selfNs = f.calls+a.calls, f.durNs+a.durNs, f.selfNs+a.selfNs
				f.dur.merge(a.dur)
				continue
			}
			info := tr.info(nameID(id))
			m := byMP[info.mp]
			if m == nil {
				m = &mpAgg{}
				byMP[info.mp] = m
			}
			m.calls, m.selfNs = m.calls+a.calls, m.selfNs+a.selfNs
			handlerCalls += a.calls
			if st.site == 0 && info.name == "gc.abcast.onDecide" {
				decisions = a.calls
			}
		}
		st.mu.Unlock()
		sendNs.merge(&st.sendNs)
		putSelfNs.merge(&st.putSelfNs)
		getNs.merge(&st.getNs)
		sendBytes += st.sendBytes.Load()
		recvs += st.recvs.Load()
	}

	comp := &fixed[nameComputation]
	var ccCalls uint64
	for id := nameSpawn; id < fixedNames; id++ {
		ccCalls += fixed[id].calls
	}
	p := func(id nameID, q float64) float64 { return fixed[id].dur.quantile(q) }
	ms := []metric{
		{"cc.calls_per_op", "1/op", float64(ccCalls) / ops},
		{"cc.wait_us_per_op", "us/op", us(fixed[nameSpawn].durNs + fixed[nameEnter].durNs)},
		{"cc.busy_us_per_op", "us/op", us(fixed[nameRequest].durNs + fixed[nameExit].durNs + fixed[nameRootReturned].durNs + fixed[nameComplete].durNs)},
		{"cc.spawn_ns_p50", "ns", p(nameSpawn, 0.50)},
		{"cc.spawn_ns_p95", "ns", p(nameSpawn, 0.95)},
		{"cc.enter_ns_p50", "ns", p(nameEnter, 0.50)},
		{"cc.enter_ns_p95", "ns", p(nameEnter, 0.95)},
		{"cc.request_ns_p50", "ns", p(nameRequest, 0.50)},
		{"cc.exit_ns_p50", "ns", p(nameExit, 0.50)},
		{"cc.complete_ns_p50", "ns", p(nameComplete, 0.50)},
		{"core.self_us_per_op", "us/op", us(comp.selfNs)},
		{"core.comps_s", "1/s", float64(comp.calls) / (float64(w.elapsedNs) / 1e9)},
	}
	if tr.layer != "gc" {
		return ms
	}
	ms = append(ms,
		metric{"transport.bytes_per_op", "B/op", float64(sendBytes) / ops},
		metric{"transport.recv_per_op", "1/op", float64(recvs) / ops},
		metric{"transport.send_us_per_op", "us/op", us(sendNs.total())},
		metric{"transport.send_ns_p50", "ns", sendNs.quantile(0.50)},
		metric{"gc.comps_per_op", "1/op", float64(comp.calls) / ops},
		metric{"gc.handler_calls_per_op", "1/op", float64(handlerCalls) / ops},
		metric{"gc.comp_us_p50", "us", p(nameComputation, 0.50) / 1e3},
		metric{"gc.comp_us_p95", "us", p(nameComputation, 0.95) / 1e3},
		metric{"gc.ops_per_decision", "ratio", ops / float64(decisions)},
		metric{"kvstore.get_ns_p50", "ns", getNs.quantile(0.50)},
		metric{"kvstore.put_self_us_p50", "us", putSelfNs.quantile(0.50) / 1e3},
	)
	for _, mp := range gcMPs {
		m := byMP[mp]
		if m == nil {
			m = &mpAgg{}
		}
		self := m.selfNs
		if mp == "netout" {
			// Endpoint.Send is called from netout.send and nowhere else,
			// so the transport's send spans are that handler's children.
			self -= sendNs.total()
		}
		ms = append(ms,
			metric{"gc." + mp + ".calls_per_op", "1/op", float64(m.calls) / ops},
			metric{"gc." + mp + ".self_us_per_op", "us/op", us(self)})
	}
	return ms
}
