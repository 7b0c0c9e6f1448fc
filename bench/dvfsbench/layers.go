package main

import "dvfsched/internal/obs"

// perLayer derives the per-layer metrics of a traced run from its spans,
// the nodes' registries and the core probe, and writes the span file. A
// metric of a layer the workload's requests do not pass through (the
// cluster on a solo workload, the plan plane on a session workload)
// reads 0.
func (b *bench) perLayer(res *outcome) ([]metric, []span, error) {
	probe, err := b.probeCore()
	if err != nil {
		return nil, nil, err
	}
	spans := b.spans.take()
	joinSpans(spans, b.front)
	if err := writeSpans(b.spanPath(), spans); err != nil {
		return nil, nil, err
	}
	x := spanIndex{spans: spans, from: b.ns(b.timedFrom)}
	var out []metric
	add := func(name string, v []float64, q float64, unit string) {
		out = append(out, metric{name, quantile(v, q), unit, len(v)})
	}
	val := func(name string, v float64, unit string) {
		out = append(out, metric{name, v, unit, 0})
	}

	val("process.alloc_kb_per_req", res.allocKBPerReq, "KB")
	val("process.gc_per_s", res.gcPerS, "1/s")

	// net/http loopback: the client span minus the outermost handler.
	clientSelf := x.pick("client", res.primary, nil, selfUs)
	add("http.client_self_us_p50", clientSelf, 0.5, "us")
	add("http.client_self_us_p99", clientSelf, 0.99, "us")

	// internal/server, timed at the node that owns the sessions.
	submit := x.pick(b.owner, "submit", hasSuffix("/tasks"), usOf)
	add("server.submit_us_p50", submit, 0.5, "us")
	add("server.submit_us_p99", submit, 0.99, "us")
	admit := probe.admitSingleUs
	if b.cfg.workload == "judge-online" {
		admit = probe.admitUs
	}
	submitSelf := 0.0
	if len(submit) > 0 {
		submitSelf = quantile(submit, 0.5) - quantile(admit, 0.5)
	}
	val("server.submit_self_us_p50", submitSelf, "us")
	add("server.plan_hit_us_p50", x.pick(b.front, "plan_hit", nil, usOf), 0.5, "us")
	add("server.plan_miss_us_p50", x.pick(b.front, "plan_miss", nil, usOf), 0.5, "us")
	add("server.drain_ms_p50", x.pick(b.owner, "drain", nil, msOf), 0.5, "ms")
	add("server.events_ms_p50", x.pick(b.owner, "events", nil, msOf), 0.5, "ms")
	owner := b.inst.node(b.owner).srv.Registry().Snapshot()
	front := b.inst.node(b.front).srv.Registry().Snapshot()
	val("server.batch_size_mean", histMean(owner.Histograms[obs.ServerSessionBatchSize]), "count")
	hits, misses := front.Counters[obs.ServerPlanCacheHits], front.Counters[obs.ServerPlanCacheMisses]
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = hits / (hits + misses)
	}
	val("server.plan_hit_ratio", hitRatio, "ratio")
	var rejected, clusterErrs float64
	for _, n := range b.inst.nodes {
		s := n.srv.Registry().Snapshot()
		rejected += s.Counters[obs.ServerRejected]
		clusterErrs += s.Counters[obs.ClusterForwardErrors] + s.Counters[obs.ClusterReplicationErrors] + s.Counters[obs.ClusterShipHeals]
	}
	val("server.rejected", rejected, "count")

	// internal/core (+ online, dynsched, rangetree, sim, envelope) and
	// internal/obs, called directly.
	add("core.admit_us_p50", probe.admitUs, 0.5, "us")
	add("core.admit_us_p99", probe.admitUs, 0.99, "us")
	add("core.admit_single_us_p50", probe.admitSingleUs, 0.5, "us")
	add("core.drain_ms_p50", probe.drainMs, 0.5, "ms")
	for k, name := range []string{"n24", "n200", "n1000"} {
		add("core.plan_us_p50."+name, probe.planUs[k], 0.5, "us")
	}
	add("core.snapshot_ms_p50", probe.snapshotMs, 0.5, "ms")
	val("lmc.marginal_evals_per_task", probe.evalsPerTask, "1/task")
	val("lmc.preempts_per_task", probe.preemptsPerTask, "1/task")
	val("dynsched.inserts_per_task", probe.insertsPerTask, "1/task")
	val("obs.events_per_task", probe.eventsPerTask, "1/task")
	val("obs.trace_bytes_per_event", probe.bytesPerEvent, "B")
	val("obs.decode_us_per_event", probe.decodeUsPerEvent, "us")

	// internal/cluster: 0 on solo workloads.
	var frontSelf, frames, frameBytes, handoff, migrateSelf []float64
	var ackWait obs.HistogramSnapshot
	framesPerSubmit, frameSessions := 0.0, 0.0
	if b.replica != "" {
		frontSelf = x.pick(b.front, "submit", hasSuffix("/tasks"), selfUs)
		isFrame := isPath("/v1/cluster/replica/frame")
		frames = x.pick(b.replica, "", isFrame, usOf)
		frameBytes = x.pick(b.replica, "", isFrame, bytesOf)
		handoff = x.pick("", "", hasPrefix("/v1/cluster/handoff/"), msOf)
		for _, n := range b.inst.nodes {
			if n.id != b.front {
				migrateSelf = append(migrateSelf, x.pick(n.id, "", hasSuffix("/migrate"), selfMs)...)
			}
		}
		ackWait = owner.Histograms[obs.ClusterShipAckWait]
		if n := res.submits.Load(); n > 0 {
			framesPerSubmit = owner.Counters[obs.ClusterShipFrames] / float64(n)
		}
		frameSessions = histMean(owner.Histograms[obs.ClusterShipFrameSessions])
	}
	add("cluster.front_self_us_p50", frontSelf, 0.5, "us")
	add("cluster.front_self_us_p99", frontSelf, 0.99, "us")
	val("cluster.ack_wait_ms_p50", ackWait.Quantile(0.5)*1e3, "ms")
	val("cluster.ack_wait_ms_p99", ackWait.Quantile(0.99)*1e3, "ms")
	val("cluster.frames_per_submit", framesPerSubmit, "ratio")
	val("cluster.frame_sessions_mean", frameSessions, "count")
	add("cluster.replica_frame_us_p50", frames, 0.5, "us")
	add("cluster.replica_frame_us_p99", frames, 0.99, "us")
	add("cluster.replica_frame_bytes_p99", frameBytes, 0.99, "B")
	add("cluster.handoff_ms_p50", handoff, 0.5, "ms")
	add("cluster.migrate_self_ms_p50", migrateSelf, 0.5, "ms")
	val("cluster.errors", clusterErrs, "count")
	return out, spans, nil
}

func histMean(h obs.HistogramSnapshot) float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}
