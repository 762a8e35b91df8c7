package main

import (
	"fmt"
	"time"

	"repro/internal/client"
)

// layerMetrics fills the per-layer metrics of a traced run. Every value
// is per traced round unless its name says otherwise; runtime.* come
// from the untraced blocks so the tracer's own allocations do not count.
func layerMetrics(rep *report, w workload, tr *tracer, ls *loopStats, sdk1, sdk0 client.Stats) {
	nT := float64(max(ls.tracedN, 1))
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / nT }
	dms := func(d time.Duration) float64 { return float64(d) / 1e6 / nT }
	kb := func(b int64) float64 { return float64(b) / 1024 / nT }
	per := func(c int64) float64 { return float64(c) / nT }

	// fl: the trainer's own work between controller calls.
	rep.set("fl.round_ms", dms(ls.tracedT), "ms")
	rep.set("fl.self_ms", ms(ls.self[0]), "ms")
	rep.set("fl.select_ms", dms(ls.timings.Select), "ms")
	rep.set("fl.train_ms", dms(ls.timings.Train), "ms")
	rep.set("fl.aggregate_ms", dms(ls.timings.Aggregate), "ms")
	rep.set("fl.trained_samples", per(int64(ls.trainedSamples)), "count")

	// fedora: the controller-call boundary, then the controller's own
	// RoundStats.
	rep.set("fedora.begin_ms", ms(tr.opNs[opBegin].Load()), "ms")
	rep.set("fedora.stage_ms", ms(tr.opNs[opStage].Load()), "ms")
	rep.set("fedora.serve_ms", ms(tr.opNs[opServe].Load()), "ms")
	rep.set("fedora.serve_calls", per(tr.serveCalls.Load()), "count")
	rep.set("fedora.serve_rows", per(tr.serveRows.Load()), "count")
	rep.set("fedora.submit_ms", ms(tr.opNs[opSubmit].Load()), "ms")
	rep.set("fedora.submit_rows", per(tr.submitRows.Load()), "count")
	rep.set("fedora.finish_ms", ms(tr.opNs[opFinish].Load()), "ms")
	st := ls.traced.RoundStats
	rep.set("fedora.union_wall_ms", dms(st.UnionWallTime), "ms")
	rep.set("fedora.read_wall_ms", dms(st.ReadWallTime), "ms")
	rep.set("fedora.finish_wall_ms", dms(st.FinishWallTime), "ms")
	rep.set("fedora.prefetch_wall_ms", dms(st.PrefetchWallTime), "ms")
	rep.set("fedora.evict_wall_ms", dms(st.EvictWallTime), "ms")
	rep.set("fedora.prefetch_hit_ratio", ratio(float64(st.PrefetchHits), float64(st.PrefetchHits+st.PrefetchWasted)), "ratio")
	rep.set("fedora.k", per(int64(st.K)), "count")
	rep.set("fedora.k_sampled", per(int64(st.KSampled)), "count")
	rep.set("fedora.useful_access_ratio", ratio(float64(st.KSampled-st.Dummy-st.CrossChunkDup), float64(st.KSampled)), "ratio")
	rep.set("fedora.lost", per(int64(st.Lost)), "count")
	rep.set("fedora.unavailable_rows", per(int64(ls.traced.UnavailableRows)), "count")
	rep.set("fedora.modelled_device_ms", dms(st.Total()), "ms")

	// device: summed over every wrapped device of every controller.
	for _, dv := range []struct {
		name string
		st   *devStats
	}{{"ssd", &tr.ssd}, {"dram", &tr.dram}} {
		rep.set("device."+dv.name+".ops", per(dv.st.ops.Load()), "count")
		if dv.name == "ssd" {
			rep.set("device.ssd.read_kb", kb(dv.st.readBytes.Load()), "KB")
			rep.set("device.ssd.write_kb", kb(dv.st.writeBytes.Load()), "KB")
		} else {
			rep.set("device.dram.kb", kb(dv.st.readBytes.Load()+dv.st.writeBytes.Load()), "KB")
		}
		rep.set("device."+dv.name+".ms", ms(dv.st.ns.Load()), "ms")
	}

	// wire: the upload plane at the controller-call boundary.
	rep.set("wire.upload_ms", ms(tr.opNs[opUpload].Load()), "ms")
	rep.set("wire.unmask_ms", ms(tr.opNs[opUnmask].Load()), "ms")
	rep.set("wire.upload_kb", kb(tr.uploadBytes.Load()), "KB")
	rep.set("wire.saturations", per(int64(ls.traced.Saturations)), "count")

	// client and api: per v2 route, trainer side and serving side.
	var clientNs, apiNs int64
	for rt := routeBegin; rt < routeOther; rt++ {
		name := routeNames[rt]
		rep.set("client."+name+".calls", per(tr.client.calls[rt].Load()), "count")
		rep.set("client."+name+".ms", ms(tr.client.ns[rt].Load()), "ms")
		rep.set("client."+name+".kb", kb(tr.client.bytes[rt].Load()), "KB")
		rep.set("api."+name+".ms", ms(tr.api[rt].Load()), "ms")
	}
	for rt := routeBegin; rt < numRoutes; rt++ {
		clientNs += tr.client.ns[rt].Load()
		apiNs += tr.api[rt].Load()
	}
	rep.set("client.transport_ms", ms(clientNs-apiNs), "ms")
	rep.set("client.retry_ratio", ratio(float64(sdk1.Retries-sdk0.Retries), float64(sdk1.Requests-sdk0.Requests)), "ratio")

	// cluster: coordinator → member traffic and the coordinator's own
	// share of its handler time.
	var memberSrvNs int64
	for _, rt := range []route{routeBegin, routeStage, routeEntries, routeGradients, routeFinish} {
		name := routeNames[rt]
		rep.set("cluster.member."+name+".calls", per(tr.member.calls[rt].Load()), "count")
		rep.set("cluster.member."+name+".ms", ms(tr.member.ns[rt].Load()), "ms")
		rep.set("cluster.member."+name+".kb", kb(tr.member.bytes[rt].Load()), "KB")
	}
	for rt := routeBegin; rt < numRoutes; rt++ {
		memberSrvNs += tr.memberSrv[rt].Load()
	}
	rep.set("cluster.member_server_ms", ms(memberSrvNs), "ms")
	coordSelf := int64(0)
	if w.deploy == deployCluster {
		coordSelf = ls.self[3] // chain: ctrl, client, api, member-call, ...
	}
	rep.set("cluster.coordinator_self_ms", ms(coordSelf), "ms")
	rep.set("cluster.fanout_straggler_ms", ms(tr.fan.straggler.Load()), "ms")
	rep.set("cluster.wal_kb", kb(ls.walBytes), "KB")
	rep.set("cluster.probe_calls", per(tr.probes.Load()), "count")

	// runtime: from the untraced blocks.
	nU := float64(max(ls.untracedN, 1))
	rep.set("runtime.alloc_mb", float64(ls.allocB)/(1<<20)/nU, "MB")
	rep.set("runtime.allocs", float64(ls.allocs)/nU, "count")
	rep.set("runtime.gc_cycles", float64(ls.gcs)/nU, "count")
	rep.set("runtime.gc_pause_ms", float64(ls.pauseNs)/1e6/nU, "ms")

	rep.set("trace.overhead_ratio", ratio(
		float64(ls.untracedN)/ls.untracedT.Seconds(),
		float64(ls.tracedN)/ls.tracedT.Seconds()), "ratio")

	n := float64(max(len(ls.lat), 1))
	rep.set("wire_kb_per_round", float64(sdk1.BytesSent+sdk1.BytesReceived-sdk0.BytesSent-sdk0.BytesReceived)/1024/n, "KB")
	rep.set("failed_op_ratio", ratio(float64(rep.Result.Failed), float64(rep.Result.Attempted)), "ratio")

	rep.SelfTimes = selfTable(w, ls)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// selfTable labels the self times of the workload's layer chain.
func selfTable(w workload, ls *loopStats) []selfRow {
	labels := map[layer][2]string{
		layerCtrl:       {"client-sdk", "SDK call time outside its HTTP attempts"},
		layerClient:     {"transport", "trainer-side HTTP attempt time outside the server handler"},
		layerAPI:        {"api+fedora", "server handler: JSON, round bookkeeping, controller"},
		layerMemberCall: {"member-transport", "member HTTP attempt time outside the member handler"},
		layerMember:     {"member", "member handler: JSON, round bookkeeping, controller"},
		layerDevice:     {"device", "wrapped device data operations"},
	}
	switch w.deploy {
	case deployInProc:
		labels[layerCtrl] = [2]string{"fedora", "controller calls outside device operations: union, ORAM, stash, TEE"}
	case deployCluster:
		labels[layerAPI] = [2]string{"coordinator", "coordinator handler outside member calls: routing, WAL, unmask"}
	}
	wall := float64(max(ls.wallNs, 1))
	nT := float64(max(ls.tracedN, 1))
	rows := []selfRow{{Layer: "fl", Detail: "trainer outside controller calls: select, local SGD, merge, FedAvg"}}
	for _, l := range chainOf(w) {
		rows = append(rows, selfRow{Layer: labels[l][0], Detail: labels[l][1]})
	}
	var sum int64
	for i := range rows {
		rows[i].MsPer = float64(ls.self[i]) / 1e6 / nT
		rows[i].Share = float64(ls.self[i]) / wall
		sum += ls.self[i]
	}
	rows = append(rows,
		selfRow{Layer: "total", MsPer: float64(sum) / 1e6 / nT, Share: float64(sum) / wall,
			Detail: fmt.Sprintf("sum of self times; round wall %.3f ms", wall/1e6/nT)},
		selfRow{Layer: "(background device)", MsPer: float64(ls.background) / 1e6 / nT, Share: float64(ls.background) / wall,
			Detail: "device time inside the round but off its blocking path (not in total)"})
	return rows
}
