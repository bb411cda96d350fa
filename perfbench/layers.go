package main

import (
	"bufio"
	"bytes"
	"io"
	"slices"
	"strconv"
	"strings"

	"simurgh/internal/obs"
	"simurgh/internal/wire/client"
)

// layerSnap is one reading of every counter the layers export. Absent
// layers (no servers on local-mail, no router on rep-write) stay zero.
type layerSnap struct {
	core    obs.Snapshot         // serving volumes' FS.Stats, summed
	servers []map[string]float64 // Server.WriteMetrics, one per server
	primary map[string]float64   // replica.Node.WriteMetrics of the primary
	backup  map[string]float64   // replica.Node.WriteMetrics of the backup
	client  client.Stats         // Remote.Stats, summed
	router  client.RouterStats
}

// scrape parses Prometheus text exposition (as the servers and replica
// nodes write it) into series → value.
func scrape(write func(io.Writer)) map[string]float64 {
	var b bytes.Buffer
	write(&b)
	out := make(map[string]float64)
	sc := bufio.NewScanner(&b)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// promHist rebuilds the obs histogram of a scraped simurgh_* latency
// histogram (cumulative le buckets on the obs bucket bounds).
func promHist(m map[string]float64, name string) obs.Histogram {
	var h obs.Histogram
	var prev float64
	for i := 0; i < obs.NumBuckets; i++ {
		le := "+Inf"
		if i < obs.NumBuckets-1 {
			le = strconv.FormatUint(obs.BucketUpperNs(i), 10)
		}
		cum := m[name+`_bucket{le="`+le+`"}`]
		h[i] = uint64(cum - prev)
		prev = cum
	}
	return h
}

func diffMap(after, before map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layers reports the per-layer metrics of the traced window from the
// counter diff, the sampled levels and the benchmark's own spans. Every
// metric in the summary set is reported on every workload; a layer the
// workload does not use reads zero.
func (r *result) layers(before, after layerSnap, levels map[string]levelStats, recs []*recorder) {
	var userBytes, parts, batches uint64
	for _, rec := range recs {
		userBytes += rec.written
		parts += rec.parts
	}

	// core
	d := after.core.Sub(before.core)
	ops := d.TotalCalls()
	r.add(groupLayer, "core.ops", float64(ops), "count", ops)
	r.add(groupLayer, "core.exec_ns", ratio(float64(d.TotalLatNs()), float64(ops)), "ns", ops)
	for op := obs.Op(0); op < obs.NumOps; op++ {
		if o := d.Ops[op]; o.Calls > 0 {
			r.add(groupLayer, "core."+op.String()+"_ns", float64(o.MeanNs()), "ns", o.Sampled)
		}
	}
	line, file := d.LockWaits[obs.LockLine], d.LockWaits[obs.LockFile]
	r.add(groupLayer, "core.line_waits", float64(line.Waits), "count", ops)
	r.add(groupLayer, "core.line_wait_ns", float64(line.TotalNs), "ns", line.Waits)
	r.add(groupLayer, "core.file_waits", float64(file.Waits), "count", ops)
	r.add(groupLayer, "core.file_wait_ns", float64(file.TotalNs), "ns", file.Waits)
	r.add(groupLayer, "core.dir_chain_extends", float64(d.Events[obs.EvDirChainExtend]), "count", ops)
	r.add(groupLayer, "core.lock_timeouts", float64(d.Events[obs.EvLineLockTimeout]), "count", ops)
	r.add(groupLayer, "core.waiter_recoveries", float64(d.Events[obs.EvWaiterRecovery]), "count", ops)
	var contended uint64
	for _, sh := range d.Shards {
		contended += sh.Contended
	}
	r.add(groupLayer, "core.map_contended", float64(contended), "count", ops)

	// pmem
	r.add(groupCount, "pmem.flushes_per_op", ratio(float64(d.Device.Flushes), float64(ops)), "1/op", ops)
	r.add(groupCount, "pmem.fences_per_op", ratio(float64(d.Device.Fences), float64(ops)), "1/op", ops)
	r.add(groupLayer, "pmem.write_amp", ratio(float64(d.Device.StoreBytes+d.Device.NTBytes), float64(userBytes)), "ratio", userBytes)

	// alloc (levels at the end of the window)
	gauge := func(name string) float64 {
		for _, g := range after.core.Gauges {
			if g.Name == name {
				return float64(g.Value)
			}
		}
		return 0
	}
	r.add(groupLayer, "alloc.blocks_used", gauge("alloc.blocks_total")-gauge("alloc.blocks_free"), "count", 1)
	r.add(groupLayer, "alloc.seg_lock_steals", gauge("alloc.seg_lock_steals"), "count", 1)
	r.add(groupLayer, "slab.inode.valid", gauge("slab.inode.valid"), "count", 1)
	r.add(groupLayer, "slab.extent.valid", gauge("slab.extent.valid"), "count", 1)

	// server and wire, summed over servers
	srv := make(map[string]float64)
	var perServer []float64
	var reqHist, quorumHist obs.Histogram
	for i := range after.servers {
		sd := diffMap(after.servers[i], before.servers[i])
		for k, v := range sd {
			srv[k] += v
		}
		perServer = append(perServer, sd["simurgh_server_requests_total"])
		reqHist = reqHist.Add(promHist(sd, "simurgh_server_request_ns"))
		quorumHist = quorumHist.Add(promHist(sd, "simurgh_server_quorum_wait_ns"))
	}
	requests := srv["simurgh_server_requests_total"]
	srvBatches := srv["simurgh_wire_batches_total"]
	r.add(groupLayer, "wire.frames_per_op", ratio(srv["simurgh_wire_frames_read_total"]+srv["simurgh_wire_frames_written_total"], requests), "1/op", uint64(requests))
	r.add(groupCount, "wire.bytes_per_op", ratio(srv["simurgh_wire_bytes_read_total"]+srv["simurgh_wire_bytes_written_total"], requests), "B/op", uint64(requests))
	r.add(groupLayer, "wire.batch_size_mean", ratio(requests, srvBatches), "count", uint64(srvBatches))
	if n := reqHist.Count(); n > 0 {
		r.add(groupLayer, "server.request_p50_ns", float64(reqHist.Percentile(0.50)), "ns", n)
		r.add(groupLayer, "server.request_p99_ns", float64(reqHist.Percentile(0.99)), "ns", n)
	}
	r.add(groupLayer, "server.fast_share", ratio(srv["simurgh_server_fast_batches_total"], srvBatches), "ratio", uint64(srvBatches))
	q := levels["server.queue_len"]
	r.add(groupLayer, "server.queue_len_mean", ratio(q.sum, float64(q.n)), "count", q.n)
	r.add(groupLayer, "server.queue_len_max", q.max, "count", q.n)
	r.add(groupLayer, "server.overloads", srv["simurgh_server_overload_total"], "count", uint64(requests))
	if n := quorumHist.Count(); n > 0 {
		r.add(groupLayer, "server.quorum_wait_p50_ns", float64(quorumHist.Percentile(0.50)), "ns", n)
		r.add(groupLayer, "server.quorum_wait_p99_ns", float64(quorumHist.Percentile(0.99)), "ns", n)
	}
	var maxReq, sumReq float64
	for _, v := range perServer {
		maxReq = max(maxReq, v)
		sumReq += v
	}
	r.add(groupLayer, "shard.imbalance", ratio(maxReq, sumReq/float64(max(len(perServer), 1))), "ratio", uint64(len(perServer)))

	// client and router
	for _, rec := range recs {
		batches += rec.batches()
	}
	cd, cb := after.client, before.client
	r.add(groupLayer, "client.dials", float64(cd.Dials-cb.Dials), "count", 1)
	r.add(groupLayer, "client.overload_retries", float64(cd.OverloadRetries-cb.OverloadRetries), "count", 1)
	r.add(groupLayer, "client.redirects", float64(cd.Redirects-cb.Redirects), "count", 1)
	r.add(groupLayer, "client.failovers", float64(cd.Failovers-cb.Failovers), "count", 1)
	r.add(groupLayer, "client.replays", float64(cd.Replays-cb.Replays), "count", 1)
	routed := uint64(0) // batches that went through the router
	if parts > 0 {
		routed = batches
	}
	r.add(groupCount, "router.parts_per_batch", ratio(float64(parts), float64(routed)), "count", routed)
	r.add(groupLayer, "router.moves", float64(after.router.Moves-before.router.Moves), "count", 1)
	r.add(groupLayer, "router.map_refreshes", float64(after.router.MapRefreshes-before.router.MapRefreshes), "count", 1)

	// replica
	pd := diffMap(after.primary, before.primary)
	bd := diffMap(after.backup, before.backup)
	entries := pd["simurgh_replica_entries_shipped_total"]
	r.add(groupLayer, "replica.entries_per_frame", ratio(entries, pd["simurgh_replica_frames_shipped_total"]), "count", uint64(pd["simurgh_replica_frames_shipped_total"]))
	r.add(groupCount, "replica.ship_bytes_per_op", ratio(pd["simurgh_replica_bytes_shipped_total"], entries), "B/op", uint64(entries))
	r.add(groupLayer, "replica.apply_parallel_share", ratio(bd["simurgh_replica_apply_parallel_total"], bd["simurgh_replica_entries_applied_total"]), "ratio", uint64(bd["simurgh_replica_entries_applied_total"]))
	for _, name := range []string{"ack_window", "ship_lag_entries"} {
		l := levels["replica."+name]
		r.add(groupLayer, "replica."+name+"_mean", ratio(l.sum, float64(l.n)), "count", l.n)
		r.add(groupLayer, "replica."+name+"_max", l.max, "count", l.n)
	}
	if rtt := after.primary["simurgh_replica_heartbeat_rtt_ns"]; rtt > 0 {
		r.add(groupLayer, "replica.heartbeat_rtt_ns", rtt, "ns", 1)
	}
	r.add(groupLayer, "replica.dedup_hits", pd["simurgh_replica_dedup_hits_total"]+bd["simurgh_replica_dedup_hits_total"], "count", uint64(entries))
	r.add(groupLayer, "replica.replay_errors", bd["simurgh_replica_replay_errors_total"], "count", uint64(entries))

	r.selfTimes(recs, d, srv)
}

// selfTimes prints where a traced operation's time went. Locally an op is
// benchmark self time plus the core call. On the serving workloads the
// Submit span (client.submit_ns) is split into client self, server self,
// quorum wait and core exec per server batch. The server exports request_ns
// per request, timed from the batch's arrival at the server to that
// request's completion, so a batch's server residence is estimated as the
// mean request_ns × 2n/(n+1) for n requests per server batch (exact when
// the requests of a batch take equal time and there is no queue wait).
func (r *result) selfTimes(recs []*recorder, d obs.Snapshot, srv map[string]float64) {
	t := sumSpans(recs)
	if t.n[spanOp] == 0 {
		return
	}
	child := t.ns[spanCore] + t.ns[spanClient]
	r.add(groupLayer, "bench.self_ns", float64(t.ns[spanOp]-child)/float64(t.n[spanOp]), "ns", t.n[spanOp])
	if t.n[spanClient] == 0 {
		r.add(groupLayer, "core.call_ns", ratio(float64(t.ns[spanCore]), float64(t.n[spanCore])), "ns", t.n[spanCore])
		return
	}
	var submits []uint32
	for _, rec := range recs {
		for i := range rec.slices {
			for c := range rec.slices[i].lat {
				submits = append(submits, rec.slices[i].lat[c]...)
			}
		}
	}
	slices.Sort(submits)
	n := uint64(len(submits))
	r.add(groupLayer, "client.submit_p50_ns", quantile(submits, 0.50)*1e3, "ns", n)
	r.add(groupLayer, "client.submit_p99_ns", quantile(submits, 0.99)*1e3, "ns", n)
	submit := float64(t.ns[spanClient]) / float64(t.n[spanClient])

	requests, srvBatches := srv["simurgh_server_requests_total"], srv["simurgh_wire_batches_total"]
	perReq := ratio(srv["simurgh_server_request_ns_sum"], requests)
	size := ratio(requests, srvBatches)
	residence := perReq * 2 * size / (size + 1)
	coreExec := ratio(float64(d.TotalLatNs()), srvBatches)
	quorum := ratio(srv["simurgh_server_quorum_wait_ns_sum"], srvBatches)
	r.add(groupLayer, "server.self_ns", residence-coreExec, "ns", uint64(srvBatches))
	r.add(groupLayer, "server.quorum_wait_ns", quorum, "ns", uint64(srvBatches))
	r.add(groupLayer, "core.exec_per_batch_ns", coreExec, "ns", uint64(srvBatches))
	r.add(groupLayer, "client.self_ns", submit-residence-quorum, "ns", t.n[spanClient])
	r.note("client.submit_ns mean %.0f = client.self %.0f + server.self %.0f + quorum wait %.0f + core exec %.0f (ns per server batch of %.2f requests; %.2f server batches per Submit)",
		submit, submit-residence-quorum, residence-coreExec, quorum, coreExec, size, ratio(srvBatches, float64(t.n[spanClient])))
}
