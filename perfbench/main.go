// Command perfbench is the repository benchmark: it sets up one workload
// against in-process Simurgh volumes and servers, drives it with closed-loop
// clients for a fixed time, checks every output, and prints every
// end-to-end and per-layer metric with its unit and sample count. The last
// line of standard output is a JSON summary of the metrics BENCHMARK.json
// names.
//
//	perfbench --workload local-mail|net-read|rep-write --seed N --seconds S --trace 0|1
//
// With --trace 0 the summary holds the end-to-end metrics of one measured
// window. With --trace 1 the run measures an untraced half window, then a
// traced half window that records spans around every call into core and
// the wire client and diffs every layer's exported counters; the summary
// holds the per-layer metrics.
//
// Run it through run.py from the repository root, which builds it first.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// summaryE2E and summaryLayer are the metrics of the one-line summary, as
// BENCHMARK.json lists them. Each is measured on every workload.
var (
	summaryE2E = []string{
		"ops_per_s", "op_p50_us", "write_p50_us", "cpu_us_per_op", "setup_s", "mem_mib", "space_amp",
	}
	summaryLayer = []string{
		"core.ops", "core.exec_ns", "core.line_waits", "core.file_waits",
		"core.dir_chain_extends", "core.lock_timeouts", "core.waiter_recoveries", "core.map_contended",
		"pmem.flushes_per_op", "pmem.fences_per_op", "pmem.write_amp",
		"alloc.blocks_used", "alloc.seg_lock_steals", "slab.inode.valid", "slab.extent.valid",
		"client.dials", "client.overload_retries", "client.redirects", "client.failovers", "client.replays",
		"router.parts_per_batch", "router.moves", "router.map_refreshes", "shard.imbalance",
		"wire.frames_per_op", "wire.bytes_per_op", "wire.batch_size_mean",
		"server.fast_share", "server.queue_len_mean", "server.queue_len_max", "server.overloads",
		"replica.entries_per_frame", "replica.ship_bytes_per_op", "replica.apply_parallel_share",
		"replica.ack_window_mean", "replica.ack_window_max",
		"replica.ship_lag_entries_mean", "replica.ship_lag_entries_max",
		"replica.dedup_hits", "replica.replay_errors",
		"trace_overhead_pct",
	}
)

// setupReps is how many times each run sets its system up; setup_s is the
// median.
const setupReps = 9

func main() {
	workload := flag.String("workload", "", "local-mail, net-read or rep-write")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, setupReps: setupReps}
	names := summaryE2E
	if cfg.trace {
		names = summaryLayer
		cfg.traceOut = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
		if err := os.MkdirAll(filepath.Dir(cfg.traceOut), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	res, err := bench(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.write(os.Stdout)
	line, err := res.summary(names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
