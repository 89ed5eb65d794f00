package main

// The catalog is the single list of every workload and metric name the
// harness can print. BENCHMARK.json at the repo root carries the same
// names (catalog_test.go keeps the two in step); `-catalog` prints the
// JSON form so the file is generated, never hand-edited.

// Metric directions.
const (
	higher = "higher"
	lower  = "lower"
)

// Workload names, referenced by the per-layer predictions below.
const (
	wlGridPaper  = "grid_paper"
	wlGridBigBDP = "grid_bigbdp"
	wlManyFlow   = "manyflow_churn"
	wlExecSeam   = "exec_seam"
	wlGridTraced = "grid_traced"
)

// End-to-end metric names.
const (
	mCellsPerS  = "cells_per_s"
	mCPUPerCell = "cpu_s_per_cell"
	mAllocMB    = "alloc_mb_per_cell"
	mPeakRSS    = "peak_rss_mb"
	mSetupS     = "setup_s"
)

// e2eMetric is one gated end-to-end metric. Bound is the share of the
// parent's median by which it may worsen before a change is a regression.
type e2eMetric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Def    string
}

var endToEnd = []e2eMetric{
	{mCellsPerS, "1/s", higher, 0.10, "cells / quiet_pass_s, quiet_pass_s = sum over ops of the per-op minimum over passes"},
	{mCPUPerCell, "s", lower, 0.10, "minimum over passes of the pass's (user+sys, self+children, getrusage) / cells"},
	{mAllocMB, "MB", lower, 0.05, "median over passes of MemStats.TotalAlloc delta / cells / 1e6 (harness process)"},
	{mPeakRSS, "MB", lower, 0.10, "max(VmHWM of the harness, ru_maxrss of children) at exit"},
	{mSetupS, "s", lower, 0.20, "process start to first timed op (inputs from -seed, executors, warm-up pass)"},
}

// layerMetric is one ungated per-layer metric together with the
// prediction written down before measuring: which end-to-end metric it
// should move, on which workloads. An empty Moves means "predicted to move
// nothing at these sizes" — listed so a change there is seen to be neutral.
type layerMetric struct {
	Name   string
	Unit   string
	Better string
	Layer  string
	Moves  string   // end-to-end metric name, or "" for none
	On     []string // workloads on which Moves should move
}

var (
	onGrids    = []string{wlGridPaper, wlGridBigBDP}
	onSim      = []string{wlManyFlow, wlGridPaper}
	onPaper    = []string{wlGridPaper}
	onBigBDP   = []string{wlGridBigBDP, wlGridPaper}
	onSeam     = []string{wlExecSeam}
	onManyFlow = []string{wlManyFlow}
	onTraced   = []string{wlGridTraced}
	onAll      = []string{wlGridPaper, wlGridBigBDP, wlManyFlow, wlExecSeam, wlGridTraced}
)

var perLayer = []layerMetric{
	// sim: the discrete-event engine.
	{"sim.events_per_cell", "count", lower, "sim", mCellsPerS, onSim},
	{"sim.pending_highwater", "count", lower, "sim", mCellsPerS, onSim},
	{"sim.self_ns_per_event", "ns", lower, "sim", mCellsPerS, onSim},
	{"sim.null_ns_per_event", "ns", lower, "sim", mCellsPerS, onSim},
	// netem: links, queues, the packet pool.
	{"netem.enqueue_ns_per_pkt", "ns", lower, "netem", mCellsPerS, onPaper},
	{"netem.pump_ns_per_pkt", "ns", lower, "netem", mCellsPerS, onPaper},
	{"netem.drop_frac", "frac", lower, "netem", mCellsPerS, onPaper},
	{"netem.queue_highwater_frac", "frac", lower, "netem", mCellsPerS, onPaper},
	{"netem.pool_miss_frac", "frac", lower, "netem", mAllocMB, onManyFlow},
	// transport: sender ACK processing, loss detection, receiver.
	{"transport.tx_ack_ns_per_ack", "ns", lower, "transport", mCellsPerS, onBigBDP},
	{"transport.tx_timer_ns_per_fire", "ns", lower, "transport", mCellsPerS, onBigBDP},
	{"transport.rx_ns_per_pkt", "ns", lower, "transport", mCellsPerS, onBigBDP},
	{"transport.inflight_pkts_p50", "count", lower, "transport", mCellsPerS, onBigBDP},
	{"transport.inflight_pkts_max", "count", lower, "transport", mCellsPerS, onBigBDP},
	{"transport.loss_frac", "frac", lower, "transport", mCellsPerS, onBigBDP},
	{"transport.spurious_frac", "frac", lower, "transport", mCellsPerS, onBigBDP},
	{"transport.pto_count", "count", lower, "transport", mCellsPerS, onBigBDP},
	{"transport.share", "frac", lower, "transport", mCellsPerS, onBigBDP},
	// cc: the congestion controllers.
	{"cc.reno.on_ack_ns", "ns", lower, "cc", mCellsPerS, onPaper},
	{"cc.cubic.on_ack_ns", "ns", lower, "cc", mCellsPerS, onPaper},
	{"cc.bbr.on_ack_ns", "ns", lower, "cc", mCellsPerS, onPaper},
	{"cc.on_loss_ns", "ns", lower, "cc", mCellsPerS, onPaper},
	{"cc.on_sent_ns", "ns", lower, "cc", mCellsPerS, onPaper},
	{"cc.calls_per_pkt", "count", lower, "cc", mCellsPerS, onPaper},
	{"cc.share", "frac", lower, "cc", mCellsPerS, onPaper},
	// metrics: per-packet recording and the trace-to-points extraction.
	{"metrics.record_ns_per_sample", "ns", lower, "metrics", mAllocMB, onGrids},
	{"metrics.points_us_per_trial", "us", lower, "metrics", mAllocMB, onGrids},
	{"metrics.trace_mb_per_trial", "MB", lower, "metrics", mPeakRSS, onGrids},
	// pe, cluster, geom: predicted neutral (share < 1 % at these sizes).
	{"pe.build_us", "us", lower, "pe", "", nil},
	{"pe.conformance_us", "us", lower, "pe", "", nil},
	{"pe.conformance_t_us", "us", lower, "pe", "", nil},
	{"pe.evaluate_us", "us", lower, "pe", "", nil},
	{"pe.points_per_envelope", "count", lower, "pe", "", nil},
	{"pe.share", "frac", lower, "pe", "", nil},
	{"cluster.retention_us", "us", lower, "cluster", "", nil},
	{"cluster.envelope_us", "us", lower, "cluster", "", nil},
	{"geom.hull_ns_per_point", "ns", lower, "geom", "", nil},
	{"geom.intersect_us", "us", lower, "geom", "", nil},
	// core, report: the cell glue and the rendered table.
	{"core.cell_self_us", "us", lower, "core", mCellsPerS, onSeam},
	{"report.render_us_per_row", "us", lower, "report", mCellsPerS, onSeam},
	// runner: supervision and the checkpoint journal.
	{"runner.dispatch_us_per_cell", "us", lower, "runner", mCellsPerS, onSeam},
	{"runner.journal_append_us", "us", lower, "runner", mCellsPerS, onSeam},
	{"runner.journal_verify_us", "us", lower, "runner", mSetupS, onSeam},
	{"runner.journal_bytes_per_cell", "B", lower, "runner", mCellsPerS, onSeam},
	// isolate, dist, dist/frame: the three executors.
	{"exec.inproc_ms_per_cell", "ms", lower, "runner", mCellsPerS, onSeam},
	{"exec.isolate_ms_per_cell", "ms", lower, "isolate", mCellsPerS, onSeam},
	{"exec.dist_ms_per_cell", "ms", lower, "dist", mCellsPerS, onSeam},
	{"isolate.overhead_ms_per_cell", "ms", lower, "isolate", mCellsPerS, onSeam},
	{"dist.overhead_ms_per_cell", "ms", lower, "dist", mCellsPerS, onSeam},
	{"isolate.child_cpu_frac", "frac", lower, "isolate", mCPUPerCell, onSeam},
	{"dist.connect_ms", "ms", lower, "dist", mCellsPerS, onSeam},
	{"frame.roundtrip_us", "us", lower, "dist/frame", mCPUPerCell, onSeam},
	// traffic: the many-flow engine.
	{"traffic.ns_per_event", "ns", lower, "traffic", mCellsPerS, onManyFlow},
	{"traffic.events_per_cell", "count", lower, "traffic", mCellsPerS, onManyFlow},
	{"traffic.flows_started", "count", lower, "traffic", mCellsPerS, onManyFlow},
	{"traffic.flows_completed", "count", higher, "traffic", mCellsPerS, onManyFlow},
	{"traffic.rejected_frac", "frac", lower, "traffic", mCellsPerS, onManyFlow},
	{"traffic.peak_active", "count", lower, "traffic", mPeakRSS, onManyFlow},
	{"traffic.pool_senders", "count", lower, "traffic", mPeakRSS, onManyFlow},
	{"traffic.allocs_per_flow", "count", lower, "traffic", mAllocMB, onManyFlow},
	{"traffic.stale_deliveries", "count", lower, "traffic", mCellsPerS, onManyFlow},
	// telemetry, trace: the recording sinks.
	{"telemetry.jsonl_ns_per_event", "ns", lower, "telemetry", mCellsPerS, onTraced},
	{"telemetry.events_per_trial", "count", lower, "telemetry", mCellsPerS, onTraced},
	{"telemetry.qlog_bytes_per_trial", "B", lower, "telemetry", mAllocMB, onTraced},
	{"trace.csv_ns_per_pkt", "ns", lower, "trace", mCellsPerS, onTraced},
	{"trace.csv_bytes_per_trial", "B", lower, "trace", mAllocMB, onTraced},
	{"recording.overhead_frac", "frac", lower, "telemetry", mCellsPerS, onTraced},
	// Go runtime, from the untraced passes of the traced run.
	{"go.allocs_per_cell", "count", lower, "go", mCPUPerCell, onAll},
	{"go.gc_cycles_per_cell", "count", lower, "go", mCPUPerCell, onAll},
	{"go.gc_pause_ms_per_cell", "ms", lower, "go", mCPUPerCell, onAll},
	{"go.heap_live_mb", "MB", lower, "go", mPeakRSS, onAll},
	// The harness itself.
	{"trace.overhead_frac", "frac", lower, "harness", "", nil},
	{"trace.fidelity_ok", "bool", higher, "harness", "", nil},
	{"host.noise_frac", "frac", lower, "harness", "", nil},
}

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []fileWorkload `json:"workloads"`
	EndToEnd   []fileE2E      `json:"end_to_end"`
	PerLayer   []fileLayer    `json:"per_layer"`
}

type fileWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type fileE2E struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type fileLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is how long one run measures; the driver passes it back as
// -seconds. Sized so a whole run (build check, set-up, the timed passes, the
// twin check) stays under 30 s on the 2-vCPU sandbox: 23-27 s measured.
const runSeconds = 22

// catalogFile renders the catalog in BENCHMARK.json form.
func catalogFile() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "benchmark/bench.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, fileWorkload{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, fileE2E{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, fileLayer{m.Name, m.Unit, m.Better})
	}
	return f
}
