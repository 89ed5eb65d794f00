package main

import (
	"time"

	quicbench "repro"
)

// workload is one fixed set of inputs. A pass runs every leg once; each
// leg is one quicbench.RunSweep over the leg's cell list.
type workload struct {
	Name string
	Why  string
	// legs builds the pass's sweeps from the seed. Supervision fields
	// (Workers, Retries, Checkpoint, Progress, TraceDir) are filled in by
	// the pass runner; a leg only names its grid and executor.
	legs func(seed uint64) []leg
	// sameJournals demands byte-identical journals across the legs of one
	// pass (the three executors of exec_seam).
	sameJournals bool
	// twin names the workload whose cell reports this one must reproduce
	// for the same seed, cell for cell where their grids overlap
	// (grid_traced records what grid_paper computes).
	twin string
}

// leg is one RunSweep call of a pass.
type leg struct {
	label  string // "" for single-leg workloads, else what tells the legs apart
	opts   quicbench.SweepOptions
	dist   bool // run on the loopback fabric with one in-process worker
	traced bool // write qlog + packet CSV under a per-pass trace directory
}

// seedStride spaces the Network.Seed values derived from one -seed, so that
// runs with neighbouring -seed values share no input.
const seedStride = 16

// nets returns k networks of one shape whose seeds are seed*seedStride+i:
// the sampled cells, whose inputs -seed chooses.
func nets(mbps float64, rtt time.Duration, bdp float64, dur time.Duration, seed uint64, k int) []quicbench.Network {
	out := make([]quicbench.Network, k)
	for i := range out {
		out[i] = pinned(mbps, rtt, bdp, dur, seed*seedStride+uint64(i))
	}
	return out
}

// pinned returns one network whose Network.Seed is netSeed whatever -seed
// is. Two kinds of cell are pinned, both in grid_bigbdp: where the seed
// would choose the regime instead of sampling it (quiche CUBIC is on or
// off its cliff by the seed), and where a cell costs so much that a run
// cannot hold enough seeds to average it (mvfst at 1250 packets costs
// 0.3 to 0.75 s by the seed). A pinned cell always does the same work.
func pinned(mbps float64, rtt time.Duration, bdp float64, dur time.Duration, netSeed uint64) quicbench.Network {
	return quicbench.Network{BandwidthMbps: mbps, RTT: rtt, BufferBDP: bdp, Duration: dur, Trials: 1, Seed: netSeed}
}

// steadyStacks is every QUIC stack but quiche. quiche CUBIC (flight-reset
// loss marking plus the spurious-loss rollback) falls off a cliff on
// roughly half of all seeds: 50-60 us per event against 2-3 us. A
// workload that samples it measures the seed, not the code, so the cliff
// has one pinned cell in grid_bigbdp and the sampled grids leave quiche out.
var steadyStacks = []string{"mvfst", "chromium", "msquic", "lsquic", "quicgo", "quicly", "quinn", "s2n", "xquic", "neqo"}

// cliffSeed is a Network.Seed on which quiche CUBIC at the paper's setting
// spends the trial past its cliff (0.6 s for a 3 s trial; 0.06 s off it).
const cliffSeed = 2

// Pass length is a trade. What a sampled cell costs depends on its seed
// (which flow takes the losses, how the PE clustering falls) by about 5 %
// of its mean, twice that with recording on, so more seeds per pass narrow
// the seed-to-seed spread of the pass total; but the estimators need passes,
// the more the better against a noisy host, and a run has a fixed length.
// Passes of 1.5-2.7 s (8-14 per run) measured best on both counts.

// paperGrid is the paper's representative setting over four stacks and
// three seeds: BDP + buffer = 42 packets, so fixed per-packet cost
// dominates. Trials are 3 s, the shortest that leaves the PE its samples on
// any seed.
func paperGrid(seed uint64) quicbench.SweepOptions {
	return quicbench.SweepOptions{
		Stacks:   []string{"quicgo", "mvfst", "quicly", "xquic"},
		Networks: nets(20, 10*time.Millisecond, 1, 3*time.Second, seed, 3),
	}
}

var workloads = []workload{
	{
		Name: wlGridPaper,
		Why:  "paper's 20 Mbps/10 ms/1 BDP setting, 4 stacks x CCAs x 3 seeds: BDP + buffer = 42 packets, so fixed per-packet cost in sim/netem/transport/cc dominates",
		legs: func(seed uint64) []leg { return []leg{{opts: paperGrid(seed)}} },
	},
	{
		Name: wlGridBigBDP,
		Why:  "mvfst x 3 CCAs at 40 Mbps/50 ms/5 BDP (1250 packets in flight) and quiche CUBIC past its cliff, seeds pinned; 2 sampled cells at 500 packets: O(in-flight) transport work",
		legs: func(seed uint64) []leg {
			return []leg{
				{label: "deep", opts: quicbench.SweepOptions{
					Stacks:   []string{"mvfst"},
					Networks: []quicbench.Network{pinned(40, 50*time.Millisecond, 5, 7*time.Second, 1)},
				}},
				{label: "cliff", opts: quicbench.SweepOptions{
					Stacks:   []string{"quiche"},
					CCAs:     []quicbench.CCA{quicbench.CUBIC},
					Networks: []quicbench.Network{pinned(20, 10*time.Millisecond, 1, 3*time.Second, cliffSeed)},
				}},
				{label: "mid", opts: quicbench.SweepOptions{
					Stacks:   []string{"xquic"},
					CCAs:     []quicbench.CCA{quicbench.CUBIC, quicbench.Reno},
					Networks: nets(40, 20*time.Millisecond, 5, 3*time.Second, seed, 1),
				}},
			}
		},
	},
	{
		Name: wlManyFlow,
		Why:  "default 1000-flow churning population at 400 Mbps, 3 seeds: traffic engine, pools, demux and thousands of timers; tiny per-flow windows bypass in-flight scaling",
		legs: func(seed uint64) []leg {
			return []leg{{opts: quicbench.SweepOptions{
				TrafficSpec: quicbench.DefaultTrafficSpec(),
				Networks:    nets(400, 20*time.Millisecond, 1, 3*time.Second, seed, 3),
			}}}
		},
	},
	{
		Name: wlExecSeam,
		Why:  "20 stack x CCA cells x 3 seeds at 5 Mbps, ~11 ms each, through in-process, isolate and loopback-dist executors: executor/journal/frame overhead shows",
		legs: func(seed uint64) []leg {
			grid := quicbench.SweepOptions{
				Stacks:   steadyStacks,
				Networks: nets(5, 20*time.Millisecond, 2, 3*time.Second, seed, 3),
			}
			iso := grid
			iso.Isolate = true
			return []leg{
				{label: "inproc", opts: grid},
				{label: "isolate", opts: iso},
				{label: "dist", opts: grid, dist: true},
			}
		},
		sameJournals: true,
	},
	{
		Name: wlGridTraced,
		Why:  "grid_paper's cells with qlog and packet-CSV recording on: every transport/CC hook live and every bottleneck event written, the recording path",
		legs: func(seed uint64) []leg { return []leg{{opts: paperGrid(seed), traced: true}} },
		twin: wlGridPaper,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
