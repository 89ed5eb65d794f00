// Command timeseries runs one two-flow experiment and exports both flows'
// per-window throughput and delay series as CSV, one row per window with
// the columns time_s, a_mbps, a_delay_ms, b_mbps, b_delay_ms — the §6
// "systematic root cause analysis" workflow: time-series graphs of the
// kind the paper uses to debug low-conformance implementations (Fig. 15).
// A failed write (full disk, closed pipe) exits 1. So does a trial that
// aborts or in which a flow moves no data: the CSV still holds what was
// measured, and the typed error follows on stderr.
//
// Usage:
//
//	timeseries -a quiche:cubic -b kernel:cubic > series.csv
//	timeseries -a mvfst:bbr -b kernel:bbr -buffer 3 -duration 60s
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stacks"
)

func parseFlow(s string) (core.Flow, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return core.Flow{}, fmt.Errorf("want stack:cca, got %q", s)
	}
	st := stacks.Get(parts[0])
	if st == nil {
		return core.Flow{}, fmt.Errorf("unknown stack %q", parts[0])
	}
	cca := stacks.CCA(parts[1])
	if !st.Has(cca) {
		return core.Flow{}, fmt.Errorf("%s does not implement %s", parts[0], parts[1])
	}
	return core.Flow{Stack: st, CCA: cca}, nil
}

func main() {
	var (
		aFlag    = flag.String("a", "quiche:cubic", "measured implementation (stack:cca)")
		bFlag    = flag.String("b", "kernel:cubic", "competitor (stack:cca)")
		bw       = flag.Float64("bw", 20, "bottleneck bandwidth (Mbps)")
		rtt      = flag.Duration("rtt", 10*time.Millisecond, "base RTT")
		buffer   = flag.Float64("buffer", 1, "buffer (BDP multiples)")
		duration = flag.Duration("duration", 30*time.Second, "flow duration")
		seed     = flag.Uint64("seed", 1, "seed")
	)
	flag.Parse()

	a, err := parseFlow(*aFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	b, err := parseFlow(*bFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	n := core.Network{
		BandwidthMbps: *bw,
		RTT:           sim.Duration(*rtt),
		BufferBDP:     *buffer,
		Duration:      sim.Duration(*duration),
		Trials:        1,
		Seed:          *seed,
	}
	res, trialErr := core.RunTrialE(a, b, n, 0)

	opts := metrics.SampleOptions{RunDuration: n.Duration, BaseRTT: n.RTT}
	sa := metrics.Series(res.Traces[0], opts)
	sb := metrics.Series(res.Traces[1], opts)

	w := csv.NewWriter(os.Stdout)
	w.Write([]string{"time_s", "a_mbps", "a_delay_ms", "b_mbps", "b_delay_ms"})
	for i := 0; i < len(sa) && i < len(sb); i++ {
		w.Write([]string{
			strconv.FormatFloat(sa[i].Time.Seconds(), 'f', 3, 64),
			strconv.FormatFloat(sa[i].Mbps, 'f', 3, 64),
			strconv.FormatFloat(sa[i].DelayMs, 'f', 3, 64),
			strconv.FormatFloat(sb[i].Mbps, 'f', 3, 64),
			strconv.FormatFloat(sb[i].DelayMs, 'f', 3, 64),
		})
	}
	w.Flush()
	if err := errors.Join(w.Error(), trialErr); err != nil {
		fmt.Fprintln(os.Stderr, "timeseries:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "%s vs %s on %s: means %.1f / %.1f Mbps, drops %d, losses %v (spurious %v)\n",
		*aFlag, *bFlag, n.String(), res.MeanMbps[0], res.MeanMbps[1], res.Drops, res.Losses, res.Spurious)
}
