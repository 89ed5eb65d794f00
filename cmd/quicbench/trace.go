package main

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/telemetry"
)

// traceMain implements the `quicbench trace` subcommand: inspect or
// validate qlog JSONL trace files produced by `sweep -trace`. It returns
// the process exit code.
//
//	quicbench trace run-traces/                 # per-file event histogram
//	quicbench trace -check run-traces/          # schema-validate, exit 1 on corrupt
//	quicbench trace -summary run-traces/        # one-line rollup per trial
//	quicbench trace -cwnd 1 cell/test0.qlog.jsonl  # time,cwnd CSV for flow 1
func traceMain(args []string) int {
	fs2 := flag.NewFlagSet("trace", flag.ContinueOnError)
	var (
		check   = fs2.Bool("check", false, "validate every trace file and exit nonzero on corruption")
		summary = fs2.Bool("summary", false, "one line per trial: events, cwnd min/mean/max, losses, PTOs")
		cwnd    = fs2.Int("cwnd", 0, "emit time_s,cwnd_bytes CSV for this flow (1 or 2) to stdout")
	)
	// As in sweep: 0 for -h, 2 for a bad or undefined flag.
	if err := fs2.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs2.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "trace: need trace files or directories (of *.qlog.jsonl)")
		return 2
	}
	files, err := expandTracePaths(fs2.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		return 2
	}
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "trace: no *.qlog.jsonl files found")
		return 1
	}

	if *cwnd > 0 {
		fmt.Println("time_s,cwnd_bytes")
	}
	bad := 0
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			bad++
			continue
		}
		hdr, events, err := telemetry.ReadTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %s: %v\n", path, err)
			bad++
			continue
		}
		switch {
		case *check:
			fmt.Printf("%s: ok (%d events, cell %q role %q trial %d seed %d)\n",
				path, len(events), hdr.Cell, hdr.Role, hdr.Trial, hdr.Seed)
		case *summary:
			// One-line rollup: what a human scans a campaign's traces with
			// before reaching for the full histogram or CSV views.
			var (
				cwndMin, cwndMax, cwndSum float64
				cwndN                     int
				losses, ptos              int64
			)
			for _, ev := range events {
				switch ev.Name {
				case telemetry.EvMetrics:
					if v, ok := ev.Data["cwnd"].(float64); ok {
						if cwndN == 0 || v < cwndMin {
							cwndMin = v
						}
						if v > cwndMax {
							cwndMax = v
						}
						cwndSum += v
						cwndN++
					}
				case telemetry.EvPacketsLost:
					if v, ok := ev.Data["packets"].(float64); ok {
						losses += int64(v)
					} else {
						losses++
					}
				case telemetry.EvPTO:
					ptos++
				}
			}
			cwndMean := 0.0
			if cwndN > 0 {
				cwndMean = cwndSum / float64(cwndN)
			}
			fmt.Printf("%s: cell %q role %q trial %d events %d cwnd %d/%d/%d losses %d ptos %d\n",
				path, hdr.Cell, hdr.Role, hdr.Trial, len(events),
				int64(cwndMin), int64(cwndMean), int64(cwndMax), losses, ptos)
		case *cwnd > 0:
			for _, ev := range events {
				if ev.Name != telemetry.EvMetrics || ev.Flow != *cwnd {
					continue
				}
				if v, ok := ev.Data["cwnd"].(float64); ok {
					fmt.Printf("%.9f,%d\n", ev.T, int64(v))
				}
			}
		default:
			hist := map[string]int{}
			for _, ev := range events {
				hist[ev.Name]++
			}
			names := make([]string, 0, len(hist))
			for n := range hist {
				names = append(names, n)
			}
			sort.Strings(names)
			fmt.Printf("%s: %d events\n", path, len(events))
			for _, n := range names {
				fmt.Printf("  %-40s %d\n", n, hist[n])
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "trace: %d of %d files failed\n", bad, len(files))
		return 1
	}
	return 0
}

// expandTracePaths resolves the argument list: files pass through,
// directories are walked for *.qlog.jsonl.
func expandTracePaths(args []string) ([]string, error) {
	var out []string
	for _, arg := range args {
		st, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !st.IsDir() {
			out = append(out, arg)
			continue
		}
		err = filepath.WalkDir(arg, func(path string, d fs.DirEntry, werr error) error {
			if werr != nil {
				return werr
			}
			if !d.IsDir() && strings.HasSuffix(path, ".qlog.jsonl") {
				out = append(out, path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}
