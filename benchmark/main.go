// Command benchmark is the repo's benchmark harness: one workload per
// invocation, driven through the public facade (quicbench.RunSweep), timed
// from outside, checked for self-consistency, reported as one JSON object.
//
//	go run ./benchmark -workload grid_paper [-seed N] [-seconds S] [-trace 0|1]
//
// See README.md in this directory for the metric and workload tables and
// for how a run is timed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	quicbench "repro"
)

// processStart anchors setup_s ("process start to first timed op"). Package
// initialisation runs within a millisecond of exec.
var processStart = time.Now()

// outDir holds everything a run leaves behind (span files, run
// summaries) and its scratch space; it is git-ignored.
const outDir = "benchmark/out"

func main() { os.Exit(realMain()) }

func realMain() int {
	// The isolate executor re-executes this binary as its trial child.
	if len(os.Args) > 1 && os.Args[1] == "_trial" {
		return quicbench.TrialChildMain()
	}

	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see -list)")
	seed := fs.Uint64("seed", 1, "input seed: sets every Network.Seed")
	seconds := fs.Float64("seconds", runSeconds, "how long to measure")
	trace := fs.Int("trace", 0, "1: the traced run (per-layer metrics); 0: end-to-end metrics")
	list := fs.Bool("list", false, "print the workload names and exit")
	catalog := fs.Bool("catalog", false, "print the catalog in BENCHMARK.json form and exit")
	aaDir := fs.String("aa", "", "render the A/A report for the result files run.sh -aa stored in this directory")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}

	switch {
	case *catalog:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.SetEscapeHTML(false)
		if err := enc.Encode(catalogFile()); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	case *list:
		for _, w := range workloads {
			fmt.Println(w.Name)
		}
		return 0
	case *aaDir != "":
		pass, err := aaReport(os.Stdout, *aaDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if !pass {
			return 1
		}
		return 0
	}

	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (try -list)\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}

	dir, err := scratchDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	budget := time.Duration(*seconds * float64(time.Second))
	var out *runOutput
	if *trace == 1 {
		out, err = runTraced(w, *seed, budget, dir)
	} else {
		out, err = runMeasured(w, *seed, budget, dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if err := out.emit(w.Name, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// scratchDir creates this run's private scratch directory under outDir,
// so that a run reads and writes only inside its checkout.
func scratchDir() (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}
