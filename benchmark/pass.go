package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	quicbench "repro"
)

// opSample is one timed operation of a pass: a sweep cell, timed from
// outside as the gap between consecutive Progress callbacks, or the final
// render of a leg. Every instant of a pass belongs to exactly one op.
type opSample struct {
	Name string // "<leg>:<cell key>" or "<leg>:render"
	Dur  time.Duration
	// Cell is the cell's result; nil for render ops.
	Cell *quicbench.SweepCellResult
}

// passResult is everything one pass measured.
type passResult struct {
	Ops  []opSample
	Wall time.Duration // sum of op durations
	// CPU is user+sys seconds of this process plus its reaped children over
	// the pass's ops: GC workers and isolate children included.
	CPU float64
	// ChildCPU is the reaped children's part of CPU (isolate trial children).
	ChildCPU float64
	Alloc    uint64 // MemStats.TotalAlloc delta
	Mallocs  uint64 // MemStats.Mallocs delta
	GCs      uint32 // completed GC cycles during the pass
	PauseNs  uint64 // GC stop-the-world time during the pass
	Digest   string // sha256 over every leg's journal bytes + cell JSON
	// Journals holds each leg's journal bytes, for cross-executor checks.
	Journals [][]byte
	// Summary is the last leg's merged result, for the render probe.
	Summary *quicbench.SweepSummary
	Err     error
}

// cpuSeconds returns user+sys CPU time of this process and of its reaped
// children. Children are counted because the isolate executor does its
// trial compute there.
func cpuSeconds() (self, children float64) {
	usage := func(who int) float64 {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err != nil {
			return 0 // getrusage cannot fail for these two selectors
		}
		return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	}
	return usage(syscall.RUSAGE_SELF), usage(syscall.RUSAGE_CHILDREN)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// runPass executes every leg of the workload once under closed-loop,
// single-client supervision (Workers 1, Retries 1) with a fresh journal,
// and ends each leg with RenderSweep into io.Discard.
func runPass(ctx context.Context, w *workload, seed uint64, dir string, pass int) passResult {
	var pr passResult
	legs := w.legs(seed)
	h := sha256.New()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	for li, lg := range legs {
		journal := filepath.Join(dir, fmt.Sprintf("pass%d-leg%d.jsonl", pass, li))
		opts := lg.opts
		opts.Workers = 1
		opts.Retries = 1
		opts.Checkpoint = journal
		if lg.traced {
			opts.TraceDir = filepath.Join(dir, fmt.Sprintf("pass%d-leg%d-trace", pass, li))
			opts.TracePackets = true
		}

		self0, child0 := cpuSeconds()
		last := time.Now()
		endOp := func(name string, cell *quicbench.SweepCellResult) {
			now := time.Now()
			pr.Ops = append(pr.Ops, opSample{Name: lg.label + ":" + name, Dur: now.Sub(last), Cell: cell})
			last = now
		}
		opts.Progress = func(r quicbench.SweepCellResult) { endOp(r.Cell, &r) }

		// A dist leg runs on the loopback fabric with one worker goroutine
		// started from OnListen; the sweep waits for it (MinWorkers 1).
		var workerWG sync.WaitGroup
		wctx, wcancel := context.WithCancel(ctx)
		if lg.dist {
			opts.Listen = "127.0.0.1:0"
			opts.MinWorkers = 1
			opts.OnListen = func(addr string) {
				worker := quicbench.NewSweepWorker(quicbench.WorkerOptions{Connect: addr, Name: "bench-worker", Parallel: 1})
				workerWG.Add(1)
				go func() {
					defer workerWG.Done()
					_ = worker.Run(wctx) // ends with the campaign or wcancel; a lost worker shows as failed cells
				}()
			}
		}

		sum, err := quicbench.RunSweep(ctx, opts)
		wcancel()
		workerWG.Wait()
		if err != nil {
			pr.Err = fmt.Errorf("leg %q: %w", lg.label, err)
			return pr
		}
		if err := quicbench.RenderSweep(io.Discard, sum); err != nil {
			pr.Err = fmt.Errorf("leg %q render: %w", lg.label, err)
			return pr
		}
		endOp("render", nil)
		self1, child1 := cpuSeconds()
		pr.CPU += self1 - self0 + child1 - child0
		pr.ChildCPU += child1 - child0

		jb, err := os.ReadFile(journal)
		if err != nil {
			pr.Err = fmt.Errorf("leg %q journal: %w", lg.label, err)
			return pr
		}
		pr.Journals = append(pr.Journals, jb)
		pr.Summary = sum
		cells, err := json.Marshal(sum.Cells)
		if err != nil {
			pr.Err = fmt.Errorf("leg %q cells: %w", lg.label, err)
			return pr
		}
		h.Write(jb)
		h.Write(cells)
	}

	runtime.ReadMemStats(&ms1)
	pr.Alloc = ms1.TotalAlloc - ms0.TotalAlloc
	pr.Mallocs = ms1.Mallocs - ms0.Mallocs
	pr.GCs = ms1.NumGC - ms0.NumGC
	pr.PauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	for _, op := range pr.Ops {
		pr.Wall += op.Dur
	}
	pr.Digest = hex.EncodeToString(h.Sum(nil))
	return pr
}

// cellFault reports why a cell result is not a valid first-attempt
// success, or "" when it is.
func cellFault(c *quicbench.SweepCellResult) string {
	if c.Outcome != "ok" || c.Attempts != 1 {
		return fmt.Sprintf("outcome %q after %d attempts: %s", c.Outcome, c.Attempts, c.Err)
	}
	r := c.Report
	for _, v := range []float64{r.Conformance, r.ConformanceOld, r.ConformanceT, r.DeltaThroughputMbps, r.DeltaDelayMs} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "non-finite report"
		}
	}
	for _, v := range []float64{r.Conformance, r.ConformanceOld, r.ConformanceT} {
		if v < 0 || v > 1 {
			return fmt.Sprintf("conformance %g outside [0,1]", v)
		}
	}
	if r.K < 1 {
		return fmt.Sprintf("K = %d < 1", r.K)
	}
	return ""
}
