package core

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TraceOptions enables qlog-style structured tracing for trials. It rides
// inside CellTrialSpec, so a crash-isolated trial child writes exactly the
// same trace files (same paths, same bytes) as the in-process executor —
// the filesystem is shared between parent and child.
type TraceOptions struct {
	// Dir is the root trace directory; each sweep cell gets a sanitized
	// subdirectory holding one .qlog.jsonl file per trial. "" disables
	// tracing.
	Dir string `json:"dir,omitempty"`
	// Packets additionally streams the bottleneck's per-packet link events
	// to a .packets.csv file next to each trial's qlog (the StreamRecorder
	// path: O(1) memory regardless of trial length).
	Packets bool `json:"packets,omitempty"`
}

func (o *TraceOptions) enabled() bool { return o != nil && o.Dir != "" }

// cellDirName maps a sweep cell key to a filesystem-safe directory name:
// every byte outside [A-Za-z0-9._-] becomes '_'. Collisions are acceptable
// (the qlog header inside each file carries the exact key).
func cellDirName(key string) string {
	b := []byte(key)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// cellTracer opens per-trial trace files inside one cell's directory. A nil
// cellTracer is valid and opens nothing — the disabled path.
type cellTracer struct {
	dir     string
	cell    string
	packets bool
}

// newCellTracer prepares the cell's trace directory. Returns nil (tracing
// disabled) when opts carries no directory.
func newCellTracer(opts *TraceOptions, cell string) (*cellTracer, error) {
	if !opts.enabled() {
		return nil, nil
	}
	dir := filepath.Join(opts.Dir, cellDirName(cell))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: trace dir: %w", err)
	}
	return &cellTracer{dir: dir, cell: cell, packets: opts.Packets}, nil
}

// trialTrace is the per-trial trace sink handed to runTrial: the qlog event
// tracer plus the optional streaming packet recorder, with the backing
// files so close can flush and release them. A nil *trialTrace disables
// tracing for the trial.
type trialTrace struct {
	tracer  telemetry.Tracer
	jsonl   *telemetry.JSONL // non-nil when tracer writes to a file
	packets *trace.StreamRecorder
	files   []*os.File
}

// open creates the trace files for one trial. role is "test" or "ref"; idx
// is the file index within the cell (reference files reuse the 0-based
// index even though their runTrial trial number is offset by 1000, which
// the header records via trial). Retried attempts reopen with O_TRUNC, so
// a retry fully replaces the failed attempt's partial trace.
func (ct *cellTracer) open(role string, idx, trial int, seed uint64) (*trialTrace, error) {
	if ct == nil {
		return nil, nil
	}
	tt := &trialTrace{}
	qf, err := os.OpenFile(filepath.Join(ct.dir, fmt.Sprintf("%s%d.qlog.jsonl", role, idx)),
		os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("core: trace open: %w", err)
	}
	tt.files = append(tt.files, qf)
	tt.jsonl = telemetry.NewJSONL(qf)
	tt.jsonl.Header(telemetry.TraceMeta{Cell: ct.cell, Role: role, Trial: trial, Seed: seed})
	tt.tracer = tt.jsonl
	if ct.packets {
		pf, perr := os.OpenFile(filepath.Join(ct.dir, fmt.Sprintf("%s%d.packets.csv", role, idx)),
			os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if perr != nil {
			qf.Close()
			return nil, fmt.Errorf("core: trace open: %w", perr)
		}
		tt.files = append(tt.files, pf)
		tt.packets = trace.NewStreamRecorder(pf)
	}
	return tt, nil
}

// close flushes and releases the trial's trace files, reporting the first
// sticky write error. Safe on nil.
func (tt *trialTrace) close() error {
	if tt == nil {
		return nil
	}
	var first error
	if tt.jsonl != nil {
		first = tt.jsonl.Flush()
	}
	if tt.packets != nil {
		if err := tt.packets.Flush(); err != nil && first == nil {
			first = err
		}
	}
	for _, f := range tt.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		return fmt.Errorf("core: trace write: %w", first)
	}
	return nil
}
