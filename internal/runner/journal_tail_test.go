package runner

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A malformed final line that *is* newline-terminated was a completed
// write, not a crash artifact — it must be treated as corruption, unlike
// the torn (unterminated) tail a crash leaves.
func TestJournalTerminatedMalformedFinalLineFatal(t *testing.T) {
	data := writtenJournal(t, Record{Key: "a", Seed: 1, Outcome: OutcomeOK, Attempts: 1})
	data = append(data, []byte("{\"key\":\"b\",\"outco\n")...) // terminated garbage
	done, info, err := ParseJournalVerified(data)
	if err != nil || !info.CorruptSuffix || info.BadLine != 3 || info.TornTail {
		t.Fatalf("newline-terminated malformed final line: info %+v, err %v; want CorruptSuffix at line 3", info, err)
	}
	if _, ok := done["a"]; !ok || len(done) != 1 {
		t.Errorf("verified prefix = %v, want just %q", done, "a")
	}

	// The same bytes without the final newline are a torn tail: tolerated.
	torn := bytes.TrimSuffix(data, []byte("\n"))
	done, info, err = ParseJournalVerified(torn)
	if err != nil || info.CorruptSuffix {
		t.Fatalf("torn tail rejected: info %+v, err %v", info, err)
	}
	if !info.TornTail {
		t.Error("torn tail not reported as truncated")
	}
	if _, ok := done["a"]; !ok {
		t.Error("intact record lost alongside the torn tail")
	}
}

func TestReadJournalTailReportsTruncation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")
	content := writtenJournal(t, Record{Key: "a", Seed: 1, Outcome: OutcomeOK, Attempts: 1})
	if err := os.WriteFile(path, append(content[:len(content):len(content)], []byte(`{"key":"b"`)...), 0o644); err != nil {
		t.Fatal(err)
	}
	done, info, err := RecoverJournal(path)
	if err != nil {
		t.Fatalf("RecoverJournal: %v", err)
	}
	if !info.TornTail {
		t.Error("torn tail not reported")
	}
	if len(done) != 1 {
		t.Errorf("got %d records, want 1", len(done))
	}
	if onDisk, _ := os.ReadFile(path); !bytes.Equal(onDisk, content) {
		t.Error("RecoverJournal did not cut the torn tail")
	}

	// A clean journal reports no truncation; so does a missing one.
	if _, info, err = RecoverJournal(path); err != nil || info.TornTail {
		t.Errorf("clean journal: torn=%v err=%v", info.TornTail, err)
	}
	if _, info, err = RecoverJournal(filepath.Join(dir, "absent.jsonl")); err != nil || info.TornTail {
		t.Errorf("missing journal: torn=%v err=%v", info.TornTail, err)
	}
}

// OpenJournal in append mode must cut a torn tail before appending, so a
// resumed journal is byte-identical to an uninterrupted one instead of
// carrying half a record glued to the next line.
func TestOpenJournalTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	recA := Record{Key: "a", Seed: 1, Outcome: OutcomeOK, Attempts: 1}
	recB := Record{Key: "b", Seed: 2, Outcome: OutcomeOK, Attempts: 1}

	// Reference: both records written in one uninterrupted session.
	ref := filepath.Join(dir, "ref.jsonl")
	jr, err := OpenJournal(ref, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []Record{recA, recB} {
		if err := jr.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	jr.Close()
	want, _ := os.ReadFile(ref)

	// Crash scenario: record a lands, then half of record b's line.
	path := filepath.Join(dir, "j.jsonl")
	j1, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.Append(recA); err != nil {
		t.Fatal(err)
	}
	j1.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"b","ou`)
	f.Close()

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	if err := j2.Append(recB); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed journal differs from uninterrupted run:\nwant %q\ngot  %q", want, got)
	}
}

func TestRunCheckpointedWarnsOnTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")
	if err := os.WriteFile(path, []byte(`{"key":"a","outco`), 0o644); err != nil {
		t.Fatal(err)
	}
	var warnings []string
	cfg := Config{Workers: 1, sleep: noSleep, Warnf: func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}}
	if _, err := RunCheckpointed(context.Background(), cfg, []Trial{okTrial("a", 1)}, path, true); err != nil {
		t.Fatalf("RunCheckpointed: %v", err)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "torn") {
		t.Errorf("expected one torn-tail warning, got %q", warnings)
	}
}

// OrderedJournal must produce the exact bytes of a single-worker run even
// when a multi-worker pool completes trials in reverse order.
func TestOrderedJournalByteIdentical(t *testing.T) {
	dir := t.TempDir()
	keys := []string{"a", "b", "c", "d"}

	makeTrials := func(gated bool) []Trial {
		gates := make([]chan struct{}, len(keys))
		for i := range gates {
			gates[i] = make(chan struct{})
		}
		out := make([]Trial, len(keys))
		for i, k := range keys {
			i, k := i, k
			out[i] = Trial{Key: k, Seed: uint64(i + 1), Run: func(context.Context) (any, error) {
				if gated {
					// Trial i finishes only after trial i+1: completion
					// order is the exact reverse of input order.
					if i < len(keys)-1 {
						<-gates[i+1]
					}
					close(gates[i])
				}
				return result(k, uint64(i+1)), nil
			}}
		}
		return out
	}

	ref := filepath.Join(dir, "ref.jsonl")
	cfg := Config{Workers: 1, sleep: noSleep}
	if _, err := RunCheckpointed(context.Background(), cfg, makeTrials(false), ref, false); err != nil {
		t.Fatalf("reference run: %v", err)
	}

	got := filepath.Join(dir, "ordered.jsonl")
	cfg = Config{Workers: len(keys), OrderedJournal: true, sleep: noSleep}
	if _, err := RunCheckpointed(context.Background(), cfg, makeTrials(true), got, false); err != nil {
		t.Fatalf("ordered run: %v", err)
	}

	want, _ := os.ReadFile(ref)
	have, _ := os.ReadFile(got)
	if !bytes.Equal(want, have) {
		t.Errorf("ordered multi-worker journal differs from single-worker:\nwant %s\ngot  %s", want, have)
	}

	// Ordered journals also replay: a resume of the finished campaign
	// reuses every record without touching the file.
	res, err := RunCheckpointed(context.Background(), cfg, makeTrials(false), got, true)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.Reused != len(keys) {
		t.Errorf("resume reused %d records, want %d", res.Reused, len(keys))
	}
	after, _ := os.ReadFile(got)
	if !bytes.Equal(have, after) {
		t.Error("resume of a complete ordered journal rewrote it")
	}
}
