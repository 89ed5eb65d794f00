package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/faults"
)

// chainTrials builds n deterministic trials keyed t-00..t-0(n-1).
func chainTrials(n int) []Trial {
	out := make([]Trial, n)
	for i := range out {
		key, seed := fmt.Sprintf("t-%02d", i), uint64(i+1)
		out[i] = Trial{Key: key, Seed: seed, Run: func(context.Context) (any, error) {
			return result(key, seed), nil
		}}
	}
	return out
}

// runReference runs trials uninterrupted and returns the journal bytes.
func runReference(t *testing.T, trials []Trial) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ref.jsonl")
	cfg := Config{Workers: 1, sleep: noSleep}
	if _, err := RunCheckpointed(context.Background(), cfg, trials, path, false); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// A flipped bit anywhere in a journal record must be caught: resume
// truncates to the verified prefix, re-executes from there, and converges on a journal
// byte-identical to an uninterrupted run — never replaying the poisoned
// record.
func TestJournalBitFlipPrefixTruncated(t *testing.T) {
	trials := chainTrials(4)
	ref := runReference(t, trials)
	lines := bytes.SplitAfter(ref, []byte("\n"))

	// Flip one bit inside the third record (line 3 counting the header).
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")
	damaged := append([]byte(nil), ref...)
	off := len(lines[0]) + len(lines[1]) + len(lines[2]) + 10
	damaged[off] ^= 0x04
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}

	done, info, err := RecoverJournal(path)
	if err != nil {
		t.Fatalf("RecoverJournal: %v", err)
	}
	if !info.CorruptSuffix || info.BadLine != 4 {
		t.Errorf("recovery info = %+v, want CorruptSuffix at line 4", info)
	}
	if len(done) != 2 {
		t.Errorf("recovered %d records, want the 2-record verified prefix", len(done))
	}
	if onDisk, _ := os.ReadFile(path); !bytes.Equal(onDisk, ref[:info.GoodLen]) {
		t.Error("RecoverJournal did not truncate the file to the verified prefix")
	}

	var warnings []string
	cfg := Config{Workers: 1, sleep: noSleep, Warnf: func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}}
	res, err := RunCheckpointed(context.Background(), cfg, chainTrials(4), path, true)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.Reused != 2 {
		t.Errorf("resume reused %d records, want 2 (the verified prefix)", res.Reused)
	}
	// The file was already repaired above, so no warning is required here;
	// what matters is the final bytes.
	if got, _ := os.ReadFile(path); !bytes.Equal(got, ref) {
		t.Errorf("resumed journal differs from uninterrupted run:\nwant %s\ngot  %s", ref, got)
	}
	_ = warnings
}

// A resume itself (without a prior RecoverJournal call) must warn about and
// truncate a corrupt suffix.
func TestResumeWarnsOnCorruptSuffix(t *testing.T) {
	trials := chainTrials(3)
	ref := runReference(t, trials)
	path := filepath.Join(t.TempDir(), "j.jsonl")
	damaged := append([]byte(nil), ref...)
	damaged[len(damaged)-10] ^= 0x10 // inside the final record
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}

	var warnings []string
	cfg := Config{Workers: 1, sleep: noSleep, Warnf: func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}}
	if _, err := RunCheckpointed(context.Background(), cfg, chainTrials(3), path, true); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "integrity") {
		t.Errorf("expected one integrity warning, got %q", warnings)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, ref) {
		t.Errorf("resumed journal differs from uninterrupted run:\nwant %s\ngot  %s", ref, got)
	}
}

// Reordered (spliced) records break the chain even though every line's CRC
// still matches: the chain hash binds each record to its position.
func TestJournalReorderDetected(t *testing.T) {
	ref := runReference(t, chainTrials(3))
	lines := bytes.SplitAfter(ref, []byte("\n"))
	swapped := append(append(append(append([]byte(nil), lines[0]...), lines[2]...), lines[1]...), lines[3]...)

	done, info, err := ParseJournalVerified(swapped)
	if err != nil {
		t.Fatalf("ParseJournalVerified: %v", err)
	}
	if !info.CorruptSuffix || info.BadLine != 2 {
		t.Errorf("recovery info = %+v, want CorruptSuffix at line 2 (first out-of-place record)", info)
	}
	if len(done) != 0 {
		t.Errorf("reordered journal yielded %d records before the break, want 0", len(done))
	}
}

// A record deleted from the middle likewise breaks the chain at the splice
// point even though every remaining line is individually intact.
func TestJournalDroppedRecordDetected(t *testing.T) {
	ref := runReference(t, chainTrials(3))
	lines := bytes.SplitAfter(ref, []byte("\n"))
	spliced := append(append(append([]byte(nil), lines[0]...), lines[1]...), lines[3]...)

	_, info, err := ParseJournalVerified(spliced)
	if err != nil {
		t.Fatalf("ParseJournalVerified: %v", err)
	}
	if !info.CorruptSuffix || info.BadLine != 3 || info.Records != 1 {
		t.Errorf("recovery info = %+v, want 1 verified record before the splice", info)
	}
}

// A disk filling up mid-append (injected via the ENOSPC chaos hook) fails
// the run with a typed error and leaves a torn line; a resume with space
// available recovers and converges on the byte-identical journal.
func TestJournalENOSPCTornResume(t *testing.T) {
	trials := chainTrials(4)
	ref := runReference(t, trials)
	lines := bytes.SplitAfter(ref, []byte("\n"))

	// Budget: header + first record + part of the second.
	budget := len(lines[0]) + len(lines[1]) + 10
	path := filepath.Join(t.TempDir(), "j.jsonl")
	t.Setenv(faults.EnvJournalENOSPC, fmt.Sprintf("%d", budget))
	cfg := Config{Workers: 1, sleep: noSleep}
	_, err := RunCheckpointed(context.Background(), cfg, chainTrials(4), path, false)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("run on a full disk: got %v, want ENOSPC", err)
	}
	if got, _ := os.ReadFile(path); len(got) != budget {
		t.Fatalf("torn journal is %d bytes, want the %d-byte budget", len(got), budget)
	}

	os.Unsetenv(faults.EnvJournalENOSPC)
	var warnings []string
	cfg.Warnf = func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}
	res, err := RunCheckpointed(context.Background(), cfg, chainTrials(4), path, true)
	if err != nil {
		t.Fatalf("Resume after ENOSPC: %v", err)
	}
	if res.Reused != 1 {
		t.Errorf("resume reused %d records, want 1 (the one that landed before the disk filled)", res.Reused)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "torn") {
		t.Errorf("expected one torn-tail warning, got %q", warnings)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, ref) {
		t.Errorf("post-ENOSPC resumed journal differs from uninterrupted run:\nwant %s\ngot  %s", ref, got)
	}
}

// legacyJournals are the two retired formats: complete, well-formed files
// an older binary could have written.
var legacyJournals = map[string]string{
	"1": `{"key":"a","seed":1,"outcome":"ok","attempts":1}` + "\n",
	"2": `{"journal":"quicbench-sweep","version":2}` + "\n" +
		`{"key":"a","seed":1,"outcome":"ok","attempts":1}` + "\n",
}

// TestJournalLegacyVersionsRejected: headerless version-1 and headered
// version-2 input is typed corruption naming the version, never parsed on
// trust.
func TestJournalLegacyVersionsRejected(t *testing.T) {
	for version, data := range legacyJournals {
		done, _, err := ParseJournalVerified([]byte(data))
		if !errors.Is(err, ErrJournalCorrupt) || done != nil {
			t.Errorf("v%s journal: ParseJournalVerified returned %v, %v; want no records and ErrJournalCorrupt", version, done, err)
		} else if !strings.Contains(err.Error(), "version "+version) {
			t.Errorf("v%s journal: error %q does not name the version", version, err)
		}
	}
}

// TestResumeLegacyJournalFailsUntouched: -resume (RunCheckpointed, and
// OpenJournal in append mode behind it) on a version-1 or version-2 file
// fails loudly with the typed error, executes nothing, and leaves the file
// byte-for-byte as it found it — never truncated, never appended to.
func TestResumeLegacyJournalFailsUntouched(t *testing.T) {
	for version, data := range legacyJournals {
		path := filepath.Join(t.TempDir(), "j.jsonl")
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		ran := false
		trial := Trial{Key: "b", Seed: 2, Run: func(context.Context) (any, error) {
			ran = true
			return result("b", 2), nil
		}}
		_, err := RunCheckpointed(context.Background(), Config{sleep: noSleep}, []Trial{trial}, path, true)
		if !errors.Is(err, ErrJournalCorrupt) || !strings.Contains(err.Error(), "version "+version) {
			t.Errorf("v%s journal: resume error %v, want ErrJournalCorrupt naming the version", version, err)
		}
		if ran {
			t.Errorf("v%s journal: resume executed a trial against a rejected journal", version)
		}
		if _, err := OpenJournal(path, true); !errors.Is(err, ErrJournalCorrupt) {
			t.Errorf("v%s journal: append-mode open error %v, want ErrJournalCorrupt", version, err)
		}
		if got, _ := os.ReadFile(path); string(got) != data {
			t.Errorf("v%s journal modified by the refused resume:\nwant %q\ngot  %q", version, data, got)
		}
	}
}
