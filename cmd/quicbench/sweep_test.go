package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runSweep drives `quicbench sweep` in-process, returning the exit code
// and everything the run printed to stderr.
func runSweep(t *testing.T, args ...string) (int, string) {
	t.Helper()
	return runCLI(t, append([]string{"sweep"}, args...)...)
}

// smokeArgs is a two-cell sweep small enough for the unit suite.
func smokeArgs(journal string, extra ...string) []string {
	return append([]string{"-stacks", "quicgo,lsquic", "-ccas", "cubic", "-duration", "2s",
		"-trials", "1", "-q", "-checkpoint", journal}, extra...)
}

// A plain `sweep -checkpoint j -resume` — no -listen, -obs-addr or -live —
// on a journal with a flipped bit must say on stderr that it truncated the
// journal to its verified prefix, and still converge on the uninterrupted
// run's bytes. Regression: the warning sink was only wired under those
// flags, so the recovery was silent.
func TestSweepResumeWarnsOnCorruptJournal(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "j.jsonl")
	if code, stderr := runSweep(t, smokeArgs(journal)...); code != 0 {
		t.Fatalf("reference sweep exited %d:\n%s", code, stderr)
	}
	ref, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(ref, []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("journal has %d lines, want a header and two records", len(lines))
	}
	damaged := append([]byte(nil), ref...)
	damaged[len(lines[0])+len(lines[1])+10] ^= 0x04 // inside the second record
	if err := os.WriteFile(journal, damaged, 0o644); err != nil {
		t.Fatal(err)
	}

	code, stderr := runSweep(t, smokeArgs(journal, "-resume")...)
	if code != 0 {
		t.Fatalf("resumed sweep exited %d:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "fails its integrity check at line 3") ||
		!strings.Contains(stderr, "truncated to the verified prefix of 1 records") {
		t.Errorf("resume recovered a corrupt journal without saying so; stderr:\n%s", stderr)
	}
	if got, _ := os.ReadFile(journal); !bytes.Equal(got, ref) {
		t.Errorf("resumed journal differs from the uninterrupted run:\nwant %s\ngot  %s", ref, got)
	}
}

// `sweep -resume` on a journal in a retired format (headerless version 1,
// "version":2) fails loudly, naming the version, and leaves the file
// byte-for-byte untouched.
func TestSweepResumeRejectsLegacyJournal(t *testing.T) {
	for version, content := range map[string]string{
		"1": `{"key":"a","seed":1,"outcome":"ok","attempts":1}` + "\n",
		"2": `{"journal":"quicbench-sweep","version":2}` + "\n" +
			`{"key":"a","seed":1,"outcome":"ok","attempts":1}` + "\n",
	} {
		journal := filepath.Join(t.TempDir(), "j.jsonl")
		if err := os.WriteFile(journal, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		code, stderr := runSweep(t, smokeArgs(journal, "-resume")...)
		if code != 2 {
			t.Errorf("v%s journal: resume exited %d, want 2", version, code)
		}
		if !strings.Contains(stderr, "journal corrupt") || !strings.Contains(stderr, "version "+version) {
			t.Errorf("v%s journal: stderr does not name the rejected version:\n%s", version, stderr)
		}
		if got, _ := os.ReadFile(journal); string(got) != content {
			t.Errorf("v%s journal modified by the refused resume: %q", version, got)
		}
	}
}
