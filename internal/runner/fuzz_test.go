package runner

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// writtenJournal builds a valid journal through the real writer: a fuzz
// seed, and the well-formed prefix the torn-tail and corruption tests
// damage.
func writtenJournal(tb testing.TB, recs ...Record) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "seed.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		tb.Fatal(err)
	}
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			tb.Fatal(err)
		}
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzParseJournal feeds arbitrary bytes to the checkpoint-journal parsers.
// Invariants: they never panic; ParseJournal either fails with the typed
// ErrJournalCorrupt sentinel or returns only keyed records; and the
// recovering parser (ParseJournalVerified) always classifies input as a
// verifiable prefix — whose records ParseJournal of the prefix bytes agrees
// with — or typed corruption, never anything in between.
func FuzzParseJournal(f *testing.F) {
	const hdr = `{"journal":"quicbench-sweep","version":3}` + "\n"
	f.Add([]byte(nil))
	f.Add([]byte(hdr + "\n\n\n"))
	// Records without integrity fields behind a valid header: every one is
	// an unverifiable suffix.
	f.Add([]byte(hdr + `{"key":"a","outcome":"ok","attempts":1}` + "\n"))
	f.Add([]byte(hdr + `{"key":"a","outcome":"ok"}` + "\n" + `{"key":"b","outcome":"failed","err":"x"}` + "\n"))
	// Crash artifact: torn final append.
	f.Add([]byte(hdr + `{"key":"a","outcome":"ok"}` + "\n" + `{"key":"b","outco`))
	// Corruption: malformed interior line, keyless interior record.
	f.Add([]byte(hdr + "garbage\n" + `{"key":"a"}` + "\n"))
	f.Add([]byte(hdr + `{"seed":7}` + "\n" + `{"key":"a"}` + "\n"))
	// First lines that are not this format's header — retired version 2,
	// an unknown version, headerless version 1 (typed corruption each) —
	// and a torn header (crash artifact).
	f.Add([]byte(`{"journal":"quicbench-sweep","version":2}` + "\n" + `{"key":"a","outcome":"ok"}` + "\n"))
	f.Add([]byte(`{"journal":"quicbench-sweep","version":99}` + "\n" + `{"key":"a","outcome":"ok"}` + "\n"))
	f.Add([]byte(`{"journal":"quicbench-sw`))
	// Valid JSON of the wrong shape.
	f.Add([]byte(hdr + "[1,2,3]\n{\"key\":\"a\"}\n"))
	f.Add([]byte(hdr + "null\n"))
	f.Add([]byte(`{"key":"a","result":{"deep":[{"nest":[[[[1]]]]}]}}` + "\n"))

	// Chain-hashed (version 3) seeds: a clean journal, one with a flipped
	// byte mid-record, one with its two records swapped (chain breaks), one
	// with a forged crc field, and one torn mid-line.
	chained := writtenJournal(f,
		Record{Key: "a", Seed: 1, Outcome: OutcomeOK, Attempts: 1},
		Record{Key: "b", Seed: 2, Outcome: OutcomeOK, Attempts: 1},
	)
	f.Add(chained)
	flipped := append([]byte(nil), chained...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)
	f.Add(fuzzReorder(chained))
	f.Add([]byte(hdr + `{"key":"a","outcome":"ok","crc":"00000000","chain":"0000000000000000"}` + "\n"))
	f.Add(chained[:len(chained)-4])

	f.Fuzz(func(t *testing.T, data []byte) {
		done, err := ParseJournal(data)
		if err != nil {
			if !errors.Is(err, ErrJournalCorrupt) {
				t.Fatalf("ParseJournal returned an untyped error: %v", err)
			}
		} else {
			for key := range done {
				if key == "" {
					t.Fatal("ParseJournal returned a record with an empty key")
				}
			}
		}

		prefix, info, verr := ParseJournalVerified(data)
		if verr != nil {
			if !errors.Is(verr, ErrJournalCorrupt) {
				t.Fatalf("ParseJournalVerified returned an untyped error: %v", verr)
			}
			return
		}
		if info.GoodLen < 0 || info.GoodLen > len(data) {
			t.Fatalf("GoodLen %d outside input of %d bytes", info.GoodLen, len(data))
		}
		for key := range prefix {
			if key == "" {
				t.Fatal("ParseJournalVerified returned a record with an empty key")
			}
		}
		// The verified prefix must itself parse cleanly and yield the same
		// records — otherwise truncating to it would not actually recover.
		again, aerr := ParseJournal(data[:info.GoodLen])
		if aerr != nil {
			t.Fatalf("verified prefix does not re-parse: %v", aerr)
		}
		if len(again) != len(prefix) {
			t.Fatalf("verified prefix re-parse: %d records, recovery said %d", len(again), len(prefix))
		}
	})
}

// fuzzReorder swaps the 2nd and 3rd lines of a journal (the two records
// after the header), preserving each line's bytes.
func fuzzReorder(data []byte) []byte {
	var lines [][]byte
	start := 0
	for i := 0; i < len(data); i++ {
		if data[i] == '\n' {
			lines = append(lines, data[start:i+1])
			start = i + 1
		}
	}
	if len(lines) < 3 {
		return data
	}
	lines[1], lines[2] = lines[2], lines[1]
	var out []byte
	for _, l := range lines {
		out = append(out, l...)
	}
	return out
}
