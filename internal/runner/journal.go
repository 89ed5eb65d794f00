package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"strconv"
	"sync"
	"syscall"

	"repro/internal/faults"
)

// ErrJournalCorrupt is the typed failure for a journal whose interior is
// damaged (unparseable line, record without a key, a record failing its
// CRC or chain-hash check) or whose version header does not match a format
// this binary reads. Callers match it with errors.Is to distinguish
// corruption — which needs operator attention — from a clean-crash
// truncated tail, which resume handles silently.
var ErrJournalCorrupt = errors.New("journal corrupt")

// journalName and journalVersion identify the checkpoint-journal format.
// The first line of every journal written by this package is a header
// (`{"journal":"quicbench-sweep","version":3}`). Version 3 adds per-record
// integrity: every record line carries a CRC-32C of its canonical record
// bytes plus a running chain hash binding it to everything before it, so
// any bit flip, splice, or reorder is detectable and resume can truncate
// to the last verifiable prefix instead of replaying poison. It is the only
// format: a journal that does not start with this header — headerless
// version 1, a "version":2 header, a future version — is rejected as
// ErrJournalCorrupt, never parsed on trust or appended to.
const (
	journalName    = "quicbench-sweep"
	journalVersion = 3
)

// journalHeader is the first line of a versioned journal. The "journal"
// field doubles as the header discriminator: records never carry it, so a
// first line with a non-empty Journal is unambiguously a header.
type journalHeader struct {
	Journal string `json:"journal"`
	Version int    `json:"version"`
}

// journalLine is one record line: the record itself plus its
// integrity fields. CRC is the CRC-32C of the record's canonical JSON
// bytes; Chain is the running chain hash — FNV-1a 64 over the previous
// chain value and those same bytes — that binds the line to its exact
// position in the journal.
type journalLine struct {
	Record
	CRC   string `json:"crc,omitempty"`
	Chain string `json:"chain,omitempty"`
}

// castagnoli is the CRC-32C table shared by every record checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcHex is the per-record checksum: CRC-32C over the record's canonical
// JSON bytes, fixed-width hex.
func crcHex(recBytes []byte) string {
	return fmt.Sprintf("%08x", crc32.Checksum(recBytes, castagnoli))
}

// chainNext advances the journal chain hash over one record.
func chainNext(prev string, recBytes []byte) string {
	h := fnv.New64a()
	h.Write([]byte(prev))
	h.Write(recBytes)
	return fmt.Sprintf("%016x", h.Sum64())
}

// chainSeed starts the chain from the exact header bytes, so even the
// header participates in the integrity check.
func chainSeed(headerLine []byte) string {
	h := fnv.New64a()
	h.Write(headerLine)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Journal is an append-only JSONL checkpoint file: one record per line,
// each carrying its CRC and chain hash, synced to disk per append so a
// crash loses at most the line being written. Appends are safe for
// concurrent use by the worker pool.
type Journal struct {
	mu     sync.Mutex
	f      *os.File
	closed bool
	// chain is the running chain hash after the last line written.
	chain string
	// spaceLeft is the ENOSPC chaos budget (-1 = unlimited): once spent,
	// appends tear mid-line and fail like a full disk.
	spaceLeft int64
}

// OpenJournal opens (creating if needed) the journal at path. With
// appendMode the existing contents are kept — the resume path — except
// for a torn final line (the signature of a crash mid-append) and any
// unverifiable suffix (bad CRC or chain hash), both of which are truncated
// away so fresh records append at a clean, trusted line boundary and the
// resumed journal stays byte-identical to an uninterrupted run's.
func OpenJournal(path string, appendMode bool) (*Journal, error) {
	j := &Journal{spaceLeft: enospcBudget()}
	flags := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if appendMode {
		flags = os.O_CREATE | os.O_WRONLY | os.O_APPEND
		_, info, err := RecoverJournal(path)
		if err != nil {
			return nil, err
		}
		j.chain = info.LastChain
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runner: open journal: %w", err)
	}
	j.f = f
	if j.chain == "" {
		// No header survives (fresh, or truncated back to nothing): start
		// the journal with one, seeding the chain from its bytes.
		hdr, _ := json.Marshal(journalHeader{Journal: journalName, Version: journalVersion})
		if err := j.write(append(hdr, '\n')); err != nil {
			f.Close()
			return nil, fmt.Errorf("runner: write journal header: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("runner: sync journal header: %w", err)
		}
		j.chain = chainSeed(hdr)
	}
	return j, nil
}

// enospcBudget reads the ENOSPC fault hook (-1 = disabled).
func enospcBudget() int64 {
	n, err := strconv.ParseInt(faults.Hook(faults.EnvJournalENOSPC), 10, 64)
	if err != nil || n < 0 {
		return -1
	}
	return n
}

// write sends bytes to the file through the ENOSPC chaos budget: when the
// budget runs out mid-line, the bytes that "fit" are written (a torn
// line, exactly what a full disk leaves) and the append fails with
// ENOSPC.
func (j *Journal) write(p []byte) error {
	if j.spaceLeft < 0 {
		_, err := j.f.Write(p)
		return err
	}
	if int64(len(p)) <= j.spaceLeft {
		j.spaceLeft -= int64(len(p))
		_, err := j.f.Write(p)
		return err
	}
	if j.spaceLeft > 0 {
		j.f.Write(p[:j.spaceLeft])
		j.f.Sync()
		j.spaceLeft = 0
	}
	return syscall.ENOSPC
}

// Append writes one record as a JSONL line carrying its CRC and chain
// hash, and syncs it to disk.
func (j *Journal) Append(rec Record) error {
	recBytes, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("marshal record %q: %w", rec.Key, err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("append to closed journal")
	}
	nextChain := chainNext(j.chain, recBytes)
	line, err := json.Marshal(journalLine{Record: rec, CRC: crcHex(recBytes), Chain: nextChain})
	if err != nil {
		return fmt.Errorf("marshal record %q: %w", rec.Key, err)
	}
	if err := j.write(append(line, '\n')); err != nil {
		return fmt.Errorf("append record %q: %w", rec.Key, err)
	}
	j.chain = nextChain
	return j.f.Sync()
}

// Close closes the journal file. It is idempotent.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	return j.f.Close()
}

// RecoveryInfo reports what journal verification found and what recovery
// had to discard.
type RecoveryInfo struct {
	// TornTail reports an unterminated final line (crash or full disk
	// mid-append), dropped from the parse.
	TornTail bool
	// CorruptSuffix reports that a record failed its CRC or chain-hash
	// check; it and everything after it were discarded, and only the
	// verified prefix was returned.
	CorruptSuffix bool
	// BadLine is the 1-based line number of the first unverifiable line
	// (0 when the journal verified end to end).
	BadLine int
	// GoodLen is the byte length of the verified prefix — the truncation
	// point recovery uses.
	GoodLen int
	// Records counts record lines in the returned prefix.
	Records int
	// LastChain is the chain-hash state after the verified prefix, used
	// to continue appending ("" when the prefix holds no header).
	LastChain string
}

// ParseJournalVerified is the lenient, integrity-checking parser behind
// resume recovery: instead of failing on a damaged journal it returns the
// longest verifiable prefix plus a RecoveryInfo describing what was
// discarded, so callers can truncate to the trusted prefix and re-execute
// the rest. It never panics on any input. The one error — matching
// ErrJournalCorrupt and naming the offending version — is a first line
// that is not this format's header: there is then no chain to verify
// anything against, so nothing is parsed and nothing may be truncated.
func ParseJournalVerified(data []byte) (map[string]Record, RecoveryInfo, error) {
	done := make(map[string]Record)
	info := RecoveryInfo{}
	lineNo := 0
	for offset := 0; offset < len(data); {
		lineNo++
		line, end, terminated := data[offset:], len(data), false
		if idx := bytes.IndexByte(line, '\n'); idx >= 0 {
			line, end, terminated = line[:idx], offset+idx+1, true
		}
		offset = end
		trimmed := bytes.TrimSpace(line)
		switch {
		case len(trimmed) == 0:
			// Blank lines never appear in a journal this package wrote;
			// tolerate terminated ones, ignore trailing spaces at EOF.
			if terminated {
				info.GoodLen = end
			}
			continue
		case !terminated:
			// An unterminated final line is a torn append even when it
			// happens to verify: drop it so appends restart at a clean
			// boundary.
			info.TornTail = true
			return done, info, nil
		case info.LastChain == "":
			if err := checkHeader(trimmed); err != nil {
				return nil, info, fmt.Errorf("line %d: %w", lineNo, err)
			}
			info.LastChain = chainSeed(line)
		default:
			ok, recBytes, ln := verifyLine(trimmed, info.LastChain)
			if !ok {
				// A terminated line that fails verification marks the end
				// of the trustworthy prefix.
				info.CorruptSuffix = true
				info.BadLine = lineNo
				return done, info, nil
			}
			info.LastChain = chainNext(info.LastChain, recBytes)
			done[ln.Key] = ln.Record
			info.Records++
		}
		info.GoodLen = end
	}
	return done, info, nil
}

// checkHeader validates a journal's first line: it must be this format's
// header at this format's version. Anything else — a record (the
// headerless version-1 format), a version-2 header, a future version,
// another program's file — matches ErrJournalCorrupt.
func checkHeader(line []byte) error {
	var h journalHeader
	switch err := json.Unmarshal(line, &h); {
	case err != nil || h.Journal == "":
		return fmt.Errorf("no journal header: a headerless (version 1) journal, or not a journal; this binary reads version %d only: %w",
			journalVersion, ErrJournalCorrupt)
	case h.Journal != journalName:
		return fmt.Errorf("journal header %q (this binary reads %q): %w", h.Journal, journalName, ErrJournalCorrupt)
	case h.Version != journalVersion:
		return fmt.Errorf("journal header version %d (this binary reads version %d only): %w",
			h.Version, journalVersion, ErrJournalCorrupt)
	}
	return nil
}

// verifyLine checks one record line: parseable, keyed, CRC
// matching its canonical record bytes, chain hash matching its position.
func verifyLine(line []byte, chain string) (bool, []byte, journalLine) {
	var ln journalLine
	if err := json.Unmarshal(line, &ln); err != nil || ln.Key == "" {
		return false, nil, ln
	}
	recBytes, err := json.Marshal(ln.Record)
	if err != nil {
		return false, nil, ln
	}
	if ln.CRC != crcHex(recBytes) || ln.Chain != chainNext(chain, recBytes) {
		return false, nil, ln
	}
	return true, recBytes, ln
}

// RecoverJournal reads and verifies the journal at path for resumption,
// repairing it on disk: a torn final line and any unverifiable suffix are
// truncated away, so what remains — and what
// resume replays — is exactly the verified prefix. A missing file is an
// empty journal.
func RecoverJournal(path string) (map[string]Record, RecoveryInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return map[string]Record{}, RecoveryInfo{}, nil
		}
		return nil, RecoveryInfo{}, fmt.Errorf("runner: read journal: %w", err)
	}
	done, info, err := ParseJournalVerified(data)
	if err != nil {
		return nil, info, fmt.Errorf("runner: journal %s: %w", path, err)
	}
	if info.GoodLen < len(data) {
		if terr := os.Truncate(path, int64(info.GoodLen)); terr != nil {
			return nil, info, fmt.Errorf("runner: truncate unverifiable journal tail: %w", terr)
		}
	}
	return done, info, nil
}
