package telemetry

import (
	"fmt"
	"io"
	"sync"
)

// Logger is the single leveled seam behind the CLI's ad-hoc Logf
// closures. Output at the default threshold is byte-compatible with the
// old closures — "<prefix><message>\n" — so goldens and smoke greps do
// not churn; -v additionally prints "<prefix>debug: <message>\n" lines.
//
// A nil *Logger is valid and silent, so callers can hand lg.Infof
// around without nil checks at every seam.
type Logger struct {
	mu     sync.Mutex
	out    io.Writer
	prefix string
	debug  bool
}

// NewLogger returns a logger writing "<prefix><message>\n" lines to out.
// With debug true, Debugf lines are printed too (the -v behavior);
// otherwise they are dropped.
func NewLogger(out io.Writer, prefix string, debug bool) *Logger {
	return &Logger{out: out, prefix: prefix, debug: debug}
}

// Debugf logs a debug line: suppressed unless the logger was built
// verbose. Lines carry a "debug: " marker after the prefix.
func (l *Logger) Debugf(format string, args ...any) {
	if l == nil || !l.debug {
		return
	}
	l.emit("debug: ", format, args)
}

// Infof logs an info line — the historical Logf behavior, byte-exact.
func (l *Logger) Infof(format string, args ...any) {
	if l == nil {
		return
	}
	l.emit("", format, args)
}

func (l *Logger) emit(marker, format string, args []any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.out == nil {
		return
	}
	fmt.Fprintf(l.out, l.prefix+marker+format+"\n", args...)
}
